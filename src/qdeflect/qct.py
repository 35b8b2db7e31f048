"""Trajectory-ensemble estimators: opacity, J-partial cross section, DCS,
and the joint (theta, J) distribution, by Legendre moments or Gaussian
kernels.

An ensemble is a weighted list of reactive (or inelastic) records
(w_i, J_i, theta_i) plus the ensemble-level integral cross section used as
the overall normalization; the estimators shape distributions, they never
compute absolute cross sections from counts.  The J distribution is
expanded in the reduced variable

    x(J) = 2 J(J+1) / [J_max (J_max+1)] - 1,   x in [-1, 1],

which is uniform under the standard ell(ell+1) = xi * ell_max(ell_max+1)
sampling law, so dx/dJ = 2(2J+1)/[J_max(J_max+1)] carries the (2J+1)
degeneracy.  Gaussian kernels follow G(u) = exp(-(u/s)^2) / (s sqrt(pi)), of
unit integral, cut to exactly 0 past |u| = sqrt(700) s (1e-304 of the peak),
or nearer in for s above ~2500, where the cut keeps every nonzero value normal;
s is the primary width parameter.  The FWHM of G is 2 sqrt(ln 2) s; the
other convention in circulation takes s = FWHM / ln 2.

Moment accumulation is a reduction over records; kernel evaluation is
data-parallel over grid points.
"""

from __future__ import annotations

import math
import re
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from numpy.polynomial.legendre import legval, legvander

from ._text import (MAX_MOMENTUM, NUMBER_START, Destination, InputError, Source, distinct_values, first_failure,
                    read_records, read_text, write_text)
from .angular import AngularCurve, AngularGrid, DeflectionMap

# records per chunk: one chunk's theta kernel is len(grid) x _CHUNK doubles (11.8 MB on the 0.25 deg
# grid), and the map's record sum is grouped by chunk, so its last bits follow _CHUNK
_CHUNK = 2048
_ROWS = (1 << 16) // _CHUNK  # theta-kernel rows per block: a block of 2^16 doubles (512 KB) stays in cache
_EXP_FLOOR = -700.0  # np.exp's fast SIMD lanes start here; the kernel is cut to exactly 0 below it


class GibbsOscillationWarning(UserWarning):
    """Truncated Legendre expansion of a nonnegative density undershoots."""


@dataclass(frozen=True, eq=False)
class TrajectoryEnsemble:
    """Weighted reactive records (w_i, J_i, theta_i) with normalization data.

    j_values are real (continuous sampling) or integer-valued (discrete);
    thetas are radians in [0, pi].
    """

    weights: np.ndarray
    j_values: np.ndarray
    thetas: np.ndarray
    sigma_r: float
    j_max: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        j = np.asarray(self.j_values, dtype=float)
        t = np.asarray(self.thetas, dtype=float)
        if not (w.shape == j.shape == t.shape) or w.ndim != 1:
            raise InputError("weights, j_values, thetas must be 1-D and congruent")
        if not 0 < self.j_max <= MAX_MOMENTUM:  # "in range", so that NaN fails too
            raise InputError("j_max must be positive and at most 2^30", item="j_max")
        if not (math.isfinite(self.sigma_r) and self.sigma_r >= 0):
            raise InputError("sigma_r must be nonnegative and finite", item="sigma_r")
        # each written as "in range" so that NaN fails too
        failure = first_failure((w >= 0) & (w < np.inf), (t >= 0) & (t <= np.pi),
                                (j >= 0) & (j <= self.j_max))
        if failure is not None:
            raise InputError(("weights must be finite and nonnegative", "thetas must lie in [0, pi]",
                              "j_values must lie in [0, j_max]")[failure[1]], item=failure[0])
        for arr, name in ((w, "weights"), (j, "j_values"), (t, "thetas")):
            (arr := arr.view()).setflags(write=False)  # a view: the caller's own array stays writable
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.weights.size)


def _require_weights(ensemble: TrajectoryEnsemble) -> float:
    sw = float(np.sum(ensemble.weights))
    if sw <= 0.0:
        raise ValueError("estimators need a positive total weight")
    return sw


def reduced_x(j: np.ndarray | float, j_max: float) -> np.ndarray | float:
    """Map J in [0, J_max] onto x in [-1, 1] with the degeneracy-weighted law."""
    return 2.0 * j * (j + 1.0) / (j_max * (j_max + 1.0)) - 1.0


def _dx_dj(j: np.ndarray | float, j_max: float) -> np.ndarray | float:
    return 2.0 * (2.0 * j + 1.0) / (j_max * (j_max + 1.0))


@dataclass(frozen=True, eq=False)
class LegendreDF:
    """Legendre-moment representation of the (theta, J) distribution.

    a_m: DCS coefficients; b_n: J-density coefficients; alpha_mn: joint
    coefficients.  Zeroth moments are exactly a_0 = b_0 = 1/2 and
    alpha_00 = 1/4 for any nonempty weighted ensemble.
    """

    a: np.ndarray
    b: np.ndarray
    alpha: np.ndarray
    j_max: float
    sigma_r: float

    def dcs(self, thetas: np.ndarray) -> np.ndarray:
        return self.sigma_r / (2.0 * np.pi) * legval(np.cos(thetas), self.a)

    def sigma_j(self, j: np.ndarray | float) -> np.ndarray | float:
        x = reduced_x(j, self.j_max)
        return self.sigma_r * _dx_dj(j, self.j_max) * legval(x, self.b)

    def joint(self, thetas: np.ndarray, j: np.ndarray) -> np.ndarray:
        """sin(theta)-weighted joint density on the (theta, j) product grid."""
        vt = legvander(np.cos(thetas), self.alpha.shape[0] - 1)
        vx = legvander(reduced_x(np.asarray(j, dtype=float), self.j_max),
                       self.alpha.shape[1] - 1)
        core = vt @ self.alpha @ vx.T
        pref = self.sigma_r / (2.0 * np.pi) * _dx_dj(np.asarray(j, dtype=float), self.j_max)
        return np.sin(thetas)[:, None] * core * pref[None, :]


def fit_legendre_df(
    ensemble: TrajectoryEnsemble, order_theta: int = 20, order_j: int = 20
) -> LegendreDF:
    """Weighted Legendre moments of the ensemble, through the given orders.

    Warns when a reconstructed marginal dips below -2% of its own maximum,
    the usual Gibbs signature of over-truncated expansions.
    """
    if order_theta < 0 or order_j < 0:
        raise ValueError("expansion orders must be nonnegative")
    _require_weights(ensemble)
    w = ensemble.weights
    vt = legvander(np.cos(ensemble.thetas), order_theta)  # (N, M+1)
    vx = legvander(reduced_x(ensemble.j_values, ensemble.j_max), order_j)

    raw_a = vt.T @ w
    raw_b = vx.T @ w
    raw_alpha = np.multiply(vt, w[:, None], out=vt).T @ vx  # weighted in place: vt is not read again

    m = np.arange(order_theta + 1)
    n = np.arange(order_j + 1)
    a = (2 * m + 1) / 2.0 * raw_a / raw_a[0]
    b = (2 * n + 1) / 2.0 * raw_b / raw_b[0]
    alpha = ((2 * m[:, None] + 1) * (2 * n[None, :] + 1) / 4.0) * raw_alpha / raw_alpha[0, 0]

    df = LegendreDF(a, b, alpha, ensemble.j_max, ensemble.sigma_r)
    _warn_on_gibbs(df)
    return df


def _warn_on_gibbs(df: LegendreDF) -> None:
    probe_t = np.linspace(0.0, np.pi, 181)
    probe_j = np.linspace(0.0, df.j_max, 201)
    for label, vals in (("theta", df.dcs(probe_t)), ("J", np.asarray(df.sigma_j(probe_j)))):
        top = vals.max()
        if top > 0 and vals.min() < -0.02 * top:
            warnings.warn(
                f"reconstructed {label} marginal undershoots below -2% of its "
                "maximum; consider lowering the expansion order",
                GibbsOscillationWarning,
                stacklevel=3,
            )


def qct_sigma_j_legendre(
    ensemble: TrajectoryEnsemble, order: int = 20
) -> Callable[[np.ndarray], np.ndarray]:
    """J-partial cross section as a function of J, from Legendre moments."""
    df = fit_legendre_df(ensemble, 0, order)
    return df.sigma_j


def qct_dcs_legendre(
    ensemble: TrajectoryEnsemble, order: int, grid: AngularGrid
) -> AngularCurve:
    df = fit_legendre_df(ensemble, order, 0)
    return AngularCurve(grid, df.dcs(grid.thetas))


def _j_axis(ensemble: TrajectoryEnsemble) -> np.ndarray:
    """The integer J an estimator reports when none are asked for: 0..floor(J_max)."""
    return np.arange(int(math.floor(ensemble.j_max)) + 1)


def qct_df_legendre(
    ensemble: TrajectoryEnsemble,
    order_theta: int,
    order_j: int,
    grid: AngularGrid,
    j_values: np.ndarray | None = None,
) -> DeflectionMap:
    df = fit_legendre_df(ensemble, order_theta, order_j)
    if j_values is None:
        j_values = _j_axis(ensemble)
    return DeflectionMap(grid, j_values, df.joint(grid.thetas, j_values))


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian kernel widths: s_j in J units, s_theta in radians."""

    s_j: float
    s_theta: float

    def __post_init__(self) -> None:
        if not (0 < self.s_j < math.inf and 0 < self.s_theta < math.inf):  # "in range", so that NaN fails too
            raise ValueError("kernel widths must be positive and finite")


def kernel_width(values: np.ndarray, step: float, axis: str) -> float:
    """The kernel width for one axis: twice the mean spacing of the distinct
    values, but at least the axis's grid step, so the kernel spans a grid
    cell.  `axis` names the axis in the error raised when all values are equal."""
    distinct = distinct_values(np.sort(values, axis=None))
    if distinct.size < 2:
        raise ValueError(f"every record has the same {axis}, so no {axis} kernel width can be worked out")
    return max(2.0 * float(np.mean(np.diff(distinct))), step)


def _exp(x: np.ndarray, floor: float = _EXP_FLOOR) -> np.ndarray:
    """np.exp(x) where x >= floor and exactly 0 below it (NaN stays NaN), in
    place in the C-contiguous float array x; with floor >= _EXP_FLOOR every
    lane takes np.exp's fast path, and no subnormal value is formed."""
    keep = x >= floor
    np.maximum(x, floor, out=x)
    np.exp(x, out=x)
    return np.multiply(x, keep, out=x)  # zeroes lanes below floor, faster than a masked copy


def _gauss(u: np.ndarray, s: float) -> np.ndarray:
    """exp(-(u/s)^2) / (s sqrt(pi)), cut to exactly 0 where (u/s)^2 > 700, in
    place in the C-contiguous float array u.  Above s ~ 2500 the cut moves in
    to where the value would fall below the smallest normal double."""
    norm = s * math.sqrt(math.pi)
    with np.errstate(over="ignore"):  # a tiny s sends (u/s)^2 to inf, which the cut zeroes
        np.divide(u, s, out=u)
        np.square(u, out=u)
    np.negative(u, out=u)
    floor = math.log(sys.float_info.min) + math.log(norm) + 1e-9  # margin for the rounding of log, exp and /
    return np.divide(_exp(u, max(_EXP_FLOOR, floor)), norm, out=u)


def qct_sigma_j_gaussian(
    ensemble: TrajectoryEnsemble, config: KernelConfig
) -> Callable[[np.ndarray], np.ndarray]:
    """J-partial cross section as a kernel sum (sigma_r / S_w) sum w G(J - J_i)."""
    pref = ensemble.sigma_r / _require_weights(ensemble)
    centers, weights = ensemble.j_values, ensemble.weights

    def evaluate(j: np.ndarray | float) -> np.ndarray | float:
        j_arr = np.atleast_1d(np.asarray(j, dtype=float))
        out = np.zeros_like(j_arr)
        for lo in range(0, centers.size, _CHUNK):
            blk = slice(lo, lo + _CHUNK)
            out += _gauss(j_arr[:, None] - centers[blk][None, :], config.s_j) @ weights[blk]
        out *= pref
        return out if np.ndim(j) else float(out[0])

    return evaluate


def qct_df_gaussian(
    ensemble: TrajectoryEnsemble,
    config: KernelConfig,
    grid: AngularGrid,
    j_values: np.ndarray | None = None,
    renormalize_boundary: bool = False,
) -> DeflectionMap:
    """Joint map as a sum of separable Gaussian bumps, one per record.

    Kernel mass leaking past theta = 0, pi or J = 0, J_max is lost unless
    renormalize_boundary is set, which rescales each record by its
    in-domain kernel fraction.
    """
    sw = _require_weights(ensemble)
    if j_values is None:
        j_values = _j_axis(ensemble)
    j_values = np.asarray(j_values)

    weights = ensemble.weights
    if renormalize_boundary:
        erf = lambda x: np.fromiter(map(math.erf, x.tolist()), float, count=x.size)  # noqa: E731
        inside = lambda x, hi, s: 0.5 * (erf((hi - x) / s) + erf(x / s))  # noqa: E731
        weights = weights / (inside(ensemble.thetas, np.pi, config.s_theta)
                             * inside(ensemble.j_values, ensemble.j_max, config.s_j))

    values = np.zeros((len(grid), j_values.size))
    # one workspace holds every chunk's theta kernel in turn, so no two kernels are alive at once
    workspace = np.empty(len(grid) * min(len(ensemble), _CHUNK))
    for lo in range(0, len(ensemble), _CHUNK):
        blk = slice(lo, lo + _CHUNK)
        # the kernel is the workspace's head as one C-contiguous (grid, chunk) array, never a strided
        # slice: the matmul's bits depend on its operand's layout; filled in cache-sized row blocks
        thetas = ensemble.thetas[blk]
        g_theta = workspace[: len(grid) * thetas.size].reshape(len(grid), thetas.size)
        for r0 in range(0, len(grid), _ROWS):
            rows = slice(r0, r0 + _ROWS)
            _gauss(np.subtract(grid.thetas[rows, None], thetas, out=g_theta[rows]), config.s_theta)
        g_j = _gauss(ensemble.j_values[blk][:, None] - j_values[None, :].astype(float), config.s_j)
        values += g_theta @ np.multiply(g_j, weights[blk][:, None], out=g_j)
    values *= ensemble.sigma_r / (2.0 * np.pi * sw)
    return DeflectionMap(grid, j_values, values)


def sample_ell_continuous(
    j_max: float, count: int, rng: Union[int, np.random.Generator, None] = None
) -> np.ndarray:
    """Draw J with the (2J+1)-weighted law J(J+1) = xi * J_max(J_max+1)."""
    if count <= 0:
        raise ValueError("count must be positive")
    gen = np.random.default_rng(rng)
    xi = gen.random(count)
    d = j_max * (j_max + 1.0)
    return np.clip(0.5 * (np.sqrt(1.0 + 4.0 * xi * d) - 1.0), 0.0, j_max)


# ---------------------------------------------------------------------------
# trajectory file format: '#' comments carry sigma_r and j_max; records
# are "<w> <J> <theta_deg>" lines.

_HEADER_RE = re.compile(r"#\s*(sigma_r|j_max)\b(.*)")
_HEADER_FORM = re.compile(r"\s*=\s*(\S+)")


def load_trajectories(source: Source) -> TrajectoryEnsemble:
    """Read an ensemble; a '#' line whose first word is sigma_r or j_max
    must be that header, '= value' with nothing after it, once; other '#'
    lines are comments."""
    meta: dict[str, float] = {}
    meta_lines: dict[str, int] = {}
    lines = read_text(source).splitlines()
    record_lines: list[int] = []
    fault = None
    try:
        for lineno, raw in enumerate(lines, start=1):
            if raw[:1] in NUMBER_START or raw.lstrip()[:1] not in ("", "#"):
                record_lines.append(lineno)
            elif m := _HEADER_RE.match(raw.strip()):
                if not (value := _HEADER_FORM.fullmatch(m[2])):
                    raise InputError(f"malformed '# {m[1]}' line", lineno)
                if m[1] in meta_lines:
                    raise InputError(f"duplicate '# {m[1]}' line", lineno)
                meta_lines[m[1]] = lineno
                try:
                    meta[m[1]] = float(value[1])
                except ValueError:
                    raise InputError(f"bad {m[1]} value {value[1]!r}", lineno) from None
    except InputError as exc:
        fault = exc  # the record lines gathered are the ones before it, and a fault on one comes first
    columns, n_read = read_records(lines, record_lines, (float, float, float))
    if n_read < len(record_lines):
        raw = lines[record_lines[n_read] - 1]
        raise InputError(f"malformed record {raw.strip()!r}" if len(raw.split()) == 3 else
                         "expected 'w J theta_deg'", record_lines[n_read])
    if fault is not None:
        raise fault
    for key in ("sigma_r", "j_max"):
        if key not in meta:
            raise InputError(f"trajectory header is missing '# {key} = ...'")
    try:
        return TrajectoryEnsemble(
            weights=columns[0],
            j_values=columns[1],
            thetas=np.radians(columns[2]),
            sigma_r=meta["sigma_r"],
            j_max=meta["j_max"],
        )
    except InputError as exc:
        if isinstance(exc.item, str):
            raise exc.on_line(meta_lines[exc.item]) from None
        raise exc.on_line(record_lines[exc.item]) from None


def save_trajectories(ensemble: TrajectoryEnsemble, destination: Destination) -> None:
    lines = [
        "# qct trajectory ensemble",
        f"# sigma_r = {float(ensemble.sigma_r)!r}",
        f"# j_max = {float(ensemble.j_max)!r}",
        "# columns: w J theta_deg",
    ]
    degs = np.degrees(ensemble.thetas)
    lines += [
        f"{float(w)!r} {float(j)!r} {float(t)!r}"
        for w, j, t in zip(ensemble.weights, ensemble.j_values, degs)
    ]
    write_text("\n".join(lines) + "\n", destination)
