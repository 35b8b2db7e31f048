"""Analytically controlled S-matrix blocks and trajectory ensembles.

Phase models build blocks from S^J, a sum of branches A(J) exp(2 i eta(J))
with a Gaussian amplitude profile and polynomial phase eta(J), so deflection
curves, ridge positions and cross sections all have closed forms to test
against.  Classical models emit weighted trajectory records along
prescribed theta(J) branches with optional Gaussian angular noise.

Generation is deterministic given (model, seed).

Model spec files are plain key = value text; see parse_model_file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Union

import numpy as np
from numpy.polynomial.polynomial import polyval

from ._text import InputError, read_text
from .qct import TrajectoryEnsemble, sample_ell_continuous
from .smatrix import ChannelHeader, SMatrixBlock

@dataclass(frozen=True)
class GaussianAmplitude:
    """A(J) = height * exp(-((J - center)/width)^2), height in (0, 1]."""

    center: float
    width: float
    height: float = 1.0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise InputError("amplitude width must be positive", item="width")
        if not 0.0 < self.height <= 1.0:
            raise InputError("amplitude height must lie in (0, 1]", item="height")

    def __call__(self, j: np.ndarray) -> np.ndarray:
        return self.height * np.exp(-(((j - self.center) / self.width) ** 2))


@dataclass(frozen=True)
class PhaseBranch:
    """One scattering branch: amplitude profile and eta(J) = sum c_k J^k."""

    amplitude: GaussianAmplitude
    eta_coeffs: tuple[float, ...]

    def eta(self, j: np.ndarray) -> np.ndarray:
        return polyval(j, np.asarray(self.eta_coeffs, dtype=float))

    def amplitudes(self, j: np.ndarray) -> np.ndarray:
        return self.amplitude(j) * np.exp(2j * self.eta(j))


@dataclass(frozen=True)
class PhaseModel:
    """S^J as the sum of its branches; see synth_smatrix."""

    branches: tuple[PhaseBranch, ...]

    def __post_init__(self) -> None:
        if not self.branches:
            raise InputError("phase model needs at least one branch")


def linear_phase_model(
    slope: float, center: float, width: float, height: float = 1.0
) -> PhaseModel:
    """eta(J) = slope * J / 2, so arg S^J advances by `slope` per unit J."""
    branch = PhaseBranch(GaussianAmplitude(center, width, height), (0.0, slope / 2.0))
    return PhaseModel((branch,))


def quadratic_phase_model(
    alpha: float, center: float, width: float, height: float = 1.0
) -> PhaseModel:
    """eta(J) = -alpha J(J+1)/2; the phase derivative is -alpha (2J+1)."""
    branch = PhaseBranch(
        GaussianAmplitude(center, width, height), (0.0, -alpha / 2.0, -alpha / 2.0)
    )
    return PhaseModel((branch,))


def _check_finite(amps: np.ndarray, js, key: str) -> None:
    """Reject amplitudes that overflowed, blaming the model-file key `key`."""
    if not np.all(np.isfinite(amps)):
        J = js[int(np.argmin(np.isfinite(amps)))]
        raise InputError(f"the phase overflows: amplitude at J={J} is not finite", item=key)


def _times(a: np.ndarray, p) -> np.ndarray:
    """a * p for a complex array a, rounding each real product and sum on its
    own (one ufunc per operation): the bits of a per-entry scalar complex
    product, where numpy's complex array multiply may fuse a multiply and an add."""
    out = np.empty_like(a)
    out.real = np.subtract(np.multiply(a.real, p.real), np.multiply(a.imag, p.imag))
    out.imag = np.add(np.multiply(a.real, p.imag), np.multiply(a.imag, p.real))
    return out


def synth_smatrix(model: PhaseModel, k: float, j_max: int, j_final: int = 0,
                  phase_offset: float = 0.4) -> SMatrixBlock:
    """Block S^J_{Omega' 0} = S^J exp(i Omega' phase_offset) at every |Omega'| <= min(J, j_final),
    S^J being the sum over the model's branches of A(J) e^{2 i eta(J)}; j_final = 0 gives
    the single-helicity block S^J_00.

    A sum of two or more branches whose largest |S^J| exceeds 1 is divided by it, so every
    generated block conserves flux; one branch stays within its height, at most 1.  Faults
    come in this order: j_max below 2, the header (k, j_final, j_max), a branch that
    overflows (item "branch i"), |S| > 1, then an offset phase that is not finite.
    """
    if j_max < 2:
        raise InputError("j_max must be at least 2", item="j_max")
    header = ChannelHeader(k=k, j=0, j_final=j_final, J_max=j_max)
    js = np.arange(j_max + 1)
    amps = np.zeros(j_max + 1, dtype=complex)  # from +0.0: no -0.0 part, so Omega' = 0 keeps its bits
    for i, branch in enumerate(model.branches, start=1):
        with np.errstate(all="ignore"):
            term = branch.amplitudes(js.astype(float))
        _check_finite(term, js, f"branch {i}")
        amps = amps + term
    top = np.abs(amps).max()
    if len(model.branches) > 1 and top > 1.0:
        amps = amps / top
    if np.abs(amps).max() > 1.0 + 1e-12:
        raise InputError("model produced |S| > 1")
    # the keys (J, 0, Omega') in sorted order: Omega' runs -width..width at each J
    width = np.minimum(js, header.j_final)
    count = 2 * width + 1
    J = np.repeat(js, count)
    omega_p = np.arange(len(J)) - np.repeat(np.cumsum(count) - width - 1, count)
    with np.errstate(all="ignore"):
        s = _times(amps[J], np.exp(1j * omega_p * phase_offset))
    _check_finite(s, J, "phase_offset")
    return SMatrixBlock._from_arrays(header, np.column_stack((J, np.zeros_like(J), omega_p)), s)


@dataclass(frozen=True)
class ClassicalBranch:
    """theta(u) = sum c_k u^k with u = J / J_max, output clipped to [0, pi]."""

    weight: float
    theta_coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise InputError("branch weight must be nonnegative", item="weight")

    def theta(self, u: np.ndarray) -> np.ndarray:
        return np.clip(polyval(u, np.asarray(self.theta_coeffs, dtype=float)), 0.0, np.pi)


@dataclass(frozen=True)
class ClassicalModel:
    """Deflection branches for trajectory synthesis.

    isotropic = True ignores the branches and samples theta uniformly in
    cos(theta), the no-correlation limit; 0 or 1 is stored as bool.
    """

    j_max: float
    branches: tuple[ClassicalBranch, ...] = ()
    noise_width: float = 0.0
    sigma_r: float = 1.0
    isotropic: bool = False

    def __post_init__(self) -> None:
        if self.j_max <= 0:
            raise InputError("j_max must be positive", item="j_max")
        if self.noise_width < 0:
            raise InputError("noise width must be nonnegative", item="noise_width")
        if self.isotropic not in (0, 1):
            raise InputError(f"isotropic must be 0 or 1, got {self.isotropic!r}", item="isotropic")
        object.__setattr__(self, "isotropic", bool(self.isotropic))
        if not self.isotropic and not self.branches:
            raise InputError("classical model needs branches unless isotropic")
        if not self.isotropic and sum(b.weight for b in self.branches) <= 0:
            raise InputError("branch weights must not all vanish", item="branches")


def synth_trajectories(
    model: ClassicalModel, count: int, rng: Union[int, np.random.Generator, None] = None
) -> TrajectoryEnsemble:
    """Unit-weight records with J from the (2J+1)-weighted law and theta from
    a weight-chosen branch plus Gaussian noise."""
    if count <= 0:
        raise InputError("count must be positive", item="count")
    gen = np.random.default_rng(rng)
    j = sample_ell_continuous(model.j_max, count, gen)
    if model.isotropic:
        theta = np.arccos(1.0 - 2.0 * gen.random(count))
    else:
        weights = np.array([b.weight for b in model.branches], dtype=float)
        choice = gen.choice(len(model.branches), size=count, p=weights / weights.sum())
        u = j / model.j_max
        theta = np.empty(count)
        for idx, branch in enumerate(model.branches):
            sel = choice == idx
            theta[sel] = branch.theta(u[sel])
        if model.noise_width > 0:
            theta = theta + model.noise_width * gen.standard_normal(count)
    theta = np.clip(theta, 0.0, np.pi)
    return TrajectoryEnsemble(
        weights=np.ones(count),
        j_values=j,
        thetas=theta,
        sigma_r=model.sigma_r,
        j_max=model.j_max,
    )


# constructor field -> model-file key, where the two names differ
_KEY_OF_FIELD = {"width": "w", "height": "h", "j_max": "jmax", "J_max": "jmax", "noise_width": "noise",
                 "j_final": "jp", "branches": "cbranch"}


def _on_key_line(exc: InputError, lines: Mapping[str, int]) -> InputError:
    """exc placed on the line of the model-file key its field was read from."""
    return exc.on_line(lines.get(_KEY_OF_FIELD.get(exc.item, exc.item)))


@dataclass(frozen=True)
class SynthSpec:
    """Parsed model file: the model plus generation parameters, and the
    line each key was read from ("branch i" for the i-th branch)."""

    model: Union[PhaseModel, ClassicalModel]
    k: float
    j_max_int: int
    j_final: int
    phase_offset: float
    count: int
    seed: int
    lines: Mapping[str, int] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise InputError("seed must be nonnegative", item="seed")

    def generate(self, seed: int | None = None) -> Union[SMatrixBlock, TrajectoryEnsemble]:
        """The spec's block or ensemble; seed overrides the file's seed."""
        try:
            if isinstance(self.model, ClassicalModel):
                return synth_trajectories(self.model, self.count, self.seed if seed is None else seed)
            return synth_smatrix(self.model, self.k, self.j_max_int, self.j_final, self.phase_offset)
        except InputError as exc:
            raise _on_key_line(exc, self.lines) from None


def _finite(text: str, key: str) -> float:
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise InputError(f"bad {key} value {text!r}")


# the keys each kind reads, besides kind, jmax and seed
_KIND_KEYS = {
    "classical": ("cbranch", "noise", "count", "sigma_r", "isotropic"),
    "two-branch": ("branch", "k", "jp", "phase_offset"),
    "linear": ("c", "j0", "w", "h", "k", "jp", "phase_offset"),
    "quadratic": ("alpha", "j0", "w", "h", "k", "jp", "phase_offset"),
}


def parse_model_file(source: Union[str, Path, bytes]) -> SynthSpec:
    """Read a key = value model spec from a file (a Path) or from the spec
    text itself (str or bytes).

    Common keys: kind, jmax, seed.  Phase kinds use k, j0, w, h plus c
    (linear slope) or alpha (quadratic curvature), or repeated
    'branch = h j0 w c0 c1 ...' lines; jp >= 0 and phase_offset give the
    block its Omega' columns.  Classical models use repeated
    'cbranch = weight t0 t1 ...' lines plus noise, count, sigma_r, and
    'isotropic = 1' (0 or 1) for the no-correlation limit.  Every value
    but kind is a finite number (an integer for jp, count, seed and a
    phase kind's jmax), a key other than branch and cbranch is given once,
    and the kind reads every key given; an error names the line it
    rejects, here or when the spec generates.
    """
    text = source if isinstance(source, str) else read_text(source)
    kind, values, lines = None, {}, {}
    branches: dict[str, list] = {"branch": [], "cbranch": []}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        key, eq, val = body.partition("=")
        key, val = key.strip().lower(), val.strip()
        try:
            if not eq:
                raise InputError("expected key = value")
            if key in lines and key not in branches:
                raise InputError(f"duplicate '{key} =' line")
            if key == "kind":
                kind = val
            elif key in branches:
                row = [_finite(tok, key) for tok in val.split()]
                # h j0 w c0 ... or weight t0 ...: at least one polynomial coefficient
                need = 4 if key == "branch" else 2
                if len(row) < need:
                    raise InputError(f"'{key} =' needs at least {need} numbers, got {len(row)}")
                branches[key].append(
                    PhaseBranch(GaussianAmplitude(row[1], row[2], row[0]), tuple(row[3:]))
                    if key == "branch" else ClassicalBranch(row[0], tuple(row[1:]))
                )
                lines[f"{key} {len(branches[key])}"] = lineno
            else:
                values[key] = _finite(val, key)
        except InputError as exc:
            raise exc.on_line(lineno) from None
        lines.setdefault(key, lineno)

    if kind is None:
        raise InputError("model file is missing its 'kind' entry")
    if kind not in _KIND_KEYS:
        raise InputError(f"unknown model kind {kind!r}", lines["kind"])
    integral = ("count", "seed") if kind == "classical" else ("jp", "seed", "jmax")  # classical jmax is real
    for key in sorted([*values, *filter(branches.get, branches)], key=lines.get):
        if key not in ("jmax", "seed", *_KIND_KEYS[kind]):
            raise InputError(f"kind {kind} does not read '{key} ='", lines[key])
        if key in integral and not values[key].is_integer():
            raise InputError(f"'{key} =' must be an integer, got {values[key]!r}", lines[key])
    for key in ("c", "alpha"):  # a linear or quadratic model's one branch takes its phase from this line
        if key in lines:
            lines["branch 1"] = lines[key]
    get = values.get
    try:
        if kind == "classical":
            model: Union[PhaseModel, ClassicalModel] = ClassicalModel(
                j_max=get("jmax", 60.0), branches=tuple(branches["cbranch"]), noise_width=get("noise", 0.0),
                sigma_r=get("sigma_r", 1.0), isotropic=get("isotropic", 0))
        elif kind == "two-branch":
            if len(branches["branch"]) < 2:
                raise InputError("two-branch model needs two 'branch = ...' lines")
            model = PhaseModel(tuple(branches["branch"]))
        elif kind == "linear":
            model = linear_phase_model(get("c", -0.3), get("j0", 30.0), get("w", 8.0), get("h", 1.0))
        elif kind == "quadratic":
            model = quadratic_phase_model(get("alpha", 0.02), get("j0", 30.0), get("w", 8.0), get("h", 1.0))
        return SynthSpec(model, get("k", 1.0), int(get("jmax", 60)), int(get("jp", 0)),
                         get("phase_offset", 0.4), int(get("count", 10000)), int(get("seed", 0)),
                         lines)
    except InputError as exc:
        raise _on_key_line(exc, lines) from None
