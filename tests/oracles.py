"""Independent reference implementations used only by the tests."""

import math
import re

import mpmath as mp
import numpy as np

from qdeflect._text import InputError, read_text
from qdeflect.qct import _CHUNK, TrajectoryEnsemble
from qdeflect.qmdf import DeflectionMap
from qdeflect.smatrix import DEFAULT_K_UNIT, ChannelHeader, SMatrixBlock
from qdeflect.synth import PhaseModel, _check_finite
from qdeflect.wigner import wigner_d_rows


def wigner_d_exact(J, omega_p, omega, theta, dps=140):
    """Explicit factorial-sum formula in extended precision.

    Overflows double precision past J ~ 85, so it lives here as an oracle
    and never on any production path.
    """
    with mp.workdps(dps):
        c = mp.cos(mp.mpf(theta) / 2)
        s = mp.sin(mp.mpf(theta) / 2)
        pre = mp.sqrt(
            mp.factorial(J + omega)
            * mp.factorial(J - omega)
            * mp.factorial(J + omega_p)
            * mp.factorial(J - omega_p)
        )
        total = mp.mpf(0)
        lo = max(0, omega - omega_p)
        hi = min(J + omega, J - omega_p)
        for t in range(lo, hi + 1):
            den = (
                mp.factorial(J + omega - t)
                * mp.factorial(t)
                * mp.factorial(omega_p - omega + t)
                * mp.factorial(J - omega_p - t)
            )
            total += (
                (-1) ** (omega_p - omega + t)
                * c ** (2 * J + omega - omega_p - 2 * t)
                * s ** (omega_p - omega + 2 * t)
                / den
            )
        return float(pre * total)


def partial_amplitude_rows(block, omega, omega_p, grid):
    """Per-pair reference for the amplitude stream: f^J rows, shape
    (J_max + 1, len(grid)), from the pair's own Wigner table; rows without
    an entry are zero."""
    h = block.header
    rows = np.zeros((h.J_max + 1, len(grid)), dtype=complex)
    js, amps = block.j_column(omega, omega_p)
    if js.size == 0:
        return rows
    dtab = [d[0].copy() for _, d in wigner_d_rows([(omega_p, omega)], grid.thetas, range(int(js.max()) + 1))]
    pref = 1.0 / (2j * h.k)
    for J, s in zip(js, amps):
        rows[J] = pref * (2 * J + 1) * s * dtab[J]
    return rows


def sum_rows(rows):
    """Sequential sum over the leading axis, from zero."""
    total = np.zeros_like(rows[0])
    for row in rows:
        total = total + row
    return total


def reference_dcs(block, grid, j_lo=0, j_hi=None):
    """DCS, or windowed DCS, one pair at a time."""
    j_hi = block.header.J_max if j_hi is None else j_hi
    total = np.zeros(len(grid))
    for omega, omega_p in block.pairs.tolist():
        rows = partial_amplitude_rows(block, omega, omega_p, grid)
        total += np.abs(sum_rows(rows[j_lo : j_hi + 1])) ** 2
    return total / (2 * block.header.j + 1)


def reference_helicity_map(block, omega_p, grid):
    """Q restricted to one product helicity, accumulated pair by pair."""
    h = block.header
    total = np.zeros((len(grid), h.J_max + 1))
    for omega, op in block.pairs.tolist():
        if op != omega_p:
            continue
        rows = partial_amplitude_rows(block, omega, omega_p, grid)
        total = total + np.real(rows * np.conj(sum_rows(rows))[None, :]).T
    return total * (grid.sin_thetas / (2 * h.j + 1))[:, None]


def reference_qmdf_map(block, grid):
    total = np.zeros((len(grid), block.header.J_max + 1))
    for omega_p in sorted({op for _, op in block.pairs.tolist()}):
        total = total + reference_helicity_map(block, omega_p, grid)
    return total


def reference_random_phase_map(block, grid):
    h = block.header
    total = np.zeros((len(grid), h.J_max + 1))
    for omega, omega_p in block.pairs.tolist():
        total = total + (np.abs(partial_amplitude_rows(block, omega, omega_p, grid)) ** 2).T
    return total * (grid.sin_thetas / (2 * h.j + 1))[:, None]


def brute_force_qmdf(block, grid):
    """Literal symmetrized double sum over (J1, J2) partial amplitudes.

    O(J_max^2) per angle; returns (map values, worst imaginary residue).
    """
    h = block.header
    n_j = h.J_max + 1
    values = np.zeros((len(grid), n_j), dtype=complex)
    for omega, omega_p in block.pairs.tolist():
        rows = partial_amplitude_rows(block, omega, omega_p, grid)
        for J in range(n_j):
            for j1 in range(n_j):
                for j2 in range(n_j):
                    delta = (1.0 if j1 == J else 0.0) + (1.0 if j2 == J else 0.0)
                    if delta:
                        values[:, J] += 0.5 * delta * rows[j1] * np.conj(rows[j2])
    values *= (grid.sin_thetas / (2 * h.j + 1))[:, None]
    worst_imag = float(np.abs(values.imag).max())
    return values.real, worst_imag


def convolve_all_taps(values, kernel, axis):
    """qmdf._convolve_zero_padded as it was before it skipped the taps that
    reach only padding: every tap of the kernel, padded by its full radius."""
    r = kernel.size // 2
    x = np.moveaxis(values, axis, 0)
    n = x.shape[0]
    padded = np.zeros((n + 2 * r,) + x.shape[1:])
    padded[r : r + n] = x
    out = padded[r : r + n] * kernel[r]
    for j in range(r, 0, -1):
        out += (padded[r - j : r - j + n] + padded[r + j : r + j + n]) * kernel[r - j]
    return np.moveaxis(out, 0, axis)


def sum_sq_at_j(block, J):
    """sum over (Omega, OmegaPrime) of |S^J|^2 as one scan of the sorted entries at J:
    abs(v) ** 2 per entry, added left to right from 0.0; 0.0 where J has no entry."""
    by_j = block.keys[:, 0]
    lo, hi = np.searchsorted(by_j, J, "left"), np.searchsorted(by_j, J, "right")
    total = 0.0
    for v in block.amps[lo:hi].tolist():
        total += abs(v) ** 2
    return total


def per_j_reference(block, J):
    """(P(J), sigma^J) from sum_sq_at_j, one J at a time, in the package's order of operations."""
    h = block.header
    s = sum_sq_at_j(block, J)
    return s / (2 * min(J, h.j) + 1), np.pi / h.k**2 * (2 * J + 1) / (2 * h.j + 1) * s


def integral_cross_section_reference(block):
    """sigma^J over the J with entries, added left to right from 0.0."""
    total = 0.0
    for J in block.js.tolist():
        total += per_j_reference(block, J)[1]
    return total


def load_smatrix_per_line(source):
    """The S-matrix loader as it read one line at a time: per-line checks in
    file order, the entries in a dict, and the line of a block error found
    by rescanning.  The reference for the column-wise loader."""
    lines = read_text(source).splitlines()

    k = None
    k_unit = DEFAULT_K_UNIT
    channel = {}
    energy_label = ""
    entries = {}

    for lineno, raw in enumerate(lines, start=1):
        body, _, comment = raw.partition("#")
        fields = body.split()
        if not fields:
            comment = comment.strip()
            if comment.startswith("energy:"):
                energy_label = comment[len("energy:"):].strip()
            continue
        if fields[0] == "k":
            if k is not None:
                raise InputError("duplicate k line", lineno)
            if len(fields) < 2:
                raise InputError("k line needs a value", lineno)
            try:
                k = float(fields[1])
            except ValueError:
                raise InputError(f"bad wavenumber {fields[1]!r}", lineno) from None
            if len(fields) > 3:
                raise InputError(f"unexpected {fields[3]!r} after the k unit", lineno)
            if len(fields) == 3:
                k_unit = fields[2]
            k_line = lineno
        elif fields[0] == "channel":
            if channel:
                raise InputError("duplicate channel line", lineno)
            for item in fields[1:]:
                if "=" not in item:
                    raise InputError(f"bad channel field {item!r}", lineno)
                name, _, val = item.partition("=")
                if name in channel or name not in ("j", "jp", "v", "vp", "Jmax"):
                    raise InputError(
                        f"{'repeated' if name in channel else 'unknown'} channel field {name!r}", lineno)
                try:
                    channel[name] = int(val)
                except ValueError:
                    raise InputError(f"bad channel value {item!r}", lineno) from None
            missing = {"j", "jp", "v", "vp", "Jmax"} - channel.keys()
            if missing:
                raise InputError(f"channel line missing {sorted(missing)}", lineno)
            channel_line = lineno
        else:
            if k is None or not channel:
                raise InputError("entries must follow the k and channel lines", lineno)
            if len(fields) != 5:
                raise InputError(
                    f"expected 'J Omega OmegaPrime Re Im', got {len(fields)} fields", lineno
                )
            try:
                key = (int(fields[0]), int(fields[1]), int(fields[2]))
                value = complex(float(fields[3]), float(fields[4]))
            except ValueError:
                raise InputError(f"malformed entry {body.strip()!r}", lineno) from None
            if key in entries:
                raise InputError(
                    f"duplicate entry for (J={key[0]}, Omega={key[1]}, Omega'={key[2]})", lineno
                )
            entries[key] = value

    if k is None:
        raise InputError("missing k line", len(lines) or 1)
    if not channel:
        raise InputError("missing channel line", len(lines) or 1)

    try:
        header = ChannelHeader(k, channel["j"], channel["jp"], channel["v"], channel["vp"],
                               channel["Jmax"], k_unit, energy_label)
    except InputError as exc:
        raise exc.on_line(k_line if exc.item == "k" else channel_line) from None
    try:
        return SMatrixBlock(header, entries)
    except InputError as exc:
        # entries are built in file order: item i sits on the i-th entry line
        entry_lines = [n for n, raw in enumerate(lines, start=1)
                       if raw.partition("#")[0].split()[:1] not in ([], ["k"], ["channel"])]
        raise exc.on_line(entry_lines[exc.item]) from None


def load_trajectories_per_line(source):
    """The trajectory loader one line at a time: each header and each
    record read and checked in file order, the first fault raised on its
    line.  The reference for the column-wise loader."""
    lines = read_text(source).splitlines()
    meta, meta_lines, records, record_lines = {}, {}, [], []
    for lineno, raw in enumerate(lines, start=1):
        if raw.lstrip()[:1] in ("", "#"):
            m = re.match(r"#\s*(sigma_r|j_max)\b(.*)", raw.strip())
            if not m:
                continue
            value = re.fullmatch(r"\s*=\s*(\S+)", m[2])
            if not value:
                raise InputError(f"malformed '# {m[1]}' line", lineno)
            if m[1] in meta_lines:
                raise InputError(f"duplicate '# {m[1]}' line", lineno)
            meta_lines[m[1]] = lineno
            try:
                meta[m[1]] = float(value[1])
            except ValueError:
                raise InputError(f"bad {m[1]} value {value[1]!r}", lineno) from None
            continue
        fields = raw.split()
        if len(fields) != 3:
            raise InputError("expected 'w J theta_deg'", lineno)
        try:
            records.append([float(field) for field in fields])
        except ValueError:
            raise InputError(f"malformed record {raw.strip()!r}", lineno) from None
        record_lines.append(lineno)

    for key in ("sigma_r", "j_max"):
        if key not in meta:
            raise InputError(f"trajectory header is missing '# {key} = ...'")
    sigma_r, j_max = meta["sigma_r"], meta["j_max"]
    if not (math.isfinite(j_max) and 0 < j_max <= 2**30):
        raise InputError("j_max must be positive and at most 2^30", meta_lines["j_max"])
    if not (math.isfinite(sigma_r) and sigma_r >= 0):
        raise InputError("sigma_r must be nonnegative and finite", meta_lines["sigma_r"])
    weights, j_values, degrees = np.array(records, dtype=float).reshape(-1, 3).T
    thetas = np.radians(degrees)
    for lineno, w, j, theta in zip(record_lines, weights.tolist(), j_values.tolist(), thetas.tolist()):
        for ok, message in ((0 <= w < math.inf, "weights must be finite and nonnegative"),
                            (0 <= theta <= math.pi, "thetas must lie in [0, pi]"),
                            (0 <= j <= j_max, "j_values must lie in [0, j_max]")):
            if not ok:
                raise InputError(message, lineno)
    return TrajectoryEnsemble(weights, j_values, thetas, sigma_r, j_max)


def exp_reference(x, floor=-700.0):
    """exp cut at floor (-700 unless a wide kernel raises it), as one
    expression: exp on every lane, exactly 0 where x is below floor (NaN
    stays NaN)."""
    return np.where(x < floor, 0.0, np.exp(x))


def gauss_reference(u, s):
    """The truncated Gaussian kernel as one expression, by exp_reference: cut
    at -700, or where exp / (s sqrt(pi)) would fall below the least normal
    double, whichever cuts more."""
    norm = s * math.sqrt(math.pi)
    floor = max(-700.0, math.log(np.finfo(float).tiny) + math.log(norm) + 1e-9)
    return exp_reference(-((u / s) ** 2), floor) / norm


def gauss_untruncated(u, s):
    """The Gaussian kernel before the cut at -700, exp on every lane."""
    return np.exp(-((u / s) ** 2)) / (s * math.sqrt(math.pi))


def qct_sigma_j_gaussian_reference(ensemble, config, j):
    """sigma_J as the kernel sum was evaluated before the in-place kernel:
    one full-size temporary per step, in the same record chunks."""
    centers, weights = ensemble.j_values, ensemble.weights
    j_arr = np.atleast_1d(np.asarray(j, dtype=float))
    out = np.zeros_like(j_arr)
    for lo in range(0, centers.size, _CHUNK):
        blk = slice(lo, lo + _CHUNK)
        out += gauss_reference(j_arr[:, None] - centers[blk][None, :], config.s_j) @ weights[blk]
    out *= ensemble.sigma_r / float(np.sum(ensemble.weights))
    return out


def qct_df_gaussian_reference(ensemble, config, grid, j_values=None, renormalize_boundary=False,
                              kernel=gauss_reference):
    """The joint Gaussian map with the whole theta kernel of a chunk formed
    at once by `kernel`; with gauss_reference, the reference for qct_df_gaussian."""
    sw = float(np.sum(ensemble.weights))
    if j_values is None:
        j_values = np.arange(int(math.floor(ensemble.j_max)) + 1)
    j_values = np.asarray(j_values)
    weights = ensemble.weights
    if renormalize_boundary:
        erf = np.vectorize(math.erf, otypes=[float])
        f_theta = 0.5 * (erf((np.pi - ensemble.thetas) / config.s_theta)
                         + erf(ensemble.thetas / config.s_theta))
        f_j = 0.5 * (erf((ensemble.j_max - ensemble.j_values) / config.s_j)
                     + erf(ensemble.j_values / config.s_j))
        weights = weights / (f_theta * f_j)
    values = np.zeros((len(grid), j_values.size))
    for lo in range(0, len(ensemble), _CHUNK):
        blk = slice(lo, lo + _CHUNK)
        g_theta = kernel(grid.thetas[:, None] - ensemble.thetas[blk][None, :], config.s_theta)
        g_j = kernel(ensemble.j_values[blk][:, None] - j_values[None, :].astype(float), config.s_j)
        values += g_theta @ (weights[blk][:, None] * g_j)
    values *= ensemble.sigma_r / (2.0 * np.pi * sw)
    return DeflectionMap(grid, j_values, values)


# The synth generators as they were before the array path: a dict per
# block and one scalar product per entry; the array generator keeps their bits.

def synth_smatrix_per_entry(model: PhaseModel, k: float, j_max: int) -> SMatrixBlock:
    """Single-helicity block S^J_00 = sum over branches of A(J) e^{2 i eta(J)}.

    Branch sums exceeding unit magnitude are rescaled to the unit circle,
    which keeps every generated block flux-conserving by construction.
    """
    if j_max < 2:
        raise InputError("j_max must be at least 2", item="j_max")
    js = np.arange(j_max + 1)
    amps = np.zeros(j_max + 1, dtype=complex)
    for i, branch in enumerate(model.branches, start=1):
        with np.errstate(all="ignore"):
            term = branch.amplitudes(js.astype(float))
        _check_finite(term, js, f"branch {i}")
        amps = amps + term
    top = np.abs(amps).max()
    if len(model.branches) > 1 and top > 1.0:
        amps = amps / top
    if np.abs(amps).max() > 1.0 + 1e-12:
        raise ValueError("model produced |S| > 1")
    header = ChannelHeader(k=k, j=0, j_final=0, J_max=j_max)
    entries = {(int(J), 0, 0): complex(amps[J]) for J in js}
    return SMatrixBlock(header, entries)


def synth_smatrix_helicity_per_entry(
    model: PhaseModel,
    k: float,
    j_final: int,
    j_max: int,
    phase_offset: float = 0.4,
) -> SMatrixBlock:
    """Replicate the model block across product helicities Omega'.

    Each Omega' column carries a fixed extra phase Omega' * phase_offset;
    entries appear only where |Omega'| <= min(J, j_final).
    """
    base = synth_smatrix_per_entry(model, k, j_max)
    entries: dict[tuple[int, int, int], complex] = {}
    with np.errstate(all="ignore"):
        for (J, _, _), s in base.entries.items():
            for omega_p in range(-min(J, j_final), min(J, j_final) + 1):
                entries[(J, 0, omega_p)] = s * np.exp(1j * omega_p * phase_offset)
    _check_finite(np.array(list(entries.values())), [J for J, _, _ in entries], "phase_offset")
    header = ChannelHeader(k=k, j=0, j_final=j_final, J_max=j_max)
    return SMatrixBlock(header, entries)


def scaled_per_entry(block: SMatrixBlock, factor: complex) -> SMatrixBlock:
    """block.scaled(factor) as one scalar product per entry of a dict."""
    return SMatrixBlock(block.header, {k: v * factor for k, v in block.entries.items()})
