"""Independent reference implementations used only by the tests."""

import math

import mpmath as mp
import numpy as np

from qdeflect import wigner_d_table
from qdeflect._text import read_text
from qdeflect.qct import _CHUNK
from qdeflect.qmdf import DeflectionMap
from qdeflect.smatrix import (DEFAULT_K_UNIT, ChannelHeader, SMatrixBlock, SMatrixParseError,
                              SMatrixValidationError)


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
    dtab = wigner_d_table(int(js.max()), omega_p, omega, grid)
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
    for omega, omega_p in block.helicity_pairs():
        rows = partial_amplitude_rows(block, omega, omega_p, grid)
        total += np.abs(sum_rows(rows[j_lo : j_hi + 1])) ** 2
    return total / (2 * block.header.j + 1)


def reference_helicity_map(block, omega_p, grid):
    """Q restricted to one product helicity, accumulated pair by pair."""
    h = block.header
    total = np.zeros((len(grid), h.J_max + 1))
    for omega, op in block.helicity_pairs():
        if op != omega_p:
            continue
        rows = partial_amplitude_rows(block, omega, omega_p, grid)
        total = total + np.real(rows * np.conj(sum_rows(rows))[None, :]).T
    return total * (grid.sin_thetas / (2 * h.j + 1))[:, None]


def reference_qmdf_map(block, grid):
    total = np.zeros((len(grid), block.header.J_max + 1))
    for omega_p in sorted({op for _, op in block.helicity_pairs()}):
        total = total + reference_helicity_map(block, omega_p, grid)
    return total


def reference_random_phase_map(block, grid):
    h = block.header
    total = np.zeros((len(grid), h.J_max + 1))
    for omega, omega_p in block.helicity_pairs():
        total = total + (np.abs(partial_amplitude_rows(block, omega, omega_p, grid)) ** 2).T
    return total * (grid.sin_thetas / (2 * h.j + 1))[:, None]


def brute_force_qmdf(block, grid):
    """Literal symmetrized double sum over (J1, J2) partial amplitudes.

    O(J_max^2) per angle; returns (map values, worst imaginary residue).
    """
    h = block.header
    n_j = h.J_max + 1
    values = np.zeros((len(grid), n_j), dtype=complex)
    for omega, omega_p in block.helicity_pairs():
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
                raise SMatrixParseError("duplicate k line", lineno)
            if len(fields) < 2:
                raise SMatrixParseError("k line needs a value", lineno)
            try:
                k = float(fields[1])
            except ValueError:
                raise SMatrixParseError(f"bad wavenumber {fields[1]!r}", lineno) from None
            if len(fields) > 3:
                raise SMatrixParseError(f"unexpected {fields[3]!r} after the k unit", lineno)
            if len(fields) == 3:
                k_unit = fields[2]
            k_line = lineno
        elif fields[0] == "channel":
            if channel:
                raise SMatrixParseError("duplicate channel line", lineno)
            for item in fields[1:]:
                if "=" not in item:
                    raise SMatrixParseError(f"bad channel field {item!r}", lineno)
                name, _, val = item.partition("=")
                if name in channel or name not in ("j", "jp", "v", "vp", "Jmax"):
                    raise SMatrixParseError(
                        f"{'repeated' if name in channel else 'unknown'} channel field {name!r}", lineno)
                try:
                    channel[name] = int(val)
                except ValueError:
                    raise SMatrixParseError(f"bad channel value {item!r}", lineno) from None
            missing = {"j", "jp", "v", "vp", "Jmax"} - channel.keys()
            if missing:
                raise SMatrixParseError(f"channel line missing {sorted(missing)}", lineno)
            channel_line = lineno
        else:
            if k is None or not channel:
                raise SMatrixParseError("entries must follow the k and channel lines", lineno)
            if len(fields) != 5:
                raise SMatrixParseError(
                    f"expected 'J Omega OmegaPrime Re Im', got {len(fields)} fields", lineno
                )
            try:
                key = (int(fields[0]), int(fields[1]), int(fields[2]))
                value = complex(float(fields[3]), float(fields[4]))
            except ValueError:
                raise SMatrixParseError(f"malformed entry {body.strip()!r}", lineno) from None
            if key in entries:
                raise SMatrixValidationError(
                    f"duplicate entry for (J={key[0]}, Omega={key[1]}, Omega'={key[2]})", lineno
                )
            entries[key] = value

    if k is None:
        raise SMatrixParseError("missing k line", len(lines) or 1)
    if not channel:
        raise SMatrixParseError("missing channel line", len(lines) or 1)

    try:
        header = ChannelHeader(k, channel["j"], channel["jp"], channel["v"], channel["vp"],
                               channel["Jmax"], k_unit, energy_label)
    except SMatrixValidationError as exc:
        raise exc.on_line(k_line if exc.item == "k" else channel_line) from None
    try:
        return SMatrixBlock(header, entries)
    except SMatrixValidationError as exc:
        # entries are built in file order: item i sits on the i-th entry line
        entry_lines = [n for n, raw in enumerate(lines, start=1)
                       if raw.partition("#")[0].split()[:1] not in ([], ["k"], ["channel"])]
        raise exc.on_line(entry_lines[exc.item]) from None


def gauss_reference(u, s):
    """The Gaussian kernel as one expression, exp on every lane."""
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
    out *= ensemble.sigma_r / ensemble.sum_of_weights
    return out


def qct_df_gaussian_reference(ensemble, config, grid, j_values=None, renormalize_boundary=False):
    """The joint Gaussian map with the whole theta kernel of a chunk formed
    at once by gauss_reference; the reference for qct_df_gaussian."""
    sw = ensemble.sum_of_weights
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
        g_theta = gauss_reference(grid.thetas[:, None] - ensemble.thetas[blk][None, :], config.s_theta)
        g_j = gauss_reference(ensemble.j_values[blk][:, None] - j_values[None, :].astype(float),
                              config.s_j)
        values += g_theta @ (weights[blk][:, None] * g_j)
    values *= ensemble.sigma_r / (2.0 * np.pi * sw)
    return DeflectionMap(grid, j_values, values)
