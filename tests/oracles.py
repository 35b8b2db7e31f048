"""Independent reference implementations used only by the tests."""

import mpmath as mp
import numpy as np

from qdeflect import wigner_d_table


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
