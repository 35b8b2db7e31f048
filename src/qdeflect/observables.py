"""Scalar and angular observables built directly from an S-matrix block.

Opacity P(J), J-partial and integral cross sections, helicity scattering
amplitudes f_{Omega' Omega}(theta) and the differential cross section.
Cross sections are reported in (declared wavenumber unit)^-2, i.e. length
squared; the DCS is per steradian.

Sums over J run over the entries present in the block only; convergence in
J_max is the data producer's responsibility.  Everything here is pure and
operates on immutable blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angular import AngularGrid
from .smatrix import SMatrixBlock
from .wigner import wigner_d_table


@dataclass(frozen=True, eq=False)
class AngularCurve:
    """Real-valued curve over an angular grid (length^2 / sr unless noted)."""

    grid: AngularGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.thetas.shape:
            raise ValueError("curve values must match the grid shape")
        if not np.all(np.isfinite(v)):
            raise ValueError("curve values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class AmplitudeCurve:
    """Complex helicity amplitude f_{Omega' Omega}(theta), units of length."""

    omega_p: int
    omega: int
    grid: AngularGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.grid.thetas.shape:
            raise ValueError("amplitude values must match the grid shape")
        if not np.all(np.isfinite(v)):
            raise ValueError("amplitude values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


def _check_j(block: SMatrixBlock, J: int) -> None:
    if not 0 <= J <= block.header.J_max:
        raise ValueError(f"J={J} outside the block range 0..{block.header.J_max}")


def opacity(block: SMatrixBlock, J: int) -> float:
    """P(J) = sum_{Omega Omega'} |S^J|^2 / (2 min(J, j) + 1)."""
    _check_j(block, J)
    return block.sum_sq_at_j(J) / (2 * min(J, block.header.j) + 1)


def partial_cross_section(block: SMatrixBlock, J: int) -> float:
    """sigma^J = (pi/k^2) (2J+1)/(2j+1) sum |S^J|^2."""
    _check_j(block, J)
    h = block.header
    return np.pi / h.k**2 * (2 * J + 1) / (2 * h.j + 1) * block.sum_sq_at_j(J)


def integral_cross_section(block: SMatrixBlock) -> float:
    """Sum of the J-partial cross sections over the whole block."""
    return sum(partial_cross_section(block, J) for J in block.js_with_entries())


def partial_amplitude_rows(
    block: SMatrixBlock, omega: int, omega_p: int, grid: AngularGrid
) -> np.ndarray:
    """f^J_{Omega' Omega}(theta) = (2J+1) d^J_{Omega' Omega}(theta) S^J / (2ik).

    Shape (J_max + 1, len(grid)), complex; rows without an entry are zero.
    """
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


def sum_rows(rows: np.ndarray) -> np.ndarray:
    # sequential accumulation keeps J-additivity bit-exact for callers that
    # sum partial amplitudes themselves
    total = np.zeros_like(rows[0])
    for row in rows:
        total = total + row
    return total


def scattering_amplitude(
    block: SMatrixBlock, omega_p: int, omega: int, grid: AngularGrid
) -> AmplitudeCurve:
    """f_{Omega' Omega}(theta) summed over every J present in the block."""
    h = block.header
    if abs(omega) > h.j or abs(omega_p) > h.j_final:
        raise ValueError(
            f"helicities (Omega'={omega_p}, Omega={omega}) outside channel range "
            f"(j={h.j}, jp={h.j_final})"
        )
    rows = partial_amplitude_rows(block, omega, omega_p, grid)
    return AmplitudeCurve(omega_p, omega, grid, sum_rows(rows))


def dcs(block: SMatrixBlock, grid: AngularGrid) -> AngularCurve:
    """sigma(theta) = sum_{Omega' Omega} |f_{Omega' Omega}(theta)|^2 / (2j+1)."""
    h = block.header
    total = np.zeros(len(grid))
    for omega, omega_p in block.helicity_pairs():
        amp = sum_rows(partial_amplitude_rows(block, omega, omega_p, grid))
        total += np.abs(amp) ** 2
    return AngularCurve(grid, total / (2 * h.j + 1))
