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
from typing import Iterator, Sequence

import numpy as np

from .angular import AngularGrid
from .smatrix import SMatrixBlock
from .wigner import wigner_d_rows


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


def partial_amplitudes(
    block: SMatrixBlock,
    pairs: Sequence[tuple[int, int]],
    grid: AngularGrid,
    j_lo: int = 0,
    j_hi: int | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (J, f^J) in ascending J for each J in j_lo..j_hi where some pair has an entry.

    f^J_{Omega' Omega}(theta) = (2J+1) d^J_{Omega' Omega}(theta) S^J / (2ik),
    one row per (Omega, Omega') in pairs, shape (len(pairs), len(grid));
    rows of pairs without an entry at J are zero.  One Wigner recurrence
    step feeds every pair, and nothing of shape (J, pair, theta) is held:
    the yielded array is one buffer, refilled at every step.
    """
    h = block.header
    pref = 1.0 / (2j * h.k)
    coef = np.zeros((h.J_max + 1, len(pairs)), dtype=complex)
    present = np.zeros(h.J_max + 1, dtype=bool)
    for p, (omega, omega_p) in enumerate(pairs):
        js, amps = block.j_column(omega, omega_p)
        coef[js, p] = pref * (2 * js + 1) * amps
        present[js] = True
    present[:j_lo] = False
    if j_hi is not None:
        present[j_hi + 1 :] = False
    d_pairs = [(omega_p, omega) for omega, omega_p in pairs]
    f_j = np.empty((len(pairs), len(grid)), dtype=complex)
    for J, d in wigner_d_rows(d_pairs, grid.thetas, np.flatnonzero(present).tolist()):
        np.multiply(coef[J][:, None], d, out=f_j)
        yield J, f_j


def summed_amplitudes(
    block: SMatrixBlock,
    pairs: Sequence[tuple[int, int]],
    grid: AngularGrid,
    j_lo: int = 0,
    j_hi: int | None = None,
) -> np.ndarray:
    """sum_{J = j_lo..j_hi} f^J per pair, shape (len(pairs), len(grid)).

    Accumulated in ascending J from zero, so it equals bit for bit the sum
    a caller forms from the partial amplitudes in that order.
    """
    total = np.zeros((len(pairs), len(grid)), dtype=complex)
    for _, f_j in partial_amplitudes(block, pairs, grid, j_lo, j_hi):
        total += f_j
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
    return AmplitudeCurve(omega_p, omega, grid, summed_amplitudes(block, [(omega, omega_p)], grid)[0])


def dcs(block: SMatrixBlock, grid: AngularGrid) -> AngularCurve:
    """sigma(theta) = sum_{Omega' Omega} |f_{Omega' Omega}(theta)|^2 / (2j+1)."""
    amps = summed_amplitudes(block, block.helicity_pairs(), grid)
    return AngularCurve(grid, (np.abs(amps) ** 2).sum(axis=0) / (2 * block.header.j + 1))
