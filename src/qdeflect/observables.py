"""Scalar and angular observables built directly from an S-matrix block.

Opacity P(J), the J-partial cross section, the partial helicity amplitudes
f^J_{Omega' Omega}(theta) and the differential cross section.
Cross sections are reported in (declared wavenumber unit)^-2, i.e. length
squared; the DCS is per steradian.

Sums over J run over the entries present in the block only; convergence in
J_max is the data producer's responsibility.  Everything here is pure and
operates on immutable blocks.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .angular import AngularCurve, AngularGrid
from .smatrix import SMatrixBlock
from .wigner import wigner_d_rows


def _check_j(block: SMatrixBlock, J: int | np.ndarray) -> None:
    outside = np.extract((np.asarray(J) < 0) | (np.asarray(J) > block.header.J_max), J)
    if outside.size:
        raise ValueError(f"J={outside[0]} outside the block range 0..{block.header.J_max}")


def _sum_sq(block: SMatrixBlock, J: int | np.ndarray) -> np.ndarray:
    """block.sum_sq at each J (an int or an array of them); 0.0 where J has no entry."""
    _check_j(block, J)
    i = np.searchsorted(block.js, J)  # len(js) past the last J with an entry, where the -1 pad cannot match
    return np.where(np.append(block.js, -1)[i] == J, np.append(block.sum_sq, 0.0)[i], 0.0)


def opacity(block: SMatrixBlock, J: int | np.ndarray) -> float | np.ndarray:
    """P(J) = sum_{Omega Omega'} |S^J|^2 / (2 min(J, j) + 1), at an int J or each of an array."""
    return _sum_sq(block, J) / (2 * np.minimum(J, block.header.j) + 1)


def partial_cross_section(block: SMatrixBlock, J: int | np.ndarray) -> float | np.ndarray:
    """sigma^J = (pi/k^2) (2J+1)/(2j+1) sum |S^J|^2, at an int J or each of an array."""
    return np.pi / block.header.k**2 * (2 * J + 1) / (2 * block.header.j + 1) * _sum_sq(block, J)


def partial_amplitudes(block: SMatrixBlock, rows: Sequence[int], grid: AngularGrid, j_lo: int = 0,
                       j_hi: int | None = None) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (J, f^J) in ascending J for each J in j_lo..j_hi where a pair in rows has an entry.

    rows index block.pairs, so only pairs with entries are ever stepped.
    f^J_{Omega' Omega}(theta) = (2J+1) d^J_{Omega' Omega}(theta) S^J / (2ik),
    one row per index in rows, shape (len(rows), len(grid)); rows of pairs
    without an entry at J are zero.  One Wigner recurrence step feeds every
    pair, and nothing of shape (J, pair, theta) is held: the yielded array
    is one buffer, refilled at every step.  The block's sorted entries and
    their pair rows are read in place, so memory is O(entries + pairs x theta).
    """
    h = block.header
    rows = np.asarray(rows, dtype=np.int64)
    wanted = np.zeros(len(block.pairs), dtype=bool)
    wanted[rows] = True
    entry_j = block.keys[:, 0]
    keep = wanted[block.pair_rows] & (entry_j >= j_lo)
    keep &= j_hi is None or entry_j <= j_hi
    entry_j, column = entry_j[keep], block.pair_rows[keep]
    coef = (1.0 / (2j * h.k) * (2 * entry_j + 1)) * block.amps[keep]
    # one run of consecutive entries per J: coef[lo:hi] for neighbouring bounds lo, hi
    bounds = np.flatnonzero(np.diff(entry_j, prepend=-1, append=h.J_max + 1)).tolist()
    steps = wigner_d_rows(block.pairs[rows, ::-1].tolist(), grid.thetas, entry_j[bounds[:-1]].tolist())
    row = np.zeros(len(block.pairs), dtype=complex)
    f_j = np.empty((len(rows), len(grid)), dtype=complex)
    for lo, hi, (J, d) in zip(bounds, bounds[1:], steps):
        row[column[lo:hi]] = coef[lo:hi]
        np.multiply(row[rows][:, None], d, out=f_j)
        row[column[lo:hi]] = 0
        yield J, f_j


def summed_amplitudes(block: SMatrixBlock, rows: Sequence[int], grid: AngularGrid, j_lo: int = 0,
                      j_hi: int | None = None) -> np.ndarray:
    """sum_{J = j_lo..j_hi} f^J per pair of rows (indices into block.pairs),
    shape (len(rows), len(grid)).

    Accumulated in ascending J from zero, so it equals bit for bit the sum
    a caller forms from the partial amplitudes in that order.
    """
    total = np.zeros((len(rows), len(grid)), dtype=complex)
    for _, f_j in partial_amplitudes(block, rows, grid, j_lo, j_hi):
        total += f_j
    return total


def _coherent_dcs(block: SMatrixBlock, grid: AngularGrid, j_lo: int = 0, j_hi: int | None = None) -> AngularCurve:
    """sum_{Omega' Omega} |sum_{J = j_lo..j_hi} f^J|^2 / (2j+1), over the block's pairs."""
    amps = summed_amplitudes(block, range(len(block.pairs)), grid, j_lo, j_hi)
    return AngularCurve(grid, (np.abs(amps) ** 2).sum(axis=0) / (2 * block.header.j + 1))


def dcs(block: SMatrixBlock, grid: AngularGrid) -> AngularCurve:
    """sigma(theta) = sum_{Omega' Omega} |f_{Omega' Omega}(theta)|^2 / (2j+1)."""
    return _coherent_dcs(block, grid)
