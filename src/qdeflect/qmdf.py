"""Joint (theta, J) decomposition of the differential cross section.

The map Q(theta, J) assigns to each total angular momentum J its share of
the angular intensity, keeping every coherence with the other partial
waves at half weight:

    Q(theta, J) = sin(theta)/(2j+1) * sum_{Omega' Omega} Re[ f^J (F)* ]

with f^J the J-partial helicity amplitude and F the full amplitude.  The
real part implements the symmetrized double sum over (J1, J2), so entries
are real by construction and may be negative where destructive coherence
dominates.  Two exact identities anchor everything:

    sum_J Q(theta, J)          = DCS(theta) * sin(theta)
    2 pi Int Q(theta, J) dtheta = sigma^J

J-window sums of Q are additive; windowed DCSs (amplitudes restricted to
the window, then squared) are not, and the difference between the two
localizes interference between window groups.

Map construction is data-parallel over theta; maps are immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .angular import AngularCurve, AngularGrid, DeflectionMap, integrate_curve
from .observables import _coherent_dcs, partial_amplitudes, summed_amplitudes
from .smatrix import SMatrixBlock


@dataclass(frozen=True)
class JWindow:
    """Inclusive range [j_lo, j_hi] of total angular momenta."""

    j_lo: int
    j_hi: int

    def __post_init__(self) -> None:
        if not 0 <= self.j_lo <= self.j_hi:
            raise ValueError(f"need 0 <= j_lo <= j_hi, got [{self.j_lo}, {self.j_hi}]")


def _group_sums(
    block: SMatrixBlock, rows: np.ndarray, grid: AngularGrid, j_lo: int = 0, j_hi: int | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (J, G) for J in j_lo..j_hi, rows indexing block.pairs in (Omega', Omega) order:
    G[g], one buffer refilled at every step, sums Re(f^J F*) over the g-th run of rows with
    equal Omega', in row order.  F comes from a first pass over all the amplitudes and the
    second pass recomputes f^J in the window only.
    """
    jp = block.header.j_final
    bounds = np.flatnonzero(np.diff(block.pairs[rows, 1], prepend=-jp - 1, append=jp + 1)).tolist()
    conj_full = np.conj(summed_amplitudes(block, rows, grid))
    product = np.empty_like(conj_full)
    sums = np.empty((len(bounds) - 1, len(grid)))
    for J, f_j in partial_amplitudes(block, rows, grid, j_lo, j_hi):
        np.multiply(f_j, conj_full, out=product)
        # Re(f^J F*) = |f^J|^2 + half of every cross term with J1 != J;
        # numpy sums over a non-inner axis row by row from +0, as a loop would
        for g, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            product.real[lo:hi].sum(axis=0, out=sums[g])
        yield J, sums


def qmdf_helicity_map(block: SMatrixBlock, omega_p: int, grid: AngularGrid) -> DeflectionMap:
    """Map restricted to a single product helicity Omega'."""
    h = block.header
    if abs(omega_p) > h.j_final:
        raise ValueError(f"Omega'={omega_p} outside jp={h.j_final}")
    scale = grid.sin_thetas / (2 * h.j + 1)
    values = np.zeros((len(grid), h.J_max + 1))
    for J, sums in _group_sums(block, np.flatnonzero(block.pairs[:, 1] == omega_p), grid):
        values[:, J] = sums[0] * scale
    return DeflectionMap(grid, np.arange(h.J_max + 1), values)


def qmdf_map(block: SMatrixBlock, grid: AngularGrid, window: JWindow | None = None) -> DeflectionMap:
    """Full map; identical to the sum of its helicity-resolved maps.  With a
    window, only its J columns, each equal to the full map's column."""
    h = block.header
    window = window or JWindow(0, h.J_max)
    _check_window(window, 0, h.J_max)
    scale = grid.sin_thetas / (2 * h.j + 1)
    values = np.zeros((len(grid), window.j_hi - window.j_lo + 1))
    for J, sums in _group_sums(block, np.lexsort(block.pairs.T), grid, window.j_lo, window.j_hi):
        values[:, J - window.j_lo] = (sums * scale).sum(axis=0)
    return DeflectionMap(grid, np.arange(window.j_lo, window.j_hi + 1), values)


def random_phase_map(block: SMatrixBlock, grid: AngularGrid) -> DeflectionMap:
    """Diagonal |f^J|^2 part only (all inter-J coherences dropped); >= 0."""
    h = block.header
    scale = grid.sin_thetas / (2 * h.j + 1)
    values = np.zeros((len(grid), h.J_max + 1))
    intensity = np.empty((len(block.pairs), len(grid)))
    for J, f_j in partial_amplitudes(block, range(len(block.pairs)), grid):
        np.abs(f_j, out=intensity)
        intensity **= 2
        values[:, J] = intensity.sum(axis=0) * scale
    return DeflectionMap(grid, np.arange(h.J_max + 1), values)


def _check_window(window: JWindow, j_lo: int, j_hi: int) -> None:
    if window.j_lo < j_lo or window.j_hi > j_hi:
        raise ValueError(f"window [{window.j_lo}, {window.j_hi}] outside J range {j_lo}..{j_hi}")


def sum_over_j(dmap: DeflectionMap, window: JWindow) -> AngularCurve:
    """Sum of map columns over the window; windows are additive."""
    _check_window(window, int(dmap.j_values[0]), int(dmap.j_values[-1]))
    lo = dmap.j_index(window.j_lo)
    hi = dmap.j_index(window.j_hi)
    return AngularCurve(dmap.grid, dmap.values[:, lo : hi + 1].sum(axis=1))


def partial_dcs(block: SMatrixBlock, window: JWindow, grid: AngularGrid) -> AngularCurve:
    """DCS from amplitudes restricted to the window, then squared.

    Keeps coherences inside the window only, so disjoint windows do not
    add up to the full DCS when groups of partial waves interfere.
    """
    _check_window(window, 0, block.header.J_max)
    return _coherent_dcs(block, grid, window.j_lo, window.j_hi)


def integrate_over_theta(dmap: DeflectionMap, J: int) -> float:
    """2 pi Int Q(theta, J) dtheta; equals sigma^J to quadrature accuracy.

    Column J is a sine polynomial of degree J + J_max + 1 (J_max the largest
    J with an entry), so on a uniform grid over [0, pi] the sine-series rule
    gives sigma^J to rounding when the grid has more intervals than that:
    more than 2 J_max + 1 for every column.  Coarser grids alias, and any
    other grid raises ValueError (`integrate_curve`).
    """
    return 2.0 * np.pi * integrate_curve(dmap.grid, dmap.column(J))


def _gauss_kernel(radius: int, sigma: float, spacing: float) -> np.ndarray:
    offsets = np.arange(-radius, radius + 1) * spacing
    w = np.exp(-((offsets / sigma) ** 2))
    return w / w.sum()


def _convolve_zero_padded(values: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Convolution along one axis with zeros beyond the edges, for an odd,
    exactly symmetric kernel.

    Taps are paired as x[i] w[r] + sum_{j=r..1} (x[i-j] + x[i+j]) w[r-j]
    and accumulated in that order, the order of the standard line-buffer
    correlation for symmetric kernels; the tests compare the two bit for bit.
    A tap j >= n reaches only padding and adds (+0 + +0) w: one += 0.0 stands
    for all of them, so a -0.0 cell still turns to +0.0.
    """
    r = kernel.size // 2
    x = np.moveaxis(values, axis, 0)
    n = x.shape[0]
    m = min(r, n - 1)  # the taps that reach data
    padded = np.zeros((n + 2 * m,) + x.shape[1:])
    padded[m : m + n] = x
    out = padded[m : m + n] * kernel[r]
    if m < r:
        out += 0.0
    for j in range(m, 0, -1):
        out += (padded[m - j : m - j + n] + padded[m + j : m + j + n]) * kernel[r - j]
    return np.moveaxis(out, 0, axis)


def smooth_map(dmap: DeflectionMap, s_j: float, s_theta: float) -> DeflectionMap:
    """Separable normalized Gaussian smoothing for presentation.

    s_j is in units of J, s_theta in radians; zero width is the identity on
    that axis.  Kernels are normalized to unit discrete sum, so the map
    total is preserved except for truncation at the boundaries.
    """
    if not (0 <= s_j < math.inf and 0 <= s_theta < math.inf):  # "in range", so that NaN fails too
        raise ValueError("smoothing widths must be nonnegative and finite")
    if s_theta > 0 and not dmap.grid.is_uniform:
        raise ValueError("theta smoothing needs a uniform grid")
    values = np.array(dmap.values)
    h_theta = float(dmap.grid.thetas[1] - dmap.grid.thetas[0])
    for axis, name, s, h in ((1, "J", s_j, 1.0), (0, "theta", s_theta, h_theta)):
        taps = 6.0 * float(s) / h  # kernel taps per side; a Python float overflows to inf without a warning
        if not taps <= 1 << 20:  # a wider kernel would take a minute or more to apply
            raise ValueError(f"{name} smoothing width too large to build a kernel ({taps:.3g} taps per side)")
        if s > 0:
            values = _convolve_zero_padded(values, _gauss_kernel(max(1, math.ceil(taps)), s, h), axis)
    return DeflectionMap(dmap.grid, dmap.j_values, values)


def map_without_sin(dmap: DeflectionMap) -> tuple[np.ndarray, np.ndarray]:
    """Map values divided by sin(theta), endpoint rows emitted as zero.

    Returns (values, endpoint_mask); masked rows were zeroed because the
    division is singular there.
    """
    s = dmap.grid.sin_thetas
    mask = s == 0.0
    safe = np.where(mask, 1.0, s)
    out = dmap.values / safe[:, None]
    out[mask, :] = 0.0
    return out, mask
