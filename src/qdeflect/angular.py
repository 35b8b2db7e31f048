"""Scattering-angle grids on [0, pi], theta quadrature, and the curve and
(theta, J) map types.  This module and `_text` are all that the partial-wave
half (smatrix, wigner, observables, qmdf, cqdf) and the trajectory half (qct)
share; neither half imports the other.

sin(theta)-weighted intensities from partial-wave sums are sin(theta) times
a polynomial in cos(theta), that is sine polynomials, so on a uniform grid
over the full interval with more intervals than their degree they integrate
exactly, to rounding, through their discrete sine series.  That rule is
the only theta quadrature: any other grid is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_STEP_DEG = 0.25

_UNIFORM_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class AngularGrid:
    """Strictly increasing theta sample points, radians in [0, pi], N >= 2."""

    thetas: np.ndarray

    def __post_init__(self) -> None:
        t = np.array(self.thetas, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("angular grid needs at least two theta points")
        if not np.all(np.diff(t) > 0.0):
            raise ValueError("theta points must be strictly increasing")
        if t[0] < 0.0 or t[-1] > np.pi + 1e-12:
            raise ValueError("theta points must lie in [0, pi]")
        t[-1] = min(t[-1], np.pi)
        t.setflags(write=False)
        object.__setattr__(self, "thetas", t)

    @classmethod
    def uniform(cls, step_deg: float = DEFAULT_STEP_DEG) -> "AngularGrid":
        """Uniform grid over [0, pi] inclusive with the given spacing in degrees.

        The spacing must divide 180 degrees (to 1e-9 relative), so the grid
        samples at exactly the step it was asked for.
        """
        if not step_deg > 0.0:
            raise ValueError("grid spacing must be positive")
        intervals = 180.0 / step_deg
        n = round(intervals)
        if abs(intervals - n) > _UNIFORM_RTOL * intervals:
            raise ValueError(f"grid spacing {step_deg} deg does not divide 180 deg")
        return cls(np.linspace(0.0, np.pi, n + 1))

    def __len__(self) -> int:
        return int(self.thetas.size)

    @property
    def degrees(self) -> np.ndarray:
        return np.degrees(self.thetas)

    @property
    def sin_thetas(self) -> np.ndarray:
        # exact zero at theta = pi, so endpoint-vanishing integrands vanish
        s = np.sin(self.thetas)
        s[self.thetas == np.pi] = 0.0
        return s

    @property
    def is_uniform(self) -> bool:
        d = np.diff(self.thetas)
        return bool(np.all(np.abs(d - d[0]) <= _UNIFORM_RTOL * d[0]))

    @property
    def spans_full_range(self) -> bool:
        return self.thetas[0] == 0.0 and self.thetas[-1] == np.pi


def default_grid() -> AngularGrid:
    """721 points, 0.25 deg spacing, endpoints included."""
    return AngularGrid.uniform(DEFAULT_STEP_DEG)


@dataclass(frozen=True, eq=False)
class AngularCurve:
    """Real curve over an angular grid (length^2 / sr unless noted), stored as
    float64, without a copy where the input already is; complex values are refused."""

    grid: AngularGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.values):
            raise ValueError("curve values must be real")
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.thetas.shape:
            raise ValueError("curve values must match the grid shape")
        if not np.all(np.isfinite(v)):
            raise ValueError("curve values must be finite")
        (v := v.view()).setflags(write=False)  # a view: the caller's own array stays writable
        object.__setattr__(self, "values", v)


@dataclass(frozen=True, eq=False)
class DeflectionMap:
    """Real matrix over (theta, J); sin(theta)-weighted intensity per unit
    theta per J, units length^2.  Individual entries may be negative."""

    grid: AngularGrid
    j_values: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        jv = np.asarray(self.j_values, dtype=int)
        v = np.asarray(self.values, dtype=float)
        if jv.ndim != 1 or np.any(np.diff(jv) != 1):
            raise ValueError("j_values must be consecutive integers")
        if v.shape != (len(self.grid), jv.size):
            raise ValueError("map values must have shape (n_theta, n_J)")
        for name, array in (("j_values", jv), ("values", v)):
            (array := array.view()).setflags(write=False)  # a view: the caller's own array stays writable
            object.__setattr__(self, name, array)

    def j_index(self, J: int) -> int:
        lo, hi = int(self.j_values[0]), int(self.j_values[-1])
        if not lo <= J <= hi:
            raise ValueError(f"J={J} outside map range {lo}..{hi}")
        return J - lo

    def column(self, J: int) -> np.ndarray:
        return self.values[:, self.j_index(J)]


@lru_cache(maxsize=16)
def _sine_series_weights(n: int) -> np.ndarray:
    """Interior-point weights of the sine-series rule on n intervals.

    The DST-I coefficient of harmonic m is (2/n) sum_i v_i sin(pi m i / n),
    and odd harmonics integrate to 2/m, so the rule is the fixed linear
    functional w_i = (2/n) sum_m c_m sin(pi m i / n) with c_m = 2/m on odd m
    and 0 on even m, i.e. w = DST-I(c) / n.  The DST-I is taken through the
    FFT of the odd extension [0, c, 0, -c[::-1]], in O(n log n).
    """
    c = np.zeros(n - 1)
    c[::2] = 2.0 / np.arange(1, n, 2)
    extension = np.concatenate(([0.0], c, [0.0], -c[::-1]))
    w = -np.fft.rfft(extension).imag[1:n] / n
    w.setflags(write=False)
    return w


def integrate_curve(grid: AngularGrid, values: np.ndarray) -> float:
    """Integrate values(theta) over [0, pi] through the discrete sine series.

    Exact, to rounding, for a sine polynomial sum_m c_m sin(m theta) of
    degree below the number of grid intervals; higher harmonics alias, and
    other curves that vanish at 0 and pi (2 sin(theta)^2) are not exact.
    The grid must be uniform over the full interval, else ValueError;
    endpoint samples are ignored.
    """
    if not (grid.is_uniform and grid.spans_full_range):
        raise ValueError("sine-series quadrature needs a uniform grid over [0, pi]")
    inner = np.asarray(values, dtype=float)[1:-1]
    return float(_sine_series_weights(inner.size + 1) @ inner)
