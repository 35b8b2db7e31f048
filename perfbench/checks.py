"""Reference-free output checks and data-row digests.

Every check is one of the package's exact identities, evaluated with the
benchmark's own numpy code (its own theta quadrature, its own cross
sections from the generated entries), never with qdeflect's integrators.
CSV checks allow for the rounding to nine significant digits that the
writer applies; in-memory checks use the acceptance gate's tolerances.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import legval, legvander

# half a unit in the ninth significant digit: the CSV writer's rounding
EMIT_REL = 5e-9
N_THETA = 721  # the default 0.25 degree grid


class Checks:
    """Failure messages per operation name."""

    def __init__(self) -> None:
        self.failures: dict[str, list[str]] = {}

    def run(self, op: str, fn) -> None:
        """Record fn()'s (ok, what) pairs for `op`; an output that cannot be
        read or a result that is missing fails `op` too."""
        try:
            found = fn()
        except (OSError, ValueError, IndexError, KeyError, AttributeError) as exc:
            found = [(False, f"check could not run: {type(exc).__name__}: {exc}")]
        for ok, what in found:
            if not ok:
                self.failures.setdefault(op, []).append(what)


def sine_weights(n_points: int) -> np.ndarray:
    """Quadrature weights on a uniform [0, pi] grid of n_points samples.

    The rule integrates the discrete sine series of the interior samples,
    so it is exact for trigonometric polynomials of degree below
    n_points - 1 that vanish at both ends (every map column and every
    curve times sin(theta) here).
    """
    n = n_points - 1
    thetas = np.linspace(0.0, math.pi, n_points)
    m_odd = np.arange(1, n, 2)
    w = (4.0 / n) * (np.sin(np.outer(thetas, m_odd)) / m_odd).sum(axis=1)
    w[0] = w[-1] = 0.0
    return w


def grid_sin(n_points: int) -> np.ndarray:
    s = np.sin(np.linspace(0.0, math.pi, n_points))
    s[0] = s[-1] = 0.0
    return s


WEIGHTS, SIN = sine_weights(N_THETA), grid_sin(N_THETA)


def data_lines(path: Path) -> list[str]:
    """Header and data rows of a CSV; the '#' provenance lines are dropped."""
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def read_table(path: Path) -> np.ndarray:
    lines = data_lines(path)
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"{path.name}: non-finite values")
    return data


def read_curve(path: Path) -> np.ndarray:
    data = read_table(path)
    if data.shape != (N_THETA, 2):
        raise ValueError(f"{path.name}: shape {data.shape}, want ({N_THETA}, 2)")
    return data[:, 1]


def read_per_j(path: Path, n_j: int) -> np.ndarray:
    data = read_table(path)
    if data.shape != (n_j, 2) or np.any(data[:, 0] != np.arange(n_j)):
        raise ValueError(f"{path.name}: rows are not J = 0..{n_j - 1}")
    return data[:, 1]


def read_map(path: Path, n_j: int) -> np.ndarray:
    """Long-format map (theta_deg, J, value) as an (N_THETA, n_J) array."""
    data = read_table(path)
    if data.shape != (N_THETA * n_j, 3):
        raise ValueError(f"{path.name}: {data.shape[0]} rows, want {N_THETA * n_j}")
    degs = np.degrees(np.linspace(0.0, math.pi, N_THETA))
    if np.abs(data[::n_j, 0] - degs).max() > 1e-6 or np.any(data[:n_j, 1] != np.arange(n_j)):
        raise ValueError(f"{path.name}: theta or J columns off the grid")
    return data[:, 2].reshape(N_THETA, n_j)


def digest(path: Path) -> str:
    """sha256 of a CSV's data rows, or of the whole file for other outputs."""
    if path.suffix == ".csv":
        body = "\n".join(data_lines(path)).encode()
    else:
        body = path.read_bytes()
    return hashlib.sha256(body).hexdigest()


def digest_values(*arrays) -> str:
    """sha256 of values printed at the CSV writer's precision."""
    h = hashlib.sha256()
    for arr in arrays:
        flat = np.ravel(np.asarray(arr, dtype=float)).tolist()
        h.update(",".join(f"{v:.8e}" for v in flat).encode())
    return h.hexdigest()


def close(got, want, rel: float, slack=0.0) -> bool:
    """|got - want| <= rel |want| + slack, elementwise, all true."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(np.all(np.abs(got - want) <= rel * np.abs(want) + slack))


def integral_matches(values: np.ndarray, want, emitted: bool = True) -> tuple[bool, str]:
    """2 pi Int values dtheta (per column) equals the cross section `want` to
    1e-6 relative, the acceptance gate's tolerance.  For CSV values the bound
    from rounding each sample to nine significant digits is added."""
    total = 2.0 * math.pi * (WEIGHTS @ values)
    slack = 2.0 * math.pi * EMIT_REL * (np.abs(WEIGHTS) @ np.abs(values)) if emitted else 0.0
    return close(total, want, 1e-6, slack), "2 pi Int dtheta equals the cross section"


def nonnegative(values: np.ndarray) -> tuple[bool, str]:
    return bool(np.min(values) >= 0.0), "values are nonnegative"


def entry_sums(entries: dict, j_max: int, omega_p: int | None = None) -> np.ndarray:
    """sum over helicities of |S^J|^2 for J = 0..j_max (one Omega' if given)."""
    keys = np.array(list(entries.keys()), dtype=int).reshape(-1, 3)
    mags = np.abs(np.array(list(entries.values()), dtype=complex)) ** 2
    if omega_p is not None:
        sel = keys[:, 2] == omega_p
        keys, mags = keys[sel], mags[sel]
    return np.bincount(keys[:, 0], weights=mags, minlength=j_max + 1)


def sigma_j(sumsq: np.ndarray, k: float, j: int) -> np.ndarray:
    js = np.arange(sumsq.size)
    return math.pi / k**2 * (2 * js + 1) / (2 * j + 1) * sumsq


def opacity_from_sigma(sigma: np.ndarray, k: float, j: int) -> np.ndarray:
    js = np.arange(sigma.size)
    return sigma * k**2 * (2 * j + 1) / (math.pi * (2 * js + 1) * (2 * np.minimum(js, j) + 1))


def legendre_sigma_j(js: np.ndarray, j_max: float, sigma_r: float, order: int,
                     at: np.ndarray) -> np.ndarray:
    """J-partial cross section of a unit-weight trajectory ensemble from its
    Legendre moments in x = 2J(J+1)/[J_max(J_max+1)] - 1."""
    d = j_max * (j_max + 1.0)
    raw = legvander(2.0 * js * (js + 1.0) / d - 1.0, order).sum(axis=0)
    b = (2 * np.arange(order + 1) + 1) / 2.0 * raw / raw[0]
    x = 2.0 * at * (at + 1.0) / d - 1.0
    return sigma_r * 2.0 * (2.0 * at + 1.0) / d * legval(x, b)
