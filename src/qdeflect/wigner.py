"""Reduced Wigner rotation matrix elements d^J_{m',m}(theta).

Convention: d^1_{00}(theta) = cos(theta), d^J_{00}(theta) = P_J(cos(theta)),
d^J_{m'm}(0) = delta_{m'm}.  The symmetries

    d^J_{m'm} = (-1)^(m'-m) d^J_{m m'} = d^J_{-m,-m'}
    d^J_{m'm}(pi - theta) = (-1)^(J + m') d^J_{m',-m}(theta)

hold exactly for this convention and are exercised in the test suite.

Evaluation runs the three-term recurrence in J at fixed (m', m), seeded at
J0 = max(|m'|, |m|) with the single-term closed form (assembled in log
space, so extreme angles underflow cleanly instead of overflowing).  The
familiar factorial-sum formula overflows double precision near J ~ 85.
Tested bound: against that formula in extended precision the recurrence
stays within 1e-11 absolute error for random (J, m', m) up to J = 250
and, with 400 digits, at (m', m) = (0, 0), (3, 5), (-5, 2) for J = 400,
600 and 1000 (worst measured 6e-13, next to the endpoints).  Angles
exactly at 0 or pi bypass the recurrence and use the Kronecker-delta
closed forms.

All functions are pure and safe for concurrent callers.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .angular import AngularGrid


def _check_helicities(J: int, omega_p: int, omega: int) -> None:
    if J < 0:
        raise ValueError(f"J must be nonnegative, got {J}")
    if abs(omega) > J or abs(omega_p) > J:
        raise ValueError(
            f"helicity bounds violated: |{omega}|, |{omega_p}| must not exceed J={J}"
        )


def _seed_values(j0: int, omega_p: int, omega: int, thetas: np.ndarray) -> np.ndarray:
    """d^{j0}_{omega_p, omega}(theta) with j0 = max(|omega_p|, |omega|).

    The factorial sum collapses to a single term at the seed order;
    cos(theta/2), sin(theta/2) >= 0 on [0, pi], and exp(-inf) underflows
    to zero at the endpoints without special-casing.
    """
    if j0 == 0:
        return np.ones_like(thetas)
    if omega_p == j0:
        sign = -1.0 if (j0 - omega) % 2 else 1.0
        a, b = j0 + omega, j0 - omega
    elif omega_p == -j0:
        sign = 1.0
        a, b = j0 - omega, j0 + omega
    elif omega == j0:
        sign = 1.0
        a, b = j0 + omega_p, j0 - omega_p
    else:  # omega == -j0
        sign = -1.0 if (j0 + omega_p) % 2 else 1.0
        a, b = j0 - omega_p, j0 + omega_p
    log_term = 0.5 * math.log(math.comb(2 * j0, b))
    with np.errstate(divide="ignore"):
        if a:
            log_term = log_term + a * np.log(np.cos(0.5 * thetas))
        if b:
            log_term = log_term + b * np.log(np.sin(0.5 * thetas))
    return sign * np.exp(log_term)


def _recurrence(omega_p: int, omega: int, thetas: np.ndarray, j_hi: int) -> Iterator[np.ndarray]:
    """Yield d^J rows for J = j0..j_hi at interior angles (0 < theta < pi)."""
    j0 = max(abs(omega_p), abs(omega))
    x = np.cos(thetas)
    mm = omega_p * omega
    prev = np.zeros_like(thetas)
    cur = _seed_values(j0, omega_p, omega, thetas)
    yield cur
    for jj in range(j0, j_hi):
        if jj == 0:
            nxt = x * cur  # d^1_00 = cos(theta)
        else:
            c1 = (2 * jj + 1) * (jj * (jj + 1) * x - mm)
            c2 = (jj + 1) * math.sqrt(
                (jj * jj - omega_p * omega_p) * (jj * jj - omega * omega)
            )
            c3 = jj * math.sqrt(
                ((jj + 1) ** 2 - omega_p * omega_p) * ((jj + 1) ** 2 - omega * omega)
            )
            nxt = (c1 * cur - c2 * prev) / c3
        prev, cur = cur, nxt
        yield cur


def _endpoint_value(J: int, omega_p: int, omega: int, at_pi: bool) -> float:
    if not at_pi:
        return 1.0 if omega_p == omega else 0.0
    if omega_p != -omega:
        return 0.0
    return -1.0 if (J - omega) % 2 else 1.0


def wigner_d_table(j_max: int, omega_p: int, omega: int, grid: AngularGrid) -> np.ndarray:
    """d^J_{omega_p, omega} for every J = 0..j_max over the grid.

    Shape (j_max + 1, len(grid)); rows with J < max(|omega_p|, |omega|)
    are zero.
    """
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    thetas = grid.thetas
    rows = np.zeros((j_max + 1, thetas.size))
    j0 = max(abs(omega_p), abs(omega))
    if j_max < j0:
        return rows

    interior = (thetas != 0.0) & (thetas != np.pi)
    for J, row in enumerate(_recurrence(omega_p, omega, thetas[interior], j_max), start=j0):
        rows[J, interior] = row
    for idx in np.nonzero(~interior)[0]:
        at_pi = thetas[idx] == np.pi
        for J in range(j0, j_max + 1):
            rows[J, idx] = _endpoint_value(J, omega_p, omega, at_pi)
    return rows


def wigner_d(J: int, omega_p: int, omega: int, theta: float) -> float:
    """Single element d^J_{omega_p, omega}(theta), theta in [0, pi]."""
    _check_helicities(J, omega_p, omega)
    if not 0.0 <= theta <= np.pi + 1e-12:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    theta = min(theta, np.pi)
    if theta == 0.0 or theta == np.pi:
        return _endpoint_value(J, omega_p, omega, at_pi=theta == np.pi)
    for row in _recurrence(omega_p, omega, np.array([theta]), J):
        pass
    return float(row[0])
