"""Reduced Wigner rotation matrix elements d^J_{m',m}(theta).

Convention: d^1_{00}(theta) = cos(theta), d^J_{00}(theta) = P_J(cos(theta)),
d^J_{m'm}(0) = delta_{m'm}.  The symmetries

    d^J_{m'm} = (-1)^(m'-m) d^J_{m m'} = d^J_{-m,-m'}
    d^J_{m'm}(pi - theta) = (-1)^(J + m') d^J_{m',-m}(theta)

hold exactly for this convention and are exercised in the test suite.

Evaluation runs the three-term recurrence in J at fixed (m', m), seeded at
J0 = max(|m'|, |m|) with the single-term closed form (assembled in log
space, so it never overflows).  The familiar factorial-sum formula
overflows double precision near J ~ 85.  Known limit: near theta = 0 or pi
the seed of a large J0 falls below the normal double range, loses digits
or becomes 0, and the recurrence carries that to every larger J, even
where the true value is O(0.01).  For (m', m) = (J0, -J0) the rows are
wrong below theta = 2 asin(exp(-354/J0)): 0.31 deg at J0 = 60, 12.6 deg at
J0 = 160.  So wigner_d(3000, 160, -160, 10 deg) returns 0.0 (true value
-0.01238) and wigner_d(3000, 150, -150, 10 deg) -0.0089390169 (true value
-0.0089389994).  The fault is the seed's alone: where the seed is normal
the recurrence holds.
Tested bound: against that formula in extended precision the recurrence
stays within 1e-11 absolute error for random (J, m', m) up to J = 250
and, with 400 digits, at (m', m) = (0, 0), (3, 5), (-5, 2) for J = 400,
600 and 1000 (worst measured 6e-13, next to the endpoints).  Angles
exactly at 0 or pi take the Kronecker-delta closed forms.

wigner_d_rows is the one implementation: it steps many (m', m) pairs at
once, one row per symmetry orbit, carried by the orbit's member with
m' = J0 and expanded to the others by the first symmetry above; so a
pair's row depends on the pair, theta and J alone, not on the other
pairs asked for.  wigner_d_table and wigner_d are its one-pair calls.

All functions are pure and safe for concurrent callers.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Iterator, Sequence

import numpy as np

from .angular import AngularGrid


def _seed_values(j0: int, omega: int, thetas: np.ndarray) -> np.ndarray:
    """d^{j0}_{j0, omega}(theta), the seed of an orbit's carrier (see _orbits).

    The factorial sum collapses to a single term at the seed order;
    cos(theta/2), sin(theta/2) >= 0 on [0, pi], and exp(-inf) underflows
    to zero at the endpoints without special-casing.
    """
    a, b = j0 + omega, j0 - omega
    log_term = np.full_like(thetas, 0.5 * math.log(math.comb(2 * j0, b)))
    with np.errstate(divide="ignore"):  # zero powers are skipped: 0 * log(0) is nan
        if a:
            log_term += a * np.log(np.cos(0.5 * thetas))
        if b:
            log_term += b * np.log(np.sin(0.5 * thetas))
    return (-1.0 if b % 2 else 1.0) * np.exp(log_term)


def _orbits(pairs: Sequence[tuple[int, int]]) -> tuple[list[tuple[int, int]], list[int]]:
    """Orbit carriers, by seed order j0, and each pair's row in the
    stacked state [d_carriers; -d_carriers].

    d_{m'm} = (-1)^(m'-m) d_{mm'} = d_{-m,-m'}, so the orbit of (m', m)
    is {(m', m), (-m, -m'), (m, m'), (-m', -m)}, the last two with the sign
    (-1)^(m'-m).  Its one member with m' = j0 = max(|m'|, |m|) carries it,
    whichever pairs are asked for and in whatever order.
    """
    carriers = []
    for mp, m in pairs:
        j0, flip = max(abs(mp), abs(m)), (mp - m) % 2 == 1
        carriers.append(((mp, m), False) if mp == j0 else ((-m, -mp), False) if m == -j0
                        else ((m, mp), flip) if m == j0 else ((-mp, -m), flip))
    reps = sorted({rep for rep, _ in carriers})  # by m' = j0 first
    slot = {rep: i for i, rep in enumerate(reps)}
    return reps, [slot[rep] + len(reps) * negated for rep, negated in carriers]


_STEPS = 64  # recurrence steps tabulated at once: coefficient memory O(orbits), not O(J_max x orbits)


def wigner_d_rows(
    pairs: Sequence[tuple[int, int]], thetas: np.ndarray, js: Sequence[int]
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (J, d^J_{m'm}(thetas)) for each J in js, in ascending order,
    one row per (m', m) in pairs.

    The yielded array, of shape (len(pairs), len(thetas)), is one buffer
    refilled at every yield.  The recurrence runs once per J step, stacked
    over one row per symmetry orbit of the pairs (see _orbits), and is
    expanded to the pairs by index and sign.  A row depends on the pair,
    theta and J alone, and is +0.0 below its seed order max(|m'|, |m|).
    Angles exactly at 0 or pi take the Kronecker-delta closed forms.
    """
    thetas = np.asarray(thetas, dtype=float)
    wanted = set(js)
    j_max = max(wanted, default=-1)
    if j_max < 0:
        return
    reps, index = _orbits(pairs)
    n_r = len(reps)
    negate = max(index) >= n_r
    index = np.array(index)
    j0 = [mp for mp, _ in reps]  # ascending: the started rows are a prefix
    rmp, rm = np.array(reps, dtype=int).T
    # step jj -> jj + 1: d^{jj+1} = (c1 d^jj - c2 d^{jj-1}) / c3 with
    # c1 = (2jj+1)(jj(jj+1) x - m'm); products below the seed order are unused
    mm = (rmp * rm).astype(float)[:, None]

    ends = np.nonzero((thetas == 0.0) | (thetas == np.pi))[0]
    if ends.size:  # d(0) = delta_{m'm}, d(pi) = (-1)^(J-m) delta_{m',-m}
        pmp, pm = np.array(pairs, dtype=int).T[:, :, None]
        at_pi = thetas[ends] == np.pi
        hit, seed_j = np.where(at_pi, pmp == -pm, pmp == pm), np.maximum(np.abs(pmp), np.abs(pm))
        # the values at even and at odd J once every pair is seeded
        at_parity = [np.where(hit, np.where(at_pi & ((p - pm) % 2 == 1), -1.0, 1.0), 0.0) for p in (0, 1)]

    x = np.cos(thetas)
    cur = np.zeros((2 * n_r, thetas.size))
    prev = np.zeros_like(cur)
    c1 = np.empty_like(cur)
    rows = np.empty((len(pairs), thetas.size))
    for J in range(j_max + 1):
        if J % _STEPS == 1:  # c2 and c3 of the next _STEPS steps, from step J - 1
            steps = np.arange(J - 1, J + _STEPS)[:, None]
            # the product in floats: in int64 it overflows past J = 55108
            root = np.sqrt(np.maximum((steps**2 - rmp**2).astype(float) * (steps**2 - rm**2), 0))
            c2, c3 = (steps[:-1] + 1) * root[:-1], steps[:-1] * root[1:]
        k = bisect_left(j0, J)  # carriers seeded below J step to J
        if k:
            step = J - 1
            now, nxt = cur[:k], prev[:k]  # nxt holds d^{J-2} until overwritten
            if step == 0:
                np.multiply(x, now, out=nxt)  # d^1_00 = cos(theta)
            else:
                t = c1[:k]
                np.subtract(step * (step + 1) * x, mm[:k], out=t)
                t *= 2 * step + 1
                t *= now
                nxt *= c2[step % _STEPS, :k, None]
                np.subtract(t, nxt, out=nxt)
                nxt /= c3[step % _STEPS, :k, None]
            prev, cur = cur, prev
        started = bisect_right(j0, J)
        for r in range(k, started):
            cur[r] = _seed_values(J, reps[r][1], thetas)
        if J not in wanted:
            continue
        if negate:  # only the started carriers: a row below its seed order stays +0.0
            np.negative(cur[:started], out=cur[n_r:n_r + started])
        np.take(cur, index, axis=0, out=rows, mode="clip")
        if ends.size:
            rows[:, ends] = at_parity[J % 2] if J >= j0[-1] else np.where(seed_j <= J, at_parity[J % 2], 0.0)
        yield J, rows


def wigner_d_table(j_max: int, omega_p: int, omega: int, grid: AngularGrid) -> np.ndarray:
    """d^J_{omega_p, omega} for every J = 0..j_max over the grid.

    Shape (j_max + 1, len(grid)); rows with J < max(|omega_p|, |omega|)
    are zero.
    """
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    table = np.empty((j_max + 1, len(grid)))
    for J, rows in wigner_d_rows([(omega_p, omega)], grid.thetas, range(j_max + 1)):
        table[J] = rows[0]
    return table


def wigner_d(J: int, omega_p: int, omega: int, theta: float) -> float:
    """Single element d^J_{omega_p, omega}(theta), theta in [0, pi]."""
    if J < 0 or abs(omega) > J or abs(omega_p) > J:
        raise ValueError(f"helicity bounds violated: need 0 <= |{omega}|, |{omega_p}| <= J={J}")
    if not 0.0 <= theta <= np.pi + 1e-12:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    for _, rows in wigner_d_rows([(omega_p, omega)], np.array([min(theta, np.pi)]), [J]):
        return float(rows[0, 0])
