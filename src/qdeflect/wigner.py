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
exactly at 0 or pi take the Kronecker-delta closed forms.

wigner_d_rows is the one implementation: it steps many (m', m) pairs at
once, one row per symmetry orbit.  The recurrence is symmetric under the
first symmetry above (its coefficients depend on m'm, m'^2 and m^2 only,
and the seeds differ by the sign alone), so from the seed order on the
expanded rows equal each pair's own recurrence bit for bit;
wigner_d_table and wigner_d are its one-pair calls.

All functions are pure and safe for concurrent callers.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Iterator, Sequence

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


def _orbits(pairs: Sequence[tuple[int, int]]) -> tuple[list[tuple[int, int]], list[int]]:
    """Orbit representatives, by seed order j0, and each pair's row in the
    stacked state [d_reps; -d_reps].

    d_{m'm} = (-1)^(m'-m) d_{mm'} = d_{-m,-m'}, so the orbit of (m', m)
    is {(m', m), (-m, -m'), (m, m'), (-m', -m)}, the last two with the sign
    (-1)^(m'-m).  The first pair met carries its orbit.
    """
    carrier: dict[tuple[int, int], tuple[tuple[int, int], bool]] = {}
    reps = []
    for mp, m in pairs:
        if (mp, m) not in carrier:
            flip = (mp - m) % 2 == 1
            for member, negated in (((mp, m), False), ((-m, -mp), False),
                                    ((m, mp), flip), ((-mp, -m), flip)):
                carrier.setdefault(member, ((mp, m), negated))
            reps.append((mp, m))
    reps.sort(key=lambda rep: max(abs(rep[0]), abs(rep[1])))
    slot = {rep: i for i, rep in enumerate(reps)}
    rows = []
    for pair in pairs:
        rep, negated = carrier[pair]
        rows.append(slot[rep] + len(reps) * negated)
    return reps, rows


def wigner_d_rows(
    pairs: Sequence[tuple[int, int]], thetas: np.ndarray, js: Sequence[int]
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (J, d^J_{m'm}(thetas)) for each J in js, in ascending order,
    one row per (m', m) in pairs.

    The yielded array, of shape (len(pairs), len(thetas)), is one buffer
    refilled at every yield; a pair's row is zero while J < max(|m'|, |m|).
    The recurrence runs once per J step, stacked over one row per symmetry
    orbit of the pairs (see _orbits), and is expanded to the pairs by index
    and sign; a one-pair call is that pair's own recurrence.  Angles
    exactly at 0 or pi take the Kronecker-delta closed forms.
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
    j0 = [max(abs(mp), abs(m)) for mp, m in reps]  # ascending: the started rows are a prefix
    rmp, rm = np.array(reps, dtype=int).T
    steps = np.arange(j_max + 1)
    # step jj -> jj + 1: d^{jj+1} = (c1 d^jj - c2 d^{jj-1}) / c3 with
    # c1 = (2jj+1)(jj(jj+1) x - m'm); products below the seed order are unused
    mm = (rmp * rm).astype(float)[:, None]
    n2 = np.arange(j_max + 2)[:, None] ** 2
    root = np.sqrt(np.maximum((n2 - rmp**2) * (n2 - rm**2), 0).astype(float))
    c2 = (steps + 1)[:, None] * root[:-1]
    c3 = steps[:, None] * root[1:]

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
        k = bisect_left(j0, J)  # representatives seeded below J step to J
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
                nxt *= c2[step, :k, None]
                np.subtract(t, nxt, out=nxt)
                nxt /= c3[step, :k, None]
            prev, cur = cur, prev
        for r in range(k, bisect_right(j0, J)):
            cur[r] = _seed_values(J, *reps[r], thetas)
        if J not in wanted:
            continue
        if negate:
            np.negative(cur[:n_r], out=cur[n_r:])
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
    _check_helicities(J, omega_p, omega)
    if not 0.0 <= theta <= np.pi + 1e-12:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    for _, rows in wigner_d_rows([(omega_p, omega)], np.array([min(theta, np.pi)]), [J]):
        return float(rows[0, 0])
