import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qdeflect import AngularGrid, wigner_d
from qdeflect.wigner import wigner_d_rows
from oracles import wigner_d_exact


@pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 2, 2.7, np.pi])
def test_identity_representation(theta):
    assert wigner_d(0, 0, 0, theta) == 1.0


@pytest.mark.parametrize(
    "J,omega_p,omega,theta,expected",
    [
        (1, 0, 0, np.pi / 3, 0.5),
        (2, 0, 0, np.pi / 2, -0.5),  # P_2(0)
        (1, 1, 1, np.pi / 2, 0.5),  # (1 + cos)/2
        (1, 1, 0, np.pi / 2, -1.0 / math.sqrt(2.0)),
    ],
)
def test_closed_forms(J, omega_p, omega, theta, expected):
    assert_allclose(wigner_d(J, omega_p, omega, theta), expected, atol=1e-14)


def test_against_factorial_sum_oracle():
    assert_allclose(wigner_d(25, 3, -2, 1.1), wigner_d_exact(25, 3, -2, 1.1), atol=1e-12)


def test_high_j_against_oracle(rng):
    for _ in range(20):
        J = int(rng.integers(60, 251))
        omega_p = int(rng.integers(-J, J + 1))
        omega = int(rng.integers(-J, J + 1))
        theta = float(rng.uniform(0.01, np.pi - 0.01))
        assert abs(wigner_d(J, omega_p, omega, theta) - wigner_d_exact(J, omega_p, omega, theta)) < 1e-11


@pytest.mark.parametrize("J", [400, 600, 1000])
@pytest.mark.parametrize("omega_p,omega", [(0, 0), (3, 5), (-5, 2)])
def test_beyond_j_250_against_oracle(J, omega_p, omega):
    # the tested bound stated in the qdeflect.wigner docstring; 400 digits
    # resolve the factorial sum's cancellation at J = 1000
    for theta in (0.01, 0.64, 1.64, np.pi - 0.01):
        exact = wigner_d_exact(J, omega_p, omega, theta, dps=400)
        assert abs(wigner_d(J, omega_p, omega, theta) - exact) < 1e-11


def test_recurrence_coefficients_do_not_overflow_past_j_55108():
    # (J^2 - m'^2)(J^2 - m^2) leaves int64 at J = 55109: the recurrence then gave NaN
    J = 60000
    rows = np.array([row[0].copy() for _, row in wigner_d_rows([(0, 0)], np.array([0.3]), [55000, J])])
    legendre = [np.polynomial.legendre.legval(np.cos(0.3), [0] * n + [1]) for n in (55000, J)]
    assert_allclose(rows[:, 0], legendre, atol=1e-11)


def test_column_matches_pointwise_exactly():
    grid = AngularGrid.uniform(0.5)
    assert len(grid) == 361
    column = [row[0].copy() for _, row in wigner_d_rows([(2, 1)], grid.thetas, range(41))][40]
    pointwise = np.array([wigner_d(40, 2, 1, t) for t in grid.thetas])
    assert np.array_equal(column, pointwise)


def test_column_trivial_cases():
    grid = AngularGrid(np.array([0.0, np.pi / 2, np.pi]))
    table = [row[0].copy() for _, row in wigner_d_rows([(0, 0)], grid.thetas, range(2))]
    assert_allclose(table[1], [1.0, 0.0, -1.0], atol=1e-15)
    assert np.array_equal(table[0], np.ones(3))


def test_boundary_kronecker():
    for J in (1, 7, 40):
        cap = min(J, 2)
        for omega_p in range(-cap, cap + 1):
            for omega in range(-cap, cap + 1):
                want = 1.0 if omega_p == omega else 0.0
                assert abs(wigner_d(J, omega_p, omega, 0.0) - want) <= 1e-12
                want_pi = 0.0 if omega_p != -omega else (-1.0) ** (J - omega)
                assert abs(wigner_d(J, omega_p, omega, np.pi) - want_pi) <= 1e-12


@st.composite
def _j_tuple(draw):
    J = draw(st.integers(min_value=0, max_value=50))
    omega_p = draw(st.integers(min_value=-J, max_value=J))
    omega = draw(st.integers(min_value=-J, max_value=J))
    theta = draw(st.floats(min_value=1e-3, max_value=np.pi - 1e-3))
    return J, omega_p, omega, theta


@settings(max_examples=150, deadline=None)
@given(_j_tuple())
def test_symmetries(tup):
    J, omega_p, omega, theta = tup
    d = wigner_d(J, omega_p, omega, theta)
    swap = (-1.0) ** (omega_p - omega) * wigner_d(J, omega, omega_p, theta)
    neg = wigner_d(J, -omega, -omega_p, theta)
    assert abs(d - swap) < 1e-10
    assert abs(d - neg) < 1e-10


@settings(max_examples=150, deadline=None)
@given(_j_tuple())
def test_reflection(tup):
    J, omega_p, omega, theta = tup
    lhs = wigner_d(J, omega_p, omega, np.pi - theta)
    rhs = (-1.0) ** (J + omega_p) * wigner_d(J, omega_p, -omega, theta)
    assert abs(lhs - rhs) < 1e-10


def test_orthogonality_moderate():
    grid = AngularGrid.uniform(0.25)
    j_hi = 24
    table = [row[0].copy() for _, row in wigner_d_rows([(1, -1)], grid.thetas, range(j_hi + 1))]
    # sine-series quadrature weights are exact for these band-limited products
    from qdeflect.angular import integrate_curve

    for Ja in range(2, j_hi + 1, 4):
        for Jb in range(2, j_hi + 1, 4):
            integrand = table[Ja] * table[Jb] * grid.sin_thetas
            val = integrate_curve(grid, integrand)
            want = 2.0 / (2 * Ja + 1) if Ja == Jb else 0.0
            assert abs(val - want) < 1e-8


def test_domain_errors():
    with pytest.raises(ValueError):
        wigner_d(2, 3, 0, 1.0)
    with pytest.raises(ValueError):
        wigner_d(2, 0, -3, 1.0)
    with pytest.raises(ValueError):
        wigner_d(2, 0, 0, 3.5)


def test_orbit_tables_are_bit_exact():
    # d_{m'm} = (-1)^(m'-m) d_{mm'} = d_{-m,-m'} holds bit for bit for the
    # recurrence, so one table per symmetry orbit serves all four pairs
    grid = AngularGrid.uniform(0.5)
    pairs = [(mp, m) for mp in range(-6, 7) for m in range(-6, 7)]
    tables = {pair: np.array([row[0].copy() for _, row in wigner_d_rows([pair], grid.thetas, range(121))])
              for pair in pairs}
    for (mp, m), table in tables.items():
        flip = (-1.0) ** (mp - m)
        for partner, sign in (((-m, -mp), 1.0), ((m, mp), flip), ((-mp, -m), flip)):
            assert np.array_equal(tables[partner], sign * table)
    # the stacked recurrence over all 169 pairs (49 orbits), asked for in
    # either order, expands to the one-pair tables bit for bit at every J,
    # signs of zeros included: a row is +0.0 below its seed order
    for pair, table in tables.items():
        below = table[:max(map(abs, pair))]
        assert below.tobytes() == bytes(below.nbytes)  # +0.0: zero value, clear sign bit
    for request in (pairs, pairs[::-1]):
        for J, rows in wigner_d_rows(request, grid.thetas, range(121)):
            for row, pair in zip(rows, request):
                assert row.tobytes() == tables[pair][J].tobytes()
