"""The in-place, row-blocked Gaussian kernel against the one-expression
kernel it replaced (tests/oracles.py), bit for bit.

The kernel is cut at an exponent of -700: `qct._exp` clamps exponents below
that floor before one vectorized np.exp, which then runs on its fast path on
every lane, and sets those lanes to exactly 0, so no subnormal value is
formed.  The cut is checked against the installed numpy here, not assumed:
on a dense sweep of exponents, at their floating-point neighbours, and with
every lane or no lane below the floor.  The cut moves no map value above
1e-300 on a README-like ensemble (against tests/oracles.py::gauss_untruncated).
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (exp_reference, gauss_reference, gauss_untruncated, qct_df_gaussian_reference,
                     qct_sigma_j_gaussian_reference)
from qdeflect import AngularGrid, KernelConfig, TrajectoryEnsemble, qct_df_gaussian, qct_sigma_j_gaussian
from qdeflect.qct import _CHUNK, _EXP_FLOOR, _ROWS, _exp, _gauss

UNDERFLOW = -746.0  # np.exp is exactly 0 below, and subnormal from about -708.4 down to it


def same_bits(a, b):
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


def neighbours(x, count=3):
    """x and its `count` nearest doubles on either side."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(below[:0:-1] + above)


def exponent_sweep():
    """Exponents over [-800, -690], densely, with the neighbours of the cut and
    of np.exp's underflow, shuffled so every SIMD vector mixes lanes from all
    three ranges."""
    x = np.concatenate([np.linspace(-800.0, -690.0, 110_001), neighbours(UNDERFLOW),
                        neighbours(_EXP_FLOOR), neighbours(-745.1332191019412)])
    return np.random.default_rng(7).permutation(x)


def test_exp_is_exactly_zero_below_the_cut():
    assert _EXP_FLOOR == -700.0  # the cut tests/oracles.py::exp_reference holds
    x = np.linspace(-800.0, np.nextafter(_EXP_FLOOR, -np.inf), 10_001)
    assert not np.any(exp_reference(x))
    assert same_bits(_exp(x.copy()), exp_reference(x))
    # the cut, not an underflow, makes them 0: np.exp is nonzero just below the floor
    assert np.exp(x[-1]) > 0.0 and np.exp(UNDERFLOW) == 0.0
    # and the kernel's least nonzero value is normal
    assert _exp(np.array([_EXP_FLOOR]))[0] == np.exp(_EXP_FLOOR) > np.finfo(float).tiny


def test_exp_equals_the_cut_exp_on_a_dense_exponent_sweep():
    x = exponent_sweep()
    assert same_bits(_exp(x.copy()), exp_reference(x))
    # lane by lane too: no result depends on its neighbours in the vector
    edges = np.concatenate([neighbours(UNDERFLOW), neighbours(_EXP_FLOOR)])
    assert same_bits(_exp(edges.copy()), np.array([np.exp(v) if v >= -700.0 else 0.0 for v in edges]))


@pytest.mark.parametrize("s", [1.0, 0.37, 3e-3])
def test_gauss_equals_the_old_expression_on_a_dense_exponent_sweep(s):
    u = np.sqrt(-exponent_sweep()) * s
    assert same_bits(_gauss(u.copy(), s), gauss_reference(u, s))
    # and with u of either sign, on the exponents nearest the cut-offs
    r = np.sqrt([-UNDERFLOW, -_EXP_FLOOR])
    u = np.concatenate([r[0] + np.arange(-64, 65) * np.spacing(r[0]),
                        r[1] + np.arange(-64, 65) * np.spacing(r[1])]) * s
    u = np.concatenate([u, -u])
    assert same_bits(_gauss(u.copy(), s), gauss_reference(u, s))


@pytest.mark.parametrize("size", [1, 7, 8, 9, 65, 4097])
@pytest.mark.parametrize("lo, hi", [(-800.0, -746.5), (-746.0, -700.5), (-800.0, -700.5),
                                    (-699.5, 0.0), (-699.9, -690.0)])
def test_gauss_with_every_lane_or_no_lane_below_the_floor(size, lo, hi):
    x = np.random.default_rng(size).uniform(lo, hi, size)
    u = np.sqrt(-x)
    below = -(u * u) < _EXP_FLOOR
    assert below.all() or not below.any()
    assert same_bits(_gauss(u.copy(), 1.0), gauss_reference(u, 1.0))


def test_exp_keeps_special_values():
    x = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 709.0, -750.0, -720.0, -700.0, -1.0])
    got = _exp(x.copy())
    assert same_bits(got, exp_reference(x))
    assert np.isnan(got[0]) and got[1] == np.inf and same_bits(got[2:5], np.array([0.0, 1.0, 1.0]))


@pytest.mark.parametrize("s", [2.6e3, 1e4, 1e6])
def test_a_wide_gauss_is_cut_where_the_reference_cuts_it(s):
    # the exponent where exp / (s sqrt(pi)) reaches the least normal double, and the ulps around it
    r = np.sqrt(-np.log(np.finfo(float).tiny * s * np.sqrt(np.pi)))
    u = np.concatenate([r + np.arange(-64, 65) * np.spacing(r), np.sqrt(-exponent_sweep())]) * s
    u = np.concatenate([u, -u])
    assert same_bits(_gauss(u.copy(), s), gauss_reference(u, s))


@pytest.mark.parametrize("s", [1e-4, 3e-3, 1.0, 37.0, 1e3, 2.6e3, 1e4, 1e6])
def test_gauss_forms_no_subnormal_value(s):
    u = np.sqrt(-exponent_sweep()) * s
    u = np.concatenate([u, -u, np.linspace(-30.0 * s, 30.0 * s, 100_001)])
    g = _gauss(u.copy(), s)
    assert not np.any((g != 0.0) & (g < np.finfo(float).tiny))
    assert np.any(g == 0.0) and np.all(g >= 0.0)


@pytest.mark.parametrize("s", [1e-300, 5e-17])
def test_a_tiny_gauss_width_is_cut_at_700(s):
    # tiny * s sqrt(pi) underflows to 0 here (at s = 5e-17 it rounds below the least subnormal),
    # so the width floor must come from a sum of logs, not the log of that product
    u = np.sqrt(-exponent_sweep()) * s
    u = np.concatenate([u, -u, [0.0, s, -s, 1e-10, 1.0, -30.0, 1e300]])
    with np.errstate(over="ignore"):  # (u/s)^2 overflows to inf, and exp(-inf) is 0
        g, want = _gauss(u.copy(), s), gauss_reference(u, s)
    assert same_bits(g, want)
    assert not np.any((g != 0.0) & (g < np.finfo(float).tiny))
    assert g[-7] == 1.0 / (s * math.sqrt(math.pi)) and np.all(g[-3:] == 0.0)


# ---------------------------------------------------------------------------
# whole estimators against the references

COUNTS = st.one_of(st.integers(1, 40), st.sampled_from([_CHUNK - 1, _CHUNK + 1, 2 * _CHUNK + 3]))
UNIFORM_STEPS = (180.0, 12.0, 180.0 / 63.0, 180.0 / (_ROWS + 1), 0.25)  # 2, 16, 64, 18, 721 rows


@st.composite
def grids(draw):
    if draw(st.booleans()):
        return AngularGrid.uniform(draw(st.sampled_from(UNIFORM_STEPS)))
    n = draw(st.integers(2, 3 * _ROWS + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    thetas = np.unique(rng.uniform(0.0, np.pi, n))
    if draw(st.booleans()):
        thetas = np.unique(np.concatenate([[0.0, np.pi], thetas]))
    if thetas.size < 2:
        thetas = np.array([0.0, np.pi])
    return AngularGrid(thetas)


@st.composite
def ensembles(draw):
    n = draw(COUNTS)
    j_max = draw(st.sampled_from([1.0, 7.5, 40.0, 250.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weights = rng.uniform(0.0, 2.0, n)
    weights[rng.random(n) < 0.1] = 0.0
    weights[0] = 1.0
    js = rng.uniform(0.0, j_max, n)
    if draw(st.booleans()):
        js = np.rint(js)
    thetas = rng.uniform(0.0, np.pi, n)
    ends = rng.random(n) < 0.05  # records on the domain edges
    thetas[ends] = rng.choice([0.0, np.pi], int(ends.sum()))
    js[rng.random(n) < 0.05] = 0.0
    return TrajectoryEnsemble(weights, js, thetas, draw(st.sampled_from([1.0, 3.7])), j_max)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def j_columns(draw, j_max):
    # DeflectionMap truncates J to int, so fractional columns start at 0
    offset = draw(st.sampled_from([0.0, 0.0, 0.5, 0.25]))
    start = draw(st.integers(-3 if offset == 0.0 else 0, int(j_max) + 3))
    length = draw(st.integers(1, 60))
    if offset == 0.0 and draw(st.booleans()):
        return np.arange(start, start + length)
    return start + offset + np.arange(length, dtype=float)


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(ensemble=ensembles(), grid=grids(), s_j=log_uniform(1e-3, 10.0), s_theta=log_uniform(1e-4, 1.0),
       renormalize=st.booleans(), data=st.data())
def test_qct_df_gaussian_matches_the_reference_bit_for_bit(ensemble, grid, s_j, s_theta, renormalize,
                                                           data):
    config = KernelConfig(s_j, s_theta)
    j_values = data.draw(st.one_of(st.none(), j_columns(ensemble.j_max)))
    got = qct_df_gaussian(ensemble, config, grid, j_values, renormalize_boundary=renormalize)
    want = qct_df_gaussian_reference(ensemble, config, grid, j_values, renormalize_boundary=renormalize)
    assert same_bits(got.values, want.values)
    assert np.array_equal(got.j_values, want.j_values)


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(ensemble=ensembles(), s_j=log_uniform(1e-3, 10.0), data=st.data())
def test_qct_sigma_j_gaussian_matches_the_reference_bit_for_bit(ensemble, s_j, data):
    config = KernelConfig(s_j, 0.1)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    j = np.concatenate([rng.uniform(-5.0, ensemble.j_max + 5.0, data.draw(st.integers(1, 80))),
                        np.arange(int(ensemble.j_max) + 1)])
    fn = qct_sigma_j_gaussian(ensemble, config)
    assert same_bits(fn(j), qct_sigma_j_gaussian_reference(ensemble, config, j))
    assert same_bits(np.array([fn(float(j[0]))]), qct_sigma_j_gaussian_reference(ensemble, config, j[:1]))


@pytest.mark.parametrize("s_j, s_theta_deg", [(0.0016, 0.007), (1.5, 3.0), (5.0, 20.0)])
def test_reference_ensemble_map_is_unchanged(s_j, s_theta_deg):
    """A 50k-record README-like ensemble at the README, heuristic-like and
    wide widths, with and without boundary renormalization."""
    rng = np.random.default_rng(3)
    n = 12 * _CHUNK + 1000
    js = 0.5 * (np.sqrt(1.0 + 4.0 * rng.random(n) * 40.0 * 41.0) - 1.0)
    thetas = np.clip(np.pi * (1.0 - js / 40.0) + 0.08 * rng.standard_normal(n), 0.0, np.pi)
    ensemble = TrajectoryEnsemble(np.ones(n), js, thetas, 1.0, 40.0)
    config = KernelConfig(s_j, math.radians(s_theta_deg))
    grid = AngularGrid.uniform(1.0)
    for renormalize in (False, True):
        got = qct_df_gaussian(ensemble, config, grid, renormalize_boundary=renormalize).values
        want = qct_df_gaussian_reference(ensemble, config, grid, renormalize_boundary=renormalize).values
        assert same_bits(got, want)


def readme_like_ensemble():
    """The 50k-record ensemble of test_reference_ensemble_map_is_unchanged."""
    rng = np.random.default_rng(3)
    n = 12 * _CHUNK + 1000
    js = 0.5 * (np.sqrt(1.0 + 4.0 * rng.random(n) * 40.0 * 41.0) - 1.0)
    thetas = np.clip(np.pi * (1.0 - js / 40.0) + 0.08 * rng.standard_normal(n), 0.0, np.pi)
    return TrajectoryEnsemble(np.ones(n), js, thetas, 1.0, 40.0)


@pytest.mark.parametrize("s_j, s_theta_deg, moved", [(1.5, 3.0, False), (5.0, 20.0, False), (0.0016, 0.007, True)])
def test_cut_moves_only_cells_below_1e300(s_j, s_theta_deg, moved):
    """The cut kernel's map against the untruncated kernel's: the same bits at
    the heuristic-like and wide widths; at the README widths it moves a few
    cells, each below 1e-300 on both sides."""
    ensemble = readme_like_ensemble()
    config = KernelConfig(s_j, math.radians(s_theta_deg))
    grid = AngularGrid.uniform(1.0)
    for renormalize in (False, True):
        got = qct_df_gaussian(ensemble, config, grid, renormalize_boundary=renormalize).values
        old = qct_df_gaussian_reference(ensemble, config, grid, renormalize_boundary=renormalize,
                                        kernel=gauss_untruncated).values
        changed = ~((got == old) & (np.signbit(got) == np.signbit(old)))
        assert changed.any() == moved
        assert np.all(np.abs(got[changed]) < 1e-300) and np.all(np.abs(old[changed]) < 1e-300)
