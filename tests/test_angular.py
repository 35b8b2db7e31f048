import numpy as np
import pytest

from qdeflect import AngularCurve, AngularGrid, DeflectionMap, integrate_over_theta
from qdeflect.angular import integrate_curve


def test_uniform_grid_properties():
    grid = AngularGrid.uniform(0.25)
    assert len(grid) == 721
    assert grid.thetas[0] == 0.0
    assert grid.thetas[-1] == np.pi
    assert grid.is_uniform
    assert grid.spans_full_range
    assert grid.sin_thetas[0] == 0.0
    assert grid.sin_thetas[-1] == 0.0  # exact, not np.sin(np.pi)


def test_validation_rejects_bad_grids():
    with pytest.raises(ValueError):
        AngularGrid(np.array([0.5]))
    with pytest.raises(ValueError):
        AngularGrid(np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        AngularGrid(np.array([-0.1, 0.5]))
    with pytest.raises(ValueError):
        AngularGrid(np.array([0.5, 3.5]))
    with pytest.raises(ValueError):
        AngularGrid.uniform(0.0)


@pytest.mark.parametrize("step", [0.7, 0.26, 7.0, 200.0, 360.0, float("nan")])
def test_uniform_rejects_steps_that_do_not_divide_180(step):
    with pytest.raises(ValueError):
        AngularGrid.uniform(step)


@pytest.mark.parametrize("step,points", [(30.0, 7), (0.09, 2001), (0.1, 1801), (0.01, 18001)])
def test_uniform_samples_at_the_requested_step(step, points):
    grid = AngularGrid.uniform(step)
    assert len(grid) == points
    assert np.allclose(np.diff(grid.degrees), step, rtol=1e-9, atol=0.0)


def test_curve_rejects_a_wrong_shape_or_non_finite_values():
    grid = AngularGrid.uniform(45.0)
    with pytest.raises(ValueError, match="curve values must match the grid shape"):
        AngularCurve(grid, np.ones(len(grid) - 1))
    with pytest.raises(ValueError, match="curve values must be finite"):
        AngularCurve(grid, [1.0, np.nan, 1.0, 1.0, 1.0])


def test_curve_stores_float64_and_refuses_complex_values():
    grid = AngularGrid.uniform(45.0)
    ints = AngularCurve(grid, [1, 2, 3, 4, 5])
    assert ints.values.dtype == np.float64
    assert ints.values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    floats = np.linspace(0.0, 1.0, len(grid))
    assert np.shares_memory(AngularCurve(grid, floats).values, floats)  # no copy
    assert floats.flags.writeable  # the curve freezes a view, not the caller's array
    for values in (np.arange(len(grid), dtype=np.complex64) * 1j, [1.0, 2.0, 3.0 + 0j, 4.0, 5.0]):
        with pytest.raises(ValueError, match="curve values must be real"):  # never cast to the real part
            AngularCurve(grid, values)
    assert not ints.values.flags.writeable
    with pytest.raises(ValueError):
        ints.values[0] = 0.0


def test_map_rejects_gapped_j_or_a_wrong_shape_and_names_its_j_range():
    grid = AngularGrid.uniform(45.0)
    with pytest.raises(ValueError, match="j_values must be consecutive integers"):
        DeflectionMap(grid, [0, 2], np.ones((len(grid), 2)))
    with pytest.raises(ValueError, match=r"map values must have shape \(n_theta, n_J\)"):
        DeflectionMap(grid, [0, 1], np.ones((len(grid), 3)))
    dmap = DeflectionMap(grid, [3, 4, 5], np.ones((len(grid), 3)))
    assert dmap.j_index(5) == 2
    for J in (2, 6):
        with pytest.raises(ValueError, match=r"J=\d outside map range 3\.\.5"):
            dmap.j_index(J)


def test_a_map_freezes_views_and_leaves_the_callers_arrays_writable():
    grid = AngularGrid.uniform(45.0)
    j_values, values = np.arange(3, 6), np.ones((len(grid), 3))
    dmap = DeflectionMap(grid, j_values, values)
    for kept, given in ((dmap.j_values, j_values), (dmap.values, values)):
        assert np.shares_memory(kept, given) and given.flags.writeable
        assert not kept.flags.writeable


def test_grids_are_read_only():
    grid = AngularGrid.uniform(1.0)
    with pytest.raises(ValueError):
        grid.thetas[0] = 0.3


def test_sine_quadrature_exact_for_sine_polynomials():
    grid = AngularGrid.uniform(0.5)
    t = grid.thetas
    # even harmonics integrate to zero over [0, pi]; odd ones give 2/m
    values = 0.7 * np.sin(t) - 0.2 * np.sin(3 * t) + 0.05 * np.sin(41 * t) + 0.3 * np.sin(8 * t)
    exact = 0.7 * 2.0 / 1.0 - 0.2 * 2.0 / 3.0 + 0.05 * 2.0 / 41.0
    assert integrate_curve(grid, values) == pytest.approx(exact, rel=1e-13)


def test_sine_quadrature_requires_full_uniform_grid():
    partial = AngularGrid(np.linspace(0.2, 3.0, 100))
    with pytest.raises(ValueError):
        integrate_curve(partial, np.ones(100))


# a smoothstep-spaced grid over [0, pi], and a uniform grid over part of it
REFUSED_GRIDS = {
    "irregular": AngularGrid(np.unique(np.pi * (3 * np.linspace(0, 1, 301) ** 2 - 2 * np.linspace(0, 1, 301) ** 3))),
    "partial": AngularGrid(np.linspace(0.0, np.pi / 2, 91)),
}


@pytest.mark.parametrize("name", sorted(REFUSED_GRIDS))
@pytest.mark.parametrize("integrate", [
    lambda grid: integrate_curve(grid, np.sin(grid.thetas) ** 2),
    lambda grid: integrate_over_theta(DeflectionMap(grid, np.arange(3), np.ones((len(grid), 3))), 1),
], ids=["integrate_curve", "integrate_over_theta"])
def test_theta_integration_refuses_other_grids(name, integrate):
    grid = REFUSED_GRIDS[name]
    assert not (grid.is_uniform and grid.spans_full_range)
    with pytest.raises(ValueError, match=r"sine-series quadrature needs a uniform grid over \[0, pi\]"):
        integrate(grid)


def _dst_reference(values):
    """The sine-series rule through scipy's DST-I: odd harmonic m integrates to 2/m."""
    from scipy.fft import dst

    inner = np.asarray(values, dtype=float)[1:-1]
    n = inner.size + 1
    coeffs = dst(inner, type=1) / n
    m = np.arange(1, inner.size + 1)
    return float(np.sum(coeffs[::2] * 2.0 / m[::2]))


# 0.01 degrees (18001 points): a fine grid that --grid-deg accepts
@pytest.mark.parametrize("step_deg", [0.25, 0.5, 0.01])
def test_sine_quadrature_matches_dst_reference(step_deg, rng):
    grid = AngularGrid.uniform(step_deg)
    for _ in range(10):
        # DCS-like curves: |sum_l c_l P_l(cos theta)|^2 sin(theta), and a signed map column
        coeffs = rng.standard_normal(40)
        amp = np.polynomial.legendre.legval(np.cos(grid.thetas), coeffs)
        for values in (amp**2 * grid.sin_thetas, amp * np.cos(grid.thetas) * grid.sin_thetas):
            want = _dst_reference(values)
            assert integrate_curve(grid, values) == pytest.approx(want, rel=1e-14)
