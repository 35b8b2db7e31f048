import numpy as np
import pytest

from qdeflect import AngularGrid
from qdeflect.angular import fourier_sine_quadrature, integrate_curve


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
    assert fourier_sine_quadrature(grid, values) == pytest.approx(exact, rel=1e-13)


def test_sine_quadrature_requires_full_uniform_grid():
    partial = AngularGrid(np.linspace(0.2, 3.0, 100))
    with pytest.raises(ValueError):
        fourier_sine_quadrature(partial, np.ones(100))


def test_integrate_curve_simpson_fallback():
    t = np.pi * (3 * np.linspace(0, 1, 1501) ** 2 - 2 * np.linspace(0, 1, 1501) ** 3)
    t[0], t[-1] = 0.0, np.pi
    grid = AngularGrid(np.unique(t))
    values = np.sin(grid.thetas) ** 2
    assert not grid.is_uniform
    assert integrate_curve(grid, values) == pytest.approx(np.pi / 2, rel=1e-6)


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
            assert fourier_sine_quadrature(grid, values) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("n_points", [2, 3, 4, 7, 10, 101, 400])
def test_simpson_matches_scipy_on_irregular_grids(n_points, rng):
    from scipy.integrate import simpson

    grid = AngularGrid(np.sort(rng.uniform(0.0, np.pi, n_points)))
    assert not grid.spans_full_range
    for values in (np.sin(grid.thetas) ** 2, np.exp(np.cos(3 * grid.thetas)) + grid.thetas):
        want = float(simpson(values, x=grid.thetas))
        assert integrate_curve(grid, values) == pytest.approx(want, rel=1e-12)
