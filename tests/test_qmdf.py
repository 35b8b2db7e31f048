import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qdeflect import (
    AngularGrid,
    JWindow,
    dcs,
    default_grid,
    integrate_over_theta,
    partial_cross_section,
    partial_dcs,
    qmdf_helicity_map,
    qmdf_map,
    random_phase_map,
    smooth_map,
    sum_over_j,
)
from qdeflect.qmdf import DeflectionMap, _convolve_zero_padded, _gauss_kernel
from qdeflect.wigner import wigner_d_rows
from conftest import make_block, random_block
from oracles import brute_force_qmdf, convolve_all_taps, integral_cross_section_reference
from test_amplitude_core import BLOCKS, amplitude_at_j, ragged_block

GRID = default_grid()
TWO_WAVE = make_block({(0, 0, 0): 1.0, (1, 0, 0): 1.0}, j_max=1)


def idx_of(grid, theta):
    return int(np.argmin(np.abs(grid.thetas - theta)))


class TestJPartialAmplitude:  # f^J of the blocks' one pair (0, 0), row 0 of block.pairs
    def test_j0_constant(self):
        amp = amplitude_at_j(make_block({(0, 0, 0): 1.0}), [0], 0, GRID)[0]
        assert_allclose(amp, -0.5j, atol=1e-15)

    def test_j1_forward(self):
        amp = amplitude_at_j(make_block({(1, 0, 0): 1.0}, j_max=1), [0], 1, GRID)[0]
        assert_allclose(amp[0], -1.5j, atol=1e-15)  # d^1_00(0) = 1

    def test_absent_entry_zero_curve(self):
        amp = amplitude_at_j(make_block({(0, 0, 0): 1.0}, j_max=2), [0], 2, GRID)[0]
        assert np.all(amp == 0.0)


class TestQmdfMap:
    def test_single_wave_quarter_sin(self):
        dmap = qmdf_map(make_block({(0, 0, 0): 1.0}), GRID)
        assert_allclose(dmap.values[:, 0], 0.25 * GRID.sin_thetas, atol=1e-15)
        mid = idx_of(GRID, np.pi / 2)
        assert dmap.values[mid, 0] == pytest.approx(0.25, abs=1e-12)

    def test_two_wave_hand_decomposition(self):
        dmap = qmdf_map(TWO_WAVE, GRID)
        i = idx_of(GRID, 2 * np.pi / 3)
        theta = GRID.thetas[i]
        s, c = np.sin(theta), np.cos(theta)
        assert dmap.values[i, 0] == pytest.approx(s * (0.25 + 0.75 * c), abs=1e-12)
        assert dmap.values[i, 1] == pytest.approx(s * (2.25 * c**2 + 0.75 * c), abs=1e-12)
        assert dmap.values[i, 0] < 0.0  # destructive coherence
        assert dmap.values[i, :].sum() == pytest.approx(0.0625 * s, abs=1e-12)

    def test_matches_brute_force_double_sum(self, rng):
        block = random_block(rng, j_max=7, j=1, jp=1)
        grid = AngularGrid.uniform(5.0)
        fast = qmdf_map(block, grid).values
        slow, worst_imag = brute_force_qmdf(block, grid)
        scale = np.abs(slow).max()
        assert worst_imag < 1e-12 * scale
        assert_allclose(fast, slow, atol=1e-12 * scale)

    def test_sums_to_dcs_times_sin(self, rng):
        for _ in range(3):
            block = random_block(rng, j_max=35)
            summed = qmdf_map(block, GRID).values.sum(axis=1)
            reference = dcs(block, GRID).values * GRID.sin_thetas
            inner = slice(1, -1)
            rel = np.abs(summed[inner] - reference[inner]) / reference[inner]
            assert rel.max() < 1e-12

    def test_endpoint_rows_vanish(self, rng):
        dmap = qmdf_map(random_block(rng, j_max=10), GRID)
        assert np.all(dmap.values[0] == 0.0)
        assert np.all(dmap.values[-1] == 0.0)

    def test_negative_entries_positive_marginal(self):
        dmap = qmdf_map(TWO_WAVE, GRID)
        assert dmap.values.min() < 0.0
        assert np.all(dmap.values.sum(axis=1) >= 0.0)


@st.composite
def _small_blocks(draw):
    j_max = draw(st.integers(min_value=1, max_value=10))
    j = draw(st.integers(min_value=0, max_value=2))
    jp = draw(st.integers(min_value=0, max_value=2))
    k = draw(st.floats(min_value=0.3, max_value=3.0))
    entries = {}
    for J in range(j_max + 1):
        for omega in range(-min(J, j), min(J, j) + 1):
            for omega_p in range(-min(J, jp), min(J, jp) + 1):
                if draw(st.booleans()):
                    re = draw(st.floats(min_value=-0.7, max_value=0.7))
                    im = draw(st.floats(min_value=-0.7, max_value=0.7))
                    entries[(J, omega, omega_p)] = complex(re, im)
    entries.setdefault((0, 0, 0), 0.4 + 0.1j)
    return make_block(entries, k=k, j=j, jp=jp, j_max=j_max)


@settings(max_examples=30, deadline=None)
@given(_small_blocks())
def test_map_identities_hold_for_arbitrary_blocks(block):
    grid = AngularGrid.uniform(2.0)
    dmap = qmdf_map(block, grid)
    summed = dmap.values.sum(axis=1)
    reference = dcs(block, grid).values * grid.sin_thetas
    scale = max(reference.max(), 1e-30)
    assert np.abs(summed - reference).max() <= 1e-12 * scale
    assert np.all(summed >= -1e-13 * scale)
    # the map's own rounding, eps |f^J| |F| per angle, integrates to about
    # eps sqrt(sigma^J sigma_total); 32 covers the worst ratio, 3.9, seen
    # over 5,380 such columns
    floor = 32 * np.finfo(float).eps * np.sqrt(integral_cross_section_reference(block))
    for J in (0, block.header.J_max):
        sigma = partial_cross_section(block, J)
        quad = integrate_over_theta(dmap, J)
        assert abs(quad - sigma) <= max(1e-6 * max(sigma, 1e-30), floor * np.sqrt(sigma))


@pytest.mark.parametrize("j_max, intervals, exact", [(40, 82, True), (40, 81, False), (40, 60, False),
                                                      (20, 42, True), (20, 41, False)])
def test_theta_integral_is_exact_above_two_j_max_plus_one_intervals(j_max, intervals, exact):
    # column J is a sine polynomial of degree J + J_max + 1, which the sine-series
    # rule integrates to rounding on more intervals than that, and aliases on fewer
    block = random_block(np.random.default_rng(3), j_max, 2, 2, 1.3, 0.9)
    dmap = qmdf_map(block, AngularGrid(np.linspace(0.0, np.pi, intervals + 1)))
    sigma = np.array([partial_cross_section(block, J) for J in range(j_max + 1)])
    error = np.abs([integrate_over_theta(dmap, J) for J in range(j_max + 1)] - sigma) / sigma.max()
    assert (error.max() < 1e-13) if exact else (error.max() > 1e-4)
    assert error[: intervals - j_max - 1].max() < 1e-13  # the columns with J + J_max + 1 < intervals


class TestHelicityMap:
    def test_single_helicity_equals_full(self):
        block = make_block({(0, 0, 0): 1.0, (1, 0, 0): 0.5j}, j_max=1)
        full = qmdf_map(block, GRID)
        only = qmdf_helicity_map(block, 0, GRID)
        assert np.array_equal(full.values, only.values)

    def test_unpopulated_helicity_is_zero(self):
        block = make_block({(1, 0, 1): 1.0, (2, 0, 1): 0.3}, jp=1, j_max=2)
        assert np.all(qmdf_helicity_map(block, 0, GRID).values == 0.0)
        assert np.all(qmdf_helicity_map(block, -1, GRID).values == 0.0)

    def test_decomposition_is_exact(self, rng):
        block = random_block(rng, j_max=18, j=1, jp=2)
        total = np.zeros_like(qmdf_map(block, GRID).values)
        for omega_p in range(-2, 3):
            total = total + qmdf_helicity_map(block, omega_p, GRID).values
        assert np.array_equal(total, qmdf_map(block, GRID).values)

    def test_out_of_range_error(self, rng):
        with pytest.raises(ValueError):
            qmdf_helicity_map(random_block(rng, j_max=5, jp=1), 2, GRID)


@pytest.mark.parametrize("case", BLOCKS)
def test_coherent_maps_step_only_the_blocks_pairs(case, monkeypatch):
    # the blocks lack about a third of their channel's helicity pairs, so the groups differ in size
    block, requests = ragged_block(*case), []

    def spy(pairs, thetas, js):
        requests.append(len(pairs))
        return wigner_d_rows(pairs, thetas, js)

    monkeypatch.setattr("qdeflect.observables.wigner_d_rows", spy)
    qmdf_map(block, GRID)
    for omega_p in range(-block.header.j_final, block.header.j_final + 1):
        qmdf_helicity_map(block, omega_p, GRID)
    assert requests and max(requests) <= len(block.pairs)


class TestRandomPhaseMap:
    def test_single_wave_identical_to_full(self):
        block = make_block({(0, 0, 0): 0.7j})
        assert np.array_equal(
            random_phase_map(block, GRID).values, qmdf_map(block, GRID).values
        )

    def test_two_wave_coherence_removed(self):
        dmap = random_phase_map(TWO_WAVE, GRID)
        i = idx_of(GRID, 2 * np.pi / 3)
        assert dmap.values[i, 0] == pytest.approx(0.25 * np.sin(GRID.thetas[i]), abs=1e-12)
        assert np.all(dmap.values >= 0.0)

    def test_forward_backward_symmetric_for_j0(self, rng):
        block = random_block(rng, j_max=30, j=0, jp=2)
        curve = random_phase_map(block, GRID).values.sum(axis=1)
        assert np.abs(curve - curve[::-1]).max() < 1e-10 * curve.max()


class TestWindows:
    def test_full_window_recovers_dcs(self, rng):
        block = random_block(rng, j_max=22)
        dmap = qmdf_map(block, GRID)
        curve = sum_over_j(dmap, JWindow(0, block.header.J_max))
        reference = dcs(block, GRID).values * GRID.sin_thetas
        assert_allclose(curve.values, reference, rtol=1e-11, atol=1e-13 * reference.max())

    def test_degenerate_window_is_column(self, rng):
        dmap = qmdf_map(random_block(rng, j_max=9), GRID)
        assert np.array_equal(sum_over_j(dmap, JWindow(4, 4)).values, dmap.column(4))

    def test_disjoint_windows_are_additive(self, rng):
        block = random_block(rng, j_max=15)
        dmap = qmdf_map(block, GRID)
        left = sum_over_j(dmap, JWindow(0, 5)).values
        right = sum_over_j(dmap, JWindow(6, 15)).values
        full = sum_over_j(dmap, JWindow(0, 15)).values
        scale = np.abs(full).max()
        assert np.abs(left + right - full).max() <= 1e-12 * scale

    def test_window_out_of_range(self, rng):
        dmap = qmdf_map(random_block(rng, j_max=5), GRID)
        with pytest.raises(ValueError):
            sum_over_j(dmap, JWindow(0, 6))

    @pytest.mark.parametrize("seed", range(6))
    def test_windowed_map_gives_the_full_maps_window_sums(self, seed):
        # gaps in J and in the helicity pairs; sum-j forms only the window's columns
        rng = np.random.default_rng(seed)
        block = random_block(rng, j_max=int(rng.integers(1, 30)), j=int(rng.integers(0, 3)),
                             jp=int(rng.integers(0, 3)), density=float(rng.uniform(0.2, 0.9)))
        grid = AngularGrid.uniform(float(rng.choice([1.0, 2.0, 3.0])))
        full = qmdf_map(block, grid)
        j_max = block.header.J_max
        for window in (JWindow(0, 0), JWindow(j_max, j_max), JWindow(0, j_max),
                       JWindow(0, j_max // 2), JWindow(j_max // 2 + 1, j_max) if j_max else JWindow(0, 0)):
            part = qmdf_map(block, grid, window)
            assert part.j_values.tolist() == list(range(window.j_lo, window.j_hi + 1))
            assert np.array_equal(part.values, full.values[:, window.j_lo : window.j_hi + 1])
            want, got = sum_over_j(full, window).values, sum_over_j(part, window).values
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    def test_windowed_map_out_of_range(self, rng):
        with pytest.raises(ValueError, match=r"window \[0, 6\] outside J range 0..5"):
            qmdf_map(random_block(rng, j_max=5), GRID, JWindow(0, 6))


class TestPartialDcs:
    def test_full_window_equals_dcs(self, rng):
        block = random_block(rng, j_max=16)
        curve = partial_dcs(block, JWindow(0, 16), GRID)
        assert_allclose(curve.values, dcs(block, GRID).values, rtol=1e-12)

    def test_single_j_equals_random_phase_column(self, rng):
        block = random_block(rng, j_max=12, j=1, jp=1)
        J = 7
        curve = partial_dcs(block, JWindow(J, J), GRID)
        rp = random_phase_map(block, GRID).column(J)
        inner = slice(1, -1)
        assert_allclose(
            curve.values[inner], rp[inner] / GRID.sin_thetas[inner], rtol=1e-10
        )

    def test_two_wave_hand_values(self):
        low = partial_dcs(TWO_WAVE, JWindow(0, 0), GRID)
        assert_allclose(low.values, 0.25, atol=1e-15)
        both = partial_dcs(TWO_WAVE, JWindow(0, 1), GRID)
        expected = (1 + 3 * np.cos(GRID.thetas)) ** 2 / 4
        assert_allclose(both.values, expected, atol=1e-12)

    def test_windowed_dcs_not_additive_but_sums_are(self):
        # two interfering groups of partial waves
        entries = {(J, 0, 0): 0.9 * np.exp(-0.37j * J * J) for J in range(12)}
        block = make_block(entries, j_max=11)
        lo, hi = JWindow(0, 5), JWindow(6, 11)
        full_dcs = dcs(block, GRID).values
        split_dcs = partial_dcs(block, lo, GRID).values + partial_dcs(block, hi, GRID).values
        assert np.abs(split_dcs - full_dcs).max() > 1e-6

        dmap = qmdf_map(block, GRID)
        split_q = sum_over_j(dmap, lo).values + sum_over_j(dmap, hi).values
        full_q = sum_over_j(dmap, JWindow(0, 11)).values
        assert np.abs(split_q - full_q).max() <= 1e-12 * np.abs(full_q).max()


class TestIntegrateOverTheta:
    def test_single_wave_analytic(self):
        dmap = qmdf_map(make_block({(0, 0, 0): 1.0}), GRID)
        assert integrate_over_theta(dmap, 0) == pytest.approx(np.pi, rel=1e-12)

    def test_coherences_integrate_away(self):
        dmap = qmdf_map(TWO_WAVE, GRID)
        assert integrate_over_theta(dmap, 1) == pytest.approx(3 * np.pi, rel=1e-10)

    def test_sums_to_integral_cross_section(self, rng):
        block = random_block(rng, j_max=30)
        dmap = qmdf_map(block, GRID)
        total = sum(integrate_over_theta(dmap, J) for J in range(block.header.J_max + 1))
        assert total == pytest.approx(integral_cross_section_reference(block), rel=1e-6)

    def test_matches_partial_cross_section_per_j(self, rng):
        block = random_block(rng, j_max=40)
        grid = AngularGrid.uniform(0.09)  # 2001 points
        dmap = qmdf_map(block, grid)
        for J in (0, 13, 27, 40):
            sigma = partial_cross_section(block, J)
            if sigma == 0.0:
                continue
            assert integrate_over_theta(dmap, J) == pytest.approx(sigma, rel=1e-6)


class TestSmoothMap:
    def test_zero_widths_identity(self, rng):
        dmap = qmdf_map(random_block(rng, j_max=8), GRID)
        out = smooth_map(dmap, 0.0, 0.0)
        assert np.array_equal(out.values, dmap.values)

    def test_delta_column_spreads_unit_mass(self):
        grid = AngularGrid.uniform(1.0)
        values = np.zeros((len(grid), 21))
        values[90, 10] = 1.0
        dmap = DeflectionMap(grid, np.arange(21), values)
        out = smooth_map(dmap, 1.0, 0.0)
        assert out.values[90].sum() == pytest.approx(1.0, rel=1e-12)
        assert out.values[90, 10] < 1.0
        assert out.values[90, 9] > 0.0

    def test_mass_conserved_for_interior_support(self, rng):
        grid = AngularGrid.uniform(0.25)
        values = np.zeros((len(grid), 41))
        interior = rng.random((400, 21))
        values[150:550, 10:31] = interior
        dmap = DeflectionMap(grid, np.arange(41), values)
        out = smooth_map(dmap, 1.5, np.radians(1.0))
        assert out.values.sum() == pytest.approx(values.sum(), rel=1e-9)

    @pytest.mark.parametrize(
        "s_j, s_theta_deg",
        # the last two kernels reach past the 11-point J axis and the 181-point theta axis
        [(0.3, 0.0), (1.5, 0.0), (0.0, 1.0), (1.5, 1.0), (0.7, 7.5), (4.0, 0.0), (0.0, 40.0)],
    )
    def test_matches_ndimage_convolve1d_bit_for_bit(self, rng, s_j, s_theta_deg):
        from scipy.ndimage import convolve1d

        grid = AngularGrid.uniform(1.0)
        values = rng.standard_normal((len(grid), 11))
        values[rng.random(values.shape) < 0.2] = 0.0
        s_theta = np.radians(s_theta_deg)
        want = values
        if s_j:
            kernel = _gauss_kernel(max(1, int(np.ceil(6.0 * s_j))), s_j, 1.0)
            want = convolve1d(want, kernel, axis=1, mode="constant", cval=0.0)
        if s_theta:
            h = float(grid.thetas[1] - grid.thetas[0])
            kernel = _gauss_kernel(max(1, int(np.ceil(6.0 * s_theta / h))), s_theta, h)
            want = convolve1d(want, kernel, axis=0, mode="constant", cval=0.0)
        got = smooth_map(DeflectionMap(grid, np.arange(11), values), s_j, s_theta).values
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("shape", [(1, 1), (7, 1), (1, 5), (9, 4), (181, 11)])
    @pytest.mark.parametrize("radius", [1, 3, 4, 10, 200])
    def test_taps_past_the_axis_skipped_bit_for_bit(self, rng, shape, radius):
        values = rng.standard_normal(shape)
        values[rng.random(shape) < 0.3] = -0.0  # a lone -0.0 cell must still come out +0.0
        kernel = _gauss_kernel(radius, 1.0, 0.5)
        for axis in (0, 1):
            got = _convolve_zero_padded(values, kernel, axis)
            assert got.tobytes() == convolve_all_taps(values, kernel, axis).tobytes()

    def test_negative_width_rejected(self, rng):
        dmap = qmdf_map(random_block(rng, j_max=4), GRID)
        with pytest.raises(ValueError):
            smooth_map(dmap, -1.0, 0.0)

    @pytest.mark.parametrize("s_j, s_theta", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0),
                                               (0.0, -math.inf)])
    def test_non_finite_width_rejected(self, rng, s_j, s_theta):
        dmap = qmdf_map(random_block(rng, j_max=4), GRID)
        with pytest.raises(ValueError, match="smoothing widths must be nonnegative and finite"):
            smooth_map(dmap, s_j, s_theta)

    @pytest.mark.parametrize("s_j, s_theta, axis", [(1e308, 0.0, "J"), (2.0**20 / 6.0 * 1.01, 0.0, "J"),
                                                    (0.0, 1e307, "theta"), (1.0, 1e6, "theta")])
    def test_width_too_large_for_a_kernel_rejected(self, rng, s_j, s_theta, axis):
        dmap = qmdf_map(random_block(rng, j_max=4), GRID)
        with pytest.raises(ValueError, match=f"^{axis} smoothing width too large to build a kernel"):
            smooth_map(dmap, s_j, s_theta)

    def test_theta_smoothing_needs_a_uniform_grid(self):
        grid = AngularGrid(np.array([0.0, 0.1, 0.3, 1.0]))
        dmap = DeflectionMap(grid, np.arange(3), np.ones((4, 3)))
        assert smooth_map(dmap, 1.0, 0.0).values.shape == (4, 3)  # J smoothing needs no uniform grid
        with pytest.raises(ValueError, match="theta smoothing needs a uniform grid"):
            smooth_map(dmap, 0.0, 0.1)
