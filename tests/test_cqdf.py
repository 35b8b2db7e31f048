import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdeflect import (
    PhaseUnwrapError,
    cqdf,
    fold_to_observable,
    linear_phase_model,
    modified_smatrix,
    predicted_scattering_angle,
    quadratic_phase_model,
    synth_smatrix,
    unwrap_arg,
)
from conftest import make_block


def phase_block(phases, mags=None, j_max=None):
    mags = np.ones(len(phases)) if mags is None else np.asarray(mags)
    entries = {
        (J, 0, 0): mags[J] * np.exp(1j * phases[J]) for J in range(len(phases))
    }
    return make_block(entries, j_max=j_max or len(phases) - 1)


class TestModifiedSmatrix:
    def test_alternating_sign_on_constant(self):
        block = phase_block(np.zeros(6), mags=0.5 * np.ones(6))
        js, stilde = modified_smatrix(block, 0, 0)
        assert np.array_equal(js, np.arange(6))
        assert_allclose(stilde, 0.5 * (-1.0) ** js, atol=0)

    def test_j0_identity(self):
        block = make_block({(0, 0, 0): 1j})
        _, stilde = modified_smatrix(block, 0, 0)
        assert stilde[0] == 1j

    def test_phase_model_cancellation(self):
        c = 0.3
        js = np.arange(8)
        entries = {
            (int(J), 0, 0): np.exp(-1j * np.pi * J) * np.exp(1j * c * J) for J in js
        }
        block = make_block(entries, j_max=7)
        _, stilde = modified_smatrix(block, 0, 0)
        assert_allclose(stilde, np.exp(1j * c * js), atol=1e-14)

    def test_gap_listed(self):
        block = make_block({(0, 0, 0): 1.0, (1, 0, 0): 1.0, (4, 0, 0): 1.0}, j_max=4)
        with pytest.raises(ValueError, match=r"missing J 2\.\.3 \(2 J missing in 1 gap\)$"):
            modified_smatrix(block, 0, 0)

    def test_gaps_are_counted_from_the_first(self):
        block = make_block({(J, 0, 0): 1.0 for J in (0, 2, 4, 9)})
        with pytest.raises(ValueError, match=r"missing J 1\.\.1 \(6 J missing in 3 gaps\)$"):
            modified_smatrix(block, 0, 0)

    def test_a_wide_gap_is_named_in_one_short_line_at_once(self):
        # a check over the whole J range would list 2999999 missing J, 25.9 MB of message
        block = make_block({(0, 0, 0): 0.5, (3_000_000, 0, 0): 0.5})
        with pytest.raises(ValueError) as info:
            cqdf(block, 0, 0)
        message = str(info.value)
        assert len(message) < 200 and "\n" not in message
        assert message.endswith("missing J 1..2999999 (2999999 J missing in 1 gap)")

    def test_no_entries(self):
        block = make_block({(0, 0, 0): 1.0}, jp=1, j_max=2)
        with pytest.raises(ValueError, match="no entries"):
            modified_smatrix(block, 1, 0)


class TestUnwrap:
    def test_constant_sequence(self):
        assert np.all(unwrap_arg(np.ones(5, dtype=complex)) == 0.0)

    def test_slow_phase(self):
        c = 0.3
        assert_allclose(unwrap_arg(np.exp(1j * c * np.arange(7))), c * np.arange(7), atol=1e-12)

    def test_near_tie_resolved(self):
        step = np.pi - 0.1
        assert_allclose(unwrap_arg(np.exp(1j * step * np.arange(5))), step * np.arange(5), atol=1e-12)

    def test_exact_tie_raises(self):
        values = (-1.0) ** np.arange(4) + 0j
        with pytest.raises(PhaseUnwrapError, match="half-turn"):
            unwrap_arg(values)

    def test_one_sided_resolves_tie_downward(self):
        values = (-1.0) ** np.arange(4) + 0j
        assert_allclose(unwrap_arg(values, mode="one-sided"), -np.pi * np.arange(4), atol=1e-12)

    def test_zero_magnitude_names_j(self):
        values = np.array([1.0, 0.0, 1.0], dtype=complex)
        with pytest.raises(PhaseUnwrapError, match="J=1"):
            unwrap_arg(values)

    def test_zero_magnitude_names_offset_j(self):
        values = np.array([1.0, 0.0, 1.0], dtype=complex)
        with pytest.raises(PhaseUnwrapError, match="J=3"):
            unwrap_arg(values, j_values=np.array([2, 3, 4]))

    @pytest.mark.parametrize("values", [np.array([1, 1, 0], dtype=complex),  # a zero past the J named
                                        np.array([1, 1, -1], dtype=complex)])  # a half turn past them
    def test_j_values_of_another_length_rejected(self, values):
        with pytest.raises(ValueError, match="2 j_values for 3 values"):
            unwrap_arg(values, j_values=[0, 1])
        with pytest.raises(ValueError, match="4 j_values for 3 values"):
            unwrap_arg(values, j_values=[0, 1, 2, 3])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unwrap mode must be one of"):
            unwrap_arg(np.ones(3, dtype=complex), mode="nearest")

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="cannot unwrap an empty sequence"):
            unwrap_arg(np.array([], dtype=complex))

    def test_first_element_principal_value(self):
        assert unwrap_arg(np.array([-1j, -1j], dtype=complex))[0] == pytest.approx(-np.pi / 2)

    def test_magnitudes_recorded(self):
        curve = cqdf(make_block({(0, 0, 0): 0.5, (1, 0, 0): 0.25j}), 0, 0)
        assert_allclose(curve.magnitudes, [0.5, 0.25])


class TestCqdf:
    def test_linear_phase_constant(self):
        c = 0.37
        js = np.arange(12)
        entries = {
            (int(J), 0, 0): np.exp(-1j * np.pi * J) * np.exp(1j * c * J) for J in js
        }
        curve = cqdf(make_block(entries, j_max=11), 0, 0)
        assert_allclose(curve.theta_tilde, c, atol=1e-13)

    def test_flat_modified_phase_is_zero(self):
        block = phase_block(np.pi * np.arange(9))  # S = (-1)^J, S~ = 1
        curve = cqdf(block, 0, 0)
        assert_allclose(curve.theta_tilde, 0.0, atol=1e-13)

    def test_quadratic_phase_central_difference_exact(self):
        alpha = 0.02
        j_max = 40
        block = synth_smatrix(quadratic_phase_model(alpha, 20.0, 50.0), 1.0, j_max)
        curve = cqdf(block, 0, 0)
        js = np.arange(j_max + 1)
        analytic = np.pi - alpha * (2 * js + 1)
        assert np.abs(curve.theta_tilde[1:-1] - analytic[1:-1]).max() < 1e-12
        # one-sided ends differ from the analytic slope by exactly alpha
        assert curve.theta_tilde[0] == pytest.approx(np.pi - 2 * alpha, abs=1e-12)
        assert curve.theta_tilde[-1] == pytest.approx(np.pi - 2 * alpha * j_max, abs=1e-12)

    def test_semiclassical_correspondence(self):
        # for S = e^{2 i eta}, the curve minus pi is 2 d(eta)/dJ under the
        # same finite-difference stencil
        rng = np.random.default_rng(3)
        eta = np.cumsum(-0.5 * rng.uniform(0.05, 0.45, 30))
        block = phase_block(2.0 * eta)
        curve = cqdf(block, 0, 0)
        stencil = np.gradient(2.0 * eta)
        assert_allclose(curve.theta_tilde - np.pi, stencil, atol=1e-12)

    def test_global_phase_invariance(self):
        block = synth_smatrix(quadratic_phase_model(0.015, 25.0, 9.0), 1.0, 50)
        shifted = block.scaled(np.exp(0.77j))
        base = cqdf(block, 0, 0).theta_tilde
        moved = cqdf(shifted, 0, 0).theta_tilde
        assert np.abs(base - moved).max() < 1e-12

    def test_unwrap_failure_propagates(self):
        block = phase_block(np.zeros(5))  # S~ alternates: exact ties
        with pytest.raises(PhaseUnwrapError):
            cqdf(block, 0, 0)

    def test_helicity_pair_with_constant_offset(self):
        from qdeflect import synth_smatrix

        model = quadratic_phase_model(0.015, 20.0, 7.0)
        block = synth_smatrix(model, 1.0, j_max=40, j_final=2, phase_offset=0.4)
        base = cqdf(block, 0, 0)
        lifted = cqdf(block, 1, 0)  # same phases plus a constant offset, J >= 1
        assert np.array_equal(lifted.j_values, np.arange(1, 41))
        # interior central differences are unaffected by the constant offset
        assert_allclose(lifted.theta_tilde[1:-1], base.theta_tilde[2:-1], atol=1e-12)

    def test_too_few_j_values(self):
        block = make_block({(0, 0, 0): 1.0})
        with pytest.raises(ValueError, match="two"):
            cqdf(block, 0, 0)


class TestAngleMapping:
    def test_fold_reflects_into_range(self):
        angles = np.array([0.2, np.pi, 4.0, -2.0, 2 * np.pi + 0.3])
        folded = fold_to_observable(angles)
        assert_allclose(folded, [0.2, np.pi, 2 * np.pi - 4.0, 2.0, 0.3], atol=1e-12)
        assert np.all((folded >= 0) & (folded <= np.pi))

    def test_linear_model_prediction_matches_slope(self):
        c = -0.8  # arg S advances by c per J; observable angle |c|
        block = synth_smatrix(linear_phase_model(c, 30.0, 10.0), 1.0, 60)
        pred = predicted_scattering_angle(cqdf(block, 0, 0))
        assert_allclose(pred, abs(c), atol=1e-12)
