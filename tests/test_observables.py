import numpy as np
import pytest
from numpy.testing import assert_allclose

from qdeflect import (
    AngularCurve,
    AngularGrid,
    ChannelHeader,
    SMatrixBlock,
    dcs,
    integral_cross_section,
    j_partial_amplitude,
    opacity,
    partial_cross_section,
    scattering_amplitude,
)
from conftest import make_block, random_block
from oracles import integral_cross_section_reference, per_j_reference
from test_amplitude_core import BLOCKS, assert_bits, ragged_block

GRID = AngularGrid.uniform(1.0)


def test_amplitude_curve_rejects_a_wrong_shape_or_non_finite_values():
    with pytest.raises(ValueError, match="curve values must match the grid shape"):
        AngularCurve(GRID, np.ones(len(GRID) - 1, dtype=complex))
    with pytest.raises(ValueError, match="curve values must be finite"):
        AngularCurve(GRID, np.full(len(GRID), complex(0.0, np.inf)))


def test_opacity_single_term():
    assert opacity(make_block({(0, 0, 0): 0.6j}), 0) == pytest.approx(0.36)


def test_opacity_helicity_factor():
    block = make_block(
        {(2, 0, 0): 1.0, (2, 1, 0): 1.0, (2, -1, 0): 1.0}, j=1, jp=0, j_max=2
    )
    assert opacity(block, 2) == pytest.approx(1.0)  # 3 / (2 min(2,1) + 1)


def test_opacity_brute_force(rng):
    block = random_block(rng, j_max=6, j=2, jp=2)
    J = 3
    brute = sum(abs(v) ** 2 for (jj, _, _), v in block.entries.items() if jj == J)
    brute /= 2 * min(J, block.header.j) + 1
    assert opacity(block, J) == pytest.approx(brute, rel=1e-14)


def test_opacity_empty_j_is_zero():
    block = make_block({(0, 0, 0): 1.0}, j_max=4)
    assert opacity(block, 3) == 0.0


def test_opacity_domain_error():
    with pytest.raises(ValueError):
        opacity(make_block({(0, 0, 0): 1.0}), 1)


def _random_entries(rng, j_max, j, jp, magnitude):
    """Every allowed (J, Omega, Omega') up to j_max, at random phases and the given magnitudes."""
    keys = [(J, omega, omega_p) for J in range(j_max + 1) for omega in range(-min(J, j), min(J, j) + 1)
            for omega_p in range(-min(J, jp), min(J, jp) + 1)]
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, len(keys)))
    return dict(zip(keys, (magnitude(rng, len(keys)) * phases).tolist()))


def _per_j_block(kind):
    rng = np.random.default_rng(26)
    if kind == "ragged":  # J gaps, and pairs missing
        return ragged_block(*BLOCKS[0])
    if kind == "empty":
        return SMatrixBlock(ChannelHeader(k=1.3, j=1, j_final=2, J_max=6))
    if kind == "below":  # entries only up to J = 5 of J_max = 40
        return make_block(_random_entries(rng, 5, 2, 2, lambda r, n: r.uniform(0.0, 1.0, n)), k=0.7, j=2, jp=2,
                          j_max=40)
    if kind == "tiny":  # |S| near 1e-160: every |S|^2 is subnormal
        return make_block(_random_entries(rng, 12, 2, 3, lambda r, n: r.uniform(0.5, 2.0, n) * 1e-160),
                          k=2.1, j=2, jp=3)
    # |S| slightly above 1, as validate_unitarity would report
    return make_block(_random_entries(rng, 15, 1, 2, lambda r, n: 1.0 + r.uniform(0.0, 1e-9, n)), k=1.7, j=1, jp=2)


@pytest.mark.parametrize("kind", ["ragged", "empty", "below", "tiny", "above"])
def test_per_j_outputs_equal_the_per_j_scan_bit_for_bit(kind):
    block = _per_j_block(kind)
    assert block.sum_sq.dtype == float and block.sum_sq.shape == block.js.shape
    js = np.arange(block.header.J_max + 1)
    ref = np.array([per_j_reference(block, J) for J in js.tolist()])
    if kind == "tiny":
        assert np.all((ref > 0.0) & (ref < np.finfo(float).tiny))
    for J in js.tolist():
        assert isinstance(opacity(block, J), float) and isinstance(partial_cross_section(block, J), float)
        assert_bits(opacity(block, J), ref[J, 0])
        assert_bits(partial_cross_section(block, J), ref[J, 1])
    assert_bits(opacity(block, js), ref[:, 0])
    assert_bits(partial_cross_section(block, js), ref[:, 1])
    mixed = np.concatenate([js[::-1], js[:3]])  # any order, repeats allowed
    assert_bits(partial_cross_section(block, mixed), ref[mixed, 1])
    assert_bits(integral_cross_section(block), integral_cross_section_reference(block))
    with pytest.raises(ValueError, match=f"J={block.header.J_max + 1} outside"):
        opacity(block, np.array([0, block.header.J_max + 1, -1]))


def test_partial_cross_section_unit_factors():
    assert partial_cross_section(make_block({(0, 0, 0): 1.0}), 0) == pytest.approx(np.pi)


def test_partial_cross_section_degeneracy():
    block = make_block({(1, 0, 0): 1.0}, k=2.0, j_max=1)
    assert partial_cross_section(block, 1) == pytest.approx(3 * np.pi / 4)


def test_integral_cross_section_sums():
    assert integral_cross_section(make_block({(0, 0, 0): 1.0})) == pytest.approx(np.pi)
    two = make_block({(0, 0, 0): 1.0, (1, 0, 0): 1.0}, j_max=1)
    assert integral_cross_section(two) == pytest.approx(4 * np.pi)


def test_degeneracy_consistency(rng):
    block = random_block(rng, j_max=20, j=2, jp=1)
    h = block.header
    total = sum(
        np.pi / h.k**2 * (2 * J + 1) * (2 * min(J, h.j) + 1) / (2 * h.j + 1) * opacity(block, J)
        for J in range(h.J_max + 1)
    )
    assert_allclose(total, integral_cross_section(block), rtol=1e-12)


def test_amplitude_single_wave_is_constant():
    amp = scattering_amplitude(make_block({(0, 0, 0): 1.0}), 0, 0, GRID)
    assert_allclose(amp.values, -0.5j, atol=1e-15)


def test_amplitude_two_waves_hand_value():
    block = make_block({(0, 0, 0): 1.0, (1, 0, 0): 1.0}, j_max=1)
    amp = scattering_amplitude(block, 0, 0, GRID)
    idx = np.argmin(np.abs(GRID.thetas - np.pi / 2))
    assert_allclose(amp.values[idx], -0.5j, atol=1e-12)


def test_amplitude_empty_block_is_zero():
    block = make_block({(0, 0, 0): 0.0}, j_max=3)
    amp = scattering_amplitude(block, 0, 0, GRID)
    assert np.all(amp.values == 0.0)


def test_amplitude_helicity_domain_error():
    with pytest.raises(ValueError):
        scattering_amplitude(make_block({(0, 0, 0): 1.0}), 1, 0, GRID)


def test_dcs_single_wave_flat():
    curve = dcs(make_block({(0, 0, 0): 1.0}), GRID)
    assert_allclose(curve.values, 0.25, atol=1e-15)


def test_dcs_two_waves_hand_values():
    block = make_block({(0, 0, 0): 1.0, (1, 0, 0): 1.0}, j_max=1)
    curve = dcs(block, GRID)
    assert_allclose(curve.values[0], 4.0, atol=1e-12)  # (1+3)^2 / 4 at theta = 0
    idx = np.argmin(np.abs(GRID.thetas - np.pi / 2))
    expected = (1 + 3 * np.cos(GRID.thetas[idx])) ** 2 / 4
    assert_allclose(curve.values[idx], expected, rtol=1e-12)


def test_dcs_nonnegative_random(rng):
    for _ in range(5):
        block = random_block(rng, j_max=25)
        assert np.all(dcs(block, GRID).values >= 0.0)


def test_global_phase_invariance(rng):
    block = random_block(rng, j_max=15, j=1, jp=2)
    shifted = block.scaled(np.exp(1.234j))
    assert_allclose(
        dcs(shifted, GRID).values, dcs(block, GRID).values, rtol=1e-12, atol=1e-15
    )
    assert_allclose(
        integral_cross_section(shifted), integral_cross_section(block), rtol=1e-12
    )
    for J in range(block.header.J_max + 1):
        assert_allclose(opacity(shifted, J), opacity(block, J), rtol=1e-12, atol=1e-16)


def test_dcs_against_independent_reconstruction(rng):
    # rebuild the DCS at a few angles from the raw entries and the
    # extended-precision rotation elements, touching none of the library's
    # amplitude machinery
    from oracles import wigner_d_exact

    block = random_block(rng, j_max=6, j=1, jp=2, density=0.9)
    h = block.header
    thetas = [0.7, 1.9, 2.6]
    grid = AngularGrid(np.array(thetas))
    curve = dcs(block, grid)
    for idx, theta in enumerate(thetas):
        total = 0.0
        for omega in range(-h.j, h.j + 1):
            for omega_p in range(-h.j_final, h.j_final + 1):
                amp = 0.0 + 0.0j
                for J in range(h.J_max + 1):
                    s = block.entries.get((J, omega, omega_p))
                    if s is None or abs(omega) > J or abs(omega_p) > J:
                        continue
                    d_el = wigner_d_exact(J, omega_p, omega, theta)
                    amp += (2 * J + 1) * d_el * s / (2j * h.k)
                total += abs(amp) ** 2
        total /= 2 * h.j + 1
        assert curve.values[idx] == pytest.approx(total, rel=1e-12)


def test_amplitude_additivity_over_j(rng):
    block = random_block(rng, j_max=14, j=1, jp=1)
    h = block.header
    for omega, omega_p in block.pairs.tolist():
        total = np.zeros(len(GRID), dtype=complex)
        for J in range(h.J_max + 1):
            if abs(omega) > min(J, h.j) or abs(omega_p) > min(J, h.j_final):
                continue
            total = total + j_partial_amplitude(block, J, omega_p, omega, GRID).values
        amp = scattering_amplitude(block, omega_p, omega, GRID)
        assert np.array_equal(total, amp.values)
