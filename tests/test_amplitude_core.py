"""The J-streamed amplitude core against the per-pair reference path.

Every observable must equal, bit for bit and sign of zero included, what
the per-pair accumulation in oracles.py gives: one Wigner table per pair,
f^J rows per pair, sequential sums from zero.
"""

import numpy as np
import pytest

from conftest import make_block, random_block
from oracles import (
    partial_amplitude_rows,
    reference_dcs,
    reference_helicity_map,
    reference_qmdf_map,
    reference_random_phase_map,
    sum_rows,
)
from qdeflect import (
    AngularGrid,
    JWindow,
    dcs,
    default_grid,
    partial_dcs,
    qmdf_helicity_map,
    qmdf_map,
    random_phase_map,
    sum_over_j,
)
from qdeflect.observables import partial_amplitudes, summed_amplitudes


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    if np.iscomplexobj(want):
        assert_bits(got.real, want.real)
        assert_bits(got.imag, want.imag)
        return
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def pair_rows(block, omega, omega_p):
    """The row of (omega, omega_p) in block.pairs, as a list of one index, or empty if the block lacks it."""
    return [i for i, pair in enumerate(block.pairs.tolist()) if pair == [omega, omega_p]]


def amplitude_at_j(block, rows, J, grid):
    """f^J on the given rows of block.pairs, copied out of the stream's buffer; zero without an entry at J."""
    values = np.zeros((len(rows), len(grid)), dtype=complex)
    for _, f_j in partial_amplitudes(block, rows, grid, J, J):
        values[:] = f_j
    return values


def ragged_block(seed, j, jp, j_max):
    """Random block with about a third of its helicity pairs and a fifth of
    its J values removed, so helicity groups differ in size and J has gaps."""
    rng = np.random.default_rng(seed)
    block = random_block(rng, j_max=j_max, j=j, jp=jp, k=float(rng.uniform(0.5, 3.0)), density=0.9)
    pairs = list(map(tuple, block.pairs.tolist()))
    dropped = {pairs[i] for i in rng.choice(len(pairs), size=len(pairs) // 3, replace=False)}
    gaps = set(rng.choice(np.arange(1, j_max), size=j_max // 5, replace=False).tolist())
    entries = {key: s for key, s in block.entries.items()
               if (key[1], key[2]) not in dropped and key[0] not in gaps}
    return make_block(entries, k=block.header.k, j=j, jp=jp, j_max=j_max)


BLOCKS = [(1, 2, 3, 30), (2, 0, 2, 25), (3, 3, 0, 20), (4, 0, 0, 15), (5, 1, 1, 40), (6, 3, 2, 12)]


def off_endpoint_grid():
    rng = np.random.default_rng(7)
    return AngularGrid(np.sort(rng.uniform(0.01, np.pi - 0.01, 157)))


@pytest.fixture(params=["default", "off-endpoint"])
def grid(request):
    return default_grid() if request.param == "default" else off_endpoint_grid()


@pytest.mark.parametrize("case", BLOCKS)
def test_maps_match_reference(case, grid):
    block = ragged_block(*case)
    h = block.header
    full, ref = qmdf_map(block, grid), reference_qmdf_map(block, grid)
    assert full.values.flags.c_contiguous
    assert_bits(full.values, ref)
    assert_bits(random_phase_map(block, grid).values, reference_random_phase_map(block, grid))
    for omega_p in range(-h.j_final, h.j_final + 1):
        assert_bits(qmdf_helicity_map(block, omega_p, grid).values,
                    reference_helicity_map(block, omega_p, grid))
    for lo, hi in ((0, h.J_max // 2), (h.J_max // 2 + 1, h.J_max), (0, h.J_max)):
        assert_bits(sum_over_j(full, JWindow(lo, hi)).values, ref[:, lo : hi + 1].sum(axis=1))


@pytest.mark.parametrize("case", BLOCKS)
def test_curves_match_reference(case, grid):
    block = ragged_block(*case)
    h = block.header
    assert_bits(dcs(block, grid).values, reference_dcs(block, grid))
    for lo, hi in ((0, h.J_max // 2), (3, h.J_max - 2), (h.J_max, h.J_max)):
        assert_bits(partial_dcs(block, JWindow(lo, hi), grid).values, reference_dcs(block, grid, lo, hi))


@pytest.mark.parametrize("case", BLOCKS)
def test_amplitudes_match_reference(case, grid):
    block = ragged_block(*case)
    h = block.header
    present = set(map(tuple, block.pairs.tolist()))
    for omega in range(-h.j, h.j + 1):
        for omega_p in range(-h.j_final, h.j_final + 1):
            rows = partial_amplitude_rows(block, omega, omega_p, grid)
            row = pair_rows(block, omega, omega_p)
            values = summed_amplitudes(block, row, grid).sum(axis=0)
            assert values.dtype == np.complex128  # an amplitude stays complex, also when zero
            assert_bits(values, sum_rows(rows))
            if (omega, omega_p) not in present:
                continue
            for J in range(max(abs(omega), abs(omega_p)), h.J_max + 1):
                assert_bits(amplitude_at_j(block, row, J, grid)[0], rows[J])


def test_zero_amplitude_entry_is_present():
    # an entry of exactly 0 is an entry: its f^J is 0 * d, not a skipped J
    block = make_block({(0, 0, 0): 0.4, (1, 0, 0): 0.0, (2, 0, 0): -0.3j}, j_max=3)
    grid = default_grid()
    rows = partial_amplitude_rows(block, 0, 0, grid)
    for J in range(4):
        assert_bits(amplitude_at_j(block, [0], J, grid)[0], rows[J])
    assert_bits(qmdf_map(block, grid).values, reference_qmdf_map(block, grid))
