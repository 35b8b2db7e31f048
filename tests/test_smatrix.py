import io

import numpy as np
import pytest

from qdeflect import (
    AngularGrid,
    ChannelHeader,
    SMatrixBlock,
    SMatrixParseError,
    SMatrixValidationError,
    dcs,
    load_smatrix,
    opacity,
    partial_cross_section,
    qmdf_map,
    save_smatrix,
    validate_unitarity,
)
from qdeflect.observables import partial_amplitudes, scattering_amplitude
from qdeflect.qmdf import j_partial_amplitude
from conftest import make_block, random_block, sparse_probe_block
from oracles import partial_amplitude_rows
from qdeflect.wigner import wigner_d_rows
from test_amplitude_core import BLOCKS, assert_bits, ragged_block

MINIMAL = """\
k 1.0 1/angstrom
channel j=0 jp=0 v=0 vp=0 Jmax=0
0 0 0 1.0 0.0
"""


def test_load_minimal():
    block = load_smatrix(MINIMAL.encode())
    assert block.header.k == 1.0
    assert block.header.J_max == 0
    assert block.entries[(0, 0, 0)] == 1.0 + 0.0j


def test_comments_and_blank_lines():
    text = "# a comment\n\nk 2.5 1/bohr\nchannel j=1 jp=2 v=0 vp=1 Jmax=5\n3 1 -2 0.1 -0.2  # trailing\n"
    block = load_smatrix(text.encode())
    assert block.header.k_unit == "1/bohr"
    assert block.entries[(3, 1, -2)] == 0.1 - 0.2j


def test_helicity_bound_rejected():
    text = MINIMAL + "0 1 0 0.1 0.0\n"
    with pytest.raises(SMatrixValidationError, match="Omega"):
        load_smatrix(text.encode())


def test_duplicate_key_rejected():
    text = (
        "k 1.0 1/angstrom\nchannel j=1 jp=2 v=0 vp=0 Jmax=10\n"
        "5 0 1 0.1 0.0\n5 0 1 0.2 0.0\n"
    )
    with pytest.raises(SMatrixValidationError, match="duplicate"):
        load_smatrix(text.encode())


def test_parse_error_carries_line_number():
    text = "k 1.0 1/angstrom\nchannel j=0 jp=0 v=0 vp=0 Jmax=2\n1 0 0 bad 0.0\n"
    with pytest.raises(SMatrixParseError) as excinfo:
        load_smatrix(text.encode())
    assert excinfo.value.line == 3


@pytest.mark.parametrize("values", ["nan 0.0", "0.1 nan", "inf 0.0", "0.1 -inf"])
def test_non_finite_entry_rejected_with_line_number(values):
    text = f"k 1.0 1/angstrom\nchannel j=0 jp=0 v=0 vp=0 Jmax=2\n0 0 0 1.0 0.0\n\n1 0 0 {values}\n"
    with pytest.raises(SMatrixParseError, match="non-finite") as excinfo:
        load_smatrix(text.encode())
    assert excinfo.value.line == 5


def test_entries_before_header_rejected():
    with pytest.raises(SMatrixParseError):
        load_smatrix(b"0 0 0 1.0 0.0\n")


def test_j_outside_range_rejected():
    text = "k 1.0 x\nchannel j=0 jp=0 v=0 vp=0 Jmax=2\n3 0 0 0.5 0.0\n"
    with pytest.raises(SMatrixValidationError, match="J outside"):
        load_smatrix(text.encode())


def test_nonpositive_k_rejected():
    with pytest.raises(SMatrixValidationError):
        ChannelHeader(k=0.0, j=0, j_final=0)


def test_negative_quantum_numbers_rejected():
    with pytest.raises(SMatrixValidationError):
        ChannelHeader(k=1.0, j=-1, j_final=0)
    with pytest.raises(SMatrixValidationError):
        ChannelHeader(k=1.0, j=0, j_final=0, J_max=-2)


def test_round_trip_bit_exact(rng):
    block = random_block(rng, j_max=17, j=2, jp=1)
    buf = io.StringIO()
    save_smatrix(block, buf)
    back = load_smatrix(buf.getvalue().encode())
    assert back.header == block.header
    assert set(back.entries) == set(block.entries)
    for key, value in block.entries.items():
        assert back.entries[key] == value  # exact complex equality


def test_energy_label_round_trip():
    header = ChannelHeader(k=1.5, j=0, j_final=0, J_max=1, energy_label="E = 0.73 eV")
    block = SMatrixBlock(header, {(0, 0, 0): 0.2j})
    buf = io.StringIO()
    save_smatrix(block, buf)
    assert load_smatrix(buf.getvalue().encode()).header.energy_label == "E = 0.73 eV"


def test_absent_entries_behave_as_zeros(rng):
    sparse = random_block(rng, j_max=12, j=1, jp=1, density=0.4)
    padded_entries = dict(sparse.entries)
    for J in range(sparse.header.J_max + 1):
        for omega in range(-min(J, 1), min(J, 1) + 1):
            for omega_p in range(-min(J, 1), min(J, 1) + 1):
                padded_entries.setdefault((J, omega, omega_p), 0.0 + 0.0j)
    padded = SMatrixBlock(sparse.header, padded_entries)

    grid = AngularGrid.uniform(1.0)
    assert np.array_equal(dcs(sparse, grid).values, dcs(padded, grid).values)
    assert np.array_equal(qmdf_map(sparse, grid).values, qmdf_map(padded, grid).values)
    for J in range(sparse.header.J_max + 1):
        assert opacity(sparse, J) == opacity(padded, J)


def test_unitarity_pass():
    assert validate_unitarity(make_block({(0, 0, 0): 0.6j})).passed


def test_unitarity_flags_violation():
    report = validate_unitarity(make_block({(0, 0, 0): 1.5}))
    assert not report.passed
    ((key, magnitude),) = report.violations
    assert key == (0, 0, 0)
    assert magnitude == pytest.approx(1.5)


def test_unitarity_tolerance_edge():
    assert validate_unitarity(make_block({(0, 0, 0): 1.0 + 1e-12j})).passed


def test_block_entries_immutable(rng):
    block = random_block(rng, j_max=5)
    with pytest.raises(TypeError):
        block.entries[(0, 0, 0)] = 1.0  # type: ignore[index]


def test_index_matches_a_scan_of_the_entries(rng):
    # the per-call scans the index replaced, kept here as the reference
    block = random_block(rng, j_max=30, j=2, jp=3, density=0.6)
    entries = block.entries
    for omega in range(-2, 3):
        for omega_p in range(-3, 4):
            items = sorted((k[0], v) for k, v in entries.items() if k[1:] == (omega, omega_p))
            js, amps = block.j_column(omega, omega_p)
            assert js.tolist() == [J for J, _ in items]
            assert amps.tolist() == [v for _, v in items]
            assert not (js.flags.writeable or amps.flags.writeable)
    for J in range(32):
        scan = sum(abs(v) ** 2 for _, v in sorted((k, v) for k, v in entries.items() if k[0] == J))
        assert block.sum_sq_at_j(J) == scan
    assert block.helicity_pairs() == sorted({k[1:] for k in entries})
    assert block.js_with_entries() == sorted({k[0] for k in entries})
    assert block.js.tolist() == block.js_with_entries()
    assert list(map(tuple, block.pairs.tolist())) == block.helicity_pairs()
    for array in (block.js, block.pairs):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        block.pairs[0, 0] = 1


@pytest.mark.parametrize("case", BLOCKS)
@pytest.mark.parametrize("window", [(0, None), (3, 9), (12, 12)])
def test_partial_amplitudes_stream_the_sorted_entries(case, window, grid181):
    # every pair of the channel in no order, some twice, and one outside it; the block lacks some
    block = ragged_block(*case)
    h, entries = block.header, block.entries
    every = [(omega, omega_p) for omega in range(-h.j, h.j + 1) for omega_p in range(-h.j_final, h.j_final + 1)]
    pairs = [every[i] for i in np.random.default_rng(case[0]).permutation(len(every))]
    pairs[1:1] = [(h.j + 1, h.j_final), pairs[-1], every[0]]
    refs = {pair: partial_amplitude_rows(block, *pair, grid181) for pair in set(pairs)}
    j_lo, j_hi = window
    streamed = [(J, f_j.copy()) for J, f_j in partial_amplitudes(block, pairs, grid181, j_lo, j_hi)]
    js = [J for J, _ in streamed]
    assert js == sorted({J for J, omega, omega_p in entries
                         if (omega, omega_p) in refs and j_lo <= J <= (h.J_max if j_hi is None else j_hi)})
    d_rows = wigner_d_rows([(omega_p, omega) for omega, omega_p in pairs], grid181.thetas, js)
    for (J, f_j), (_, d) in zip(streamed, d_rows):
        for (omega, omega_p), row, d_row in zip(pairs, f_j, d):
            if (J, omega, omega_p) in entries:
                assert_bits(row, refs[omega, omega_p][J])
            else:  # exactly 0, with the signs of 0 times the stacked recurrence's d^J row
                assert not row.any()
                assert_bits(row, 0j * d_row)


def test_a_sparse_block_builds_no_dense_table_for_its_per_j_and_per_pair_reads():
    block = sparse_probe_block()
    h, entries = block.header, block.entries
    at_j = {J: [] for J in range(h.J_max + 1)}
    for key, v in sorted(entries.items()):
        at_j[key[0]].append(v)
    for J, values in at_j.items():
        scan = sum(abs(v) ** 2 for v in values)
        assert block.sum_sq_at_j(J) == scan
        assert opacity(block, J) == scan / (2 * min(J, h.j) + 1)
        assert partial_cross_section(block, J) == np.pi / h.k**2 * (2 * J + 1) / (2 * h.j + 1) * scan
    for omega, omega_p in block.helicity_pairs()[::50]:
        items = sorted((k[0], v) for k, v in entries.items() if k[1:] == (omega, omega_p))
        js, amps = block.j_column(omega, omega_p)
        assert (js.tolist(), amps.tolist()) == ([J for J, _ in items], [v for _, v in items])
    # the sorted entries are the block's one amplitude representation
    assert not any(hasattr(block, name) for name in ("table", "present", "columns", "_dense"))


@pytest.mark.parametrize("entries", [{}, {(0, 0, 0): 0.5 + 0.1j, (3, 0, 0): -0.2j}])
def test_an_empty_block_or_a_pair_it_lacks_gives_zero_curves(entries, grid181):
    block = SMatrixBlock(ChannelHeader(k=1.0, j=1, j_final=1, J_max=4), entries)
    for J, omega_p, omega in ((2, 0, 1), (3, -1, 1), (4, 1, 0)):
        curve = j_partial_amplitude(block, J, omega_p, omega, grid181)
        assert curve.values.shape == grid181.thetas.shape and not curve.values.any()
    for omega_p, omega in ((1, 1), (-1, 0), (0, 1)):
        curve = scattering_amplitude(block, omega_p, omega, grid181)
        assert curve.values.shape == grid181.thetas.shape and not curve.values.any()
    assert block.j_column(1, 1)[0].size == block.j_column(1, 1)[1].size == 0
    # a lacking pair's rows are zero, next to a pair the block has
    for _, f_j in partial_amplitudes(block, [(1, -1), (0, 0), (-1, 0)], grid181):
        assert not f_j[[0, 2]].any() and f_j[1].any()


@pytest.mark.parametrize("bad", [complex("nan"), complex(0.1, float("inf")), complex("-inf")])
def test_library_block_rejects_non_finite_amplitude(bad):
    header = ChannelHeader(k=1.0, j=0, j_final=0, J_max=2)
    with pytest.raises(SMatrixValidationError, match="non-finite") as excinfo:
        SMatrixBlock(header, {(0, 0, 0): 0.5, (2, 0, 0): bad})
    assert excinfo.value.item == 1  # the position of the failing entry


def test_first_failing_entry_is_reported(rng):
    # the second entry breaks a helicity bound, the third J_max: the first one wins
    header = ChannelHeader(k=1.0, j=1, j_final=0, J_max=3)
    with pytest.raises(SMatrixValidationError, match=r"\|Omega'\|=1") as excinfo:
        SMatrixBlock(header, {(1, 1, 0): 0.1, (2, 0, 1): 0.1, (9, 0, 0): 0.1})
    assert excinfo.value.item == 1


def test_vectorized_checks_match_a_per_entry_check(rng):
    # the per-entry checks the construction-time masks replaced, kept as the reference
    header = ChannelHeader(k=1.0, j=1, j_final=2, J_max=6)

    def rejected(key, value):
        J, omega, omega_p = key
        return (not 0 <= J <= 6 or abs(omega) > min(J, 1) or abs(omega_p) > min(J, 2)
                or not np.isfinite(value))

    for _ in range(300):
        entries = {
            (int(rng.integers(-1, 8)), int(rng.integers(-2, 3)), int(rng.integers(-3, 4))):
                complex(rng.choice([0.5, 0.5j, 0.5, np.nan, np.inf]))
            for _ in range(int(rng.integers(1, 8)))
        }
        first = next((i for i, item in enumerate(entries.items()) if rejected(*item)), None)
        if first is None:
            assert len(SMatrixBlock(header, entries)) == len(entries)
        else:
            with pytest.raises(SMatrixValidationError) as excinfo:
                SMatrixBlock(header, entries)
            assert excinfo.value.item == first
