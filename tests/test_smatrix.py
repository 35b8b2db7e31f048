import io

import numpy as np
import pytest

from qdeflect import (
    AngularGrid,
    ChannelHeader,
    InputError,
    SMatrixBlock,
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


def left_sum(values):
    """Left to right from 0.0, as the block's own sums do (and sum() of floats before Python 3.12)."""
    total = 0.0
    for v in values:
        total += v
    return total


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
    with pytest.raises(InputError, match="Omega"):
        load_smatrix(text.encode())


def test_duplicate_key_rejected():
    text = (
        "k 1.0 1/angstrom\nchannel j=1 jp=2 v=0 vp=0 Jmax=10\n"
        "5 0 1 0.1 0.0\n5 0 1 0.2 0.0\n"
    )
    with pytest.raises(InputError, match="duplicate"):
        load_smatrix(text.encode())


def test_parse_error_carries_line_number():
    text = "k 1.0 1/angstrom\nchannel j=0 jp=0 v=0 vp=0 Jmax=2\n1 0 0 bad 0.0\n"
    with pytest.raises(InputError) as excinfo:
        load_smatrix(text.encode())
    assert excinfo.value.line == 3


@pytest.mark.parametrize("values", ["nan 0.0", "0.1 nan", "inf 0.0", "0.1 -inf"])
def test_non_finite_entry_rejected_with_line_number(values):
    text = f"k 1.0 1/angstrom\nchannel j=0 jp=0 v=0 vp=0 Jmax=2\n0 0 0 1.0 0.0\n\n1 0 0 {values}\n"
    with pytest.raises(InputError, match="non-finite") as excinfo:
        load_smatrix(text.encode())
    assert excinfo.value.line == 5


def test_entries_before_header_rejected():
    with pytest.raises(InputError):
        load_smatrix(b"0 0 0 1.0 0.0\n")


def test_j_outside_range_rejected():
    text = "k 1.0 x\nchannel j=0 jp=0 v=0 vp=0 Jmax=2\n3 0 0 0.5 0.0\n"
    with pytest.raises(InputError, match="J outside"):
        load_smatrix(text.encode())


def test_nonpositive_k_rejected():
    with pytest.raises(InputError):
        ChannelHeader(k=0.0, j=0, j_final=0)


def test_negative_quantum_numbers_rejected():
    with pytest.raises(InputError):
        ChannelHeader(k=1.0, j=-1, j_final=0)
    with pytest.raises(InputError):
        ChannelHeader(k=1.0, j=0, j_final=0, J_max=-2)


@pytest.mark.parametrize("name", ["j", "j_final", "v", "v_final", "J_max"])
@pytest.mark.parametrize("bad", [1.5, "2", np.inf, np.nan, None])
def test_non_integral_quantum_number_rejected(name, bad):
    fields = dict(k=1.0, j=1, j_final=0, J_max=5)
    with pytest.raises(InputError, match="must be an integer") as excinfo:
        ChannelHeader(**{**fields, name: bad})
    assert excinfo.value.item == name


@pytest.mark.parametrize("name", ["j", "j_final", "J_max"])
@pytest.mark.parametrize("bad", [2**30 + 1, 10**23, 1e30])
def test_momentum_beyond_two_to_the_30_rejected(name, bad):
    # with each at most 2^30, every index a block forms (the pair codes too) stays within int64
    fields = dict(k=1.0, j=1, j_final=0, J_max=5)
    with pytest.raises(InputError, match=f"{name} must be nonnegative and at most 2\\^30") as excinfo:
        ChannelHeader(**{**fields, name: bad})
    assert excinfo.value.item == name
    top = 2**30
    block = SMatrixBlock(ChannelHeader(k=1.0, j=top, j_final=top, J_max=top), {(top, top, -top): 0.5, (0, 0, 0): 1.0})
    assert block.pairs.tolist() == [[0, 0], [top, -top]] and block.pair_rows.tolist() == [0, 1]


def test_integral_quantum_numbers_are_stored_as_int():
    header = ChannelHeader(k=1.0, j=2.0, j_final=np.int64(1), v=np.int32(3), v_final=0.0, J_max=np.float64(5))
    values = [header.j, header.j_final, header.v, header.v_final, header.J_max]
    assert values == [2, 1, 3, 0, 5] and all(type(v) is int for v in values)
    # before, j = 1.5 decoded the key (1, 1, 0) as the helicity pair (0.5, 0.5)
    with pytest.raises(InputError) as excinfo:
        SMatrixBlock(ChannelHeader(k=1.0, j=1.5, j_final=0, J_max=5), {(1, 1, 0): 0.5})
    assert excinfo.value.item == "j"


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


@pytest.mark.parametrize("name, bad", [
    ("k_unit", ""), ("k_unit", "1/ang strom"), ("k_unit", "1/a#x"), ("k_unit", "1/a\n"), ("k_unit", None),
    ("energy_label", "E = 1\n0 0 0 1 0"), ("energy_label", "E\r= 1"), ("energy_label", "E\u2028= 1"),
    ("energy_label", None),
])
def test_header_text_the_loader_cannot_read_back_is_rejected(name, bad):
    with pytest.raises(InputError) as excinfo:
        ChannelHeader(k=1.0, j=0, j_final=0, **{name: bad})
    assert excinfo.value.item == name


@pytest.mark.parametrize("k_unit, label", [
    ("1/bohr", "  E = 0.73 eV\t"), ("1/\u00c5", "E = 1 eV # collision"), ("1/angstrom", " \n "),
])
def test_saved_header_loads_back_equal(k_unit, label):
    header = ChannelHeader(k=0.1 + 0.2, j=2, j_final=1, v=3, v_final=1, J_max=4, k_unit=k_unit, energy_label=label)
    assert header.energy_label == label.strip()  # as the loader reads it
    buf = io.StringIO()
    save_smatrix(SMatrixBlock(header, {(2, -1, 1): 0.5 - 0.25j}), buf)
    assert load_smatrix(buf.getvalue().encode()).header == header


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
    assert validate_unitarity(make_block({(0, 0, 0): 0.6j})) == ()


def test_unitarity_flags_violation():
    ((key, magnitude),) = validate_unitarity(make_block({(0, 0, 0): 1.5}))
    assert key == (0, 0, 0)
    assert magnitude == pytest.approx(1.5)


def test_unitarity_tolerance_edge():
    assert validate_unitarity(make_block({(0, 0, 0): 1.0 + 1e-12j})) == ()


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
    sum_sq = dict(zip(block.js.tolist(), block.sum_sq.tolist(), strict=True))
    for J in range(32):
        scan = left_sum(abs(v) ** 2 for _, v in sorted((k, v) for k, v in entries.items() if k[0] == J))
        assert sum_sq.get(J, 0.0) == scan
    assert block.js.tolist() == sorted({k[0] for k in entries})
    assert list(map(tuple, block.pairs.tolist())) == sorted({k[1:] for k in entries})
    assert np.array_equal(block.pairs[block.pair_rows], block.keys[:, 1:])
    for array in (block.js, block.pairs, block.pair_rows, block.sum_sq):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        block.pairs[0, 0] = 1


@pytest.mark.parametrize("case", BLOCKS)
@pytest.mark.parametrize("window", [(0, None), (3, 9), (12, 12)])
def test_partial_amplitudes_stream_the_sorted_entries(case, window, grid181):
    # the rows of every pair of the block in no order, some twice
    block = ragged_block(*case)
    h, entries = block.header, block.entries
    rows = np.random.default_rng(case[0]).permutation(len(block.pairs)).tolist()
    rows[1:1] = [rows[-1], 0]
    pairs = [tuple(pair) for pair in block.pairs[rows].tolist()]
    refs = {pair: partial_amplitude_rows(block, *pair, grid181) for pair in set(pairs)}
    j_lo, j_hi = window
    streamed = [(J, f_j.copy()) for J, f_j in partial_amplitudes(block, rows, grid181, j_lo, j_hi)]
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
    sum_sq = dict(zip(block.js.tolist(), block.sum_sq.tolist(), strict=True))
    for J, values in at_j.items():
        scan = left_sum(abs(v) ** 2 for v in values)
        assert sum_sq.get(J, 0.0) == scan
        assert opacity(block, J) == scan / (2 * min(J, h.j) + 1)
        assert partial_cross_section(block, J) == np.pi / h.k**2 * (2 * J + 1) / (2 * h.j + 1) * scan
    for omega, omega_p in block.pairs.tolist()[::50]:
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
    # the stream runs on the block's own pairs: one here, or none
    for _, f_j in partial_amplitudes(block, range(len(block.pairs)), grid181):
        assert f_j.shape == (1, len(grid181)) and f_j.any()


@pytest.mark.parametrize("bad", [complex("nan"), complex(0.1, float("inf")), complex("-inf")])
def test_library_block_rejects_non_finite_amplitude(bad):
    header = ChannelHeader(k=1.0, j=0, j_final=0, J_max=2)
    with pytest.raises(InputError, match="non-finite") as excinfo:
        SMatrixBlock(header, {(0, 0, 0): 0.5, (2, 0, 0): bad})
    assert excinfo.value.item == 1  # the position of the failing entry


@pytest.mark.parametrize("key", [(1.5, 0, 0), ("2", 0, 0), (np.inf, 0, 0), (np.nan, 0, 0), (1, None, 0),
                                 (1, 0), (1, 0, 0, 0)])
def test_key_that_is_not_three_integers_is_rejected(key):
    # int() would truncate 1.5 onto the key (1, 0, 0), read '2' as 2, or raise a bare
    # error; a key of two or four components would shift the components of the keys after it
    header = ChannelHeader(k=1.0, j=0, j_final=1, J_max=3)
    with pytest.raises(InputError, match="must be three integers") as excinfo:
        SMatrixBlock(header, {(1, 0, 0): 0.1, key: 0.5, (0, 0, 0): 0.2})
    assert excinfo.value.item == 1
    # a two- and a four-component key together still hold six components
    with pytest.raises(InputError, match="must be three integers") as excinfo:
        SMatrixBlock(header, {(1, 0, 0): 0.1, (1, 0): 0.5, (1, 0, 0, 0): 0.2})
    assert excinfo.value.item == 1
    # a key with no len() at all
    with pytest.raises(InputError, match="entry 5: a key must be three integers") as excinfo:
        SMatrixBlock(header, {5: 1.0})
    assert excinfo.value.item == 0
    block = SMatrixBlock(header, {(2.0, 0, 0): 0.1, (np.int64(3), np.int32(0), 0): 0.5})
    assert block.keys.tolist() == [[2, 0, 0], [3, 0, 0]]


def test_first_failing_entry_is_reported(rng):
    # the second entry breaks a helicity bound, the third J_max: the first one wins
    header = ChannelHeader(k=1.0, j=1, j_final=0, J_max=3)
    with pytest.raises(InputError, match=r"\|Omega'\|=1") as excinfo:
        SMatrixBlock(header, {(1, 1, 0): 0.1, (2, 0, 1): 0.1, (9, 0, 0): 0.1})
    assert excinfo.value.item == 1


def test_vectorized_checks_match_a_per_entry_check(rng):
    # the per-entry checks the construction-time masks replaced, kept as the reference
    header = ChannelHeader(k=1.0, j=1, j_final=2, J_max=6)

    def rejected(key, value):
        J, omega, omega_p = key
        return (int(J) != J or not 0 <= J <= 6 or abs(omega) > min(J, 1) or abs(omega_p) > min(J, 2)
                or not np.isfinite(value))

    def draw_j():
        # mostly ints, else an integral float, a half-integer or a numeric string
        J = int(rng.integers(-1, 8))
        return (J, float(J), J + 0.5, str(J))[int(rng.choice(4, p=[0.7, 0.1, 0.1, 0.1]))]

    for _ in range(300):
        entries = {
            (draw_j(), int(rng.integers(-2, 3)), int(rng.integers(-3, 4))):
                complex(rng.choice([0.5, 0.5j, 0.5, np.nan, np.inf]))
            for _ in range(int(rng.integers(1, 8)))
        }
        first = next((i for i, item in enumerate(entries.items()) if rejected(*item)), None)
        if first is None:
            assert len(SMatrixBlock(header, entries)) == len(entries)
        else:
            with pytest.raises(InputError) as excinfo:
                SMatrixBlock(header, entries)
            assert excinfo.value.item == first
