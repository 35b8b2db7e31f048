"""The column-wise S-matrix and trajectory loaders against per-line loaders.

Each example applies one to three edits to a small valid file: a token
becomes one from a pool of hard cases (what int() and float() accept or
reject, 64-bit overflow, header words, ';', and the '#' that starts an
S-matrix comment but not a trajectory one), is negated, dropped or
doubled; or a line is duplicated, deleted, joined to the next one, split
in two, swapped with the next, or copied to the end.
For every text the two loaders must return the same header and arrays,
or raise the same exception class with the same message.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import load_smatrix_per_line, load_trajectories_per_line
from qdeflect import InputError, _text, load_smatrix, load_trajectories, save_smatrix
from test_input_fuzz import SMATRIX, TRAJECTORIES

COMMENTED = """\

# energy: collision at 0.3 eV
channel j=2 jp=1 v=1 vp=0 Jmax=4   # header after a comment
k 0.75 1/bohr
0 0 0 0.5 -0.25
1 -1 1 1e-3 2.5e-1  # trailing comment
   2 2 -1 -0.0 0.125
# a comment between entries

4 0 0 0.1 0.2
3 1 1 0.5 0.5
"""

TOKENS = ("abc", "nan", "-nan", "inf", "1_0", "0x1", "1.0", "1e2", "-0", "+1", "1e500", "9" * 25,
          "-" + "9" * 25, "٣", "٣.5", ";", "1;2", "#", "0.5#x", "k", "channel", "Jmax=2",
          "j=x", "j=-1", "Jmax=-1", "0", "-2", "energy:", "1\x00", "")
COMMENTED_TRAJECTORIES = """\

   # an indented comment
1.0 2.0 30.0
# sigma_r = 1.5
0.25 7.5 180.0

# j_max = 8.0
# n_tot 3 12
\t0.0 3.0 45.5
"""

EDITS = ("token", "negate", "drop", "double", "duplicate", "delete", "join", "split", "swap", "copy")


@st.composite
def edited(draw, texts):
    lines = draw(st.sampled_from(texts)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        how = draw(st.sampled_from(EDITS))
        if how in ("duplicate", "copy"):
            lines.append(lines[i]) if how == "copy" else lines.insert(i, lines[i])
        elif how == "delete" and len(lines) > 1:
            del lines[i]
        elif how in ("join", "swap") and i + 1 < len(lines):
            lines[i : i + 2] = [f"{lines[i]} {lines[i + 1]}"] if how == "join" else [lines[i + 1], lines[i]]
        elif how == "split" and len(tokens) > 1:
            j = draw(st.integers(1, len(tokens) - 1))
            lines[i : i + 1] = [" ".join(tokens[:j]), " ".join(tokens[j:])]
        elif tokens and how in ("token", "negate", "drop", "double"):
            j = draw(st.integers(0, len(tokens) - 1))
            if how == "drop":
                del tokens[j]
            elif how == "double":
                tokens.insert(j, tokens[j])
            else:
                tokens[j] = draw(st.sampled_from(TOKENS)) if how == "token" else "-" + tokens[j]
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def outcome(load, text):
    try:
        block = load(text.encode())
    except Exception as exc:  # noqa: BLE001 - the class is part of the outcome
        return type(exc), str(exc)
    return block


@settings(max_examples=400, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=edited([SMATRIX, COMMENTED]))
def test_loader_matches_the_per_line_loader(text):
    got, want = outcome(load_smatrix, text), outcome(load_smatrix_per_line, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert got.header == want.header
        assert np.array_equal(got.keys, want.keys) and got.keys.dtype == np.int64
        assert np.array_equal(got.amps, want.amps)
        assert np.array_equal(np.signbit(got.amps.view(float)), np.signbit(want.amps.view(float)))


@settings(max_examples=400, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=edited([TRAJECTORIES, COMMENTED_TRAJECTORIES]))
def test_trajectory_loader_matches_the_per_line_loader(text):
    got, want = outcome(load_trajectories, text), outcome(load_trajectories_per_line, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert (got.sigma_r, got.j_max, got.n_tot_by_j) == (want.sigma_r, want.j_max, want.n_tot_by_j)
        for name in ("weights", "j_values", "thetas"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@pytest.mark.parametrize("token", ["1_0", "0x1", "1.0", "nan", "inf", "-0", "٣", "1\x00", "9" * 25, "4.9e-324",
                                   "1e400", "1e-400", "-0.0", "-nan", "infinity", "-iNF", "+.5", "5.", "+1", "007",
                                   "١.٥", "１"])
def test_tokens_read_as_int_and_float_read_them(token):
    """read_column, and read_records on a one-token record line, give what
    int() or float() gives, bit for bit, a Python int beyond 64 bits, or no
    value where they raise ValueError."""
    for t in (int, float):
        try:
            want = np.array([t(token)], dtype=np.int64 if t is int else float)
        except ValueError:
            with pytest.raises(ValueError):
                _text.read_column([token], t)
            assert _text.read_records([token], [1], (t,))[1] == 0
            continue
        except OverflowError:
            want = np.array([t(token)], dtype=object)
        columns, n = _text.read_records([token], [1], (t,))
        for got in (_text.read_column([token], t), columns[0]):
            assert got.dtype == want.dtype and got.flags.c_contiguous
            assert got.tolist() == want.tolist() if t is int else got.tobytes() == want.tobytes()
        assert n == 1


def test_a_numpy_1x_int_via_float_warning_is_a_refusal(monkeypatch):
    """numpy 1.23-1.26 read '1.0' into an int column with a DeprecationWarning
    only.  The loader makes that warning an error, which numpy raises as a
    ValueError, so that int() decides as the per-line loader does."""
    loadtxt = np.loadtxt

    def numpy_1x_loadtxt(lines, dtype, **kwargs):
        try:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        except DeprecationWarning as exc:
            raise ValueError("could not convert string '1.0' to int64 at row 0, column 1.") from exc
        return loadtxt([line.replace("1.0", "1", 1) for line in lines], dtype, **kwargs)

    monkeypatch.setattr(np, "loadtxt", numpy_1x_loadtxt)
    text = "k 1.0 u\nchannel j=0 jp=0 v=0 vp=0 Jmax=2\n1.0 0 0 0.5 0.5\n"
    assert outcome(load_smatrix, text) == outcome(load_smatrix_per_line, text) == (
        InputError, "line 3: malformed entry '1.0 0 0 0.5 0.5'")


def test_keys_beyond_64_bits_fail_the_bounds_check():
    text = SMATRIX + f"{10**30} 0 0 0.1 0.1\n"
    with pytest.raises(ValueError, match=f"line 9: entry \\(J={10**30}, .*J outside 0..3"):
        load_smatrix(text.encode())
    text = SMATRIX.replace("2 1 -1", f"2 {-10**20} -1")
    with pytest.raises(ValueError, match=f"line 7: entry .*Omega={-10**20}.*\\|Omega\\|={10**20} > min"):
        load_smatrix(text.encode())


def test_duplicate_entry_is_reported_on_its_later_line():
    text = SMATRIX.replace("2 1 -1 -0.1 0.2", "0 0 0 0.9 0.9") + "0 0 0 0.1 0.1\n"
    with pytest.raises(ValueError, match=r"^line 7: duplicate entry for \(J=0, Omega=0, Omega'=0\)$"):
        load_smatrix(text.encode())


@pytest.mark.parametrize("text, message", [
    ("", "line 1: missing k line"),
    ("channel j=0 jp=0 v=0 vp=0 Jmax=2\n# no entries\n", "line 2: missing k line"),
    ("# header only\nk 1.0 u\n\n", "line 3: missing channel line"),
])
def test_missing_header_line_is_reported_on_the_last_line(text, message):
    """With no entry line to fail first, a missing k or channel line is
    reported on the file's last line, as the per-line loader does."""
    for load in (load_smatrix, load_smatrix_per_line):
        assert outcome(load, text) == (InputError, message)


@pytest.mark.parametrize("k_line, channel_line, message", [
    ("k 1.0 1/angstrom junk", "channel j=0 jp=0 v=0 vp=0 Jmax=1",
     "line 1: unexpected 'junk' after the k unit"),
    ("k 1.0 1/angstrom", "channel j=0 jp=0 v=0 vp=0 Jmax=1 foo=3", "line 2: unknown channel field 'foo'"),
    ("k 1.0", "channel j=0 jp=0 v=0 j=2 vp=0 Jmax=1", "line 2: repeated channel field 'j'"),
    ("k 1.0 u", "channel j=0 jp=0 v=0 vp=0 Jmax=1 Jmax=1", "line 2: repeated channel field 'Jmax'"),
])
def test_stray_k_tokens_and_channel_fields_are_rejected_on_their_line(k_line, channel_line, message):
    text = f"{k_line}\n{channel_line}\n0 0 0 0.5 0.5\n"
    for load in (load_smatrix, load_smatrix_per_line):
        assert outcome(load, text) == (InputError, message)


def test_saved_blocks_and_a_unit_k_line_still_load(tmp_path):
    block = load_smatrix(COMMENTED.encode())
    save_smatrix(block, tmp_path / "b.smat")
    for load in (load_smatrix, load_smatrix_per_line):
        again = load(tmp_path / "b.smat")
        assert again.header == block.header and np.array_equal(again.amps, block.amps)
        assert load(b"k 2.0 1/angstrom\nchannel j=0 jp=0 v=0 vp=0 Jmax=0\n").header.k_unit == "1/angstrom"
