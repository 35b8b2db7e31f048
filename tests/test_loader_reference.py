"""The column-wise S-matrix loader against the per-line loader it replaced.

Each example applies one to three edits to a small valid file: a token
becomes one from a pool of hard cases (what int() and float() accept or
reject, 64-bit overflow, header words, the ';' and '#' the loader treats
specially), is negated, dropped or doubled; or a line is duplicated,
deleted, joined to the next one, split in two, swapped with the next,
or copied to the end.
For every text the two loaders must return the same header, keys and
amplitudes, or raise the same exception class with the same message.
Records are also read two lines at a time, so that faults fall on chunk
boundaries.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import load_smatrix_per_line
from qdeflect import _text, load_smatrix
from qdeflect.smatrix import SMatrixParseError
from test_input_fuzz import SMATRIX

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
EDITS = ("token", "negate", "drop", "double", "duplicate", "delete", "join", "split", "swap", "copy")


@st.composite
def edited(draw):
    lines = draw(st.sampled_from([SMATRIX, COMMENTED])).splitlines()
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


@pytest.mark.parametrize("chunk", [None, 2])
@settings(max_examples=400, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=edited())
def test_loader_matches_the_per_line_loader(chunk, text):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_text, "_CHUNK", chunk or _text._CHUNK)
        got, want = outcome(load_smatrix, text), outcome(load_smatrix_per_line, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert not isinstance(got, tuple), got
        assert got.header == want.header
        assert np.array_equal(got.keys, want.keys) and got.keys.dtype == np.int64
        assert np.array_equal(got.amps, want.amps)
        assert np.array_equal(np.signbit(got.amps.view(float)), np.signbit(want.amps.view(float)))


@pytest.mark.parametrize("token", ["1_0", "0x1", "1.0", "nan", "inf", "-0", "٣", "1\x00", "9" * 25])
def test_tokens_read_as_int_and_float_read_them(token):
    for t in (int, float):
        try:
            want = np.array([t(token)], dtype=np.int64 if t is int else float)
        except ValueError:
            with pytest.raises(ValueError):
                _text.read_column([token], t)
        except OverflowError:
            assert _text.read_column([token], t).tolist() == [t(token)]
        else:
            assert np.array_equal(_text.read_column([token], t), want, equal_nan=True)


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
        assert outcome(load, text) == (SMatrixParseError, message)
