"""Mutation fuzzing of the three input formats through the CLI, in process,
and through the library readers.

Each example takes a small valid file and changes one line: a token
becomes a non-number, NaN, inf or its own negative, is dropped or doubled,
or the whole line is duplicated.  Whatever the change, the CLI must exit 0
or 1 without a traceback, and an exit 1 must print one error line that
names the changed line, unless the change removed a required line's key
(the message then says what is missing, as there is no line to point at).
A reader must return or raise an InputError that holds to the same rule.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qdeflect import (InputError, PhaseBranch, PhaseModel, TrajectoryEnsemble, load_smatrix, load_trajectories,
                      parse_model_file, save_smatrix, save_trajectories, synth_smatrix)
from qdeflect._text import read_text
from qdeflect.cli import main

SMATRIX = """\
# energy: E = 1 eV
k 1.5 1/angstrom
channel j=1 jp=1 v=0 vp=0 Jmax=3
0 0 0 0.5 0.1
1 -1 1 0.2 -0.3
1 0 0 0.4 0.0
2 1 -1 -0.1 0.2
3 0 1 0.3 0.3
"""

# '# n_tot 2 10' is an ordinary comment line, whatever a mutation makes of its tokens
TRAJECTORIES = """\
# qct trajectory ensemble
# sigma_r = 2.0
# j_max = 10.0
# n_tot 2 10
1.0 2.0 30.0
0.5 5.5 90.0
2.0 9.0 170.0
1.0 0.0 0.0
"""

CLASSICAL = """\
kind = classical
jmax = 20
cbranch = 1.0 2.9 -2.4
cbranch = 0.5 0.7 0.9
noise = 0.05
count = 200
seed = 4
sigma_r = 2.0
"""

QUADRATIC = """\
kind = quadratic
k = 1.0
jmax = 30
j0 = 15
w = 5
h = 0.9
alpha = 0.02
jp = 1
phase_offset = 0.3
"""

# the values that size the work: a mutation never raises them, so only their
# value token changes, and never to inf
SIZE_KEYS = ("jmax", "count", "Jmax", "j_max")

MUTATIONS = ("abc", "nan", "inf", "-inf", "negate", "drop", "double", "duplicate line")


@st.composite
def mutated(draw, text):
    """(mutated text, 1-based number of the line that now holds the fault)."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(MUTATIONS))
    if how == "duplicate line":
        return "\n".join(lines[: i + 1] + lines[i:]) + "\n", i + 2
    tokens = lines[i].split()
    sizing = [j for j, tok in enumerate(tokens) if tok.partition("=")[0] in SIZE_KEYS]
    if tokens[0] in SIZE_KEYS or tokens[1:2] == ["j_max"]:
        sizing = [len(tokens) - 1]  # 'jmax = 20': the key and '=' stay
        j = sizing[0]
    else:
        j = draw(st.integers(0, len(tokens) - 1))
    if j in sizing and how == "inf":
        how = "abc"
    name, eq, value = tokens[j].rpartition("=")
    prefix = name + eq
    if how == "drop":
        del tokens[j]
    elif how == "double":
        tokens.insert(j, tokens[j])
    else:
        tokens[j] = prefix + ("-" + value if how == "negate" else how)
    lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n", i + 1


def run_cli(command: str, text: str | bytes, *extra: str) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, str(path), "--out", str(Path(tmp) / "out.csv"), *extra])
    return code, err.getvalue()


def check(code: int, err: str, line: int) -> None:
    assert "Traceback" not in err
    assert code in (0, 1), err
    errors = [msg for msg in err.splitlines() if msg.startswith("qdeflect: error:")]
    assert len(errors) == (code == 1), err
    if code == 1 and "missing" not in errors[0]:
        assert f": line {line}: " in errors[0], (line, errors[0])


FUZZ = settings(max_examples=150, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("seed_text", [SMATRIX, TRAJECTORIES, CLASSICAL, QUADRATIC])
def test_seed_files_are_valid(seed_text):
    command = {SMATRIX: "opacity", TRAJECTORIES: "qct-dcs"}.get(seed_text, "synth")
    assert run_cli(command, seed_text)[0] == 0


@FUZZ
@given(mutated(SMATRIX))
def test_smatrix_mutations(case):
    check(*run_cli("opacity", case[0]), case[1])


@FUZZ
@given(mutated(TRAJECTORIES))
def test_trajectory_mutations(case):
    check(*run_cli("qct-dcs", case[0], "--order-theta", "4", "--grid-deg", "30"), case[1])


@FUZZ
@given(st.one_of(mutated(CLASSICAL), mutated(QUADRATIC)))
def test_model_file_mutations(case):
    check(*run_cli("synth", case[0]), case[1])


def check_reader(read, case) -> None:
    """read(text) returns, or raises an InputError on the changed line; as in
    check(), a message that says what is missing may name any line or none."""
    text, line = case
    try:
        read(text)
    except InputError as exc:
        if "missing" not in str(exc):
            assert exc.line == line, (line, str(exc))


@FUZZ
@given(mutated(SMATRIX))
def test_smatrix_reader_mutations(case):
    check_reader(lambda text: load_smatrix(text.encode()), case)


@FUZZ
@given(mutated(TRAJECTORIES))
def test_trajectory_reader_mutations(case):
    check_reader(lambda text: load_trajectories(text.encode()), case)


@FUZZ
@given(st.one_of(mutated(CLASSICAL), mutated(QUADRATIC)))
def test_model_file_reader_mutations(case):
    check_reader(lambda text: parse_model_file(text).generate(), case)


# faults that were a plain ValueError: each lies in what a file supplies, though no line holds it
NO_LINE_FAULTS = {
    "missing sigma_r": lambda: load_trajectories(b"# j_max = 10.0\n1.0 2.0 30.0\n"),
    "missing kind": lambda: parse_model_file("jmax = 20\n"),
    "one two-branch line": lambda: parse_model_file("kind = two-branch\nbranch = 0.8 10 4 0.0 -0.2\n"),
    "no cbranch": lambda: parse_model_file("kind = classical\njmax = 20\n"),
    "ensemble shapes": lambda: TrajectoryEnsemble(np.ones(3), np.ones(2), np.ones(3), 1.0, 5.0),
    "no branch": lambda: PhaseModel(()),
    # a branch whose amplitude passes 1, which no GaussianAmplitude does
    "|S| > 1": lambda: synth_smatrix(PhaseModel((PhaseBranch(lambda j: 2.0 + 0.0 * j, (0.0,)),)), 1.0, 10),
}


@pytest.mark.parametrize("fault", sorted(NO_LINE_FAULTS))
def test_a_file_fault_with_no_line_is_an_input_error(fault):
    with pytest.raises(InputError) as info:
        NO_LINE_FAULTS[fault]()
    assert info.value.line is None


@pytest.mark.parametrize("command, seed_text", [("opacity", SMATRIX), ("qct-dcs", TRAJECTORIES),
                                                ("synth", CLASSICAL)])
def test_a_byte_that_is_not_utf8_exits_1_naming_its_line(command, seed_text):
    lines = seed_text.encode().splitlines(keepends=True)
    lines[3] = lines[3].replace(b" ", b" \xff", 1)
    assert run_cli(command, b"".join(lines)) == (1, "qdeflect: error: line 4: not UTF-8 text\n")


# line breaks as str.splitlines, and so every reader, counts them: \r\n, a lone \r, a form feed, U+2028
@pytest.mark.parametrize("data, line", [(b"\xff", 1), (b"a\n\xff", 2), (b"a\nb\xff\n", 2),
                                        (b"a\r\nb\rc\x0cd\n\xff", 5), ("a\u2028".encode() + b"\xff", 2),
                                        (b"\xef\xbb\xbf\xff", 1), (b"\xef\xbb\xbfa\n\xff", 2)])
def test_a_byte_that_is_not_utf8_is_on_the_line_the_readers_number(data, line):
    with pytest.raises(InputError) as info:
        read_text(data)
    assert info.value.line == line and str(info.value) == f"line {line}: not UTF-8 text"


# each reader, with what writes its result back out as text, and the sources it reads (a model file: no stream)
BOM_READERS = {"smatrix": (SMATRIX, load_smatrix, save_smatrix, ("path", "bytes", "stream")),
               "trajectories": (TRAJECTORIES, load_trajectories, save_trajectories, ("path", "bytes", "stream")),
               "model": (CLASSICAL, lambda source: parse_model_file(source).generate(), save_trajectories,
                         ("path", "bytes"))}


@pytest.mark.parametrize("seed_text, read, write, form", [
    pytest.param(*reader[:3], form, id=f"{name}-{form}") for name, reader in BOM_READERS.items() for form in reader[3]])
def test_a_leading_byte_order_mark_is_skipped(tmp_path, seed_text, read, write, form):
    def written(data: bytes) -> str:
        (tmp_path / "input.txt").write_bytes(data)
        source = {"path": tmp_path / "input.txt", "bytes": data, "stream": io.StringIO(data.decode())}[form]
        write(read(source), out := io.StringIO())
        return out.getvalue()

    assert written(b"\xef\xbb\xbf" + seed_text.encode()) == written(seed_text.encode())
