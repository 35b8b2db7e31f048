import contextlib
import io
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qdeflect
from qdeflect import AngularGrid, KernelConfig, load_smatrix, load_trajectories, qct_df_gaussian
from qdeflect.angular import integrate_curve
from qdeflect.cli import COMMANDS, _write_csv, main
from qdeflect.qct import GibbsOscillationWarning, kernel_width

QUAD_MODEL = """\
kind = quadratic
k = 1.0
jmax = 40
j0 = 20
w = 6
h = 1.0
alpha = 0.02
"""

LINEAR_MODEL = """\
kind = linear
k = 1.0
jmax = 40
j0 = 20
w = 6
c = -0.4
"""

CLASSICAL_MODEL = """\
kind = classical
jmax = 25
cbranch = 1.0 2.9 -2.4
noise = 0.05
count = 400
seed = 4
sigma_r = 2.0
"""


def read_csv(path):
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(tok) for tok in line.split(",")])
    return header, np.array(rows)


@pytest.fixture
def block_file(tmp_path):
    model = tmp_path / "model.txt"
    model.write_text(QUAD_MODEL)
    out = tmp_path / "block.smat"
    assert main(["synth", str(model), "--out", str(out)]) == 0
    return out


@pytest.fixture
def helicity_block_file(tmp_path):
    """The block_file model with jp = 2: five helicity pairs, Omega' = -2..2."""
    model = tmp_path / "model_jp2.txt"
    model.write_text(QUAD_MODEL + "jp = 2\n")
    out = tmp_path / "block_jp2.smat"
    assert main(["synth", str(model), "--out", str(out)]) == 0
    return out


@pytest.fixture
def traj_file(tmp_path):
    model = tmp_path / "classical.txt"
    model.write_text(CLASSICAL_MODEL)
    out = tmp_path / "ens.traj"
    assert main(["synth", str(model), "--out", str(out)]) == 0
    return out


def test_synth_block_parses_back(block_file):
    block = load_smatrix(block_file)
    assert block.header.J_max == 40


def test_synth_classical_writes_trajectories(tmp_path):
    model = tmp_path / "model.txt"
    model.write_text(CLASSICAL_MODEL)
    out = tmp_path / "ens.traj"
    assert main(["synth", str(model), "--out", str(out)]) == 0
    ens = load_trajectories(out)
    assert len(ens) == 400
    assert ens.sigma_r == 2.0


def test_dcs_csv_shape(block_file, tmp_path):
    out = tmp_path / "dcs.csv"
    assert main(["dcs", str(block_file), "--out", str(out), "--grid-deg", "1.0"]) == 0
    header, rows = read_csv(out)
    assert header == ["theta_deg", "dcs"]
    assert rows.shape == (181, 2)
    assert np.all(rows[:, 1] >= 0.0)


def test_sum_j_full_window_matches_dcs(block_file, tmp_path):
    dcs_out = tmp_path / "dcs.csv"
    sum_out = tmp_path / "sum.csv"
    assert main(["dcs", str(block_file), "--out", str(dcs_out), "--grid-deg", "0.5"]) == 0
    assert main(["sum-j", str(block_file), "--out", str(sum_out), "--grid-deg", "0.5"]) == 0
    _, dcs_rows = read_csv(dcs_out)
    _, sum_rows = read_csv(sum_out)
    from qdeflect import AngularGrid

    sin_t = AngularGrid.uniform(0.5).sin_thetas  # not the rounded degree column
    reference = dcs_rows[:, 1] * sin_t
    scale = reference.max()
    assert np.abs(sum_rows[:, 1] - reference).max() < 5e-9 * scale


def test_map_long_format(block_file, tmp_path):
    out = tmp_path / "map.csv"
    assert main(["qmdf", str(block_file), "--out", str(out), "--grid-deg", "2.0"]) == 0
    header, rows = read_csv(out)
    assert header == ["theta_deg", "J", "value"]
    assert rows.shape == (91 * 41, 3)
    # theta-major ordering
    assert rows[0, 0] == rows[40, 0]
    assert rows[0, 1] == 0 and rows[40, 1] == 40


def test_map_column_sums_match_dcs_output(block_file, tmp_path):
    from qdeflect import AngularGrid

    map_out = tmp_path / "map.csv"
    dcs_out = tmp_path / "dcs.csv"
    assert main(["qmdf", str(block_file), "--out", str(map_out), "--grid-deg", "2.0"]) == 0
    assert main(["dcs", str(block_file), "--out", str(dcs_out), "--grid-deg", "2.0"]) == 0
    map_rows = read_csv(map_out)[1]
    dcs_vals = read_csv(dcs_out)[1][:, 1]
    sums = map_rows[:, 2].reshape(91, 41).sum(axis=1)
    reference = dcs_vals * AngularGrid.uniform(2.0).sin_thetas
    scale = reference.max()
    assert np.abs(sums - reference).max() < 5e-8 * scale


def test_cqdf_linear_model_constant_column(tmp_path):
    model = tmp_path / "model.txt"
    model.write_text(LINEAR_MODEL)
    block = tmp_path / "block.smat"
    assert main(["synth", str(model), "--out", str(block)]) == 0
    out = tmp_path / "cqdf.csv"
    assert main(["cqdf", str(block), "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["J", "theta_tilde_rad", "theta_tilde_deg", "magnitude"]
    assert np.allclose(rows[:, 1], np.pi - 0.4, atol=1e-9)
    assert np.allclose(rows[:, 2], np.degrees(np.pi - 0.4), atol=1e-5)


def test_deterministic_output_bytes(block_file, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert main(["qmdf", str(block_file), "--out", str(path), "--grid-deg", "1.0"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_provenance_comments(block_file, tmp_path):
    out = tmp_path / "dcs.csv"
    main(["dcs", str(block_file), "--out", str(out)])
    text = out.read_text()
    assert "# command: dcs" in text
    assert "# input sha256: " in text


def test_smoothing_flags(block_file, tmp_path):
    out = tmp_path / "map.csv"
    rc = main([
        "qmdf", str(block_file), "--out", str(out), "--grid-deg", "1.0",
        "--smooth-j", "1.5", "--smooth-theta-deg", "1.0",
    ])
    assert rc == 0
    _, rows = read_csv(out)
    assert np.isfinite(rows).all()


def test_no_sin_theta_flag(block_file, tmp_path, capsys):
    out = tmp_path / "map.csv"
    rc = main(["qmdf", str(block_file), "--out", str(out), "--grid-deg", "30.0",
               "--no-sin-theta"])
    assert rc == 0
    assert "endpoint" in capsys.readouterr().err
    _, rows = read_csv(out)
    endpoints = rows[(rows[:, 0] == 0.0) | (rows[:, 0] == 180.0)]
    assert np.all(endpoints[:, 2] == 0.0)


def test_random_phase_command(block_file, tmp_path):
    out = tmp_path / "rp.csv"
    assert main(["random-phase", str(block_file), "--out", str(out), "--grid-deg", "2.0"]) == 0
    _, rows = read_csv(out)
    assert np.all(rows[:, 2] >= 0.0)


def test_qmdf_helicity_command(tmp_path):
    model = tmp_path / "model.txt"
    model.write_text(LINEAR_MODEL + "jp = 2\nphase_offset = 0.5\n")
    block = tmp_path / "block.smat"
    assert main(["synth", str(model), "--out", str(block)]) == 0
    parts = []
    for omega_p in range(-2, 3):
        out = tmp_path / f"h{omega_p}.csv"
        rc = main(["qmdf-helicity", str(block), "--out", str(out),
                   "--omega-prime", str(omega_p), "--grid-deg", "2.0"])
        assert rc == 0
        parts.append(read_csv(out)[1][:, 2])
    full_out = tmp_path / "full.csv"
    assert main(["qmdf", str(block), "--out", str(full_out), "--grid-deg", "2.0"]) == 0
    full = read_csv(full_out)[1][:, 2]
    assert np.allclose(sum(parts), full, atol=1e-8 * np.abs(full).max() + 1e-18)


def test_cqdf_one_sided_flag(tmp_path):
    flat = tmp_path / "flat.smat"
    lines = ["k 1.0 u", "channel j=0 jp=0 v=0 vp=0 Jmax=5"]
    lines += [f"{J} 0 0 1.0 0.0" for J in range(6)]
    flat.write_text("\n".join(lines) + "\n")
    out = tmp_path / "c.csv"
    rc = main(["cqdf", str(flat), "--out", str(out), "--unwrap", "one-sided"])
    assert rc == 0
    _, rows = read_csv(out)
    assert np.allclose(rows[:, 1], -np.pi, atol=1e-7)  # 9 significant digits in file


@pytest.mark.parametrize("j_max", [40, 100000])  # the block's own J_max, and raised past its entries
def test_opacity_and_sigma_j(block_file, tmp_path, j_max):
    block_file.write_text(block_file.read_text().replace("Jmax=40", f"Jmax={j_max}"))
    op = tmp_path / "op.csv"
    sj = tmp_path / "sj.csv"
    assert main(["opacity", str(block_file), "--out", str(op)]) == 0
    assert main(["sigma-j", str(block_file), "--out", str(sj)]) == 0
    _, op_rows = read_csv(op)
    _, sj_rows = read_csv(sj)
    assert op_rows.shape == sj_rows.shape == (j_max + 1, 2)
    assert np.all(op_rows[:, 1] >= 0.0)
    assert np.all(sj_rows[:, 1] >= 0.0)


def test_partial_dcs_window(block_file, tmp_path):
    out = tmp_path / "pd.csv"
    rc = main(["partial-dcs", str(block_file), "--out", str(out),
               "--jmin", "0", "--jmax", "10", "--grid-deg", "1.0"])
    assert rc == 0
    _, rows = read_csv(out)
    assert np.all(rows[:, 1] >= 0.0)


@pytest.mark.filterwarnings("ignore::qdeflect.qct.GibbsOscillationWarning")
def test_qct_pipeline(tmp_path):
    model = tmp_path / "model.txt"
    model.write_text(CLASSICAL_MODEL)
    traj = tmp_path / "ens.traj"
    main(["synth", str(model), "--out", str(traj)])
    for tag, cmd, extra in (
        ("df-gauss", "qct-df", ["--estimator", "gaussian", "--smooth-j", "1.5",
                                "--smooth-theta-deg", "4.0"]),
        ("df-gauss-renorm", "qct-df", ["--estimator", "gaussian", "--smooth-j", "1.5",
                                       "--smooth-theta-deg", "4.0",
                                       "--boundary-renormalize"]),
        ("df-leg", "qct-df", ["--estimator", "legendre", "--order-theta", "10",
                              "--order-j", "10"]),
        ("dcs", "qct-dcs", ["--order-theta", "10"]),
        ("sj-gauss", "qct-sigma-j", ["--estimator", "gaussian", "--smooth-j", "1.5"]),
        ("sj-leg", "qct-sigma-j", ["--estimator", "legendre", "--order-j", "10"]),
    ):
        out = tmp_path / f"{tag}.csv"
        grid = [] if cmd == "qct-sigma-j" else ["--grid-deg", "2.0"]  # sigma_j has no angle grid
        assert main([cmd, str(traj), "--out", str(out), *grid, *extra]) == 0
        _, rows = read_csv(out)
        assert np.isfinite(rows).all()


def test_synth_seed_override(tmp_path):
    model = tmp_path / "model.txt"
    model.write_text(CLASSICAL_MODEL)
    base = tmp_path / "base.traj"
    same = tmp_path / "same.traj"
    other = tmp_path / "other.traj"
    assert main(["synth", str(model), "--out", str(base)]) == 0
    assert main(["synth", str(model), "--out", str(same), "--seed", "4"]) == 0
    assert main(["synth", str(model), "--out", str(other), "--seed", "5"]) == 0
    assert base.read_bytes() == same.read_bytes()  # file seed is 4
    assert base.read_bytes() != other.read_bytes()


def test_missing_input_exits_1(tmp_path):
    assert main(["dcs", str(tmp_path / "nope.smat"), "--out", str(tmp_path / "x.csv")]) == 1


def test_validation_error_exits_1(tmp_path):
    bad = tmp_path / "bad.smat"
    bad.write_text("k 1.0 u\nchannel j=0 jp=0 v=0 vp=0 Jmax=0\n0 1 0 1.0 0.0\n")
    assert main(["dcs", str(bad), "--out", str(tmp_path / "x.csv")]) == 1


def test_unwrap_tie_exits_2(tmp_path):
    flat = tmp_path / "flat.smat"
    lines = ["k 1.0 u", "channel j=0 jp=0 v=0 vp=0 Jmax=5"]
    lines += [f"{J} 0 0 1.0 0.0" for J in range(6)]
    flat.write_text("\n".join(lines) + "\n")
    assert main(["cqdf", str(flat), "--out", str(tmp_path / "x.csv")]) == 2


def test_bad_flag_exits_1(block_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["dcs", str(block_file), "--out", str(tmp_path / "x.csv"), "--grid-deg", "oops"])
    assert excinfo.value.code == 1


def test_non_finite_entry_exits_1_naming_line(tmp_path, capsys):
    for bad in ("nan 0.0", "0.5 inf", "-inf 0.0"):
        path = tmp_path / "bad.smat"
        path.write_text(f"k 1.0 u\nchannel j=0 jp=0 v=0 vp=0 Jmax=2\n0 0 0 1.0 0.0\n1 0 0 {bad}\n")
        out = tmp_path / "x.csv"
        assert main(["dcs", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "line 4" in err
        assert "Traceback" not in err
        assert not out.exists()


def test_short_branch_line_exits_1_naming_line(tmp_path, capsys):
    model = tmp_path / "model.txt"
    model.write_text("kind = two-branch\njmax = 30\nbranch = 0.8 10\nbranch = 0.8 20 4 0.0 -0.5\n")
    assert main(["synth", str(model), "--out", str(tmp_path / "b.smat")]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err
    assert "Traceback" not in err


# (command, options, params line, data rows) on a block with J = 0..40: a map has a row
# per angle and J, a curve one per angle (91 on the 2 deg grid), a per-J command one per J
BLOCK_RUNS = [
    ("dcs", ["--grid-deg", "2"], "grid_deg=2.0", 91),
    ("opacity", [], "", 41),
    ("sigma-j", [], "", 41),
    ("qmdf", ["--grid-deg", "2", "--smooth-j", "1.5", "--smooth-theta-deg", "1.0", "--no-sin-theta"],
     "grid_deg=2.0 no_sin_theta=1 smooth_j=1.5 smooth_theta_deg=1.0", 91 * 41),
    ("random-phase", ["--grid-deg", "2"], "grid_deg=2.0", 91 * 41),
    ("qmdf-helicity", ["--grid-deg", "2", "--omega-prime", "0"], "grid_deg=2.0 omega_prime=0", 91 * 41),
    ("sum-j", ["--grid-deg", "2", "--jmin", "5"], "grid_deg=2.0 jmax=40 jmin=5", 91),
    ("partial-dcs", ["--grid-deg", "2", "--jmax", "10"], "grid_deg=2.0 jmax=10 jmin=0", 91),
    ("cqdf", ["--unwrap", "one-sided"], "omega=0 omega_prime=0 unwrap=one-sided", 41),
]
# on the ensemble, with J = 0..25
TRAJ_RUNS = [
    ("qct-df", ["--grid-deg", "2", "--estimator", "gaussian", "--smooth-j", "1.5",
                "--smooth-theta-deg", "4", "--boundary-renormalize"],
     "boundary_renormalize=1 estimator=gaussian grid_deg=2.0 s_j=1.5 s_theta=0.06981317007977318", 91 * 26),
    ("qct-df", ["--grid-deg", "2", "--order-j", "8"],
     "estimator=legendre grid_deg=2.0 order_j=8 order_theta=20", 91 * 26),
    ("qct-dcs", ["--grid-deg", "2", "--order-theta", "10"],
     "estimator=legendre grid_deg=2.0 order_theta=10", 91),
    ("qct-sigma-j", ["--estimator", "gaussian", "--smooth-j", "1.5"], "estimator=gaussian s_j=1.5", 26),
    ("qct-sigma-j", [], "estimator=legendre order_j=20", 26),
]


@pytest.mark.parametrize("source,command,extra,params,rows", [
    *[("block_file", *run) for run in BLOCK_RUNS],
    # the same runs on five helicity pairs, and the curve at Omega' = 1, which starts at J = 1
    *[("helicity_block_file", *run) for run in BLOCK_RUNS],
    ("helicity_block_file", "cqdf", ["--unwrap", "one-sided", "--omega-prime", "1"],
     "omega=0 omega_prime=1 unwrap=one-sided", 40),
    *[("traj_file", *run) for run in TRAJ_RUNS],
])
@pytest.mark.filterwarnings("ignore::qdeflect.qct.GibbsOscillationWarning")
def test_params_line_and_row_count_per_command(request, tmp_path, source, command, extra, params, rows):
    out = tmp_path / "out.csv"
    assert main([command, str(request.getfixturevalue(source)), "--out", str(out), *extra]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == f"# command: {command}"
    assert lines[3] == f"# params: {params}"
    assert len(lines) == 5 + rows  # four comment lines and the column header


@pytest.mark.parametrize("command,extra", [
    ("qct-dcs", ["--estimator", "gaussian"]),
    ("qct-dcs", ["--order-j", "5"]),
    ("qct-dcs", ["--smooth-j", "1.5"]),
    ("qct-dcs", ["--smooth-theta-deg", "3"]),
    ("qct-dcs", ["--boundary-renormalize"]),
    ("qct-sigma-j", ["--grid-deg", "1"]),
    ("qct-sigma-j", ["--order-theta", "5"]),
    ("qct-sigma-j", ["--boundary-renormalize"]),
    ("qct-sigma-j", ["--smooth-theta-deg", "3"]),
    # an option only the estimator not selected reads
    ("qct-df", ["--smooth-j", "1e308", "--boundary-renormalize"]),
    ("qct-df", ["--estimator", "legendre", "--smooth-j", "0"]),
    ("qct-df", ["--smooth-theta-deg", "3"]),
    ("qct-df", ["--boundary-renormalize"]),
    ("qct-df", ["--estimator", "gaussian", "--order-theta", "20"]),
    ("qct-df", ["--estimator", "gaussian", "--smooth-j", "1.5", "--order-j", "8"]),
    ("qct-sigma-j", ["--smooth-j", "1.5"]),
    ("qct-sigma-j", ["--estimator", "gaussian", "--order-j", "20"]),
])
def test_options_a_command_does_not_read_exit_1(traj_file, tmp_path, command, extra):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as excinfo:
        main([command, str(traj_file), "--out", str(out), *extra])
    assert excinfo.value.code == 1
    assert not out.exists()


@pytest.mark.parametrize("command,extra,flag,estimator", [
    ("qct-df", ["--order-j", "8", "--estimator", "gaussian"], "--order-j", "gaussian"),
    ("qct-df", ["--boundary-renormalize", "--order-theta", "4"], "--boundary-renormalize", "legendre"),
    ("qct-sigma-j", ["--smooth-j", "1.5", "--estimator", "legendre"], "--smooth-j", "legendre"),
])
def test_option_of_the_estimator_not_selected_is_named(traj_file, tmp_path, capsys, command, extra, flag,
                                                       estimator):
    with pytest.raises(SystemExit):
        main([command, str(traj_file), "--out", str(tmp_path / "x.csv"), *extra])
    err = capsys.readouterr().err
    assert err.endswith(f"qdeflect: error: {flag} is not read by --estimator {estimator}\n")


@pytest.mark.parametrize("command,extra", [
    ("qmdf-helicity", []),
    ("dcs", ["--grid-deg", "0"]),
    ("dcs", ["--grid-deg", "-1"]),
    ("dcs", ["--grid-deg", "0.7"]),
    ("sum-j", ["--jmin", "10", "--jmax", "5"]),
    ("partial-dcs", ["--jmin", "-1"]),
    ("qmdf-helicity", ["--omega-prime", "99"]),  # the block has jp = 0
])
def test_bad_option_values_exit_1_with_one_line(block_file, tmp_path, capsys, command, extra):
    out = tmp_path / "x.csv"
    try:
        code = main([command, str(block_file), "--out", str(out), *extra])
    except SystemExit as exc:  # rejected by the argument parser
        code = exc.code
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1
    assert (extra[:1] or ["--omega-prime"])[0] in errors[0]  # the line names the option to change
    assert not out.exists()


@pytest.mark.parametrize("window", [["--jmax", "100"], ["--jmin", "5", "--jmax", "2"], ["--jmin", "41"]])
@pytest.mark.parametrize("command", ["sum-j", "partial-dcs"])
def test_a_window_outside_the_block_exits_1_naming_the_flags_before_any_work(
        block_file, tmp_path, capsys, monkeypatch, command, window):
    def work(*args):
        raise AssertionError("the window is checked before the map or the DCS is formed")

    for name in ("qmdf_map", "partial_dcs"):
        monkeypatch.setattr(f"qdeflect.qmdf.{name}", work)
    capsys.readouterr()
    out = tmp_path / "x.csv"
    assert main([command, str(block_file), "--out", str(out), "--grid-deg", "2", *window]) == 1
    err = capsys.readouterr().err  # the block has J_max = 40
    assert err.count("\n") == 1 and err.startswith("qdeflect: error: ")
    assert err.endswith(": give 0 <= --jmin <= --jmax <= 40\n")
    assert not out.exists()


# every command that reads --grid-deg, with the options it needs besides
GRID_COMMANDS = {"dcs": [], "qmdf": [], "random-phase": [], "qmdf-helicity": ["--omega-prime", "0"],
                 "sum-j": [], "partial-dcs": [], "qct-df": [], "qct-dcs": []}


def test_grid_commands_are_those_with_grid_deg():
    assert set(GRID_COMMANDS) == {name for name, command in COMMANDS.items()
                                  if "--grid-deg" in dict(command.options)}


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "7"])
@pytest.mark.parametrize("command", GRID_COMMANDS)
def test_bad_grid_step_exits_1_naming_the_flag(request, tmp_path, capsys, command, value):
    data = request.getfixturevalue("traj_file" if command.startswith("qct") else "block_file")
    capsys.readouterr()
    out = tmp_path / "x.csv"
    assert main([command, str(data), "--out", str(out), "--grid-deg", value, *GRID_COMMANDS[command]]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("qdeflect: error: ") and "--grid-deg" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("record", ["nan 3.0 20.0", "1.0 nan 20.0", "1.0 3.0 nan", "1.0 3.0 inf"])
def test_non_finite_trajectory_record_exits_1_naming_line(tmp_path, capsys, record):
    path = tmp_path / "bad.traj"
    path.write_text(f"# sigma_r = 1.0\n# j_max = 10.0\n1.0 2.0 30.0\n{record}\n")
    out = tmp_path / "x.csv"
    assert main(["qct-dcs", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "line 4" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_writer_refuses_non_finite_value(block_file, tmp_path, bad):
    out = tmp_path / "x.csv"
    with pytest.raises(ValueError, match="non-finite"):
        _write_csv(str(out), "dcs", str(block_file), ("theta_deg", "dcs"),
                   (np.array([0.0, 90.0]),), (np.array([1.0, bad]),), {})
    assert not out.exists()


def test_writer_rows_match_per_cell_formatting(block_file, tmp_path, rng):
    degs = rng.uniform(0.0, 180.0, 64)
    js = np.arange(64)
    values = rng.standard_normal(64) * 10.0 ** rng.integers(-300, 300, 64)
    values[:3] = (0.0, -0.0, 5e-324)
    out = tmp_path / "x.csv"
    _write_csv(str(out), "qmdf", str(block_file), ("theta_deg", "J", "value"), (degs,), (js, values), {})
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")][1:]
    assert rows == [f"{d:.6f},{int(J)},{v:.8e}" for d, J, v in zip(degs, js, values)]


def _scipy_modules_after(code: str) -> str:
    """Run code in a fresh interpreter; report the scipy modules it loaded."""
    src = str(Path(qdeflect.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = code + "\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_scipy():
    assert _scipy_modules_after("import qdeflect, qdeflect.cli") == "[]"


def test_smoothed_qmdf_run_loads_no_scipy(block_file, tmp_path):
    out = tmp_path / "q.csv"
    argv = ["qmdf", str(block_file), "--out", str(out), "--smooth-j", "1.5", "--smooth-theta-deg", "1.0"]
    code = f"from qdeflect.cli import main\nassert main({argv!r}) == 0"
    assert _scipy_modules_after(code) == "[]"
    assert out.exists()


NON_UNITARY = ("k 1.0 u\nchannel j=0 jp=0 v=0 vp=0 Jmax=3\n"
               "0 0 0 0.5 0.0\n1 0 0 0.0 1.5\n2 0 0 -3.0 0.0\n3 0 0 0.0 -0.6\n")


@pytest.mark.parametrize("command,extra", [
    ("dcs", []), ("qmdf", []), ("random-phase", []), ("qmdf-helicity", ["--omega-prime", "0"]),
    ("opacity", []), ("sigma-j", []), ("sum-j", []), ("partial-dcs", []), ("cqdf", []),
])
def test_non_unitary_block_warns_in_one_line(tmp_path, capsys, monkeypatch, command, extra):
    path = tmp_path / "big.smat"
    path.write_text(NON_UNITARY)
    out, ref = tmp_path / "x.csv", tmp_path / "ref.csv"
    assert main([command, str(path), "--out", str(out), *extra]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "qdeflect: warning: 2 entries with |S| > 1 (worst |S| = 3 at J=2, Omega=0, Omega'=0)"]
    # the check only reports: the same run without it writes the same bytes
    monkeypatch.setattr("qdeflect.smatrix.validate_unitarity", lambda block: ())
    assert main([command, str(path), "--out", str(ref), *extra]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_bytes() == ref.read_bytes()


def test_unitary_block_runs_silently(block_file, tmp_path, capsys):
    assert main(["dcs", str(block_file), "--out", str(tmp_path / "x.csv")]) == 0
    assert capsys.readouterr().err == ""


def test_gibbs_warning_is_one_cli_line(tmp_path):
    traj = tmp_path / "one.traj"
    traj.write_text("# sigma_r = 2.0\n# j_max = 5.0\n1.0 2.0 30.0\n")
    out, ref = tmp_path / "x.csv", tmp_path / "ref.csv"
    src = str(Path(qdeflect.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-m", "qdeflect", "qct-dcs", str(traj), "--out", str(out)],
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("qdeflect: warning: reconstructed theta marginal undershoots")
    assert "qct.py" not in result.stderr
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GibbsOscillationWarning)
        assert main(["qct-dcs", str(traj), "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


HEADER = "k 1.0 u\nchannel j=0 jp=0 v=0 vp=0 Jmax=2\n"
TRAJ_HEADER = "# sigma_r = 1.0\n# j_max = 10.0\n"


@pytest.mark.parametrize("command,text,line", [
    ("dcs", HEADER + "0 0 0 1.0 0.0\n1 1 0 0.5 0\n", 4),  # |Omega| > min(J, j)
    ("dcs", HEADER + "0 0 0 1.0 0.0\n\n3 0 0 0.5 0\n", 5),  # J > Jmax
    ("dcs", "k -1.0 u\nchannel j=0 jp=0 v=0 vp=0 Jmax=2\n0 0 0 1.0 0.0\n", 1),
    ("dcs", "# c\nk 1.0 u\nchannel j=-1 jp=0 v=0 vp=0 Jmax=2\n0 0 0 1.0 0.0\n", 3),
    ("opacity", f"k 1.0 u\nchannel j=0 jp={10**23} v=0 vp=0 Jmax=2\n0 0 0 1.0 0.0\n", 2),  # beyond int64
    ("opacity", f"k 1.0 u\nchannel j=0 jp=0 v=0 vp=0 Jmax={2**30 + 1}\n0 0 0 1.0 0.0\n", 2),
    ("qct-dcs", TRAJ_HEADER + "1.0 2.0 30.0\n1.0 2.0 200.0\n", 4),  # theta > 180 deg
    ("qct-dcs", TRAJ_HEADER + "1.0 2.0 30.0\n-0.5 2.0 20.0\n", 4),  # negative weight
    ("qct-dcs", TRAJ_HEADER + "# note\n1.0 12.0 30.0\n", 4),  # J > j_max
    ("qct-dcs", "# sigma_r = -1.0\n# j_max = 10.0\n1.0 2.0 30.0\n", 1),
    ("synth", "kind = linear\njmax = abc\n", 2),
    ("synth", "kind = classical\njmax = 20\ncbranch = 1 2\nisotropic = yes\n", 4),
    ("synth", "kind = classical\njmax = 20\ncbranch = 1 2\ncount = -3\n", 4),
    ("synth", "kind = quadratic\njmax = 20\njp = 1e30\n", 3),
    ("synth", "kind = linear\n\njmax = 1e30\n", 3),
])
def test_rejected_input_exits_1_naming_its_line(tmp_path, capsys, command, text, line):
    path = tmp_path / "input.txt"
    path.write_text(text)
    out = tmp_path / "x.csv"
    assert main([command, str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith(f"qdeflect: error: line {line}: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["qct-df", "qct-dcs", "qct-sigma-j"])
@pytest.mark.parametrize("j_max", ["1e300", str(2**30 + 1)])
def test_trajectory_j_max_beyond_2_30_exits_1_naming_its_line(tmp_path, capsys, command, j_max):
    path = tmp_path / "ens.traj"
    path.write_text(f"# sigma_r = 1.0\n# j_max = {j_max}\n1.0 2.0 30.0\n1.0 3.0 40.0\n")
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow, divide or Gibbs warning on the way
        assert main([command, str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "qdeflect: error: line 2: j_max must be positive and at most 2^30\n"
    assert not out.exists()


@pytest.mark.parametrize("command,text,line", [
    ("qct-dcs", "# sigma_r 1.0\n# j_max = 10.0\n1.0 2.0 30.0\n", 1),
    ("synth", "kind = linear\njmax = 10\nc = 1e308\nk = 1.0\n", 3),
    # a repeated header fails on its later line
    ("qct-dcs", TRAJ_HEADER + "# sigma_r = 2.0\n1.0 2.0 30.0\n", 3),
    ("qct-dcs", "# j_max = 10.0\n# sigma_r = 1.0\n1.0 2.0 30.0\n# j_max = 10.0\n", 4),
    # a header line with tokens after its form
    ("qct-dcs", "# sigma_r = 1.0 junk\n# j_max = 10.0\n1.0 2.0 30.0\n", 1),
    ("qct-dcs", "# sigma_r = 1.0\n# j_max = 10 more\n1.0 2.0 30.0\n", 2),
    # a repeated model-file key fails on its later line, a key its kind does not read on its own
    ("synth", "kind = linear\njmax = 20\njmax = 40\n", 3),
    ("synth", "kind = linear\nkind = classical\njmax = 20\ncbranch = 1 2\n", 2),
    ("synth", "kind = quadratic\njmax = 20\nalhpa = 0.5\n", 3),
    ("synth", "kind = classical\nk = 1.0\njmax = 20\ncbranch = 1 2\n", 2),
])
def test_malformed_header_or_overflow_exits_1_naming_its_line(tmp_path, capsys, command, text, line):
    path = tmp_path / "input.txt"
    path.write_text(text)
    out = tmp_path / "x.csv"
    assert main([command, str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"qdeflect: error: line {line}: ")
    assert not out.exists()


@pytest.mark.parametrize("lines", ["# n_tot 2 abc\n", "# n_tot -2 10\n", "# n_tot 2 10 junk\n", "# n_tot 2 10\n" * 2])
def test_an_n_tot_line_is_a_comment_to_the_trajectory_commands(tmp_path, capsys, lines):
    records = "1.0 2.0 30.0\n2.0 5.0 100.0\n"
    outputs = []
    for name, text in (("plain", TRAJ_HEADER + records), ("n_tot", TRAJ_HEADER + lines + records + lines)):
        path = tmp_path / f"{name}.traj"
        path.write_text(text)
        out = tmp_path / f"{name}.csv"
        assert main(["qct-dcs", str(path), "--out", str(out)]) == 0
        outputs.append((written_rows(out), capsys.readouterr().err))
    assert outputs[0] == outputs[1]


def per_row_csv_rows(header, columns):
    """The writer's rows as formatted before the one-template writer: one
    % per row over the long-format columns."""
    formats = {"theta_deg": "%.6f", "theta_tilde_deg": "%.6f", "J": "%d"}
    row_format = ",".join(formats.get(name, "%.8e") for name in header)
    cells = [np.asarray(c).astype(np.int64 if name == "J" else float).tolist() for name, c in zip(header, columns)]
    return [row_format % row for row in zip(*cells)]


def written_rows(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")][1:]


EXTREMES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, 123.456, -7.0])


@pytest.mark.parametrize("seed", range(3))
def test_writer_is_byte_identical_to_per_row_formatting(block_file, tmp_path, seed):
    rng = np.random.default_rng(seed)
    degs = np.degrees(AngularGrid.uniform(float(rng.choice([1.0, 5.0, 30.0]))).thetas)
    js = np.arange(int(rng.integers(0, 5)), int(rng.integers(5, 40)))
    values = rng.standard_normal((degs.size, js.size)) * 10.0 ** rng.integers(-300, 300, (degs.size, js.size))
    values.flat[: EXTREMES.size] = EXTREMES
    out = tmp_path / "x.csv"
    cases = [
        (("theta_deg", "J", "value"), (degs, js), (values,),
         (np.repeat(degs, js.size), np.tile(js, degs.size), values.ravel())),
        (("theta_deg", "value"), (degs,), (values[:, 0],), (degs, values[:, 0])),
        (("J", "opacity"), (js,), (values[0],), (js, values[0])),
        (("J", "theta_tilde_rad", "theta_tilde_deg", "magnitude"), (js,),
         (values[1], np.degrees(values[1] % 3.0), np.abs(values[2])),
         (js, values[1], np.degrees(values[1] % 3.0), np.abs(values[2]))),
    ]
    for header, axes, cells, columns in cases:
        _write_csv(str(out), "qmdf", str(block_file), header, axes, cells, {"seed": seed})
        assert written_rows(out) == per_row_csv_rows(header, columns)
        assert out.read_text().splitlines()[4] == ",".join(header)


def test_memory_error_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr("qdeflect.synth.synth_smatrix", exhausted)
    model = tmp_path / "model.txt"
    model.write_text(LINEAR_MODEL)
    assert main(["synth", str(model), "--out", str(tmp_path / "b.smat")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("qdeflect: error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command,extra,widths", [
    # on this ensemble the rule gives s_j below 1 and s_theta about 0.7 deg, below the 2 deg grid step
    ("qct-df", [], "s_j=1.0 s_theta=0.03490658503988659"),
    ("qct-df", ["--boundary-renormalize"], "s_j=1.0 s_theta=0.03490658503988659"),
    ("qct-df", ["--smooth-j", "1.5"], "s_j=1.5 s_theta=0.03490658503988659"),
    ("qct-df", ["--smooth-theta-deg", "3.0"], "s_j=1.0 s_theta=0.05235987755982989"),
    ("qct-sigma-j", [], "s_j=1.0"),
])
def test_unset_width_is_floored_at_the_grid_step(traj_file, tmp_path, capsys, command, extra, widths):
    ensemble = load_trajectories(traj_file)
    assert kernel_width(ensemble.j_values, 0.0, "J") < 1.0 and kernel_width(ensemble.thetas, 0.0, "theta") < np.radians(2.0)
    grid = ["--grid-deg", "2"] if command == "qct-df" else []
    out = tmp_path / "x.csv"
    assert main([command, str(traj_file), "--out", str(out), "--estimator", "gaussian", *grid, *extra]) == 0
    assert capsys.readouterr().err == ""
    assert widths in out.read_text().splitlines()[3]


@pytest.mark.parametrize("command,extra", [
    ("qct-df", ["--smooth-j", "1.5", "--smooth-theta-deg", "3.0"]),
    ("qct-df", ["--smooth-j", "1.5", "--grid-deg", "0.25"]),  # 0.9 deg heuristic width >= grid step
    ("qct-sigma-j", ["--smooth-j", "0.01"]),
])
def test_explicit_or_wide_enough_widths_run_silently(traj_file, tmp_path, capsys, command, extra):
    out = tmp_path / "x.csv"
    assert main([command, str(traj_file), "--out", str(out), "--estimator", "gaussian", *extra]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, extra", [
    ("qct-df", ["--grid-deg", "2", "--smooth-j", "1e-300", "--smooth-theta-deg", "3"]),
    ("qct-df", ["--grid-deg", "2", "--smooth-j", "1.5", "--smooth-theta-deg", "1e-300"]),
    ("qct-df", ["--grid-deg", "2", "--smooth-j", "1e-160"]),
    ("qct-df", ["--grid-deg", "2", "--smooth-j", "1e-320"]),
    ("qct-sigma-j", ["--smooth-j", "1e-160"]),
])
def test_a_tiny_gaussian_width_runs(traj_file, tmp_path, capsys, command, extra):
    # (u/s)^2 overflows to inf and the cut zeroes it: no record lies on a grid point, so every value is 0
    out = tmp_path / "x.csv"
    assert main([command, str(traj_file), "--out", str(out), "--estimator", "gaussian", *extra]) == 0
    assert capsys.readouterr().err == ""
    assert not read_csv(out)[1][:, -1].any()


def test_fallback_run_writes_the_library_map_at_the_floored_widths(traj_file, tmp_path):
    """The run that gives no width writes what the library computes with the floored widths."""
    ensemble = load_trajectories(traj_file)
    cfg = KernelConfig(1.0, np.radians(2.0))
    grid = AngularGrid.uniform(2.0)
    out = tmp_path / "fallback.csv"
    assert main(["qct-df", str(traj_file), "--out", str(out), "--estimator", "gaussian",
                 "--grid-deg", "2"]) == 0
    ref = tmp_path / "ref.csv"
    dmap = qct_df_gaussian(ensemble, cfg, grid)
    _write_csv(str(ref), "qct-df", str(traj_file), ("theta_deg", "J", "value"),
               (dmap.grid.degrees, dmap.j_values), (dmap.values,),
               {"grid_deg": 2.0, "s_j": cfg.s_j, "s_theta": cfg.s_theta, "boundary_renormalize": 0,
                "estimator": "gaussian"})
    assert out.read_bytes() == ref.read_bytes()


README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture(scope="module")
def readme_fallback_run(tmp_path_factory):
    """The README classical ensemble, its `qct-df --estimator gaussian` map with
    no width given, and what the two runs printed to stderr."""
    tmp_path = tmp_path_factory.mktemp("readme")
    model = tmp_path / "classical.txt"
    model.write_text(README.read_text().split("cat > classical.txt <<'EOF'\n")[1].split("EOF\n")[0])
    ens, out = tmp_path / "ens.traj", tmp_path / "cmap.csv"
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["synth", str(model), "--out", str(ens)]) == 0
        assert main(["qct-df", str(ens), "--out", str(out), "--estimator", "gaussian"]) == 0
    return ens, out, err.getvalue()


def test_readme_ensemble_fallback_widths_keep_the_cross_section(readme_fallback_run):
    """With no width, the README ensemble's map takes the grid steps as widths,
    warns of nothing and integrates to sigma_r within 3%."""
    ens, out, err = readme_fallback_run
    assert err == ""
    assert out.read_text().splitlines()[3] == ("# params: boundary_renormalize=0 estimator=gaussian "
                                               "grid_deg=0.25 s_j=1.0 s_theta=0.004363323129985824")
    _, rows = read_csv(out)
    grid = AngularGrid.uniform(0.25)
    total = 2.0 * np.pi * integrate_curve(grid, rows[:, 2].reshape(len(grid), -1).sum(axis=1))
    assert total == pytest.approx(load_trajectories(ens).sigma_r, rel=0.03)


def test_kernel_width_gives_the_widths_the_cli_records(readme_fallback_run):
    ens, out, _ = readme_fallback_run
    ensemble = load_trajectories(ens)
    s_j = kernel_width(ensemble.j_values, 1.0, "J")
    s_theta = kernel_width(ensemble.thetas, np.radians(0.25), "theta")
    assert f"s_j={s_j} s_theta={s_theta}" in out.read_text().splitlines()[3]


def test_cqdf_gap_exits_1_with_one_short_line(tmp_path, capsys):
    block = tmp_path / "gap.smat"
    block.write_text("k 1.0 u\nchannel j=0 jp=0 v=0 vp=0 Jmax=3000000\n0 0 0 0.5 0.1\n3000000 0 0 0.2 -0.3\n")
    assert main(["cqdf", str(block), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert len(err.encode()) < 200 and err.count("\n") == 1
    assert err.startswith("qdeflect: error: J coverage at (Omega'=0, Omega=0) has gaps; missing J 1..2999999")


@pytest.mark.parametrize("command,records", [
    ("qct-df", "1.0 3.0 20.0\n1.0 3.0 40.0\n1.0 3.0 60.0\n"),  # a single J value
    ("qct-sigma-j", "1.0 2.0 20.0\n1.0 3.0 20.0\n1.0 5.0 20.0\n"),  # a single theta value
])
def test_given_width_needs_no_spacing_on_the_other_axis(tmp_path, capsys, command, records):
    path = tmp_path / "ens.traj"
    path.write_text(f"# sigma_r = 1.0\n# j_max = 10.0\n{records}")
    out = tmp_path / "x.csv"
    assert main([command, str(path), "--out", str(out), "--estimator", "gaussian", "--smooth-j", "1.5"]) == 0
    assert capsys.readouterr().err == ""


def test_unset_width_on_a_single_value_axis_exits_1(tmp_path, capsys):
    path = tmp_path / "ens.traj"
    path.write_text("# sigma_r = 1.0\n# j_max = 10.0\n1.0 3.0 20.0\n1.0 3.0 40.0\n")
    assert main(["qct-df", str(path), "--out", str(tmp_path / "x.csv"), "--estimator", "gaussian"]) == 1
    err = capsys.readouterr().err
    assert err == ("qdeflect: error: every record has the same J, so no J kernel width can be worked out: "
                   "give --smooth-j\n")


@pytest.mark.parametrize("command,records,extra,axis,flag", [
    ("qct-df", "1.0 2.0 20.0\n1.0 5.0 20.0\n", [], "theta", "--smooth-theta-deg"),
    ("qct-df", "1.0 2.0 20.0\n1.0 5.0 20.0\n", ["--smooth-j", "1.5"], "theta", "--smooth-theta-deg"),
    ("qct-sigma-j", "1.0 3.0 20.0\n1.0 3.0 40.0\n", [], "J", "--smooth-j"),
])
def test_unset_width_on_a_single_value_axis_names_the_axis_and_flag(tmp_path, capsys, command, records, extra,
                                                                     axis, flag):
    path = tmp_path / "ens.traj"
    path.write_text(TRAJ_HEADER + records)
    out = tmp_path / "x.csv"
    assert main([command, str(path), "--out", str(out), "--estimator", "gaussian", *extra]) == 1
    err = capsys.readouterr().err
    assert err == (f"qdeflect: error: every record has the same {axis}, so no {axis} kernel width can be "
                   f"worked out: give {flag}\n")


WIDTH_EXTRA = {"qmdf": ["--grid-deg", "2"], "random-phase": ["--grid-deg", "2"],
               "qmdf-helicity": ["--grid-deg", "2", "--omega-prime", "0"],
               "qct-df": ["--estimator", "gaussian"], "qct-sigma-j": ["--estimator", "gaussian"]}


@pytest.mark.parametrize("command,flag", [(command, flag) for command in WIDTH_EXTRA
                                          for flag in ("--smooth-j", "--smooth-theta-deg")
                                          if (command, flag) != ("qct-sigma-j", "--smooth-theta-deg")])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "1e308", "abc"])
def test_hostile_width_exits_1_naming_the_flag_or_the_width(block_file, traj_file, tmp_path, capsys,
                                                            command, flag, value):
    qct = command.startswith("qct")
    extra = WIDTH_EXTRA[command]
    out = tmp_path / "x.csv"
    try:
        code = main([command, str(traj_file if qct else block_file), "--out", str(out), *extra, flag, value])
    except SystemExit as exc:  # rejected by the argument parser
        code = exc.code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if qct and value == "1e308":  # a finite width: the kernel is built, its values are tiny
        assert code == 0 and err == ""
        return
    assert code == 1 and not out.exists()
    last = err.splitlines()[-1]
    assert "error: " in last and flag in last
    assert sum("error" in line for line in err.splitlines()) == 1


def test_negative_seed_is_a_usage_error(tmp_path, capsys):
    model = tmp_path / "model.txt"
    model.write_text(CLASSICAL_MODEL)
    with pytest.raises(SystemExit) as excinfo:
        main(["synth", str(model), "--out", str(tmp_path / "e.traj"), "--seed", "-1"])
    assert excinfo.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "error: argument --seed: invalid nonnegative_int value: '-1'")


def test_negative_order_exits_1(traj_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["qct-dcs", str(traj_file), "--out", str(tmp_path / "x.csv"), "--order-theta", "-1"])
    assert excinfo.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "error: argument --order-theta: invalid nonnegative_int value: '-1'")


@pytest.mark.parametrize("command,flag", [("qct-sigma-j", "--order-j"), ("sum-j", "--jmin"), ("sum-j", "--jmax")])
def test_a_negative_order_or_j_window_names_its_flag(block_file, traj_file, tmp_path, capsys, command, flag):
    source = traj_file if command.startswith("qct") else block_file
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as excinfo:
        main([command, str(source), "--out", str(out), flag, "-3"])
    assert excinfo.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        f"error: argument {flag}: invalid nonnegative_int value: '-3'")
    assert not out.exists()


@pytest.mark.parametrize("model,message", [
    ("kind = two-branch\njmax = 30\nbranch = 0.8 10 4 0.0 -0.2\n",
     "two-branch model needs two 'branch = ...' lines"),
    ("kind = classical\njmax = 25\ncount = 100\n", "classical model needs branches unless isotropic"),
])
def test_model_missing_a_branch_exits_1(tmp_path, capsys, model, message):
    path = tmp_path / "model.txt"
    path.write_text(model)
    out = tmp_path / "x.out"
    assert main(["synth", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"qdeflect: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("model,message", [
    ("kind = classical\njmax = 20\ncbranch = 0 1\ncbranch = 0.0 2\n", "line 3: branch weights must not all vanish"),
    ("kind = classical\njmax = 20\ncbranch = 1 2\nseed = -1\n", "line 4: seed must be nonnegative"),
    ("kind = classical\njmax = 20\ncbranch = 1 2\nnoise = -0.1\n", "line 4: noise width must be nonnegative"),
])
def test_model_value_error_names_its_line(tmp_path, capsys, model, message):
    path = tmp_path / "model.txt"
    path.write_text(model)
    out = tmp_path / "x.out"
    assert main(["synth", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"qdeflect: error: {message}\n"
    assert not out.exists()


def test_readme_command_table_lists_every_option():
    """The README's command/options table names exactly the flags each command takes."""
    lines = README.read_text().split("| command | options |\n|---|---|\n")[1].split("\n\n")[0].splitlines()
    table = {}
    for row in lines:
        names, options = row.strip("|").split("|")
        for name in names.split(","):
            flags = {word.strip("`,") for word in options.split() if word.startswith("`--")}
            table[name.strip().strip("`")] = flags
    assert table == {name: {flag for flag, _ in command.options} for name, command in COMMANDS.items()}


def test_ci_runs_the_readme_commands_and_checks_nothing_else():
    """CI's console-script step runs README "Command-line usage" through the installed
    script, and relies on their exit status alone: what they write is checked here."""
    workflow = (README.parent / ".github" / "workflows" / "tests.yml").read_text()
    step = workflow.split("- name: Console script\n")[1].split("\n      - ")[0]
    lines = [line.strip() for line in step.split("run: |\n")[1].splitlines()]
    usage = README.read_text().split("## Command-line usage")[1].split("```sh\n")[1].split("```")[0]
    assert [line for line in lines if line.startswith("qdeflect ")] == [
        line for line in usage.splitlines() if line.startswith("qdeflect ")]
    for name in ("model.txt", "classical.txt"):  # the model files hold the README's text
        spec = usage.split(f"cat > {name} <<'EOF'\n")[1].split("EOF\n")[0].replace("\n", "\\n")
        assert f"printf '{spec}' > {name}" in lines
    assert [line for line in lines if re.match(r"(test|grep|cmp)\b|\[|\w+\s*\(\)|function\b", line)] == []
