import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qdeflect
from qdeflect import load_smatrix, load_trajectories
from qdeflect.cli import _write_csv, main

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


def test_opacity_and_sigma_j(block_file, tmp_path):
    op = tmp_path / "op.csv"
    sj = tmp_path / "sj.csv"
    assert main(["opacity", str(block_file), "--out", str(op)]) == 0
    assert main(["sigma-j", str(block_file), "--out", str(sj)]) == 0
    _, op_rows = read_csv(op)
    _, sj_rows = read_csv(sj)
    assert op_rows.shape == (41, 2)
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


@pytest.mark.parametrize("command,on_block,extra,params", [
    ("dcs", True, ["--grid-deg", "2"], "grid_deg=2.0"),
    ("opacity", True, [], ""),
    ("sigma-j", True, [], ""),
    ("qmdf", True, ["--grid-deg", "2", "--smooth-j", "1.5", "--smooth-theta-deg", "1.0", "--no-sin-theta"],
     "grid_deg=2.0 no_sin_theta=1 smooth_j=1.5 smooth_theta_deg=1.0"),
    ("random-phase", True, ["--grid-deg", "2"], "grid_deg=2.0"),
    ("qmdf-helicity", True, ["--grid-deg", "2", "--omega-prime", "0"], "grid_deg=2.0 omega_prime=0"),
    ("sum-j", True, ["--grid-deg", "2", "--jmin", "5"], "grid_deg=2.0 jmax=40 jmin=5"),
    ("partial-dcs", True, ["--grid-deg", "2", "--jmax", "10"], "grid_deg=2.0 jmax=10 jmin=0"),
    ("cqdf", True, ["--unwrap", "one-sided"], "omega=0 omega_prime=0 unwrap=one-sided"),
    ("qct-df", False, ["--grid-deg", "2", "--estimator", "gaussian", "--smooth-j", "1.5",
                       "--smooth-theta-deg", "4", "--boundary-renormalize"],
     "boundary_renormalize=1 estimator=gaussian grid_deg=2.0 s_j=1.5 s_theta=0.06981317007977318"),
    ("qct-df", False, ["--grid-deg", "2", "--order-j", "8"],
     "estimator=legendre grid_deg=2.0 order_j=8 order_theta=20"),
    ("qct-dcs", False, ["--grid-deg", "2", "--order-theta", "10"],
     "estimator=legendre grid_deg=2.0 order_theta=10"),
    ("qct-sigma-j", False, ["--estimator", "gaussian", "--smooth-j", "1.5"], "estimator=gaussian s_j=1.5"),
    ("qct-sigma-j", False, [], "estimator=legendre order_j=20"),
])
@pytest.mark.filterwarnings("ignore::qdeflect.qct.GibbsOscillationWarning")
def test_params_line_per_command(block_file, traj_file, tmp_path, command, on_block, extra, params):
    out = tmp_path / "out.csv"
    source = block_file if on_block else traj_file
    assert main([command, str(source), "--out", str(out), *extra]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == f"# command: {command}"
    assert lines[3] == f"# params: {params}"


@pytest.mark.parametrize("command,extra", [
    ("qct-dcs", ["--estimator", "gaussian"]),
    ("qct-dcs", ["--order-j", "5"]),
    ("qct-dcs", ["--smooth-j", "1.5"]),
    ("qct-dcs", ["--smooth-theta-deg", "3"]),
    ("qct-dcs", ["--boundary-renormalize"]),
    ("qct-sigma-j", ["--grid-deg", "1"]),
    ("qct-sigma-j", ["--order-theta", "5"]),
    ("qct-sigma-j", ["--boundary-renormalize"]),
])
def test_options_a_command_does_not_read_exit_1(traj_file, tmp_path, command, extra):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as excinfo:
        main([command, str(traj_file), "--out", str(out), *extra])
    assert excinfo.value.code == 1
    assert not out.exists()


@pytest.mark.parametrize("command,extra", [
    ("qmdf-helicity", []),
    ("dcs", ["--grid-deg", "0"]),
    ("dcs", ["--grid-deg", "-1"]),
    ("dcs", ["--grid-deg", "0.7"]),
    ("sum-j", ["--jmin", "10", "--jmax", "5"]),
    ("partial-dcs", ["--jmin", "-1"]),
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
    assert len([line for line in err.splitlines() if "error" in line]) == 1
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
                   (np.array([0.0, 90.0]), np.array([1.0, bad])), {})
    assert not out.exists()


def test_writer_rows_match_per_cell_formatting(block_file, tmp_path, rng):
    degs = rng.uniform(0.0, 180.0, 64)
    js = np.arange(64)
    values = rng.standard_normal(64) * 10.0 ** rng.integers(-300, 300, 64)
    values[:3] = (0.0, -0.0, 5e-324)
    out = tmp_path / "x.csv"
    _write_csv(str(out), "qmdf", str(block_file), ("theta_deg", "J", "value"), (degs, js, values), {})
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
