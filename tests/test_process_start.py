"""What a fresh process loads: the lazy public API, per-command imports and
the CLI's single-threaded BLAS default."""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qdeflect

SRC = str(Path(qdeflect.__file__).resolve().parents[1])
MODEL = "kind = quadratic\nk = 1.0\njmax = 60\nj0 = 30\nw = 8\nh = 1.0\nalpha = 0.02\n"
CLASSICAL = ("kind = classical\njmax = 40\ncbranch = 1.0 3.14159 -3.14159\nnoise = 0.08\ncount = 20000\n"
             "seed = 1\nsigma_r = 1.0\n")
# runs `python -m qdeflect ARGV` in this process, as -m does, then reports the
# qdeflect modules it loaded, whether it loaded numpy.ma (a start-up cost that
# a plain np.unique call brings in) and OPENBLAS_NUM_THREADS as the run left it
AS_MAIN = """
import json, os, runpy, sys
sys.argv = ["qdeflect", *sys.argv[1:]]
try:
    runpy.run_module("qdeflect", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "blas": os.environ.get("OPENBLAS_NUM_THREADS"), "numpy_ma": "numpy.ma" in sys.modules,
                  "modules": sorted(m for m in sys.modules if m.startswith("qdeflect"))}))
"""


def fresh(argv, env=None, unset=("OPENBLAS_NUM_THREADS",)):
    """Run a fresh interpreter with this package's source first on the path."""
    base = {k: v for k, v in os.environ.items() if k not in unset}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, *argv], env={**base, **(env or {})}, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def as_main(argv, env=None):
    return json.loads(fresh(["-c", AS_MAIN, *argv], env).splitlines()[-1])


@pytest.fixture(scope="module")
def block(tmp_path_factory):
    where = tmp_path_factory.mktemp("start")
    (where / "model.txt").write_text(MODEL)
    fresh(["-m", "qdeflect", "synth", str(where / "model.txt"), "--out", str(where / "block.smat")])
    return where / "block.smat"


def test_every_public_name_resolves():
    assert sorted(qdeflect.__all__) == sorted(set(qdeflect.__all__))
    for name in qdeflect.__all__:
        assert getattr(qdeflect, name) is not None, name
    assert set(qdeflect.__all__) <= set(dir(qdeflect))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qdeflect.no_such_name  # noqa: B018


def test_every_public_name_is_one_the_tool_or_its_readme_uses():
    # a name is public only if the CLI, a script in scripts/ or a README section needs it
    root = Path(__file__).resolve().parents[1]
    sources = [root / "README.md", root / "src" / "qdeflect" / "cli.py", *sorted((root / "scripts").glob("*.py"))]
    text = "\n".join(path.read_text(encoding="utf-8") for path in sources)
    assert [name for name in qdeflect.__all__ if not re.search(rf"\b{re.escape(name)}\b", text)] == []


def test_cqdf_stays_the_function_after_every_submodule_is_imported():
    for info in pkgutil.iter_modules(qdeflect.__path__):
        if info.name != "__main__":
            importlib.import_module(f"qdeflect.{info.name}")
    assert callable(qdeflect.cqdf) and qdeflect.cqdf is sys.modules["qdeflect.cqdf"].cqdf
    # a public name is looked up on its submodule on every access, never kept on the package
    assert "cqdf" not in vars(qdeflect) and "load_smatrix" not in vars(qdeflect)


def test_import_qdeflect_loads_no_numpy():
    out = fresh(["-c", "import sys, qdeflect; print([m for m in sys.modules if m.startswith('numpy')])"])
    assert out.strip() == "[]"


@pytest.mark.parametrize("command", ["opacity", "sigma-j"])
def test_per_j_commands_load_only_what_they_run(block, tmp_path, command):
    report = as_main([command, str(block), "--out", str(tmp_path / "x.csv")])
    assert report["code"] == 0
    assert report["modules"] == ["qdeflect", "qdeflect._text", "qdeflect.angular", "qdeflect.cli",
                                 "qdeflect.observables", "qdeflect.smatrix", "qdeflect.wigner"]
    assert not report["numpy_ma"]


@pytest.mark.parametrize("command", ["dcs", "qmdf", "random-phase", "sum-j", "partial-dcs"])
def test_smatrix_commands_load_no_qct_synth_or_cqdf(block, tmp_path, command):
    report = as_main([command, str(block), "--out", str(tmp_path / "x.csv")])
    assert report["code"] == 0
    assert not {"qdeflect.qct", "qdeflect.synth", "qdeflect.cqdf"} & set(report["modules"])
    assert not report["numpy_ma"]


@pytest.fixture(scope="module")
def ensemble(tmp_path_factory):
    where = tmp_path_factory.mktemp("start")
    (where / "classical.txt").write_text(CLASSICAL.replace("count = 20000", "count = 500"))
    fresh(["-m", "qdeflect", "synth", str(where / "classical.txt"), "--out", str(where / "ens.traj")])
    return where / "ens.traj"


@pytest.mark.parametrize("command", ["qct-df --estimator legendre", "qct-df --estimator gaussian", "qct-dcs",
                                     "qct-sigma-j --estimator legendre", "qct-sigma-j --estimator gaussian"])
def test_qct_commands_load_no_partial_wave_module(ensemble, tmp_path, command):
    name, *options = command.split()
    report = as_main([name, str(ensemble), "--out", str(tmp_path / "x.csv"), *options])
    assert report["code"] == 0
    unwanted = {"qdeflect." + m for m in ("smatrix", "wigner", "observables", "qmdf", "cqdf", "synth")}
    assert not unwanted & set(report["modules"])


def test_shared_types_are_the_angular_modules():
    from qdeflect import angular, observables, qmdf
    assert qdeflect.AngularCurve is observables.AngularCurve is angular.AngularCurve
    assert qdeflect.DeflectionMap is qmdf.DeflectionMap is angular.DeflectionMap


def test_gaussian_qct_df_without_widths_loads_no_numpy_ma(tmp_path):
    # the widths then come from the distinct J and theta values of the ensemble
    (tmp_path / "classical.txt").write_text(CLASSICAL.replace("count = 20000", "count = 500"))
    fresh(["-m", "qdeflect", "synth", str(tmp_path / "classical.txt"), "--out", str(tmp_path / "ens.traj")])
    report = as_main(["qct-df", str(tmp_path / "ens.traj"), "--out", str(tmp_path / "x.csv"), "--estimator",
                      "gaussian"])
    assert report["code"] == 0
    assert not report["numpy_ma"]


@pytest.mark.parametrize("given, seen", [(None, "1"), ("3", "3"), ("", "")])
def test_cli_sets_single_threaded_blas_only_when_unset(block, tmp_path, given, seen):
    env = None if given is None else {"OPENBLAS_NUM_THREADS": given}
    report = as_main(["opacity", str(block), "--out", str(tmp_path / "x.csv")], env)
    assert report["code"] == 0 and report["blas"] == seen


def test_library_import_leaves_blas_threads_alone():
    out = fresh(["-c", "import os, qdeflect.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"])
    assert out.strip() == "None"


def test_gaussian_qct_df_bytes_do_not_depend_on_blas_threads(tmp_path):
    (tmp_path / "classical.txt").write_text(CLASSICAL)
    fresh(["-m", "qdeflect", "synth", str(tmp_path / "classical.txt"), "--out", str(tmp_path / "ens.traj")])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"cmap{threads}.csv"
        fresh(["-m", "qdeflect", "qct-df", str(tmp_path / "ens.traj"), "--out", str(out),
               "--estimator", "gaussian", "--smooth-j", "1.5", "--smooth-theta-deg", "3.0"],
              {"OPENBLAS_NUM_THREADS": threads})
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
