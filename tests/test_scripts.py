"""Smoke tests for the studies in scripts/: each main() runs on small
arguments and writes its CSVs, so a change to the library API they call
fails here."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, argv, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *argv])
    module.main()


@pytest.mark.parametrize("name,args,outputs,header", [
    ("interference_windows", ["--jmax", "10", "--split", "5"], ["iw.csv"],
     "theta_deg,dcs,windowed_dcs_sum,window_q_sum_over_sin"),
    ("ridge_correspondence", ["--jmax", "40", "--center", "20", "--width", "6"], ["ridge.csv"],
     "J,ridge_deg,predicted_deg,in_half_max_window"),
    ("qct_vs_qm", ["--count", "2000", "--seed", "3"], ["classical_map.csv", "quantum_map.csv"],
     "theta_deg,J,value"),
])
def test_script_runs_and_writes_its_csv(tmp_path, monkeypatch, capsys, name, args, outputs, header):
    where = ["--outdir", str(tmp_path)] if name == "qct_vs_qm" else ["--out", str(tmp_path / outputs[0])]
    run_script(name, [*args, *where], monkeypatch)
    assert capsys.readouterr().out.startswith("wrote ")
    for output in outputs:
        lines = (tmp_path / output).read_text().splitlines()
        assert lines[0] == header and len(lines) > 1
