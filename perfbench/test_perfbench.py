"""Tests of the benchmark itself: `python -m pytest perfbench`."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks as ck  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer, layer_totals, self_times  # noqa: E402

import qdeflect  # noqa: E402
from qdeflect.cli import main  # noqa: E402


def _conftest():
    spec = importlib.util.spec_from_file_location("qdeflect_test_conftest", ROOT / "tests" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generator_matches_conftest_block_at_seed_0():
    want = _conftest().random_block(np.random.default_rng(0), j_max=250, j=3, jp=5, k=2.0, density=1.0)
    entries, text = inputs.block_l(np.random.default_rng(0))
    assert len(entries) == 19089
    assert entries == dict(want.entries)
    loaded = qdeflect.load_smatrix(text)
    assert dict(loaded.entries) == entries
    assert loaded.header == want.header


@pytest.fixture(scope="module")
def readme_outputs(tmp_path_factory):
    """The cli-readme pass at seed 0, run in process."""
    work = tmp_path_factory.mktemp("readme")
    workload = run.WORKLOADS["cli-readme"]
    ctx = workload.prepare(work, 0)
    ctx["dir"] = work
    cwd = Path.cwd()
    try:
        os.chdir(work)
        for _, args in workload.ops:
            assert main(args) == 0
    finally:
        os.chdir(cwd)
    return workload, ctx


def _evaluate(workload, ctx):
    p = run.Pass()
    digests = run.verify(workload, ctx, p, None)
    recorded = json.loads(run.DIGESTS.read_text())[workload.name]
    return p.failed, run.changed_outputs(workload, digests, 0, recorded)


def test_corrupted_cell_fails_its_operation_and_changes_output(readme_outputs):
    workload, ctx = readme_outputs
    failed, (changed, compared) = _evaluate(workload, ctx)
    assert failed == {}
    assert (changed, compared) == (0, len(workload.ops))

    path = ctx["dir"] / "rp.csv"
    lines = path.read_text().splitlines()
    row = next(i for i, ln in enumerate(lines) if ln.startswith("90.000000,30,"))
    theta, J, value = lines[row].split(",")
    lines[row] = f"{theta},{J},{1.5 * float(value):.8e}"
    path.write_text("\n".join(lines) + "\n")

    failed, (changed, _) = _evaluate(workload, ctx)
    assert list(failed) == ["rp.csv"]
    assert changed == 1


def test_layer_self_times_sum_to_the_operation_span(tmp_path):
    model = tmp_path / "model.txt"
    model.write_text(inputs.readme_model())
    main(["synth", str(model), "--out", str(tmp_path / "block.smat")])
    original = qdeflect.cli.qmdf_map
    tracer = Tracer()
    tracer.install()
    try:
        assert qdeflect.cli.qmdf_map is not original
        assert qdeflect.cli.main(["qmdf", str(tmp_path / "block.smat"), "--out", str(tmp_path / "q.csv")]) == 0
    finally:
        tracer.uninstall()
    assert qdeflect.cli.main is main and qdeflect.cli.qmdf_map is original

    spans = tracer.spans
    roots = [s for s in spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.self"]
    layers = {s[0] for s in spans}
    assert {"smatrix.load", "qmdf.map", "wigner.table", "smatrix.scan"} <= layers
    span = roots[0][2] - roots[0][1]
    assert sum(self_times(spans)) == pytest.approx(span, rel=1e-9, abs=1e-12)
    totals = layer_totals(spans)
    assert sum(v for k, v in totals.items() if k.endswith("_s")) == pytest.approx(span, rel=1e-9, abs=1e-12)
    assert all(v >= 0 for k, v in totals.items() if k.endswith("_s"))


def test_targets_that_no_longer_exist_are_skipped(monkeypatch):
    missing = (("qdeflect.qmdf", "no_such_function", "qmdf.map", None, False),
               ("qdeflect.smatrix", "NoSuchClass.method", "smatrix.scan", None, False),
               ("qdeflect.no_such_module", "anything", "cli.self", None, False))
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + missing)
    original = qdeflect.qmdf_map
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert qdeflect.qmdf_map is original and not hasattr(qdeflect.qmdf, "no_such_function")


def test_tail_names_the_percentile():
    assert run.tail([1.0, 3.0, 2.0])[0] == 3.0
    values = [float(i) for i in range(40)]
    value, label = run.tail(values)
    assert sum(v > value for v in values) == 10 and label == "p75 of n=40"


def test_sine_weights_integrate_band_limited_curves_exactly():
    thetas = np.linspace(0.0, np.pi, 721)
    w = ck.sine_weights(721)
    for m in (1, 2, 7, 500):
        exact = (1 - np.cos(m * np.pi)) / m
        assert w @ np.sin(m * thetas) == pytest.approx(exact, abs=1e-12)
