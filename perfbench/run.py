#!/usr/bin/env python3
"""qdeflect benchmark.

    python3 perfbench/run.py --workload cli-readme|cli-L|lib-ref|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
`src/`.  One client in a closed loop: each operation starts when the
previous one has finished.  A pass is a fixed list of operations; passes
repeat until the next one would end after `--seconds`.

- cli-readme: the README's 13 commands, one `python -m qdeflect` process
  each.  Tiny inputs, so interpreter start and imports dominate.
- cli-L: S-matrix commands on reference block L (J_max = 250, 77 helicity
  pairs, 19,089 entries, 721 angles).  Wigner tables, maps and the CSV
  writer dominate.
- lib-ref: in-process library calls on a fresh L-size block and a 50k
  trajectory ensemble per pass; no process start and no CSV.

With `--trace 0` the last line of output is a JSON object with the
end-to-end metrics, with `--trace 1` the per-layer metrics of traced
passes (spans recorded by `tracing.py` around the package's public
functions).  Outputs are checked against the package's exact identities
(`checks.py`) and, where the inputs match the recorded ones, against the
data-row digests in `digests.json`.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks as ck
import inputs
from tracing import Tracer, import_self_times, layer_totals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
SETUP_REPEATS = 5
L_WINDOW = 125  # sum-j / partial-dcs lower window is J = 0..125, its complement 126..250

README_OPS = (
    "synth model.txt --out block.smat",
    "synth classical.txt --out ens.traj",
    "dcs block.smat --out dcs.csv --grid-deg 0.25",
    "opacity block.smat --out opacity.csv",
    "sigma-j block.smat --out sigma_j.csv",
    "qmdf block.smat --out qmap.csv --smooth-j 1.5 --smooth-theta-deg 1.0",
    "random-phase block.smat --out rp.csv",
    "sum-j block.smat --out low.csv --jmin 0 --jmax 30",
    "partial-dcs block.smat --out low_dcs.csv --jmin 0 --jmax 30",
    "cqdf block.smat --out cqdf.csv --unwrap two-sided",
    "qct-df ens.traj --out cmap.csv --estimator gaussian --smooth-j 1.5 --smooth-theta-deg 3.0",
    "qct-dcs ens.traj --out cdcs.csv --order-theta 20",
    "qct-sigma-j ens.traj --out csj.csv --estimator legendre --order-j 20",
)
# outputs that do not depend on the workload seed (it enters through classical.txt)
README_SEED_FREE = ("block.smat", "dcs.csv", "opacity.csv", "sigma_j.csv", "qmap.csv", "rp.csv",
                    "low.csv", "low_dcs.csv", "cqdf.csv")

L_OPS = (
    "qmdf L.smat --out qmdf.csv",
    "random-phase L.smat --out rp.csv",
    "qmdf-helicity L.smat --out qmdf_h2.csv --omega-prime 2",
    "dcs L.smat --out dcs.csv",
    f"sum-j L.smat --out sum_lo.csv --jmin 0 --jmax {L_WINDOW}",
    f"partial-dcs L.smat --out pdcs_lo.csv --jmin 0 --jmax {L_WINDOW}",
    f"sum-j L.smat --out sum_hi.csv --jmin {L_WINDOW + 1} --jmax {inputs.L_J_MAX}",
    "opacity L.smat --out opacity.csv",
    "sigma-j L.smat --out sigma_j.csv",
)

# ROADMAP baseline figures (seconds), scratch measurements on 2 CPUs
ROADMAP = {
    "load_smatrix": "0.133", "dcs": "0.634", "qmdf_map": "0.654-1.026",
    "random_phase_map": "0.732", "opacity": "0.203", "qct_df_gaussian": "0.925",
    "qct_df_legendre": "0.017 (fit_legendre_df alone)",
    "cli-L/qmdf.csv": "1.93", "cli-L/rp.csv": "1.87", "cli-L/sum_lo.csv": "1.48",
    "cli-L/sum_hi.csv": "1.48", "cli-L/dcs.csv": "1.32", "cli-L/opacity.csv": "1.10",
    "setup (import qdeflect.cli)": "0.92",
}

# the metrics of the JSON line; wall_tail_s, failed_ops and changed_outputs are
# printed beside them (see README.md for why they are not gated)
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
PER_LAYER = (
    ("import.cli_s", "s"), ("import.numpy_s", "s"), ("import.scipy_s", "s"),
    ("cli.self_s", "s"), ("cli.cells", "count"), ("cli.bytes", "B"),
    ("smatrix.load_s", "s"), ("smatrix.entries", "count"), ("smatrix.scan_s", "s"),
    ("smatrix.scan_calls", "count"), ("smatrix.scan_entries", "count"), ("smatrix.save_s", "s"),
    ("wigner.table_s", "s"), ("wigner.table_calls", "count"), ("wigner.d_elements", "count"),
    ("wigner.useful_ratio", "ratio"),
    ("observables.dcs_s", "s"), ("observables.per_j_s", "s"),
    ("qmdf.map_s", "s"), ("qmdf.window_s", "s"), ("qmdf.smooth_s", "s"),
    ("angular.integrate_s", "s"), ("angular.integrate_calls", "count"),
    ("cqdf.curve_s", "s"), ("synth.generate_s", "s"),
    ("qct.load_s", "s"), ("qct.records", "count"), ("qct.gaussian_s", "s"),
    ("qct.legendre_s", "s"), ("qct.save_s", "s"),
    ("trace.overhead_s", "s"),
)
# per-layer metric <- key of tracing.layer_totals
COUNTS = {
    "smatrix.entries": "smatrix.load.count", "smatrix.scan_calls": "smatrix.scan.calls",
    "smatrix.scan_entries": "smatrix.scan.count", "wigner.table_calls": "wigner.table.calls",
    "wigner.d_elements": "wigner.table.count", "angular.integrate_calls": "angular.integrate.calls",
    "qct.records": "qct.load.count",
}


@dataclass
class Pass:
    wall: float = 0.0
    cpu: float = 0.0
    rss_kb: int = 0
    op_walls: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)  # op -> reason
    layers: dict | None = None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], cwd: Path, env: dict, stderr_path: Path):
    """Run one child to exit: (wall s, user+sys s, maxrss KB, exit code)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode


# ---------------------------------------------------------------- workloads


class CliWorkload:
    """Commands run as separate `python -m qdeflect` processes."""

    seed_free_outputs: tuple = ()  # compared with the recorded digests at any seed
    fresh_inputs = False  # every pass runs on the same inputs
    setup_label = "setup (import qdeflect.cli)"

    def __init__(self, name: str, ops: tuple[str, ...]):
        self.name = name
        self.ops = [(cmd.split()[cmd.split().index("--out") + 1], cmd.split()) for cmd in ops]
        self.op_names = [out for out, _ in self.ops]

    def setup_argv(self, seed: int) -> list[str]:
        return [sys.executable, "-c", "import qdeflect.cli"]

    def next_inputs(self, ctx: dict) -> None:
        pass

    def run_pass(self, ctx: dict, traced: bool) -> Pass:
        work, env = ctx["dir"], ctx["env"]
        for out, _ in self.ops:
            (work / out).unlink(missing_ok=True)
        p = Pass(layers={} if traced else None)
        start = time.perf_counter()
        for out, args in self.ops:
            if traced:
                argv = [sys.executable, "-X", "importtime", str(BENCH / "traced_cli.py"),
                        str(work / f"{out}.spans"), "--", *args]
            else:
                argv = [sys.executable, "-m", "qdeflect", *args]
            wall, cpu, rss, code = spawn(argv, work, env, work / f"{out}.err")
            p.op_walls[out] = wall
            p.cpu += cpu
            p.rss_kb = max(p.rss_kb, rss)
            if code != 0:
                tail = (work / f"{out}.err").read_text(errors="replace").strip().splitlines()
                p.failed[out] = f"exit code {code}: {tail[-1] if tail else ''}"
        p.wall = time.perf_counter() - start
        if traced:
            for out, _ in self.ops:
                self._add_trace(p.layers, work, out)
        return p

    @staticmethod
    def _add_trace(layers: dict, work: Path, out: str) -> None:
        spans_file = work / f"{out}.spans"
        if spans_file.exists():
            for key, value in layer_totals(json.loads(spans_file.read_text())).items():
                layers[key] = layers.get(key, 0.0) + value
        stderr = (work / f"{out}.err").read_text(errors="replace")
        for key, value in import_self_times(stderr).items():
            layers[key] = layers.get(key, 0.0) + value
        if out.endswith(".csv") and (work / out).exists():
            rows = ck.data_lines(work / out)
            layers["cli.cells"] = layers.get("cli.cells", 0) + (len(rows) - 1) * len(rows[0].split(","))
            layers["cli.bytes"] = layers.get("cli.bytes", 0) + (work / out).stat().st_size

    def digests(self, ctx: dict) -> dict:
        return {out: ck.digest(ctx["dir"] / out) for out, _ in self.ops if (ctx["dir"] / out).exists()}

    @staticmethod
    def check_s_matrix_outputs(c: ck.Checks, d: Path, sigma: np.ndarray, k: float, j: int) -> None:
        """Checks of the four outputs both CLI workloads name alike."""
        n_j = sigma.size
        c.run("dcs.csv", lambda: [ck.integral_matches(ck.read_curve(d / "dcs.csv") * ck.SIN, sigma.sum())])
        c.run("rp.csv", lambda: [f(ck.read_map(d / "rp.csv", n_j)) for f in
                                 (ck.nonnegative, lambda v: ck.integral_matches(v, sigma))])
        c.run("sigma_j.csv", lambda: [(ck.close(ck.read_per_j(d / "sigma_j.csv", n_j), sigma, 1e-8),
                                       "sigma^J = pi/k^2 (2J+1)/(2j+1) sum |S^J|^2")])
        c.run("opacity.csv", lambda: [(ck.close(ck.read_per_j(d / "opacity.csv", n_j), ck.opacity_from_sigma(
            ck.read_per_j(d / "sigma_j.csv", n_j), k, j), 2e-8), "opacity consistent with sigma-j")])


class ReadmeWorkload(CliWorkload):
    seed_free_outputs = README_SEED_FREE

    def __init__(self):
        super().__init__("cli-readme", README_OPS)

    def prepare(self, work: Path, seed: int) -> dict:
        (work / "model.txt").write_text(inputs.readme_model())
        (work / "classical.txt").write_text(inputs.readme_classical(seed))
        return {"seed": seed}

    def check(self, ctx: dict, c: ck.Checks) -> None:
        d, n_j, n_ens = ctx["dir"], 61, int(inputs.ENS_J_MAX) + 1
        js = np.arange(n_j)
        alpha = inputs.README_ALPHA
        amp = np.exp(-(((js - 30.0) / 8.0) ** 2))  # k = 1, j = 0, one helicity
        sigma = math.pi * (2 * js + 1) * amp**2
        ens_j, ens_deg = inputs.ensemble_arrays(np.random.default_rng(ctx["seed"]))

        def block():
            rows = np.loadtxt(d / "block.smat", skiprows=2, ndmin=2)
            want = amp * np.exp(-1j * alpha * js * (js + 1))
            return [(rows.shape == (n_j, 5) and np.all(rows[:, 0] == js)
                     and np.abs(rows[:, 3] + 1j * rows[:, 4] - want).max() <= 1e-12,
                     "S^J = A(J) exp(2 i eta(J)) for J = 0..60")]

        def ensemble():
            got = np.loadtxt(d / "ens.traj", ndmin=2)
            return [(got.shape == (inputs.ENS_COUNT, 3) and np.all(got[:, 0] == 1.0)
                     and np.array_equal(got[:, 1], ens_j) and np.array_equal(got[:, 2], ens_deg),
                     "records equal the model's draws")]

        def cqdf():
            rows = ck.read_table(d / "cqdf.csv")
            inner = rows[1:-1]
            want = math.pi - alpha * (2 * inner[:, 0] + 1)
            return [(rows.shape == (n_j, 4) and ck.close(inner[:, 1], want, 0, 1e-7),
                     "theta~ = pi - alpha (2J+1) at interior J")]

        def qct_sigma_j():
            want = ck.legendre_sigma_j(ens_j, inputs.ENS_J_MAX, inputs.ENS_SIGMA_R,
                                       20, np.arange(float(n_ens)))
            got = ck.read_per_j(d / "csj.csv", n_ens)
            return [(ck.close(got, want, 0, 1e-8 * np.abs(want).max()), "Legendre sigma_J of the ensemble")]

        c.run("block.smat", block)
        c.run("ens.traj", ensemble)
        self.check_s_matrix_outputs(c, d, sigma, 1.0, 0)
        # smoothing truncates at the boundaries, so the smoothed map keeps no exact identity
        c.run("qmap.csv", lambda: [(ck.read_map(d / "qmap.csv", n_j).shape == (ck.N_THETA, n_j), "map")])
        c.run("low.csv", lambda: [ck.integral_matches(ck.read_curve(d / "low.csv"), sigma[:31].sum())])
        c.run("low_dcs.csv", lambda: [ck.integral_matches(ck.read_curve(d / "low_dcs.csv") * ck.SIN,
                                                          sigma[:31].sum())])
        c.run("cqdf.csv", cqdf)
        c.run("cmap.csv", lambda: [ck.nonnegative(ck.read_map(d / "cmap.csv", n_ens))])
        c.run("cdcs.csv", lambda: [ck.integral_matches(ck.read_curve(d / "cdcs.csv") * ck.SIN,
                                                       inputs.ENS_SIGMA_R)])
        c.run("csj.csv", qct_sigma_j)


class LWorkload(CliWorkload):
    def __init__(self):
        super().__init__("cli-L", L_OPS)

    def prepare(self, work: Path, seed: int) -> dict:
        entries, text = inputs.block_l(np.random.default_rng(seed))
        (work / "L.smat").write_bytes(text)
        return {"entries": entries}

    def check(self, ctx: dict, c: ck.Checks) -> None:
        d, n_j, k, j = ctx["dir"], inputs.L_J_MAX + 1, inputs.L_K, inputs.L_J
        sigma = ck.sigma_j(ck.entry_sums(ctx["entries"], n_j - 1), k, j)
        low = sigma[: L_WINDOW + 1].sum()

        def sums_to_dcs(*parts):
            """The J columns of all parts add up to dcs sin(theta)."""
            total = sum(p.sum(axis=1) for p in parts)
            slack = ck.EMIT_REL * sum(np.abs(p).sum(axis=1) for p in parts)
            return ck.close(total, ck.read_curve(d / "dcs.csv") * ck.SIN, 1e-8, slack), "sums to dcs sin(theta)"

        def qmdf():
            q = ck.read_map(d / "qmdf.csv", n_j)
            return [ck.integral_matches(q, sigma), sums_to_dcs(q)]

        def upper_window():
            lo, hi = (ck.read_curve(d / out) for out in ("sum_lo.csv", "sum_hi.csv"))
            return [ck.integral_matches(hi, sigma.sum() - low), sums_to_dcs(lo[:, None], hi[:, None])]

        self.check_s_matrix_outputs(c, d, sigma, k, j)
        c.run("qmdf.csv", qmdf)
        sigma_2 = ck.sigma_j(ck.entry_sums(ctx["entries"], n_j - 1, omega_p=2), k, j)
        c.run("qmdf_h2.csv", lambda: [ck.integral_matches(ck.read_map(d / "qmdf_h2.csv", n_j), sigma_2)])
        c.run("sum_lo.csv", lambda: [ck.integral_matches(ck.read_curve(d / "sum_lo.csv"), low)])
        c.run("pdcs_lo.csv", lambda: [ck.integral_matches(ck.read_curve(d / "pdcs_lo.csv") * ck.SIN, low)])
        c.run("sum_hi.csv", upper_window)


class LibWorkload:
    """In-process library calls; fresh inputs each pass."""

    name = "lib-ref"
    seed_free_outputs = ()
    fresh_inputs = True
    setup_label = "setup (start to inputs in memory)"
    op_names = ("load_smatrix", "dcs", "qmdf_map", "random_phase_map", "partial_dcs", "sum_over_j",
                "opacity", "partial_cross_section", "integrate_over_theta", "smooth_map",
                "load_trajectories", "qct_df_gaussian", "qct_df_legendre", "qct_dcs_legendre",
                "qct_sigma_j_gaussian")

    def setup_argv(self, seed: int) -> list[str]:
        code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import qdeflect, inputs; "
                f"inputs.libref_inputs({seed}, 0)")
        return [sys.executable, "-c", code]

    def prepare(self, work: Path, seed: int) -> dict:
        import qdeflect

        if Path(qdeflect.__file__).resolve().parent != SRC / "qdeflect":
            raise RuntimeError(f"qdeflect imported from {qdeflect.__file__}, not {SRC}")
        return {"seed": seed, "qd": qdeflect, "index": 0, "tracer": Tracer()}

    def next_inputs(self, ctx: dict) -> None:
        ctx["inputs"] = inputs.libref_inputs(ctx["seed"], ctx["index"])
        ctx["index"] += 1

    def operations(self, qd, inp: dict):
        grid = qd.default_grid()
        js = np.arange(int(inputs.ENS_J_MAX) + 1)
        all_j = range(inputs.L_J_MAX + 1)
        kernel = qd.KernelConfig(1.5, math.radians(3.0))
        lo, hi = qd.JWindow(0, L_WINDOW), qd.JWindow(L_WINDOW + 1, inputs.L_J_MAX)
        return {
            "load_smatrix": lambda r: qd.load_smatrix(inp["block"]),
            "dcs": lambda r: qd.dcs(r["load_smatrix"], grid),
            "qmdf_map": lambda r: qd.qmdf_map(r["load_smatrix"], grid),
            "random_phase_map": lambda r: qd.random_phase_map(r["load_smatrix"], grid),
            "partial_dcs": lambda r: qd.partial_dcs(r["load_smatrix"], lo, grid),
            "sum_over_j": lambda r: (qd.sum_over_j(r["qmdf_map"], lo), qd.sum_over_j(r["qmdf_map"], hi)),
            "opacity": lambda r: [qd.opacity(r["load_smatrix"], J) for J in all_j],
            "partial_cross_section": lambda r: [qd.partial_cross_section(r["load_smatrix"], J) for J in all_j],
            "integrate_over_theta": lambda r: [qd.integrate_over_theta(r["qmdf_map"], J) for J in all_j],
            "smooth_map": lambda r: qd.smooth_map(r["qmdf_map"], 1.5, math.radians(1.0)),
            "load_trajectories": lambda r: qd.load_trajectories(inp["ensemble"]),
            "qct_df_gaussian": lambda r: qd.qct_df_gaussian(r["load_trajectories"], kernel, grid, js),
            "qct_df_legendre": lambda r: qd.qct_df_legendre(r["load_trajectories"], 20, 20, grid, js),
            "qct_dcs_legendre": lambda r: qd.qct_dcs_legendre(r["load_trajectories"], 20, grid),
            "qct_sigma_j_gaussian":
                lambda r: np.asarray(qd.qct_sigma_j_gaussian(r["load_trajectories"], kernel)(js.astype(float))),
        }

    def run_pass(self, ctx: dict, traced: bool) -> Pass:
        tracer: Tracer = ctx["tracer"]
        p = Pass()
        results: dict = {}
        ops = self.operations(ctx["qd"], ctx["inputs"])
        tracer.spans.clear()
        if traced:
            tracer.install()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            for name in self.op_names:
                t0 = time.perf_counter()
                try:
                    results[name] = ops[name](results)
                except Exception:  # an operation failure is counted, not fatal
                    p.failed[name] = traceback.format_exc(limit=-2).strip()
                p.op_walls[name] = time.perf_counter() - t0
        finally:
            p.wall = time.perf_counter() - start
            after = resource.getrusage(resource.RUSAGE_SELF)
            tracer.uninstall()
        p.cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        p.rss_kb = after.ru_maxrss
        if traced:
            p.layers = dict(layer_totals(tracer.spans))
        ctx["results"] = results
        return p

    def digests(self, ctx: dict) -> dict:
        """Result digests at the CSV writer's precision (the loaders are checked exactly)."""
        out = {}
        for name, value in ctx["results"].items():
            if not name.startswith("load_"):
                parts = value if isinstance(value, tuple) else (value,)
                out[name] = ck.digest_values(*(getattr(v, "values", v) for v in parts))
        return out

    def check(self, ctx: dict, c: ck.Checks) -> None:
        """The same identities in memory, at the acceptance gate's tolerances."""
        r, inp = ctx["results"], ctx["inputs"]
        n_j, k, j = inputs.L_J_MAX + 1, inputs.L_K, inputs.L_J
        sigma = ck.sigma_j(ck.entry_sums(inp["entries"], n_j - 1), k, j)
        at = np.arange(int(inputs.ENS_J_MAX) + 1.0)

        def block():
            b = r["load_smatrix"]
            return [(dict(b.entries) == inp["entries"] and (b.header.J_max, b.header.k, b.header.j) == (n_j - 1, k, j),
                     "entries equal the generated ones")]

        def windows():
            lo, hi = (curve.values for curve in r["sum_over_j"])
            full = r["qmdf_map"].values.sum(axis=1)
            return [(np.abs(lo + hi - full).max() <= 1e-12 * np.abs(full).max(), "complementary windows add up")]

        def trajectories():
            e = r["load_trajectories"]
            return [(np.array_equal(e.j_values, inp["js"]) and np.array_equal(e.thetas, np.radians(inp["degs"]))
                     and np.all(e.weights == 1.0), "records equal the generated ones")]

        def legendre_map():
            want = ck.legendre_sigma_j(inp["js"], inputs.ENS_J_MAX,
                                       inputs.ENS_SIGMA_R, 20, at)
            got = 2 * math.pi * (ck.WEIGHTS @ r["qct_df_legendre"].values)
            return [(ck.close(got, want, 0, 1e-8 * np.abs(want).max()), "2 pi Int dtheta = Legendre sigma_J")]

        inner = slice(1, -1)
        c.run("load_smatrix", block)
        c.run("dcs", lambda: [ck.integral_matches(r["dcs"].values * ck.SIN, sigma.sum(), emitted=False)])
        c.run("qmdf_map", lambda: [
            ck.integral_matches(r["qmdf_map"].values, sigma, emitted=False),
            (ck.close(r["qmdf_map"].values.sum(axis=1)[inner], (r["dcs"].values * ck.SIN)[inner], 1e-12),
             "sum_J Q = dcs sin(theta)")])
        c.run("random_phase_map", lambda: [f(r["random_phase_map"].values) for f in
                                           (ck.nonnegative, lambda v: ck.integral_matches(v, sigma, emitted=False))])
        c.run("partial_dcs", lambda: [ck.integral_matches(r["partial_dcs"].values * ck.SIN,
                                                          sigma[: L_WINDOW + 1].sum(), emitted=False)])
        c.run("sum_over_j", windows)
        c.run("opacity", lambda: [(ck.close(r["opacity"], ck.opacity_from_sigma(sigma, k, j), 1e-12),
                                   "opacity from the entries")])
        c.run("partial_cross_section", lambda: [(ck.close(r["partial_cross_section"], sigma, 1e-12),
                                                 "sigma^J from the entries")])
        c.run("integrate_over_theta", lambda: [(ck.close(r["integrate_over_theta"], sigma, 1e-6),
                                                "equals sigma^J")])
        c.run("smooth_map", lambda: [(r["smooth_map"].values.shape == (ck.N_THETA, n_j), "map shape")])
        c.run("load_trajectories", trajectories)
        c.run("qct_df_gaussian", lambda: [ck.nonnegative(r["qct_df_gaussian"].values)])
        c.run("qct_df_legendre", legendre_map)
        c.run("qct_dcs_legendre", lambda: [ck.integral_matches(r["qct_dcs_legendre"].values * ck.SIN,
                                                               inputs.ENS_SIGMA_R, emitted=False)])
        c.run("qct_sigma_j_gaussian", lambda: [ck.nonnegative(r["qct_sigma_j_gaussian"])])


WORKLOADS = {w.name: w for w in (ReadmeWorkload(), LWorkload(), LibWorkload())}


# ---------------------------------------------------------------- measuring


def setup_time(workload, seed: int, env: dict, work: Path) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        wall, _, _, code = spawn(workload.setup_argv(seed), work, env, work / "setup.err")
        if code != 0:
            raise RuntimeError("set-up probe failed: " + (work / "setup.err").read_text()[-2000:])
        times.append(wall)
    return times


def verify(workload, ctx: dict, p: Pass, first: dict | None) -> dict:
    """Check one pass's outputs; the first pass in full, later CLI passes by
    digest against the first (their inputs are the same)."""
    digests = workload.digests(ctx)
    if first is None or workload.fresh_inputs:
        c = ck.Checks()
        workload.check(ctx, c)
        for op, msgs in c.failures.items():
            p.failed.setdefault(op, "; ".join(msgs))
    else:
        for op, value in first.items():
            if digests.get(op) != value:
                p.failed.setdefault(op, "output differs from the first pass")
    return digests


def changed_outputs(workload, digests: dict, seed: int, recorded: dict) -> tuple[int, int]:
    """(changed, compared) against the digests recorded for seed 0."""
    compared = changed = 0
    for name, value in recorded.items():
        if seed != 0 and name not in workload.seed_free_outputs:
            continue
        compared += 1
        changed += digests.get(name) != value
    return changed, compared


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, else the max."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], f"max of n={n} (fewer than 11 passes, no percentile has ten beyond it)"
    return s[n - 11], f"p{100 * (n - 10) / n:.0f} of n={n}"


def run_workload(workload, seed: int, seconds: float, traced: bool, record: bool) -> dict:
    env = child_env()
    work = ROOT / ".perfbench_run" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = [] if traced else setup_time(workload, seed, env, work)
        ctx = workload.prepare(work, seed)
        ctx.update(dir=work, env=env)
        passes: list[Pass] = []
        plain: list[Pass] = []
        first = None
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            workload.next_inputs(ctx)
            if traced:  # the same inputs untraced, then traced: the difference is overhead
                plain.append(workload.run_pass(ctx, traced=False))
                digests = verify(workload, ctx, plain[-1], first)
                first = digests if first is None else first
            passes.append(workload.run_pass(ctx, traced=traced))
            digests = verify(workload, ctx, passes[-1], first)
            first = digests if first is None else first
            now = time.perf_counter()
            if (now - start) + (now - t0) > seconds:  # the next iteration would overrun
                break
        if record:
            recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
            recorded[workload.name] = first
            DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        recorded = json.loads(DIGESTS.read_text()).get(workload.name, {})
        changed, compared = changed_outputs(workload, first, seed, recorded)
        return {"passes": passes, "plain": plain, "setup": setup, "changed": changed,
                "compared": compared}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = work.parent
        if parent.exists() and not any(parent.iterdir()):
            parent.rmdir()


def end_to_end(res: dict) -> dict:
    return {
        "wall_s": statistics.median(p.wall for p in res["passes"]),
        "cpu_s": statistics.median(p.cpu for p in res["passes"]),
        "peak_rss_mb": max(p.rss_kb for p in res["passes"]) / 1024.0,
        "setup_s": statistics.median(res["setup"]),
    }


def per_layer(res: dict) -> tuple[dict, set]:
    """Median over traced passes of each per-layer metric; the set of absent ones."""
    def metric(layers: dict, name: str) -> float | None:
        if name == "wigner.useful_ratio":
            calls = layers.get("wigner.table.calls", 0)
            return layers.get("wigner.distinct", 0) / calls if calls else None
        value = layers.get(COUNTS.get(name, name))
        return value if value else None

    out, absent = {}, set()
    for name, _ in PER_LAYER:
        if name == "trace.overhead_s":
            out[name] = statistics.median(t.wall - u.wall for t, u in zip(res["passes"], res["plain"]))
            continue
        values = [metric(p.layers, name) for p in res["passes"]]
        if any(v is None for v in values):
            absent.add(name)
            out[name] = 0.0
        else:
            out[name] = statistics.median(values)
    return out, absent


# ---------------------------------------------------------------- reporting


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower() and ".so" in ln})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def machine_facts() -> dict:
    cpuinfo = Path("/proc/cpuinfo")
    models = [ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
              if ln.startswith("model name")] if cpuinfo.exists() else []
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip() or None
        dirty = bool(subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True).stdout.strip())
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": models[0] if models else platform.processor(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
        "git_sha": sha, "git_dirty": dirty, "src_sha256": src.hexdigest(),
    }


def report(workload, seed: int, traced: bool, res: dict) -> dict:
    passes = res["passes"]
    attempted = len(workload.op_names) * (len(passes) + len(res["plain"]))
    failed = sum(len(p.failed) for p in passes + res["plain"])
    print(f"== {workload.name}  seed {seed}  {len(passes)} pass(es), one client, closed loop"
          + ("  [traced]" if traced else ""))
    print("machine: " + json.dumps(machine_facts()))
    for p in passes + res["plain"]:
        for op, why in p.failed.items():
            print(f"FAILED {op}: {why}")
    ops = workload.op_names
    print(f"{'operation':34s} {'median s':>9s}  ROADMAP baseline s")
    for op in ops:
        key = op if workload.name == "lib-ref" else f"{workload.name}/{op}"
        med = statistics.median(p.op_walls[op] for p in passes if op in p.op_walls)
        print(f"{op:34s} {med:9.3f}  {ROADMAP.get(key, '')}")
    if traced:
        metrics, absent = per_layer(res)
        units = dict(PER_LAYER)
        for name, value in metrics.items():
            print(f"{name:34s} {'absent' if name in absent else f'{value:.6g}'} {units[name]}")
        out_metrics = {name: {"value": metrics[name], "unit": units[name]} for name, _ in PER_LAYER}
    else:
        metrics = end_to_end(res)
        print(f"{workload.setup_label:34s} {metrics['setup_s']:9.3f}  {ROADMAP.get(workload.setup_label, '')}")
        notes = {"wall_s": f"median of n={len(passes)} passes", "cpu_s": "median user+sys per pass",
                 "peak_rss_mb": "max ru_maxrss in any pass", "setup_s": f"median of {SETUP_REPEATS} fresh processes"}
        for name, unit in END_TO_END:
            print(f"{name:14s} {metrics[name]:12.4f} {unit:5s} {notes[name]}")
        value, label = tail([p.wall for p in passes])
        print(f"{'wall_tail_s':14s} {value:12.4f} {'s':5s} {label}")
        out_metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    print(f"{'failed_ops':14s} {failed / attempted:12.4f} {'ratio':5s} {failed} of {attempted} operations")
    print(f"{'changed_outputs':14s} {res['changed']:12d} {'count':5s} of {res['compared']} outputs "
          "with recorded data-row digests")
    return {"correct": failed == 0 and res["changed"] == 0, "attempted": attempted, "failed": failed,
            "metrics": out_metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store the first pass's output digests as the reference (seed 0 only)")
    args = parser.parse_args(argv)
    if not (SRC / "qdeflect" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'qdeflect'}", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != 0:
        parser.error("--record-digests records the default seed only")
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        workload = WORKLOADS[name]
        res = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.record_digests)
        result = report(workload, args.seed, bool(args.trace), res)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
