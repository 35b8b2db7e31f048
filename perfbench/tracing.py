"""Spans around calls into qdeflect's public functions, recorded from outside.

`Tracer.install()` replaces each target in `TARGETS` with a wrapper that
records a span (layer, start, end, parent, count, key) in memory; nothing
in the package changes.  A target missing from the package is skipped, so
its time falls into its caller's self time.  A layer's self time is the
sum over its spans of the span's duration minus its children's.

This module imports only the standard library, so a traced child process
can load it before `qdeflect` without moving numpy's import time.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import time
from collections import defaultdict


def _size(args, result):
    return len(result), None


def _scan(args, result):
    return len(args[0].entries), None  # the seed code scans every entry per call


def _table(args, result):
    j_max, omega_p, omega, grid = args[:4]
    # d_{m'm} = (-1)^(m'-m) d_{mm'} = d_{-m,-m'}: one table serves the orbit
    orbit = ((omega_p, omega), (omega, omega_p), (-omega, -omega_p), (-omega_p, -omega))
    return (j_max + 1) * len(grid), f"{min(orbit)}@{len(grid)}"


# (module, attribute, layer, count, wraps_result).  The wrapper is bound
# wherever `qdeflect`, `qdeflect.cli` or the named module hold the
# original; "Class.method" patches the class.  wigner_d_table is patched
# where observables looks it up, the only caller of the amplitude path.
TARGETS = (
    ("qdeflect.cli", "main", "cli.self", None, False),
    ("qdeflect.smatrix", "load_smatrix", "smatrix.load", _size, False),
    ("qdeflect.smatrix", "save_smatrix", "smatrix.save", None, False),
    ("qdeflect.smatrix", "SMatrixBlock.j_column", "smatrix.scan", _scan, False),
    ("qdeflect.smatrix", "SMatrixBlock.entries_at_j", "smatrix.scan", _scan, False),
    ("qdeflect.observables", "wigner_d_table", "wigner.table", _table, False),
    ("qdeflect.observables", "dcs", "observables.dcs", None, False),
    ("qdeflect.observables", "opacity", "observables.per_j", None, False),
    ("qdeflect.observables", "partial_cross_section", "observables.per_j", None, False),
    ("qdeflect.qmdf", "qmdf_map", "qmdf.map", None, False),
    ("qdeflect.qmdf", "random_phase_map", "qmdf.map", None, False),
    ("qdeflect.qmdf", "qmdf_helicity_map", "qmdf.map", None, False),
    ("qdeflect.qmdf", "sum_over_j", "qmdf.window", None, False),
    ("qdeflect.qmdf", "partial_dcs", "qmdf.window", None, False),
    ("qdeflect.qmdf", "smooth_map", "qmdf.smooth", None, False),
    ("qdeflect.qmdf", "integrate_over_theta", "angular.integrate", None, False),
    ("qdeflect.cqdf", "cqdf", "cqdf.curve", None, False),
    ("qdeflect.synth", "parse_model_file", "synth.generate", None, False),
    ("qdeflect.synth", "synth_smatrix", "synth.generate", None, False),
    ("qdeflect.synth", "synth_smatrix_helicity", "synth.generate", None, False),
    ("qdeflect.synth", "synth_trajectories", "synth.generate", None, False),
    ("qdeflect.qct", "load_trajectories", "qct.load", _size, False),
    ("qdeflect.qct", "save_trajectories", "qct.save", None, False),
    ("qdeflect.qct", "qct_df_gaussian", "qct.gaussian", None, False),
    ("qdeflect.qct", "qct_sigma_j_gaussian", "qct.gaussian", None, True),
    ("qdeflect.qct", "qct_df_legendre", "qct.legendre", None, False),
    ("qdeflect.qct", "qct_dcs_legendre", "qct.legendre", None, False),
    ("qdeflect.qct", "qct_sigma_j_legendre", "qct.legendre", None, True),
)


class Tracer:
    """In-memory span recorder; one per process, single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [layer, start, end, parent, count, key]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, layer: str, count=None, wraps_result: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, 0, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = tracer.clock()
                tracer._stack.pop()
            if count is not None:
                rec[4], rec[5] = count(args, result)
            return tracer.wrap(result, layer) if wraps_result else result

        return traced

    def install(self) -> None:
        holders = [importlib.import_module(m) for m in ("qdeflect", "qdeflect.cli")]
        for modname, attr, layer, count, wraps_result in TARGETS:
            try:
                module = importlib.import_module(modname)
            except ModuleNotFoundError:
                continue
            owner, _, name = attr.rpartition(".")
            owner = getattr(module, owner, None) if owner else module
            original = getattr(owner, name, None)
            if original is None:
                continue
            wrapped = self.wrap(original, layer, count, wraps_result)
            for holder in [owner] + ([] if owner is not module else holders):
                for key, value in list(vars(holder).items()):
                    if value is original and (holder is owner or key == name):
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans) -> list[float]:
    selfs = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            selfs[parent] -= end - start
    return selfs


def layer_totals(spans) -> dict[str, float]:
    """Per-layer metrics of one operation's spans (one block, one grid)."""
    out: dict[str, float] = defaultdict(float)
    tables: set = set()
    for (layer, _, _, _, count, key), self_s in zip(spans, self_times(spans)):
        out[layer + "_s"] += self_s
        out[layer + ".calls"] += 1
        out[layer + ".count"] += count
        if key is not None:
            tables.add(key)
    out["wigner.distinct"] += len(tables)
    return out


_IMPORT_RE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)")
IMPORT_LAYERS = (("qdeflect", "import.cli_s"), ("numpy", "import.numpy_s"), ("scipy", "import.scipy_s"))


def import_self_times(stderr_text: str) -> dict[str, float]:
    """Self import time per package from `python -X importtime` output."""
    out = {metric: 0.0 for _, metric in IMPORT_LAYERS}
    for match in _IMPORT_RE.finditer(stderr_text):
        top = match.group(2).split(".", 1)[0]
        for package, metric in IMPORT_LAYERS:
            if top == package:
                out[metric] += int(match.group(1)) * 1e-6
    return out
