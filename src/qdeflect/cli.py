"""Command-line front end: every analysis lands in a plot-ready CSV.

Curves are written as theta_deg,value; per-J quantities as J,value; maps in
long format theta_deg,J,value.  Angles carry six decimals, intensities nine
significant digits, and each file starts with provenance comments (tool
version, command, input hash, parameters), so identical configs and inputs
reproduce byte-identical output.  Exit codes: 0 success, 1 input or
validation problem, 2 numerical failure (e.g. a phase-unwrap tie).
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .angular import AngularGrid
from .cqdf import PhaseUnwrapError, cqdf
from .observables import dcs, opacity, partial_cross_section
from .qct import (
    KernelConfig,
    load_trajectories,
    qct_dcs_legendre,
    qct_df_gaussian,
    qct_df_legendre,
    qct_sigma_j_gaussian,
    qct_sigma_j_legendre,
    save_trajectories,
)
from .qmdf import (
    JWindow,
    map_without_sin,
    partial_dcs,
    qmdf_helicity_map,
    qmdf_map,
    random_phase_map,
    smooth_map,
    sum_over_j,
)
from .smatrix import SMatrixParseError, SMatrixValidationError, load_smatrix, save_smatrix
from .synth import ClassicalModel, parse_model_file, synth_smatrix, synth_smatrix_helicity, synth_trajectories

# column format by header name; every other column is an intensity with
# nine significant digits
_CELL_FORMATS = {"theta_deg": "%.6f", "theta_tilde_deg": "%.6f", "J": "%d"}


def _write_csv(out: str, command: str, input_path: str, header: Sequence[str],
               columns: Sequence[np.ndarray], params: dict) -> None:
    cells = []
    for name, column in zip(header, columns):
        values = np.asarray(column)
        if not np.all(np.isfinite(values)):
            raise ValueError("refusing to write non-finite output values")
        cells.append(values.astype(np.int64 if name == "J" else float).tolist())
    row_format = ",".join(_CELL_FORMATS.get(name, "%.8e") for name in header)
    lines = [
        f"# qdeflect {__version__}",
        f"# command: {command}",
        f"# input sha256: {hashlib.sha256(Path(input_path).read_bytes()).hexdigest()}",
        "# params: " + " ".join(f"{k}={params[k]}" for k in sorted(params)),
        ",".join(header),
    ]
    lines.extend([row_format % row for row in zip(*cells)])
    Path(out).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _map_columns(grid: AngularGrid, j_values, values) -> tuple[np.ndarray, ...]:
    """Long-format (theta_deg, J, value) columns, theta-major."""
    n_j = len(j_values)
    return np.repeat(grid.degrees, n_j), np.tile(j_values, len(grid)), np.ravel(values)


def _per_j(block, name: str, fn):
    js = range(block.header.J_max + 1)
    return ("J", name), (js, [fn(block, J) for J in js]), {}


def _map_output(dmap, args, params: dict):
    if args.smooth_j or args.smooth_theta_deg:
        dmap = smooth_map(dmap, args.smooth_j, np.radians(args.smooth_theta_deg))
        params.update(smooth_j=args.smooth_j, smooth_theta_deg=args.smooth_theta_deg)
    values = dmap.values
    if args.no_sin_theta:
        values, mask = map_without_sin(dmap)
        params["no_sin_theta"] = 1
        if mask.any():
            print(f"note: {int(mask.sum())} endpoint theta rows emitted as 0 (sin(theta) = 0)",
                  file=sys.stderr)
    return ("theta_deg", "J", "value"), _map_columns(dmap.grid, dmap.j_values, values), params


def _window_curve(block, args, curve_of):
    window = JWindow(0 if args.jmin is None else args.jmin,
                     block.header.J_max if args.jmax is None else args.jmax)
    return (("theta_deg", "value"), (args.grid.degrees, curve_of(window).values),
            {"jmin": window.j_lo, "jmax": window.j_hi})


def _cqdf(block, args):
    curve = cqdf(block, args.omega_prime, args.omega, mode=args.unwrap)
    columns = (curve.j_values, curve.theta_tilde, np.degrees(curve.theta_tilde), curve.magnitudes)
    return (("J", "theta_tilde_rad", "theta_tilde_deg", "magnitude"), columns,
            {"omega": args.omega, "omega_prime": args.omega_prime, "unwrap": args.unwrap})


def _kernel(ensemble, args) -> KernelConfig:
    # widths not given on the command line fall back to the
    # nearest-neighbor-spacing heuristic, per axis
    if args.smooth_j > 0 and args.smooth_theta_deg > 0:
        return KernelConfig(args.smooth_j, np.radians(args.smooth_theta_deg))
    heur = KernelConfig.from_ensemble(ensemble)
    s_j = args.smooth_j if args.smooth_j > 0 else heur.s_j
    s_theta = np.radians(args.smooth_theta_deg) if args.smooth_theta_deg > 0 else heur.s_theta
    return KernelConfig(s_j, s_theta)


def _qct_df(ensemble, args):
    if args.estimator == "gaussian":
        cfg = _kernel(ensemble, args)
        params = {"s_j": cfg.s_j, "s_theta": cfg.s_theta,
                  "boundary_renormalize": int(args.boundary_renormalize)}
        dmap = qct_df_gaussian(ensemble, cfg, args.grid,
                               renormalize_boundary=args.boundary_renormalize)
    else:
        params = {"order_theta": args.order_theta, "order_j": args.order_j}
        dmap = qct_df_legendre(ensemble, args.order_theta, args.order_j, args.grid)
    params["estimator"] = args.estimator
    return ("theta_deg", "J", "value"), _map_columns(dmap.grid, dmap.j_values, dmap.values), params


def _qct_dcs(ensemble, args):
    curve = qct_dcs_legendre(ensemble, args.order_theta, args.grid)
    return (("theta_deg", "value"), (args.grid.degrees, curve.values),
            {"estimator": "legendre", "order_theta": args.order_theta})


def _qct_sigma_j(ensemble, args):
    j_values = np.arange(int(np.floor(ensemble.j_max)) + 1)
    if args.estimator == "gaussian":
        cfg = _kernel(ensemble, args)
        params = {"s_j": cfg.s_j}
        fn = qct_sigma_j_gaussian(ensemble, cfg)
    else:
        params = {"order_j": args.order_j}
        fn = qct_sigma_j_legendre(ensemble, args.order_j)
    params["estimator"] = args.estimator
    return ("J", "value"), (j_values, np.asarray(fn(j_values.astype(float)))), params


def _synth(path, args) -> None:
    spec = parse_model_file(Path(path))
    seed = spec.seed if args.seed is None else args.seed
    if isinstance(spec.model, ClassicalModel):
        save_trajectories(synth_trajectories(spec.model, spec.count, seed), args.out)
    elif spec.j_final > 0:
        save_smatrix(synth_smatrix_helicity(spec.model, spec.k, spec.j_final, spec.j_max_int,
                                            spec.phase_offset), args.out)
    else:
        save_smatrix(synth_smatrix(spec.model, spec.k, spec.j_max_int), args.out)


class Command(NamedTuple):
    """One command: its input loader (None: the handler gets the path), its
    argparse option specs, and handler(data, args) -> (header, columns,
    params), or None when the handler writes its own output.  For commands
    with --grid-deg, run() sets args.grid and records grid_deg."""

    load: Callable[[str], object] | None
    options: tuple[tuple[str, dict], ...]
    handler: Callable


# late-bound, so a wrapper installed on this module's loader (a profiler) sees the call
_BLOCK = lambda path: load_smatrix(path)  # noqa: E731
_ENSEMBLE = lambda path: load_trajectories(path)  # noqa: E731

GRID = (("--grid-deg", {"type": float, "default": 0.25,
                        "help": "angular step in degrees, a divisor of 180"}),)
SMOOTHING = (
    ("--smooth-j", {"type": float, "default": 0.0, "help": "gaussian width in J"}),
    ("--smooth-theta-deg", {"type": float, "default": 0.0, "help": "gaussian width in degrees"}),
)
MAP = SMOOTHING + (("--no-sin-theta", {"action": "store_true"}),)
WINDOW = (("--jmin", {"type": int}), ("--jmax", {"type": int}))
ESTIMATOR = (("--estimator", {"choices": ("legendre", "gaussian"), "default": "legendre"}),)
ORDER_THETA = (("--order-theta", {"type": int, "default": 20}),)
ORDER_J = (("--order-j", {"type": int, "default": 20}),)

COMMANDS = {
    "dcs": Command(_BLOCK, GRID, lambda block, a: (
        ("theta_deg", "dcs"), (a.grid.degrees, dcs(block, a.grid).values), {})),
    "qmdf": Command(_BLOCK, GRID + MAP, lambda block, a: _map_output(qmdf_map(block, a.grid), a, {})),
    "random-phase": Command(_BLOCK, GRID + MAP,
                            lambda block, a: _map_output(random_phase_map(block, a.grid), a, {})),
    "qmdf-helicity": Command(_BLOCK, GRID + (("--omega-prime", {"type": int, "required": True}),) + MAP,
                             lambda block, a: _map_output(qmdf_helicity_map(block, a.omega_prime, a.grid),
                                                          a, {"omega_prime": a.omega_prime})),
    "opacity": Command(_BLOCK, (), lambda block, a: _per_j(block, "opacity", opacity)),
    "sigma-j": Command(_BLOCK, (), lambda block, a: _per_j(block, "sigma_j", partial_cross_section)),
    "sum-j": Command(_BLOCK, GRID + WINDOW, lambda block, a: _window_curve(
        block, a, lambda window: sum_over_j(qmdf_map(block, a.grid), window))),
    "partial-dcs": Command(_BLOCK, GRID + WINDOW, lambda block, a: _window_curve(
        block, a, lambda window: partial_dcs(block, window, a.grid))),
    "cqdf": Command(_BLOCK, (
        ("--omega", {"type": int, "default": 0}),
        ("--omega-prime", {"type": int, "default": 0}),
        ("--unwrap", {"choices": ("two-sided", "one-sided"), "default": "two-sided"}),
    ), _cqdf),
    "qct-df": Command(_ENSEMBLE, GRID + ESTIMATOR + ORDER_THETA + ORDER_J + SMOOTHING
                      + (("--boundary-renormalize", {"action": "store_true"}),), _qct_df),
    "qct-dcs": Command(_ENSEMBLE, GRID + ORDER_THETA, _qct_dcs),
    "qct-sigma-j": Command(_ENSEMBLE, ESTIMATOR + ORDER_J + SMOOTHING, _qct_sigma_j),
    "synth": Command(None, (("--seed", {"type": int}),), _synth),
}


def run(args: argparse.Namespace) -> int:
    command = COMMANDS[args.command]
    data = args.input if command.load is None else command.load(args.input)
    params = {}
    if "grid_deg" in vars(args):
        args.grid = AngularGrid.uniform(args.grid_deg)
        params["grid_deg"] = args.grid_deg
    result = command.handler(data, args)
    if result is not None:
        header, columns, extra = result
        _write_csv(args.out, args.command, args.input, header, columns, {**params, **extra})
    return 0


class _Parser(argparse.ArgumentParser):
    # input/usage problems are exit code 1; code 2 is reserved for
    # numerical failures
    def error(self, message: str):  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qdeflect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("input", help="input file")
        p.add_argument("--out", required=True, help="output CSV path")
        for flag, spec in command.options:
            p.add_argument(flag, **spec)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except PhaseUnwrapError as exc:
        print(f"qdeflect: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (SMatrixParseError, SMatrixValidationError, ValueError, OSError) as exc:
        print(f"qdeflect: error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
