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
import warnings
from itertools import chain
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import __version__
from .angular import AngularGrid
from .cqdf import PhaseUnwrapError, cqdf
from .observables import dcs, opacity, partial_cross_section
from .qct import (
    KernelConfig,
    kernel_width,
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
from .smatrix import SMatrixBlock, load_smatrix, save_smatrix, validate_unitarity
from .synth import parse_model_file

# column format by header name; every other column is an intensity with
# nine significant digits
_CELL_FORMATS = {"theta_deg": "%.6f", "theta_tilde_deg": "%.6f", "J": "%d"}


def _write_csv(out: str, command: str, input_path: str, header: Sequence[str],
               axes: Sequence[np.ndarray], cells: Sequence[np.ndarray], params: dict) -> None:
    """Rows are the product of the key `axes`, the first outermost; each
    row goes on with one value from each of `cells`, arrays of the axes'
    shape.  An axis value is formatted once, into one row template with
    a slot per cell, and a single % fills every slot."""
    columns = [np.asarray(c) for c in (*axes, *cells)]
    if not all(np.all(np.isfinite(c)) for c in columns):
        raise ValueError("refusing to write non-finite output values")
    columns = [c.astype(np.int64 if name == "J" else float) for name, c in zip(header, columns)]
    formats = [_CELL_FORMATS.get(name, "%.8e") for name in header]
    template = ",".join(formats[len(axes):])
    for fmt, axis in reversed(list(zip(formats, columns[: len(axes)]))):
        template = "\n".join(key + "," + template.replace("\n", "\n" + key + ",")
                             for key in (fmt % v for v in axis.tolist()))
    values = [c.ravel().tolist() for c in columns[len(axes):]]
    lines = [
        f"# qdeflect {__version__}",
        f"# command: {command}",
        f"# input sha256: {hashlib.sha256(Path(input_path).read_bytes()).hexdigest()}",
        "# params: " + " ".join(f"{k}={params[k]}" for k in sorted(params)),
        ",".join(header),
    ]
    with open(out, "w", encoding="utf-8") as stream:
        stream.write("\n".join(lines) + "\n")
        if template:  # the rows go out as formatted, with no further copy
            stream.write(template % tuple(values[0] if len(values) == 1 else chain(*zip(*values))))
            stream.write("\n")


def _per_j(block, name: str, fn):
    js = range(block.header.J_max + 1)
    return ("J", name), (js,), ([fn(block, J) for J in js],), {}


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
    return ("theta_deg", "J", "value"), (dmap.grid.degrees, dmap.j_values), (values,), params


def _window_curve(block, args, curve_of):
    window = JWindow(0 if args.jmin is None else args.jmin,
                     block.header.J_max if args.jmax is None else args.jmax)
    return (("theta_deg", "value"), (args.grid.degrees,), (curve_of(window).values,),
            {"jmin": window.j_lo, "jmax": window.j_hi})


def _cqdf(block, args):
    curve = cqdf(block, args.omega_prime, args.omega, mode=args.unwrap)
    cells = (curve.theta_tilde, np.degrees(curve.theta_tilde), curve.magnitudes)
    return (("J", "theta_tilde_rad", "theta_tilde_deg", "magnitude"), (curve.j_values,), cells,
            {"omega": args.omega, "omega_prime": args.omega_prime, "unwrap": args.unwrap})


def _axis_width(values: np.ndarray, given: float, step: float) -> float:
    """The width given, else kernel_width of the values floored at the grid step."""
    return given if given > 0 else max(kernel_width(values), step)


def _qct_df(ensemble, args):
    if args.estimator == "gaussian":
        cfg = KernelConfig(_axis_width(ensemble.j_values, args.smooth_j, 1.0), _axis_width(
            ensemble.thetas, np.radians(args.smooth_theta_deg), np.radians(args.grid_deg)))
        params = {"s_j": cfg.s_j, "s_theta": cfg.s_theta,
                  "boundary_renormalize": int(args.boundary_renormalize)}
        dmap = qct_df_gaussian(ensemble, cfg, args.grid,
                               renormalize_boundary=args.boundary_renormalize)
    else:
        params = {"order_theta": args.order_theta, "order_j": args.order_j}
        dmap = qct_df_legendre(ensemble, args.order_theta, args.order_j, args.grid)
    params["estimator"] = args.estimator
    return ("theta_deg", "J", "value"), (dmap.grid.degrees, dmap.j_values), (dmap.values,), params


def _qct_dcs(ensemble, args):
    curve = qct_dcs_legendre(ensemble, args.order_theta, args.grid)
    return (("theta_deg", "value"), (args.grid.degrees,), (curve.values,),
            {"estimator": "legendre", "order_theta": args.order_theta})


def _qct_sigma_j(ensemble, args):
    j_values = np.arange(int(np.floor(ensemble.j_max)) + 1)
    if args.estimator == "gaussian":
        # qct_sigma_j_gaussian reads only s_j, so no theta width is worked out: 1.0 fills the field
        cfg = KernelConfig(_axis_width(ensemble.j_values, args.smooth_j, 1.0), 1.0)
        params = {"s_j": cfg.s_j}
        fn = qct_sigma_j_gaussian(ensemble, cfg)
    else:
        params = {"order_j": args.order_j}
        fn = qct_sigma_j_legendre(ensemble, args.order_j)
    params["estimator"] = args.estimator
    return ("J", "value"), (j_values,), (np.asarray(fn(j_values.astype(float))),), params


def _synth(path, args) -> None:
    data = parse_model_file(Path(path)).generate(args.seed)
    (save_smatrix if isinstance(data, SMatrixBlock) else save_trajectories)(data, args.out)


class Command(NamedTuple):
    """One command: its input loader (None: the handler gets the path), its
    argparse option specs, and handler(data, args) -> (header, axes, cells,
    params) for _write_csv, or None when the handler writes its own output.  For commands
    with --grid-deg, run() sets args.grid and records grid_deg."""

    load: Callable[[str], object] | None
    options: tuple[tuple[str, dict], ...]
    handler: Callable


def width(text: str) -> float:
    """A --smooth-* value: finite and >= 0; 0 leaves the width unset."""
    if not 0 <= (value := float(text)) < np.inf:
        raise ValueError(text)
    return value


def seed(text: str) -> int:
    """A --seed value: an integer >= 0."""
    if (value := int(text)) < 0:
        raise ValueError(text)
    return value


# late-bound, so a wrapper installed on this module's loader (a profiler) sees the call
_BLOCK = lambda path: load_smatrix(path)  # noqa: E731
_ENSEMBLE = lambda path: load_trajectories(path)  # noqa: E731

GRID = (("--grid-deg", {"type": float, "default": 0.25,
                        "help": "angular step in degrees, a divisor of 180"}),)
SMOOTH_J = (("--smooth-j", {"type": width, "default": 0.0, "help": "gaussian width in J"}),)
SMOOTHING = SMOOTH_J + (("--smooth-theta-deg", {"type": width, "default": 0.0,
                                                "help": "gaussian width in degrees"}),)
MAP = SMOOTHING + (("--no-sin-theta", {"action": "store_true"}),)
WINDOW = (("--jmin", {"type": int}), ("--jmax", {"type": int}))
ESTIMATOR = (("--estimator", {"choices": ("legendre", "gaussian"), "default": "legendre"}),)
ORDER_THETA = (("--order-theta", {"type": int, "default": 20}),)
ORDER_J = (("--order-j", {"type": int, "default": 20}),)

COMMANDS = {
    "dcs": Command(_BLOCK, GRID, lambda block, a: (
        ("theta_deg", "dcs"), (a.grid.degrees,), (dcs(block, a.grid).values,), {})),
    "qmdf": Command(_BLOCK, GRID + MAP, lambda block, a: _map_output(qmdf_map(block, a.grid), a, {})),
    "random-phase": Command(_BLOCK, GRID + MAP,
                            lambda block, a: _map_output(random_phase_map(block, a.grid), a, {})),
    "qmdf-helicity": Command(_BLOCK, GRID + (("--omega-prime", {"type": int, "required": True}),) + MAP,
                             lambda block, a: _map_output(qmdf_helicity_map(block, a.omega_prime, a.grid),
                                                          a, {"omega_prime": a.omega_prime})),
    "opacity": Command(_BLOCK, (), lambda block, a: _per_j(block, "opacity", opacity)),
    "sigma-j": Command(_BLOCK, (), lambda block, a: _per_j(block, "sigma_j", partial_cross_section)),
    "sum-j": Command(_BLOCK, GRID + WINDOW, lambda block, a: _window_curve(
        block, a, lambda window: sum_over_j(qmdf_map(block, a.grid, window), window))),
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
    "qct-sigma-j": Command(_ENSEMBLE, ESTIMATOR + ORDER_J + SMOOTH_J, _qct_sigma_j),
    "synth": Command(None, (("--seed", {"type": seed}),), _synth),
}


def _warn(message: str) -> None:
    print(f"qdeflect: warning: {message}", file=sys.stderr)


def _check_unitarity(block) -> None:
    report = validate_unitarity(block)
    if not report:
        (J, omega, omega_p), mag = max(report.violations, key=lambda v: v[1])
        n = len(report.violations)
        _warn(f"{n} {'entry' if n == 1 else 'entries'} with |S| > 1 "
              f"(worst |S| = {mag:.6g} at J={J}, Omega={omega}, Omega'={omega_p})")


def run(args: argparse.Namespace) -> int:
    command = COMMANDS[args.command]
    data = args.input if command.load is None else command.load(args.input)
    if command.load is _BLOCK:
        _check_unitarity(data)
    params = {}
    if "grid_deg" in vars(args):
        args.grid = AngularGrid.uniform(args.grid_deg)
        params["grid_deg"] = args.grid_deg
    result = command.handler(data, args)
    if result is not None:
        header, axes, cells, extra = result
        _write_csv(args.out, args.command, args.input, header, axes, cells, {**params, **extra})
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
    # library warnings (e.g. GibbsOscillationWarning) reach the user as one
    # line each, without the source location Python's format adds
    with warnings.catch_warnings(record=True) as caught:
        try:
            return run(args)
        except PhaseUnwrapError as exc:
            print(f"qdeflect: numerical failure: {exc}", file=sys.stderr)
            return 2
        except (ValueError, OSError, MemoryError) as exc:
            print(f"qdeflect: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return 1
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                _warn(message)


def entrypoint() -> None:
    sys.exit(main())
