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
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np

import qdeflect as qd

# column format by header name; every other column is an intensity with
# nine significant digits
_CELL_FORMATS = {"theta_deg": "%.6f", "theta_tilde_deg": "%.6f", "J": "%d"}


def _write_csv(out: str, command: str, input_path: str, header: Sequence[str],
               axes: Sequence[np.ndarray], cells: Sequence[np.ndarray], params: dict) -> None:
    """Rows are the product of the key `axes`, the first outermost; each
    row goes on with one value from each of `cells`, arrays of the axes'
    shape.  Every column is read as float64 (`%d` prints an integral
    float's digits).  The rows under one first-axis key are formatted once,
    into a template with a slot per cell, and the template is filled for
    one block of first-axis keys at a time, at most 2^14 cells a block
    (one key at least), so the writer holds one block of rows."""
    keys = [np.asarray(a, dtype=float) for a in axes]
    table = np.stack([np.asarray(c, dtype=float) for c in cells], axis=-1).reshape(keys[0].size, -1)
    if not all(np.isfinite(c).all() for c in (*keys, table)):
        raise ValueError("refusing to write non-finite output values")
    formats = [_CELL_FORMATS.get(name, "%.8e") for name in header]
    template = ",".join(formats[len(axes):])

    def prefix(rows: str, fmt: str, axis: np.ndarray) -> str:
        """`rows` repeated under each key of `axis`, the key leading every line."""
        return "\n".join(key + "," + rows.replace("\n", "\n" + key + ",")
                         for key in (fmt % v for v in axis.tolist()))

    for fmt, axis in reversed(list(zip(formats[1:], keys[1:]))):
        template = prefix(template, fmt, axis)
    lines = [
        f"# qdeflect {qd.__version__}",
        f"# command: {command}",
        f"# input sha256: {hashlib.sha256(Path(input_path).read_bytes()).hexdigest()}",
        "# params: " + " ".join(f"{k}={params[k]}" for k in sorted(params)),
        ",".join(header),
    ]
    block = max(1, (1 << 14) // table.shape[1])
    with open(out, "w", encoding="utf-8") as stream:
        stream.write("\n".join(lines) + "\n")
        for lo in range(0, keys[0].size, block):
            rows = prefix(template, formats[0], keys[0][lo : lo + block])
            stream.write(rows % tuple(table[lo : lo + block].ravel().tolist()) + "\n")


@contextmanager
def _hint(hint: str):
    """A ValueError raised in the block goes on with ': give <hint>', naming the option to change."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{exc}: give {hint}") from None


def _per_j(block, name: str, fn):
    js = np.arange(block.header.J_max + 1)
    return ("J", name), (js,), (fn(block, js),), {}


def _map_output(dmap, args, params: dict):
    if args.smooth_j or args.smooth_theta_deg:
        with _hint("--smooth-j and --smooth-theta-deg each at most 174762 grid steps"):  # 6 s / h <= 2^20
            dmap = qd.smooth_map(dmap, args.smooth_j, np.radians(args.smooth_theta_deg))
        params.update(smooth_j=args.smooth_j, smooth_theta_deg=args.smooth_theta_deg)
    values = dmap.values
    if args.no_sin_theta:
        from .qmdf import map_without_sin
        values, mask = map_without_sin(dmap)
        params["no_sin_theta"] = 1
        if mask.any():
            print(f"note: {int(mask.sum())} endpoint theta rows emitted as 0 (sin(theta) = 0)",
                  file=sys.stderr)
    return ("theta_deg", "J", "value"), (dmap.grid.degrees, dmap.j_values), (values,), params


def _window_curve(block, args, curve_of):
    from .qmdf import _check_window
    J_max = block.header.J_max
    with _hint(f"0 <= --jmin <= --jmax <= {J_max}"):  # checked before any work
        window = qd.JWindow(args.jmin or 0, J_max if args.jmax is None else args.jmax)
        _check_window(window, 0, J_max)
    return (("theta_deg", "value"), (args.grid.degrees,), (curve_of(window).values,),
            {"jmin": window.j_lo, "jmax": window.j_hi})


def _cqdf(block, args):
    curve = qd.cqdf(block, args.omega_prime, args.omega, mode=args.unwrap)
    cells = (curve.theta_tilde, np.degrees(curve.theta_tilde), curve.magnitudes)
    return (("J", "theta_tilde_rad", "theta_tilde_deg", "magnitude"), (curve.j_values,), cells,
            {"omega": args.omega, "omega_prime": args.omega_prime, "unwrap": args.unwrap})


def _axis_width(values: np.ndarray, given: float, step: float, axis: str, flag: str) -> float:
    """The width given, else qct.kernel_width of the values at the grid step."""
    if given > 0:
        return given
    from .qct import kernel_width
    with _hint(flag):
        return kernel_width(values, step, axis)


def _qct_df(ensemble, args):
    if args.estimator == "gaussian":
        cfg = qd.KernelConfig(_axis_width(ensemble.j_values, args.smooth_j, 1.0, "J", "--smooth-j"),
                              _axis_width(ensemble.thetas, np.radians(args.smooth_theta_deg),
                                          np.radians(args.grid_deg), "theta", "--smooth-theta-deg"))
        params = {"s_j": cfg.s_j, "s_theta": cfg.s_theta,
                  "boundary_renormalize": int(args.boundary_renormalize)}
        dmap = qd.qct_df_gaussian(ensemble, cfg, args.grid,
                                  renormalize_boundary=args.boundary_renormalize)
    else:
        params = {"order_theta": args.order_theta, "order_j": args.order_j}
        dmap = qd.qct_df_legendre(ensemble, args.order_theta, args.order_j, args.grid)
    params["estimator"] = args.estimator
    return ("theta_deg", "J", "value"), (dmap.grid.degrees, dmap.j_values), (dmap.values,), params


def _qct_dcs(ensemble, args):
    curve = qd.qct_dcs_legendre(ensemble, args.order_theta, args.grid)
    return (("theta_deg", "value"), (args.grid.degrees,), (curve.values,),
            {"estimator": "legendre", "order_theta": args.order_theta})


def _qct_sigma_j(ensemble, args):
    from .qct import _j_axis
    j_values = _j_axis(ensemble)
    if args.estimator == "gaussian":
        # qct_sigma_j_gaussian reads only s_j, so no theta width is worked out: 1.0 fills the field
        cfg = qd.KernelConfig(_axis_width(ensemble.j_values, args.smooth_j, 1.0, "J", "--smooth-j"), 1.0)
        params = {"s_j": cfg.s_j}
        fn = qd.qct_sigma_j_gaussian(ensemble, cfg)
    else:
        params = {"order_j": args.order_j}
        fn = qd.qct_sigma_j_legendre(ensemble, args.order_j)
    params["estimator"] = args.estimator
    return ("J", "value"), (j_values,), (np.asarray(fn(j_values.astype(float))),), params


def _synth(path, args) -> None:
    data = qd.parse_model_file(Path(path)).generate(args.seed)
    (qd.save_smatrix if isinstance(data, qd.SMatrixBlock) else qd.save_trajectories)(data, args.out)


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


def nonnegative_int(text: str) -> int:
    """A --seed, expansion-order or J-window value: an integer >= 0."""
    if (value := int(text)) < 0:
        raise ValueError(text)
    return value


class _Given(argparse.Action):
    """Stores the value (True for a flag, nargs=0) and appends the option to
    args.given, so that an option given can be told from its default."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, True if self.nargs == 0 else values)
        namespace.given = [*getattr(namespace, "given", ()), self.option_strings[0]]


# library names resolve through the package when a command runs, so a command
# loads only its own submodules and a wrapper on a loader (a profiler) sees the call
_BLOCK = lambda path: qd.load_smatrix(path)  # noqa: E731
_ENSEMBLE = lambda path: qd.load_trajectories(path)  # noqa: E731

GRID = (("--grid-deg", {"type": float, "default": 0.25,
                        "help": "angular step in degrees, a divisor of 180"}),)
SMOOTH_J = (("--smooth-j", {"type": width, "default": 0.0, "action": _Given,
                            "help": "gaussian width in J"}),)
SMOOTHING = SMOOTH_J + (("--smooth-theta-deg", {"type": width, "default": 0.0, "action": _Given,
                                                "help": "gaussian width in degrees"}),)
MAP = SMOOTHING + (("--no-sin-theta", {"action": "store_true"}),)
WINDOW = (("--jmin", {"type": nonnegative_int}), ("--jmax", {"type": nonnegative_int}))
ESTIMATOR = (("--estimator", {"choices": ("legendre", "gaussian"), "default": "legendre"}),)
ORDER_THETA = (("--order-theta", {"type": nonnegative_int, "default": 20, "action": _Given}),)
ORDER_J = (("--order-j", {"type": nonnegative_int, "default": 20, "action": _Given}),)
# under --estimator, the options only the other estimator reads are usage errors
ESTIMATOR_READS = {"gaussian": ("--smooth-j", "--smooth-theta-deg", "--boundary-renormalize"),
                   "legendre": ("--order-theta", "--order-j")}

COMMANDS = {
    "dcs": Command(_BLOCK, GRID, lambda block, a: (
        ("theta_deg", "dcs"), (a.grid.degrees,), (qd.dcs(block, a.grid).values,), {})),
    "qmdf": Command(_BLOCK, GRID + MAP, lambda block, a: _map_output(qd.qmdf_map(block, a.grid), a, {})),
    "random-phase": Command(_BLOCK, GRID + MAP,
                            lambda block, a: _map_output(qd.random_phase_map(block, a.grid), a, {})),
    "qmdf-helicity": Command(_BLOCK, GRID + (("--omega-prime", {"type": int, "required": True}),) + MAP,
                             lambda block, a: _map_output(qd.qmdf_helicity_map(block, a.omega_prime, a.grid),
                                                          a, {"omega_prime": a.omega_prime})),
    "opacity": Command(_BLOCK, (), lambda block, a: _per_j(block, "opacity", qd.opacity)),
    "sigma-j": Command(_BLOCK, (), lambda block, a: _per_j(block, "sigma_j", qd.partial_cross_section)),
    "sum-j": Command(_BLOCK, GRID + WINDOW, lambda block, a: _window_curve(
        block, a, lambda window: qd.sum_over_j(qd.qmdf_map(block, a.grid, window), window))),
    "partial-dcs": Command(_BLOCK, GRID + WINDOW, lambda block, a: _window_curve(
        block, a, lambda window: qd.partial_dcs(block, window, a.grid))),
    "cqdf": Command(_BLOCK, (
        ("--omega", {"type": int, "default": 0}),
        ("--omega-prime", {"type": int, "default": 0}),
        ("--unwrap", {"choices": ("two-sided", "one-sided"), "default": "two-sided"}),
    ), _cqdf),
    "qct-df": Command(_ENSEMBLE, GRID + ESTIMATOR + ORDER_THETA + ORDER_J + SMOOTHING + (
        ("--boundary-renormalize", {"action": _Given, "nargs": 0, "default": False}),), _qct_df),
    "qct-dcs": Command(_ENSEMBLE, GRID + ORDER_THETA, _qct_dcs),
    "qct-sigma-j": Command(_ENSEMBLE, ESTIMATOR + ORDER_J + SMOOTH_J, _qct_sigma_j),
    "synth": Command(None, (("--seed", {"type": nonnegative_int}),), _synth),
}


def _warn(message: str) -> None:
    print(f"qdeflect: warning: {message}", file=sys.stderr)


def _check_unitarity(block) -> None:
    violations = qd.validate_unitarity(block)
    if violations:
        (J, omega, omega_p), mag = max(violations, key=lambda v: v[1])
        n = len(violations)
        _warn(f"{n} {'entry' if n == 1 else 'entries'} with |S| > 1 "
              f"(worst |S| = {mag:.6g} at J={J}, Omega={omega}, Omega'={omega_p})")


def run(args: argparse.Namespace) -> int:
    command = COMMANDS[args.command]
    data = args.input if command.load is None else command.load(args.input)
    if command.load is _BLOCK:
        _check_unitarity(data)
    params = {}
    if "grid_deg" in vars(args):
        with _hint("--grid-deg a positive divisor of 180"):
            args.grid = qd.AngularGrid.uniform(args.grid_deg)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if "estimator" in vars(args):
        for flag in getattr(args, "given", ()):
            if flag not in ESTIMATOR_READS[args.estimator]:
                parser.error(f"{flag} is not read by --estimator {args.estimator}")
    # library warnings (e.g. GibbsOscillationWarning) reach the user as one
    # line each, without the source location Python's format adds
    with warnings.catch_warnings(record=True) as caught:
        try:
            return run(args)
        except (ValueError, OSError, MemoryError) as exc:
            print(f"qdeflect: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
            return 1
        except qd.PhaseUnwrapError as exc:  # tested second: naming it loads qdeflect.cqdf
            print(f"qdeflect: numerical failure: {exc}", file=sys.stderr)
            return 2
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                _warn(message)

