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
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

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

MAP_COMMANDS = ("qmdf", "qmdf-helicity", "random-phase")


@dataclass
class RunConfig:
    """One resolved CLI invocation."""

    command: str
    input: str = ""
    out: str = ""
    grid_deg: float = 0.25
    jmin: int | None = None
    jmax: int | None = None
    omega: int = 0
    omega_prime: int | None = None
    smooth_j: float = 0.0
    smooth_theta_deg: float = 0.0
    no_sin_theta: bool = False
    unwrap: str = "two-sided"
    boundary_renormalize: bool = False
    estimator: str = "legendre"
    order_theta: int = 20
    order_j: int = 20
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.grid_deg <= 0:
            raise ValueError("--grid-deg must be positive")
        if not self.out:
            raise ValueError("--out is required")
        if not self.input:
            raise ValueError("an input file is required")
        if (
            self.jmin is not None
            and self.jmax is not None
            and not 0 <= self.jmin <= self.jmax
        ):
            raise ValueError("need 0 <= --jmin <= --jmax")


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


_CELL_FORMATS = {"deg": "%.6f", "int": "%d", "sci": "%.8e"}  # sci: nine significant digits


def _write_csv(
    out: str,
    header: Sequence[str],
    kinds: Sequence[str],
    columns: Sequence[np.ndarray],
    config: RunConfig,
    params: dict,
) -> None:
    cells = []
    for column, kind in zip(columns, kinds):
        values = np.asarray(column)
        if not np.all(np.isfinite(values)):
            raise ValueError("refusing to write non-finite output values")
        cells.append(values.astype(np.int64 if kind == "int" else float).tolist())
    row_format = ",".join(_CELL_FORMATS[kind] for kind in kinds)
    lines = [
        f"# qdeflect {__version__}",
        f"# command: {config.command}",
        f"# input sha256: {_sha256(config.input)}",
        "# params: " + " ".join(f"{k}={params[k]}" for k in sorted(params)),
        ",".join(header),
    ]
    lines.extend([row_format % row for row in zip(*cells)])
    Path(out).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _grid(config: RunConfig) -> AngularGrid:
    return AngularGrid.uniform(config.grid_deg)


def _window(config: RunConfig, j_top: int) -> JWindow:
    lo = 0 if config.jmin is None else config.jmin
    hi = j_top if config.jmax is None else config.jmax
    return JWindow(lo, hi)


def _map_columns(grid: AngularGrid, j_values, values) -> tuple[np.ndarray, ...]:
    """Long-format (theta_deg, J, value) columns, theta-major."""
    n_j = len(j_values)
    return np.repeat(grid.degrees, n_j), np.tile(j_values, len(grid)), np.ravel(values)


def run(config: RunConfig) -> int:
    cmd = config.command
    params: dict = {"grid_deg": config.grid_deg}

    if cmd == "synth":
        return _run_synth(config)

    if cmd.startswith("qct-"):
        return _run_qct(config)

    block = load_smatrix(config.input)
    grid = _grid(config)

    if cmd == "dcs":
        curve = dcs(block, grid)
        _write_csv(config.out, ("theta_deg", "dcs"), ("deg", "sci"),
                   (grid.degrees, curve.values), config, params)
    elif cmd == "opacity":
        js = range(block.header.J_max + 1)
        values = [opacity(block, J) for J in js]
        _write_csv(config.out, ("J", "opacity"), ("int", "sci"), (js, values), config, {})
    elif cmd == "sigma-j":
        js = range(block.header.J_max + 1)
        values = [partial_cross_section(block, J) for J in js]
        _write_csv(config.out, ("J", "sigma_j"), ("int", "sci"), (js, values), config, {})
    elif cmd in MAP_COMMANDS:
        if cmd == "qmdf":
            dmap = qmdf_map(block, grid)
        elif cmd == "random-phase":
            dmap = random_phase_map(block, grid)
        else:
            if config.omega_prime is None:
                raise ValueError("--omega-prime is required for qmdf-helicity")
            dmap = qmdf_helicity_map(block, config.omega_prime, grid)
            params["omega_prime"] = config.omega_prime
        if config.smooth_j or config.smooth_theta_deg:
            dmap = smooth_map(dmap, config.smooth_j, np.radians(config.smooth_theta_deg))
            params.update(smooth_j=config.smooth_j, smooth_theta_deg=config.smooth_theta_deg)
        values = dmap.values
        if config.no_sin_theta:
            values, mask = map_without_sin(dmap)
            params["no_sin_theta"] = 1
            if mask.any():
                print(
                    f"note: {int(mask.sum())} endpoint theta rows emitted as 0 "
                    "(sin(theta) = 0)",
                    file=sys.stderr,
                )
        _write_csv(config.out, ("theta_deg", "J", "value"), ("deg", "int", "sci"),
                   _map_columns(grid, dmap.j_values, values), config, params)
    elif cmd == "sum-j":
        window = _window(config, block.header.J_max)
        curve = sum_over_j(qmdf_map(block, grid), window)
        params.update(jmin=window.j_lo, jmax=window.j_hi)
        _write_csv(config.out, ("theta_deg", "value"), ("deg", "sci"),
                   (grid.degrees, curve.values), config, params)
    elif cmd == "partial-dcs":
        window = _window(config, block.header.J_max)
        curve = partial_dcs(block, window, grid)
        params.update(jmin=window.j_lo, jmax=window.j_hi)
        _write_csv(config.out, ("theta_deg", "value"), ("deg", "sci"),
                   (grid.degrees, curve.values), config, params)
    elif cmd == "cqdf":
        omega_p = 0 if config.omega_prime is None else config.omega_prime
        curve = cqdf(block, omega_p, config.omega, mode=config.unwrap)
        columns = (curve.j_values, curve.theta_tilde, np.degrees(curve.theta_tilde),
                   curve.magnitudes)
        _write_csv(config.out,
                   ("J", "theta_tilde_rad", "theta_tilde_deg", "magnitude"),
                   ("int", "sci", "deg", "sci"), columns, config,
                   {"omega": config.omega, "omega_prime": omega_p, "unwrap": config.unwrap})
    else:
        raise ValueError(f"unknown command {cmd!r}")
    return 0


def _run_qct(config: RunConfig) -> int:
    ensemble = load_trajectories(config.input)
    grid = _grid(config)
    j_values = np.arange(int(np.floor(ensemble.j_max)) + 1)
    params: dict = {"estimator": config.estimator}

    def kernel() -> KernelConfig:
        # widths not given on the command line fall back to the
        # nearest-neighbor-spacing heuristic, per axis
        if config.smooth_j > 0 and config.smooth_theta_deg > 0:
            return KernelConfig(config.smooth_j, np.radians(config.smooth_theta_deg))
        heur = KernelConfig.from_ensemble(ensemble)
        s_j = config.smooth_j if config.smooth_j > 0 else heur.s_j
        s_theta = (
            np.radians(config.smooth_theta_deg)
            if config.smooth_theta_deg > 0
            else heur.s_theta
        )
        return KernelConfig(s_j, s_theta)

    if config.command == "qct-df":
        if config.estimator == "gaussian":
            cfg = kernel()
            params.update(s_j=cfg.s_j, s_theta=cfg.s_theta,
                          boundary_renormalize=int(config.boundary_renormalize))
            dmap = qct_df_gaussian(ensemble, cfg, grid, j_values,
                                   renormalize_boundary=config.boundary_renormalize)
        else:
            params.update(order_theta=config.order_theta, order_j=config.order_j)
            dmap = qct_df_legendre(ensemble, config.order_theta, config.order_j, grid, j_values)
        params["grid_deg"] = config.grid_deg
        _write_csv(config.out, ("theta_deg", "J", "value"), ("deg", "int", "sci"),
                   _map_columns(grid, dmap.j_values, dmap.values), config, params)
    elif config.command == "qct-dcs":
        params["order_theta"] = config.order_theta
        params["grid_deg"] = config.grid_deg
        curve = qct_dcs_legendre(ensemble, config.order_theta, grid)
        _write_csv(config.out, ("theta_deg", "value"), ("deg", "sci"),
                   (grid.degrees, curve.values), config, params)
    elif config.command == "qct-sigma-j":
        if config.estimator == "gaussian":
            cfg = kernel()
            params["s_j"] = cfg.s_j
            fn = qct_sigma_j_gaussian(ensemble, cfg)
        else:
            params["order_j"] = config.order_j
            fn = qct_sigma_j_legendre(ensemble, config.order_j)
        values = np.asarray(fn(j_values.astype(float)))
        _write_csv(config.out, ("J", "value"), ("int", "sci"),
                   (j_values, values), config, params)
    else:
        raise ValueError(f"unknown command {config.command!r}")
    return 0


def _run_synth(config: RunConfig) -> int:
    spec = parse_model_file(Path(config.input))
    seed = spec.seed if config.seed is None else config.seed
    if isinstance(spec.model, ClassicalModel):
        ensemble = synth_trajectories(spec.model, spec.count, seed)
        save_trajectories(ensemble, config.out)
    else:
        if spec.j_final > 0:
            block = synth_smatrix_helicity(
                spec.model, spec.k, spec.j_final, spec.j_max_int, spec.phase_offset
            )
        else:
            block = synth_smatrix(spec.model, spec.k, spec.j_max_int)
        save_smatrix(block, config.out)
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

    def add(name: str, needs_grid: bool = True, qct: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name)
        p.add_argument("input", help="input file")
        p.add_argument("--out", required=True, help="output CSV path")
        if needs_grid:
            p.add_argument("--grid-deg", type=float, default=0.25, dest="grid_deg")
        return p

    for name in ("dcs", "qmdf", "random-phase"):
        p = add(name)
        if name != "dcs":
            p.add_argument("--smooth-j", type=float, default=0.0, dest="smooth_j")
            p.add_argument("--smooth-theta-deg", type=float, default=0.0, dest="smooth_theta_deg")
            p.add_argument("--no-sin-theta", action="store_true", dest="no_sin_theta")

    p = add("qmdf-helicity")
    p.add_argument("--omega-prime", type=int, required=True, dest="omega_prime")
    p.add_argument("--smooth-j", type=float, default=0.0, dest="smooth_j")
    p.add_argument("--smooth-theta-deg", type=float, default=0.0, dest="smooth_theta_deg")
    p.add_argument("--no-sin-theta", action="store_true", dest="no_sin_theta")

    for name in ("opacity", "sigma-j"):
        add(name, needs_grid=False)

    for name in ("sum-j", "partial-dcs"):
        p = add(name)
        p.add_argument("--jmin", type=int, default=None)
        p.add_argument("--jmax", type=int, default=None)

    p = add("cqdf", needs_grid=False)
    p.add_argument("--omega", type=int, default=0)
    p.add_argument("--omega-prime", type=int, default=None, dest="omega_prime")
    p.add_argument("--unwrap", choices=("two-sided", "one-sided"), default="two-sided")

    for name in ("qct-df", "qct-dcs", "qct-sigma-j"):
        p = add(name)
        p.add_argument("--estimator", choices=("legendre", "gaussian"), default="legendre")
        p.add_argument("--order-theta", type=int, default=20, dest="order_theta")
        p.add_argument("--order-j", type=int, default=20, dest="order_j")
        p.add_argument("--smooth-j", type=float, default=0.0, dest="smooth_j",
                       help="gaussian kernel width in J")
        p.add_argument("--smooth-theta-deg", type=float, default=0.0, dest="smooth_theta_deg",
                       help="gaussian kernel width in degrees")
        p.add_argument("--boundary-renormalize", action="store_true",
                       dest="boundary_renormalize")

    p = add("synth", needs_grid=False)
    p.add_argument("--seed", type=int, default=None)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    known = {f.name for f in fields(RunConfig)}
    try:
        config = RunConfig(**{k: v for k, v in vars(args).items() if k in known})
        return run(config)
    except PhaseUnwrapError as exc:
        print(f"qdeflect: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (SMatrixParseError, SMatrixValidationError, ValueError, OSError) as exc:
        print(f"qdeflect: error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())
