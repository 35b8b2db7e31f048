"""Analytically controlled S-matrix blocks and trajectory ensembles.

Phase models build single-helicity blocks S^J = A(J) exp(2 i eta(J)) with a
Gaussian amplitude profile and polynomial phase eta(J), so deflection
curves, ridge positions and cross sections all have closed forms to test
against.  Classical models emit weighted trajectory records along
prescribed theta(J) branches with optional Gaussian angular noise.

Generation is deterministic given (model, seed).

Model spec files are plain key = value text; see parse_model_file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np
from numpy.polynomial.polynomial import polyval

from .qct import TrajectoryEnsemble, sample_ell_continuous
from .smatrix import ChannelHeader, SMatrixBlock

PHASE_KINDS = ("linear", "quadratic", "two-branch")


@dataclass(frozen=True)
class GaussianAmplitude:
    """A(J) = height * exp(-((J - center)/width)^2), height in (0, 1]."""

    center: float
    width: float
    height: float = 1.0

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("amplitude width must be positive")
        if not 0.0 < self.height <= 1.0:
            raise ValueError("amplitude height must lie in (0, 1]")

    def __call__(self, j: np.ndarray) -> np.ndarray:
        return self.height * np.exp(-(((j - self.center) / self.width) ** 2))


@dataclass(frozen=True)
class PhaseBranch:
    """One scattering branch: amplitude profile and eta(J) = sum c_k J^k."""

    amplitude: GaussianAmplitude
    eta_coeffs: tuple[float, ...]

    def eta(self, j: np.ndarray) -> np.ndarray:
        return polyval(j, np.asarray(self.eta_coeffs, dtype=float))

    def amplitudes(self, j: np.ndarray) -> np.ndarray:
        return self.amplitude(j) * np.exp(2j * self.eta(j))


@dataclass(frozen=True)
class PhaseModel:
    kind: str
    branches: tuple[PhaseBranch, ...]

    def __post_init__(self) -> None:
        if self.kind not in PHASE_KINDS:
            raise ValueError(f"phase model kind must be one of {PHASE_KINDS}")
        if not self.branches:
            raise ValueError("phase model needs at least one branch")


def linear_phase_model(
    slope: float, center: float, width: float, height: float = 1.0
) -> PhaseModel:
    """eta(J) = slope * J / 2, so arg S^J advances by `slope` per unit J."""
    branch = PhaseBranch(GaussianAmplitude(center, width, height), (0.0, slope / 2.0))
    return PhaseModel("linear", (branch,))


def quadratic_phase_model(
    alpha: float, center: float, width: float, height: float = 1.0
) -> PhaseModel:
    """eta(J) = -alpha J(J+1)/2; the phase derivative is -alpha (2J+1)."""
    branch = PhaseBranch(
        GaussianAmplitude(center, width, height), (0.0, -alpha / 2.0, -alpha / 2.0)
    )
    return PhaseModel("quadratic", (branch,))


def two_branch_model(branches: tuple[PhaseBranch, PhaseBranch]) -> PhaseModel:
    return PhaseModel("two-branch", tuple(branches))


def synth_smatrix(model: PhaseModel, k: float, j_max: int, j: int = 0) -> SMatrixBlock:
    """Single-helicity block S^J_00 = sum over branches of A(J) e^{2 i eta(J)}.

    Branch sums exceeding unit magnitude are rescaled to the unit circle,
    which keeps every generated block flux-conserving by construction.
    """
    if j != 0:
        raise ValueError("phase-model blocks use a single helicity channel (j = 0)")
    if j_max < 2:
        raise ValueError("j_max must be at least 2")
    js = np.arange(j_max + 1)
    amps = np.zeros(j_max + 1, dtype=complex)
    for branch in model.branches:
        amps = amps + branch.amplitudes(js.astype(float))
    top = np.abs(amps).max()
    if model.kind == "two-branch" and top > 1.0:
        amps = amps / top
    if np.abs(amps).max() > 1.0 + 1e-12:
        raise ValueError("model produced |S| > 1")
    header = ChannelHeader(k=k, j=0, j_final=0, J_max=j_max)
    entries = {(int(J), 0, 0): complex(amps[J]) for J in js}
    return SMatrixBlock(header, entries)


def synth_smatrix_helicity(
    model: PhaseModel,
    k: float,
    j_final: int,
    j_max: int,
    phase_offset: float = 0.4,
) -> SMatrixBlock:
    """Replicate the model block across product helicities Omega'.

    Each Omega' column carries a fixed extra phase Omega' * phase_offset;
    entries appear only where |Omega'| <= min(J, j_final).
    """
    base = synth_smatrix(model, k, j_max)
    entries: dict[tuple[int, int, int], complex] = {}
    for (J, _, _), s in base.entries.items():
        for omega_p in range(-min(J, j_final), min(J, j_final) + 1):
            entries[(J, 0, omega_p)] = s * np.exp(1j * omega_p * phase_offset)
    header = ChannelHeader(k=k, j=0, j_final=j_final, J_max=j_max)
    return SMatrixBlock(header, entries)


@dataclass(frozen=True)
class ClassicalBranch:
    """theta(u) = sum c_k u^k with u = J / J_max, output clipped to [0, pi]."""

    weight: float
    theta_coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError("branch weight must be nonnegative")

    def theta(self, u: np.ndarray) -> np.ndarray:
        return np.clip(polyval(u, np.asarray(self.theta_coeffs, dtype=float)), 0.0, np.pi)


@dataclass(frozen=True)
class ClassicalModel:
    """Deflection branches for trajectory synthesis.

    isotropic = True ignores the branches and samples theta uniformly in
    cos(theta), the no-correlation limit.
    """

    j_max: float
    branches: tuple[ClassicalBranch, ...] = ()
    noise_width: float = 0.0
    sigma_r: float = 1.0
    isotropic: bool = False

    def __post_init__(self) -> None:
        if self.j_max <= 0:
            raise ValueError("j_max must be positive")
        if self.noise_width < 0:
            raise ValueError("noise width must be nonnegative")
        if not self.isotropic and not self.branches:
            raise ValueError("classical model needs branches unless isotropic")


def synth_trajectories(
    model: ClassicalModel, count: int, rng: Union[int, np.random.Generator, None] = None
) -> TrajectoryEnsemble:
    """Unit-weight records with J from the (2J+1)-weighted law and theta from
    a weight-chosen branch plus Gaussian noise."""
    if count <= 0:
        raise ValueError("count must be positive")
    gen = np.random.default_rng(rng)
    j = sample_ell_continuous(model.j_max, count, gen)
    if model.isotropic:
        theta = np.arccos(1.0 - 2.0 * gen.random(count))
    else:
        weights = np.array([b.weight for b in model.branches], dtype=float)
        total = weights.sum()
        if total <= 0:
            raise ValueError("branch weights must not all vanish")
        choice = gen.choice(len(model.branches), size=count, p=weights / total)
        u = j / model.j_max
        theta = np.empty(count)
        for idx, branch in enumerate(model.branches):
            sel = choice == idx
            theta[sel] = branch.theta(u[sel])
        if model.noise_width > 0:
            theta = theta + model.noise_width * gen.standard_normal(count)
    theta = np.clip(theta, 0.0, np.pi)
    return TrajectoryEnsemble(
        weights=np.ones(count),
        j_values=j,
        thetas=theta,
        sigma_r=model.sigma_r,
        j_max=model.j_max,
    )


@dataclass(frozen=True)
class SynthSpec:
    """Parsed model file: the model plus generation parameters."""

    kind: str
    model: Union[PhaseModel, ClassicalModel]
    k: float = 1.0
    j_max_int: int = 60
    j_final: int = 0
    phase_offset: float = 0.4
    count: int = 10000
    seed: int = 0


def parse_model_file(source: Union[str, Path, bytes]) -> SynthSpec:
    """Read a key = value model spec.

    Common keys: kind, jmax, seed.  Phase kinds use k, j0, w, h plus c
    (linear slope) or alpha (quadratic curvature), or repeated
    'branch = h j0 w c0 c1 ...' lines; jp and phase_offset request the
    helicity-extended block.  Classical models use repeated
    'cbranch = weight t0 t1 ...' lines plus noise, count, sigma_r, and
    'isotropic = 1' for the no-correlation limit.
    """
    if isinstance(source, bytes):
        text = source.decode("utf-8")
    elif isinstance(source, Path) or (isinstance(source, str) and "\n" not in source and "=" not in source):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = str(source)

    scalars: dict[str, str] = {}
    branches: list[list[float]] = []
    cbranches: list[list[float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"model file line {lineno}: expected key = value")
        key, _, val = body.partition("=")
        key, val = key.strip().lower(), val.strip()
        if key in ("branch", "cbranch"):
            try:
                row = [float(tok) for tok in val.split()]
            except ValueError:
                raise ValueError(f"model file line {lineno}: {key} values must be numbers") from None
            # h j0 w c0 ... or weight t0 ...: at least one polynomial coefficient
            need = 4 if key == "branch" else 2
            if len(row) < need:
                raise ValueError(
                    f"model file line {lineno}: '{key} =' needs at least {need} numbers, got {len(row)}"
                )
            (branches if key == "branch" else cbranches).append(row)
        else:
            scalars[key] = val

    kind = scalars.get("kind")
    if kind is None:
        raise ValueError("model file needs a 'kind' entry")
    get = lambda key, default: float(scalars.get(key, default))

    if kind == "classical":
        cls_branches = tuple(
            ClassicalBranch(row[0], tuple(row[1:])) for row in cbranches
        )
        model: Union[PhaseModel, ClassicalModel] = ClassicalModel(
            j_max=get("jmax", 60.0),
            branches=cls_branches,
            noise_width=get("noise", 0.0),
            sigma_r=get("sigma_r", 1.0),
            isotropic=bool(int(scalars.get("isotropic", "0"))),
        )
    elif kind in PHASE_KINDS:
        if kind == "two-branch":
            if len(branches) < 2:
                raise ValueError("two-branch model needs two 'branch = ...' lines")
            phase_branches = tuple(
                PhaseBranch(GaussianAmplitude(row[1], row[2], row[0]), tuple(row[3:]))
                for row in branches
            )
            model = PhaseModel("two-branch", phase_branches)
        elif kind == "linear":
            model = linear_phase_model(
                get("c", -0.3), get("j0", 30.0), get("w", 8.0), get("h", 1.0)
            )
        else:
            model = quadratic_phase_model(
                get("alpha", 0.02), get("j0", 30.0), get("w", 8.0), get("h", 1.0)
            )
    else:
        raise ValueError(f"unknown model kind {kind!r}")

    return SynthSpec(
        kind=kind,
        model=model,
        k=get("k", 1.0),
        j_max_int=int(get("jmax", 60)),
        j_final=int(get("jp", 0)),
        phase_offset=get("phase_offset", 0.4),
        count=int(get("count", 10000)),
        seed=int(get("seed", 0)),
    )
