"""Single-valued deflection curve from the phase of the modified S-matrix.

Pipeline: multiply S^J by exp(i pi J) (= (-1)^J for integer J), unwrap the
argument into a continuous branch, differentiate in J by finite
differences.  The unwrap picks, at each step, the branch candidate with
the smallest jump; an exact half-turn jump is ambiguous and raised as an
error rather than silently resolved.  A one-sided mode is also available
that reads the continuity condition as Delta < pi strictly, selecting the
largest admissible jump (so half-turn steps resolve to -pi).

Pure functions; safe to call concurrently per helicity pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .smatrix import SMatrixBlock

MAGNITUDE_FLOOR = 1e-300
TIE_TOL = 1e-12

UNWRAP_MODES = ("two-sided", "one-sided")


class PhaseUnwrapError(RuntimeError):
    """Continuous phase branch cannot be determined (tie or vanishing amplitude)."""


@dataclass(frozen=True, eq=False)
class CqdfCurve:
    """Deflection values d[arg S~]/dJ per J; may lie outside [0, pi]."""

    j_values: np.ndarray
    theta_tilde: np.ndarray
    magnitudes: np.ndarray


def modified_smatrix(
    block: SMatrixBlock, omega_p: int, omega: int
) -> tuple[np.ndarray, np.ndarray]:
    """S~(J) = exp(i pi J) S^J at one helicity pair, over contiguous J.

    Returns (J values, modified amplitudes).  Raises if the pair has no
    entries or the J coverage has gaps (unwrapping needs contiguity).
    """
    js, amps = block.j_column(omega, omega_p)
    if js.size == 0:
        raise ValueError(f"no entries at (Omega'={omega_p}, Omega={omega})")
    steps = np.diff(js)
    gaps = np.flatnonzero(steps > 1)
    if gaps.size:  # named by the first missing run and the counts, however many J are missing
        first = int(js[gaps[0]])
        raise ValueError(f"J coverage at (Omega'={omega_p}, Omega={omega}) has gaps; missing J "
                         f"{first + 1}..{first + int(steps[gaps[0]]) - 1} ({int(steps[gaps].sum()) - gaps.size} J "
                         f"missing in {gaps.size} gap{'s' if gaps.size > 1 else ''})")
    signs = np.where(js % 2 == 1, -1.0, 1.0)
    return js, signs * amps


def unwrap_arg(
    values: Sequence[complex] | np.ndarray,
    j_values: np.ndarray | None = None,
    mode: str = "two-sided",
) -> np.ndarray:
    """Continuous argument of a complex sequence along consecutive J.

    The first element gets its principal value.  Each later element gets
    the branch with the minimal jump from its predecessor ("two-sided");
    a jump of exactly +-pi (within 1e-12) is reported as a tie error.  In
    "one-sided" mode jumps live in [-pi, pi) and half turns resolve to
    -pi instead of erroring.  j_values (default 0, 1, ...), one J per
    value, only name J in the errors.
    """
    if mode not in UNWRAP_MODES:
        raise ValueError(f"unwrap mode must be one of {UNWRAP_MODES}")
    vals = np.asarray(values, dtype=complex)
    if vals.size == 0:
        raise ValueError("cannot unwrap an empty sequence")
    j_values = np.arange(vals.size) if j_values is None else np.asarray(j_values, dtype=int)
    if j_values.shape != vals.shape:
        raise ValueError(f"{j_values.size} j_values for {vals.size} values")
    for j, m in zip(j_values, np.abs(vals)):
        if m < MAGNITUDE_FLOOR:
            raise PhaseUnwrapError(
                f"amplitude magnitude {m:g} at J={j} is below {MAGNITUDE_FLOOR:g}; "
                "phase undefined"
            )
    args = np.empty(vals.size)
    args[0] = math.atan2(vals[0].imag, vals[0].real)
    for n in range(1, vals.size):
        raw = math.atan2(vals[n].imag, vals[n].real) - args[n - 1]
        if mode == "two-sided":
            step = math.remainder(raw, math.tau)  # minimal-|delta| representative
            if math.pi - abs(step) <= TIE_TOL:
                raise PhaseUnwrapError(
                    f"half-turn phase jump at J={j_values[n]} "
                    "(|delta| = pi): branch ambiguous under the minimal-jump rule"
                )
        else:
            step = (raw + math.pi) % math.tau - math.pi  # in [-pi, pi)
        args[n] = args[n - 1] + step
    return args


def cqdf(
    block: SMatrixBlock, omega_p: int, omega: int, mode: str = "two-sided"
) -> CqdfCurve:
    """d[arg S~]/dJ: central differences inside, one-sided at the two ends."""
    js, stilde = modified_smatrix(block, omega_p, omega)
    if js.size < 2:
        raise ValueError("deflection derivative needs at least two J values")
    return CqdfCurve(js, np.gradient(unwrap_arg(stilde, js, mode)), np.abs(stilde))


def fold_to_observable(angles: np.ndarray) -> np.ndarray:
    """|angle| reduced mod 2 pi and reflected into [0, pi]."""
    a = np.abs(np.asarray(angles, dtype=float)) % math.tau
    return np.where(a > math.pi, math.tau - a, a)


def predicted_scattering_angle(curve: CqdfCurve) -> np.ndarray:
    """Observable angle predicted by the deflection curve.

    For integer J the exp(i pi J) modification raises the phase slope by
    exactly pi (the minimal-jump unwrap absorbs it into the continuous
    branch), so the physical deflection is theta_tilde - pi; its
    magnitude, folded into [0, pi] by reflection, is the angle where the
    corresponding joint-map ridge appears.
    """
    return fold_to_observable(curve.theta_tilde - math.pi)
