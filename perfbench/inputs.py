"""Deterministic benchmark inputs, written by the benchmark's own code.

Everything here depends only on numpy and the workload seed, so the
program under test receives nothing but the generated text:

- `block_l(rng)` is reference block L (J_max = 250, j = 3, j' = 5,
  k = 2.0, every helicity entry present).  With `default_rng(0)` it is
  entry for entry the block `tests/conftest.py::random_block` makes with
  `j_max=250, j=3, jp=5, k=2.0, density=1.0`, because it draws the same
  three doubles per entry in the same order.
- `readme_model()` and `readme_classical(seed)` are the README's two model
  files, the second with the workload seed in place of `seed = 1`.
- `ensemble_arrays(rng)` and `ensemble_text` give a 50k-record trajectory
  file drawn from the README classical model.
- `libref_inputs(seed, index)` is the fresh input of one `lib-ref` pass.
"""

from __future__ import annotations

import math

import numpy as np

L_J_MAX, L_J, L_JP, L_K = 250, 3, 5, 2.0


def block_entries(rng: np.random.Generator) -> dict[tuple[int, int, int], complex]:
    """Random flux-conserving L-size entries, every helicity pair present."""
    keys = [
        (J, omega, omega_p)
        for J in range(L_J_MAX + 1)
        for omega in range(-min(J, L_J), min(J, L_J) + 1)
        for omega_p in range(-min(J, L_JP), min(J, L_JP) + 1)
    ]
    # per entry: the density draw (always accepted), r, then phi
    draws = rng.random((len(keys), 3))
    values = draws[:, 1] * np.exp(1j * (2.0 * np.pi * draws[:, 2]))
    return dict(zip(keys, values.tolist()))


def block_text(entries: dict) -> bytes:
    """S-matrix text format; floats in shortest round-trip form."""
    lines = [f"k {L_K!r} 1/angstrom", f"channel j={L_J} jp={L_JP} v=0 vp=0 Jmax={L_J_MAX}"]
    lines += [
        f"{J} {om} {omp} {v.real!r} {v.imag!r}"
        for (J, om, omp), v in sorted(entries.items())
    ]
    return ("\n".join(lines) + "\n").encode()


def block_l(rng: np.random.Generator) -> tuple[dict, bytes]:
    entries = block_entries(rng)
    return entries, block_text(entries)


def readme_model() -> str:
    return "kind = quadratic\nk = 1.0\njmax = 60\nj0 = 30\nw = 8\nh = 1.0\nalpha = 0.02\n"


README_ALPHA = 0.02


def readme_classical(seed: int) -> str:
    return (
        "kind = classical\njmax = 40\ncbranch = 1.0 3.14159 -3.14159\n"
        f"noise = 0.08\ncount = 50000\nseed = {seed}\nsigma_r = 1.0\n"
    )


ENS_J_MAX, ENS_COUNT, ENS_SIGMA_R = 40.0, 50_000, 1.0


def ensemble_arrays(rng: np.random.Generator, count: int = ENS_COUNT) -> tuple[np.ndarray, np.ndarray]:
    """(J, theta in degrees) of unit-weight records, README classical model.

    Draws and rounds in the order `qdeflect synth classical.txt` does, so
    with `default_rng(seed)` the records equal that command's output.
    """
    d = ENS_J_MAX * (ENS_J_MAX + 1.0)
    js = np.clip(0.5 * (np.sqrt(1.0 + 4.0 * rng.random(count) * d) - 1.0), 0.0, ENS_J_MAX)
    rng.choice(1, size=count, p=[1.0])  # the one-branch draw, kept for the stream
    u = js / ENS_J_MAX
    theta = np.clip(3.14159 + -3.14159 * u, 0.0, math.pi)  # cbranch weight 1, theta(u) = c0 + c1 u
    theta = np.clip(theta + 0.08 * rng.standard_normal(count), 0.0, math.pi)
    return js, np.degrees(theta)


def ensemble_text(js: np.ndarray, degs: np.ndarray) -> bytes:
    lines = [f"# sigma_r = {ENS_SIGMA_R!r}", f"# j_max = {ENS_J_MAX!r}", "# columns: w J theta_deg"]
    lines += [f"1.0 {j!r} {t!r}" for j, t in zip(js.tolist(), degs.tolist())]
    return ("\n".join(lines) + "\n").encode()


def libref_inputs(seed: int, index: int) -> dict:
    """Block-L-size block and 50k-record ensemble for lib-ref pass `index`."""
    rng = np.random.default_rng([seed, index])
    entries, block = block_l(rng)
    js, degs = ensemble_arrays(rng)
    return {"entries": entries, "block": block, "js": js, "degs": degs,
            "ensemble": ensemble_text(js, degs)}
