import io

import numpy as np
import pytest

from qdeflect import AngularGrid, ChannelHeader, SMatrixBlock, load_smatrix


def make_block(entries, k=1.0, j=0, jp=0, j_max=None):
    """Block from a {(J, Omega, OmegaPrime): amplitude} dict."""
    if j_max is None:
        j_max = max(key[0] for key in entries)
    header = ChannelHeader(k=k, j=j, j_final=jp, J_max=j_max)
    return SMatrixBlock(header, entries)


def random_block(rng, j_max=None, j=None, jp=None, k=None, density=0.8):
    """Random flux-conserving block with helicity structure."""
    if j_max is None:
        j_max = int(rng.integers(4, 61))
    if j is None:
        j = int(rng.integers(0, 3))
    if jp is None:
        jp = int(rng.integers(0, 3))
    if k is None:
        k = float(rng.uniform(0.4, 4.0))
    entries = {}
    for J in range(j_max + 1):
        for omega in range(-min(J, j), min(J, j) + 1):
            for omega_p in range(-min(J, jp), min(J, jp) + 1):
                if rng.random() < density:
                    r = rng.uniform(0.0, 1.0)
                    phi = rng.uniform(0.0, 2.0 * np.pi)
                    entries[(J, omega, omega_p)] = r * np.exp(1j * phi)
    if not entries:
        entries[(0, 0, 0)] = 0.5 + 0.1j
    return make_block(entries, k=k, j=j, jp=jp, j_max=j_max)


def sparse_probe_block():
    """One entry per J across 121 x 121 helicity pairs (j = jp = 60, J_max = 3000,
    2941 entries over 2664 pairs): a dense J x pair table of it would be 2941 x 2664 cells."""
    rng = np.random.default_rng(3)
    lines = ["k 1.5 1/angstrom", "channel j=60 jp=60 v=0 vp=0 Jmax=3000"]
    lines += [f"{J} {omega} {omega_p} {rng.normal()!r} {rng.normal()!r}"
              for J, (omega, omega_p) in zip(range(60, 3001), rng.integers(-60, 61, (2941, 2)).tolist())]
    return load_smatrix(io.StringIO("\n".join(lines) + "\n"))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def grid181():
    return AngularGrid.uniform(1.0)
