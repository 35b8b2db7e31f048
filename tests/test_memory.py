"""Peak memory of the trajectory estimators and of the amplitude stream,
measured with tracemalloc (numpy reports its array buffers to it).

The ensemble spans three full chunks and a partial one, so the Gaussian
map reuses its theta-kernel workspace across chunks of both sizes.  Each
peak is counted in units of the estimator's largest array: one chunk's
theta kernel, or one N x 21 Vandermonde matrix.  The amplitude stream
reads a block's sorted entries, so one pair of a sparse block with
thousands of helicity pairs costs what its entries cost.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import sparse_probe_block
from oracles import partial_amplitude_rows, sum_rows
from qdeflect import (AngularGrid, KernelConfig, TrajectoryEnsemble, qct_df_gaussian, qct_df_legendre,
                      scattering_amplitude)
from qdeflect.qct import _CHUNK
from test_amplitude_core import assert_bits


@pytest.fixture(scope="module")
def ensemble():
    rng = np.random.default_rng(0)
    n, j_max = 3 * _CHUNK + 100, 40.0
    return TrajectoryEnsemble(rng.random(n), rng.random(n) * j_max, rng.random(n) * np.pi, 1.0, j_max)


def peak_bytes(call):
    """The most memory `call` held at once beyond what was live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    del result
    return peak


def test_gaussian_map_holds_one_theta_kernel_at_a_time(ensemble):
    grid = AngularGrid.uniform(0.25)
    kernel = len(grid) * _CHUNK * 8
    peak = peak_bytes(lambda: qct_df_gaussian(ensemble, KernelConfig(1.5, np.radians(3.0)), grid))
    assert peak <= 1.25 * kernel, peak / kernel


def test_legendre_map_weights_its_vandermonde_in_place(ensemble):
    grid = AngularGrid.uniform(0.25)
    vandermonde = len(ensemble) * 21 * 8
    peak = peak_bytes(lambda: qct_df_legendre(ensemble, 20, 20, grid))
    assert peak <= 2.5 * vandermonde, peak / vandermonde


def test_one_pair_of_a_sparse_block_streams_its_entries_only():
    # a dense J x pair table of this block would take 2941 x 2664 x 16 bytes, 125 MB
    block, grid = sparse_probe_block(), AngularGrid.uniform(1.0)
    omega, omega_p = block.helicity_pairs()[0]
    curves = []
    peak = peak_bytes(lambda: curves.append(scattering_amplitude(block, omega_p, omega, grid)))
    assert peak <= 4e6, peak
    assert_bits(curves[0].values, sum_rows(partial_amplitude_rows(block, omega, omega_p, grid)))
