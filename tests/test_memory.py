"""Peak memory of the trajectory estimators and of the amplitude stream,
measured with tracemalloc (numpy reports its array buffers to it).

The ensemble spans three full chunks and a partial one, so the Gaussian
map reuses its theta-kernel workspace across chunks of both sizes.  Each
peak is counted in units of the estimator's largest array: one chunk's
theta kernel, or one N x 21 Vandermonde matrix.  The amplitude stream
reads a block's sorted entries, so one pair of a sparse block with
thousands of helicity pairs costs what its entries cost, the Wigner
rows of all its pairs hold no J x orbit coefficient table, and the
coherent maps of a channel with j = 10^7 step only its pairs with entries.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import sparse_probe_block
from oracles import partial_amplitude_rows, sum_rows
from qdeflect import (AngularGrid, ChannelHeader, KernelConfig, SMatrixBlock, TrajectoryEnsemble, qct_df_gaussian,
                      qct_df_legendre, qmdf_helicity_map, qmdf_map, scattering_amplitude)
from qdeflect.qct import _CHUNK
from qdeflect.wigner import wigner_d_rows
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
    # and absolutely: one chunk's 0.25 deg kernel is 721 x 2048 doubles, 11.8 MB
    assert peak <= 14 * 2**20, peak


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


def test_wigner_rows_of_a_sparse_block_hold_no_coefficient_table_per_j():
    # root, c2 and c3 over every J step x orbit would take 3 x 3001 x 2018 x 8 bytes, 145 MB; what
    # stays is three 2 x 2018 x 181 recurrence buffers and the 2664 x 181 rows, 21 MB
    block, grid = sparse_probe_block(), AngularGrid.uniform(1.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = wigner_d_rows(block.helicity_pairs(), grid.thetas, range(block.header.J_max + 1))
        next(rows)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 40e6, held


@pytest.mark.parametrize("qmap", [lambda block, grid: qmdf_map(block, grid),
                                  lambda block, grid: qmdf_helicity_map(block, 0, grid)])
def test_coherent_maps_cost_what_the_entries_cost_whatever_j_is(qmap):
    # a scan over Omega = -j..j builds Python lists of 2 x 10^7 ints, hundreds of MB; the
    # map, a few 2 x 181 amplitude rows and the Wigner state stay below 0.1 MB
    block = SMatrixBlock(ChannelHeader(k=1.0, j=10**7, j_final=0, J_max=2), {(0, 0, 0): 0.5, (2, 1, 0): 0.3j})
    grid = AngularGrid.uniform(1.0)
    peak = peak_bytes(lambda: qmap(block, grid))
    assert peak <= 1e6, peak
