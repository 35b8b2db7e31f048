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
A J window is checked against the ends of the block's J range, and the
CSV writer formats one block of rows at a time.  cqdf's coverage check
finds a gap from the J values with entries, not from the whole J range.
"""

import tracemalloc

import numpy as np
import pytest

from conftest import sparse_probe_block
from oracles import partial_amplitude_rows, sum_rows
from qdeflect import (AngularGrid, ChannelHeader, JWindow, KernelConfig, SMatrixBlock, TrajectoryEnsemble, cqdf,
                      partial_dcs, qct_df_gaussian, qct_df_legendre, qmdf_helicity_map, qmdf_map)
from qdeflect.cli import _write_csv
from qdeflect.observables import summed_amplitudes
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
    omega, omega_p = block.pairs[0].tolist()
    curves = []
    peak = peak_bytes(lambda: curves.append(summed_amplitudes(block, [0], grid)[0]))
    assert peak <= 4e6, peak
    assert_bits(curves[0], sum_rows(partial_amplitude_rows(block, omega, omega_p, grid)))


def test_wigner_rows_of_a_sparse_block_hold_no_coefficient_table_per_j():
    # root, c2 and c3 over every J step x orbit would take 3 x 3001 x 2018 x 8 bytes, 145 MB; what
    # stays is three 2 x 2018 x 181 recurrence buffers and the 2664 x 181 rows, 21 MB
    block, grid = sparse_probe_block(), AngularGrid.uniform(1.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = wigner_d_rows(block.pairs.tolist(), grid.thetas, range(block.header.J_max + 1))
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


@pytest.mark.parametrize("windowed", [lambda block, grid: partial_dcs(block, JWindow(0, 1), grid),
                                      lambda block, grid: qmdf_map(block, grid, JWindow(0, 1))],
                         ids=["partial_dcs", "qmdf_map"])
@pytest.mark.parametrize("j_max", [10**7, 10**8])
def test_a_window_costs_what_its_columns_cost_whatever_j_max_is(windowed, j_max):
    # np.arange(J_max + 1) to read the range's two ends would take 76 MiB at J_max = 10^7
    block = SMatrixBlock(ChannelHeader(k=1.0, j=0, j_final=0, J_max=j_max), {(0, 0, 0): 0.5, (2, 0, 0): 0.3j})
    peak = peak_bytes(lambda: windowed(block, AngularGrid.uniform(1.0)))
    assert peak <= 5 * 2**20, peak



def test_a_gap_costs_what_the_entries_cost():
    # sets over the whole J range and a list of every missing J held hundreds of MB here
    block = SMatrixBlock(ChannelHeader(k=1.0, j=0, j_final=0, J_max=3_000_000),
                         {(0, 0, 0): 0.5, (3_000_000, 0, 0): 0.5})

    def refuse():
        with pytest.raises(ValueError, match="1 gap"):
            cqdf(block, 0, 0)

    peak = peak_bytes(refuse)
    assert peak <= 2**20, peak

def test_csv_writer_holds_one_block_of_rows(tmp_path):
    # the 181,692 rows of a 0.25 deg map with J = 0..250 are 6.2 MB of text, and the
    # whole file formatted at once held 20 MiB; one block of 2^14 cells is 0.6 MB of rows
    grid = AngularGrid.uniform(0.25)
    values = np.random.default_rng(0).standard_normal((len(grid), 251))
    (tmp_path / "in.smat").write_text("input\n")
    out = tmp_path / "map.csv"
    peak = peak_bytes(lambda: _write_csv(str(out), "qmdf", str(tmp_path / "in.smat"), ("theta_deg", "J", "value"),
                                         (grid.degrees, np.arange(251)), (values,), {}))
    assert peak <= 6 * 2**20, peak
    assert len(out.read_text().splitlines()) == 5 + len(grid) * 251
