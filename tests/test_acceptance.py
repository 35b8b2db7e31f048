"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines alongside the pytest verdicts.
"""

import math
import time

import numpy as np
from scipy.ndimage import label

from qdeflect import (
    AngularGrid,
    ClassicalBranch,
    ClassicalModel,
    JWindow,
    KernelConfig,
    cqdf,
    dcs,
    default_grid,
    fit_legendre_df,
    integrate_over_theta,
    linear_phase_model,
    partial_cross_section,
    partial_dcs,
    predicted_scattering_angle,
    qct_df_gaussian,
    qmdf_map,
    quadratic_phase_model,
    random_phase_map,
    sample_ell_continuous,
    sum_over_j,
    synth_smatrix,
    synth_trajectories,
    wigner_d,
    wigner_d_table,
)
from qdeflect.cli import main
from qdeflect.qct import TrajectoryEnsemble
from conftest import make_block, random_block
from oracles import wigner_d_exact


def _report(number, passed, elapsed, limit, detail):
    verdict = "PASS" if passed else "FAIL"
    line = f"criterion {number:2d}: {verdict} ({elapsed:.1f} s / limit {limit:.0f} s) - {detail}"
    print(line)
    assert passed, line
    assert elapsed < limit, f"criterion {number} exceeded runtime limit: {line}"


def test_criterion_01_dcs_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    grid = default_grid()
    worst = 0.0
    for _ in range(100):
        block = random_block(rng, j_max=int(rng.integers(4, 61)))
        summed = qmdf_map(block, grid).values.sum(axis=1)
        reference = dcs(block, grid).values * grid.sin_thetas
        inner = slice(1, -1)
        rel = np.abs(summed[inner] - reference[inner]) / reference[inner]
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - start
    _report(1, worst <= 1e-12, elapsed, 30.0,
            f"max pointwise relative error {worst:.2e} (tol 1e-12, 100 blocks)")


def test_criterion_02_partial_cross_section_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    grid = AngularGrid(np.linspace(0.0, np.pi, 2001))
    worst = 0.0
    for _ in range(20):
        block = random_block(rng, j_max=int(rng.integers(10, 61)))
        dmap = qmdf_map(block, grid)
        for J in range(block.header.J_max + 1):
            sigma = partial_cross_section(block, J)
            if sigma == 0.0:
                continue
            quad = integrate_over_theta(dmap, J)
            worst = max(worst, abs(quad - sigma) / sigma)
    elapsed = time.perf_counter() - start
    _report(2, worst <= 1e-6, elapsed, 60.0,
            f"max relative error {worst:.2e} (tol 1e-6, 20 blocks, all J)")


def test_criterion_03_additivity_contrast():
    start = time.perf_counter()
    entries = {(J, 0, 0): 0.9 * np.exp(-0.41j * J * J) for J in range(14)}
    block = make_block(entries, j_max=13)
    grid = default_grid()
    lo, hi = JWindow(0, 6), JWindow(7, 13)

    dmap = qmdf_map(block, grid)
    q_split = sum_over_j(dmap, lo).values + sum_over_j(dmap, hi).values
    q_full = sum_over_j(dmap, JWindow(0, 13)).values
    q_gap = float(np.abs(q_split - q_full).max())
    q_scale = float(np.abs(q_full).max())

    d_split = partial_dcs(block, lo, grid).values + partial_dcs(block, hi, grid).values
    d_full = dcs(block, grid).values
    d_gap = float(np.abs(d_split - d_full).max())

    passed = q_gap <= 1e-12 * q_scale and d_gap > 1e-6
    elapsed = time.perf_counter() - start
    _report(3, passed, elapsed, 5.0,
            f"window sums additive to {q_gap / q_scale:.2e} rel; "
            f"windowed DCS non-additive by {d_gap:.2e}")


def test_criterion_04_negativity_with_positive_marginal():
    start = time.perf_counter()
    block = make_block({(0, 0, 0): 1.0, (1, 0, 0): 1.0}, j_max=1)
    grid = default_grid()
    dmap = qmdf_map(block, grid)
    idx = int(np.argmin(np.abs(grid.thetas - 2.0 * np.pi / 3.0)))
    hand = -math.sin(2.0 * math.pi / 3.0) / 8.0  # -0.10825...
    got = dmap.values[idx, 0]
    marginal = dmap.values.sum(axis=1)
    passed = abs(got - hand) <= 1e-10 and bool(np.all(marginal >= 0.0))
    elapsed = time.perf_counter() - start
    _report(4, passed, elapsed, 1.0,
            f"Q(120deg, J=0) = {got:.11f} vs {hand:.11f}; min marginal "
            f"{marginal.min():.1e}")


def test_criterion_05_cqdf_analytic_models():
    start = time.perf_counter()
    alpha, j_max = 0.02, 60
    quad_block = synth_smatrix(quadratic_phase_model(alpha, 30.0, 8.0), 1.0, j_max)
    curve = cqdf(quad_block, 0, 0)
    js = np.arange(j_max + 1)
    analytic = np.pi - alpha * (2 * js + 1)
    quad_err = float(np.abs(curve.theta_tilde[1:-1] - analytic[1:-1]).max())

    c = -0.3
    lin_block = synth_smatrix(linear_phase_model(c, 30.0, 8.0), 1.0, j_max)
    lin = cqdf(lin_block, 0, 0).theta_tilde
    lin_err = float(np.abs(lin - (np.pi + c)).max())

    shifted = cqdf(quad_block.scaled(np.exp(1.9j)), 0, 0).theta_tilde
    phase_err = float(np.abs(shifted - curve.theta_tilde).max())

    passed = quad_err <= 1e-12 and lin_err <= 1e-12 and phase_err <= 1e-12
    elapsed = time.perf_counter() - start
    _report(5, passed, elapsed, 1.0,
            f"quadratic {quad_err:.1e}, linear {lin_err:.1e}, "
            f"global phase {phase_err:.1e} (tol 1e-12)")


def test_criterion_06_ridge_correspondence():
    start = time.perf_counter()
    c = -1.2
    block = synth_smatrix(linear_phase_model(c, 40.0, 12.0), 1.0, 80)
    grid = default_grid()
    dmap = qmdf_map(block, grid)
    curve = cqdf(block, 0, 0)
    predicted = predicted_scattering_angle(curve)
    mags = np.array([abs(block.entries[(int(J), 0, 0)]) for J in curve.j_values])
    window = mags >= 0.5 * mags.max()
    worst = 0.0
    for J, active, pred in zip(curve.j_values, window, predicted):
        if not active:
            continue
        ridge = grid.thetas[int(np.argmax(dmap.column(int(J))))]
        worst = max(worst, abs(math.degrees(ridge - pred)))
    passed = worst <= 5.0
    elapsed = time.perf_counter() - start
    _report(6, passed, elapsed, 10.0,
            f"max |ridge - predicted| = {worst:.2f} deg over half-max window "
            "(tol 5 deg)")


def test_criterion_07_wigner_kernel_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(707)

    boundary = 0.0
    for J in (0, 3, 17, 60):
        for omega_p in range(-min(J, 3), min(J, 3) + 1):
            for omega in range(-min(J, 3), min(J, 3) + 1):
                want = 1.0 if omega_p == omega else 0.0
                boundary = max(boundary, abs(wigner_d(J, omega_p, omega, 0.0) - want))

    sym_worst = 0.0
    for _ in range(10000):
        J = int(rng.integers(0, 51))
        omega_p = int(rng.integers(-J, J + 1)) if J else 0
        omega = int(rng.integers(-J, J + 1)) if J else 0
        theta = float(rng.uniform(1e-3, np.pi - 1e-3))
        d = wigner_d(J, omega_p, omega, theta)
        swap = (-1.0) ** (omega_p - omega) * wigner_d(J, omega, omega_p, theta)
        neg = wigner_d(J, -omega, -omega_p, theta)
        refl = (-1.0) ** (J + omega_p) * wigner_d(J, omega_p, -omega, theta)
        lhs = wigner_d(J, omega_p, omega, np.pi - theta)
        sym_worst = max(sym_worst, abs(d - swap), abs(d - neg), abs(lhs - refl))

    # orthogonality through the sine-series weights, J up to 60
    grid = AngularGrid(np.linspace(0.0, np.pi, 2001))
    n = len(grid) - 1
    m_odd = np.arange(1, n, 2)
    weights = (4.0 / n) * (np.sin(np.outer(grid.thetas, m_odd)) / m_odd).sum(axis=1)
    ortho_worst = 0.0
    for omega_p, omega in ((0, 0), (1, 0), (2, -1)):
        table = wigner_d_table(60, omega_p, omega, grid)
        gram = (table * (weights * grid.sin_thetas)) @ table.T
        j0 = max(abs(omega_p), abs(omega))
        for ja in range(j0, 61):
            for jb in range(j0, 61):
                want = 2.0 / (2 * ja + 1) if ja == jb else 0.0
                ortho_worst = max(ortho_worst, abs(gram[ja, jb] - want))

    osc_worst = 0.0
    for _ in range(100):
        J = int(rng.integers(1, 251))
        omega_p = int(rng.integers(-J, J + 1))
        omega = int(rng.integers(-J, J + 1))
        theta = float(rng.uniform(0.01, np.pi - 0.01))
        osc_worst = max(
            osc_worst,
            abs(wigner_d(J, omega_p, omega, theta) - wigner_d_exact(J, omega_p, omega, theta)),
        )

    passed = (
        boundary <= 1e-12
        and sym_worst <= 1e-10
        and ortho_worst <= 1e-6
        and osc_worst <= 1e-10
    )
    elapsed = time.perf_counter() - start
    _report(7, passed, elapsed, 60.0,
            f"boundary {boundary:.1e}, symmetry/reflection {sym_worst:.1e}, "
            f"orthogonality {ortho_worst:.1e}, vs exact sum {osc_worst:.1e}")


def test_criterion_08_qct_estimator_suite():
    start = time.perf_counter()

    # zeroth moments are forced exactly
    rng = np.random.default_rng(808)
    j = sample_ell_continuous(40.0, 5000, rng)
    theta = np.clip(np.pi * (1 - j / 40.0) + 0.1 * rng.standard_normal(5000), 0.0, np.pi)
    ens = TrajectoryEnsemble(np.ones(5000), j, theta, 3.0, 40.0)
    df = fit_legendre_df(ens, 12, 12)
    zeroth_ok = df.a[0] == 0.5 and df.b[0] == 0.5 and df.alpha[0, 0] == 0.25

    # uniform-in-x sampler kills the higher J moments
    n = 100000
    ju = sample_ell_continuous(50.0, n, np.random.default_rng(20))
    uens = TrajectoryEnsemble(np.ones(n), ju, np.full(n, 1.0), 1.0, 50.0)
    bu = fit_legendre_df(uens, 0, 6).b
    moment_bound = 3.0 / math.sqrt(n)
    moments_ok = bool(np.all(np.abs(bu[1:]) <= moment_bound))

    # 2-D marginals reproduce the 1-D expansions (Gauss-Legendre in each variable)
    from numpy.polynomial.legendre import leggauss

    nodes, gl_w = leggauss(40)
    thetas_gl = np.arccos(nodes)[::-1]
    probe_j = np.array([0.0, 9.5, 21.0, 33.0, 40.0])
    joint = df.joint(thetas_gl, probe_j)
    marg_j = 2.0 * np.pi * (joint / np.sin(thetas_gl)[:, None]).T @ gl_w[::-1]
    expect_j = np.asarray(df.sigma_j(probe_j))
    d_norm = 40.0 * 41.0
    j_nodes = 0.5 * (np.sqrt(1.0 + 2.0 * d_norm * (nodes + 1.0)) - 1.0)
    probe_t = np.array([0.3, 1.1, 1.9, 2.8])
    joint_t = df.joint(probe_t, j_nodes)
    dxdj = 2.0 * (2.0 * j_nodes + 1.0) / d_norm
    marg_t = (joint_t / dxdj[None, :]) @ gl_w
    expect_t = df.dcs(probe_t) * np.sin(probe_t)
    scale_j = max(1.0, float(np.abs(expect_j).max()))
    scale_t = max(1.0, float(np.abs(expect_t).max()))
    marginals_err = max(
        float(np.abs(marg_j - expect_j).max()) / scale_j,
        float(np.abs(marg_t - expect_t).max()) / scale_t,
    )
    marginals_ok = marginals_err <= 1e-8

    # Gaussian-map mass conservation for interior-supported data
    rng2 = np.random.default_rng(21)
    ji = rng2.uniform(12.0, 28.0, 3000)
    ti = rng2.uniform(0.9, 2.2, 3000)
    iens = TrajectoryEnsemble(np.ones(3000), ji, ti, 2.5, 40.0)
    grid = AngularGrid.uniform(0.125)
    dmap = qct_df_gaussian(iens, KernelConfig(1.5, 0.15), grid)
    from scipy.integrate import simpson

    mass = 2.0 * np.pi * simpson(dmap.values.sum(axis=1), x=grid.thetas)
    mass_err = abs(mass - 2.5) / 2.5
    mass_ok = mass_err <= 1e-6

    # two-branch ensemble shows two disjoint superlevel bands
    model = ClassicalModel(
        j_max=40.0,
        branches=(ClassicalBranch(1.0, (2.9, -2.4)), ClassicalBranch(1.0, (0.7, 0.9))),
        noise_width=0.03,
    )
    bens = synth_trajectories(model, 20000, 12)
    bmap = qct_df_gaussian(bens, KernelConfig(1.2, 0.05), AngularGrid.uniform(0.5))
    _, n_regions = label(bmap.values >= 0.1 * bmap.values.max())
    bands_ok = n_regions == 2

    passed = zeroth_ok and moments_ok and marginals_ok and mass_ok and bands_ok
    elapsed = time.perf_counter() - start
    _report(8, passed, elapsed, 120.0,
            f"zeroth exact {zeroth_ok}, |b_n| max {np.abs(bu[1:]).max():.2e} "
            f"<= {moment_bound:.2e}, marginals {marginals_err:.1e}, "
            f"mass {mass_err:.1e}, bands {n_regions}")


def test_criterion_09_random_phase_symmetry():
    start = time.perf_counter()
    grid = default_grid()
    worst = 0.0
    models = [
        synth_smatrix(quadratic_phase_model(0.02, 30.0, 8.0), 1.0, 60),
        synth_smatrix(linear_phase_model(-0.7, 25.0, 9.0), 1.0, 50, 2),
    ]
    for block in models:
        curve = random_phase_map(block, grid).values.sum(axis=1)
        asym = np.abs(curve - curve[::-1]).max() / curve.max()
        worst = max(worst, float(asym))
    elapsed = time.perf_counter() - start
    _report(9, worst <= 1e-10, elapsed, 5.0,
            f"max forward-backward asymmetry {worst:.2e} (tol 1e-10)")


def test_criterion_10_cli_determinism(tmp_path):
    start = time.perf_counter()
    model = tmp_path / "model.txt"
    model.write_text(
        "kind = quadratic\nk = 1.0\njmax = 40\nj0 = 20\nw = 6\nalpha = 0.02\n"
    )
    block = tmp_path / "block.smat"
    assert main(["synth", str(model), "--out", str(block)]) == 0

    dcs_a, dcs_b = tmp_path / "dcs_a.csv", tmp_path / "dcs_b.csv"
    sum_a = tmp_path / "sum_a.csv"
    for path in (dcs_a, dcs_b):
        assert main(["dcs", str(block), "--out", str(path), "--grid-deg", "0.25"]) == 0
    assert main(["sum-j", str(block), "--out", str(sum_a), "--grid-deg", "0.25"]) == 0

    byte_identical = dcs_a.read_bytes() == dcs_b.read_bytes()

    def values(path):
        rows = [line for line in path.read_text().splitlines() if line and not line.startswith("#")]
        return np.array([[float(tok) for tok in line.split(",")] for line in rows[1:]])

    grid = default_grid()
    dcs_vals = values(dcs_a)[:, 1]
    sum_vals = values(sum_a)[:, 1]
    reference = dcs_vals * grid.sin_thetas
    agree = True
    for got, want in zip(sum_vals, reference):
        if got == 0.0 and want == 0.0:
            continue
        if abs(got - want) > 1e-8 * abs(want):
            agree = False
            break
    elapsed = time.perf_counter() - start
    _report(10, byte_identical and agree, elapsed, 10.0,
            f"repeat runs byte-identical: {byte_identical}; sum-j equals "
            f"dcs*sin(theta) at emitted precision: {agree}")
