import io
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss, legval
from scipy.integrate import simpson
from scipy.stats import kstest

from qdeflect import (
    AngularGrid,
    KernelConfig,
    TrajectoryEnsemble,
    load_trajectories,
    qct_dcs_legendre,
    qct_df_gaussian,
    qct_df_legendre,
    qct_sigma_j_gaussian,
    qct_sigma_j_legendre,
    save_trajectories,
)
from qdeflect.qct import GibbsOscillationWarning, fit_legendre_df, kernel_width, reduced_x, sample_ell_continuous
from qdeflect.synth import parse_model_file


def ensemble_of(j, theta, w=None, sigma_r=1.0, j_max=None):
    j = np.asarray(j, dtype=float)
    theta = np.asarray(theta, dtype=float)
    w = np.ones_like(j) if w is None else np.asarray(w, dtype=float)
    return TrajectoryEnsemble(
        weights=w,
        j_values=j,
        thetas=theta,
        sigma_r=sigma_r,
        j_max=j_max or max(float(j.max()), 1.0),
    )


def smooth_ensemble(rng, count=20000, j_max=40.0, sigma_r=7.5):
    j = sample_ell_continuous(j_max, count, rng)
    theta = np.clip(np.pi * (1.0 - j / j_max) + 0.12 * rng.standard_normal(count), 0.0, np.pi)
    return ensemble_of(j, theta, sigma_r=sigma_r, j_max=j_max)


class TestMoments:
    def test_zeroth_moments_exact(self, rng):
        ens = smooth_ensemble(rng, count=500)
        df = fit_legendre_df(ens, 6, 6)
        assert df.a[0] == 0.5
        assert df.b[0] == 0.5
        assert df.alpha[0, 0] == 0.25

    def test_weight_doubling_invariant(self, rng):
        ens = smooth_ensemble(rng, count=400)
        doubled = TrajectoryEnsemble(
            2.0 * ens.weights, ens.j_values, ens.thetas, ens.sigma_r, ens.j_max
        )
        a = fit_legendre_df(ens, 5, 5)
        b = fit_legendre_df(doubled, 5, 5)
        assert np.abs(a.alpha - b.alpha).max() < 1e-12

    def test_arrays_that_are_not_congruent_rejected(self):
        with pytest.raises(ValueError, match="weights, j_values, thetas must be 1-D and congruent"):
            TrajectoryEnsemble(np.ones(3), np.ones(2), np.ones(3), 1.0, 5.0)
        with pytest.raises(ValueError, match="1-D and congruent"):
            TrajectoryEnsemble(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)), 1.0, 5.0)

    def test_an_ensemble_freezes_views_and_leaves_the_callers_arrays_writable(self):
        given = np.full(3, 0.5), np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3])
        ensemble = TrajectoryEnsemble(*given, 1.0, 5.0)
        for kept, array in zip((ensemble.weights, ensemble.j_values, ensemble.thetas), given):
            assert np.shares_memory(kept, array) and array.flags.writeable
            assert not kept.flags.writeable

    @pytest.mark.parametrize("orders", [(-1, 0), (0, -1)])
    def test_negative_order_rejected(self, orders):
        with pytest.raises(ValueError, match="expansion orders must be nonnegative"):
            fit_legendre_df(ensemble_of([1.0, 2.0], [0.1, 0.2]), *orders)

    @pytest.mark.filterwarnings("ignore::qdeflect.qct.GibbsOscillationWarning")
    def test_single_record_moments(self):
        theta0, j0 = 1.1, 7.0
        ens = ensemble_of([j0], [theta0], j_max=20.0)
        df = fit_legendre_df(ens, 4, 4)
        x0 = reduced_x(j0, 20.0)
        for m in range(5):
            pm = legval(math.cos(theta0), [0.0] * m + [1.0])
            assert df.a[m] == pytest.approx((2 * m + 1) / 2 * pm, rel=1e-14)
            pn = legval(x0, [0.0] * m + [1.0])
            assert df.b[m] == pytest.approx((2 * m + 1) / 2 * pn, rel=1e-14)
            assert df.alpha[m, m] == pytest.approx(
                (2 * m + 1) ** 2 / 4 * pm * pn, rel=1e-13
            )

    def test_uniform_x_sampler_kills_moments(self):
        n = 20000
        j = sample_ell_continuous(35.0, n, np.random.default_rng(1))
        ens = ensemble_of(j, np.full(n, 0.4), j_max=35.0)
        df = fit_legendre_df(ens, 0, 6)
        bound = 3.0 / math.sqrt(n)
        assert np.all(np.abs(df.b[1:]) <= bound)


class TestSigmaJ:
    def test_order_zero_is_degeneracy_shape(self):
        ens = ensemble_of([5.0, 9.0], [1.0, 2.0], sigma_r=2.0, j_max=20.0)
        fn = qct_sigma_j_legendre(ensemble=ens, order=0)
        js = np.array([2.0, 6.5, 13.0])
        vals = np.asarray(fn(js))
        expected = 2.0 * 2.0 * (2 * js + 1) / (20.0 * 21.0) * 0.5
        assert np.allclose(vals, expected, rtol=1e-13)

    def test_legendre_integral_recovers_sigma_r(self, rng):
        ens = smooth_ensemble(rng, count=4000, sigma_r=3.3)
        fn = qct_sigma_j_legendre(ens, 14)
        js = np.linspace(0.0, ens.j_max, 4001)
        total = simpson(np.asarray(fn(js)), x=js)
        assert total == pytest.approx(3.3, rel=1e-4)

    def test_gaussian_single_record(self):
        ens = ensemble_of([20.0], [1.0], sigma_r=1.0, j_max=40.0)
        fn = qct_sigma_j_gaussian(ens, KernelConfig(2.0, 0.1))
        assert fn(20.0) == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)))
        js = np.linspace(0.0, 40.0, 8001)
        assert simpson(np.asarray(fn(js)), x=js) == pytest.approx(1.0, rel=1e-6)

    def test_gaussian_symmetry(self):
        ens = ensemble_of([10.0, 30.0], [1.0, 1.0], sigma_r=1.0, j_max=40.0)
        fn = qct_sigma_j_gaussian(ens, KernelConfig(2.5, 0.1))
        off = np.linspace(-8.0, 8.0, 33)
        assert np.allclose(np.asarray(fn(20.0 + off)), np.asarray(fn(20.0 - off)), rtol=1e-12)

    def test_gaussian_mass_interior_support(self, rng):
        j = rng.uniform(12.0, 30.0, 2000)
        ens = ensemble_of(j, rng.uniform(0.5, 2.5, 2000), sigma_r=4.0, j_max=42.0)
        fn = qct_sigma_j_gaussian(ens, KernelConfig(1.5, 0.1))
        js = np.linspace(0.0, 42.0, 8001)
        assert simpson(np.asarray(fn(js)), x=js) == pytest.approx(4.0, rel=1e-6)


class TestDcs:
    def test_isotropic_sampler(self):
        rng = np.random.default_rng(11)
        n = 40000
        theta = np.arccos(1.0 - 2.0 * rng.random(n))
        ens = ensemble_of(np.full(n, 5.0), theta, sigma_r=2.0, j_max=10.0)
        curve = qct_dcs_legendre(ens, 6, AngularGrid.uniform(1.0))
        flat = 2.0 / (4.0 * np.pi)
        assert np.abs(curve.values - flat).max() < 6.0 * flat / math.sqrt(n) * 6
        df = fit_legendre_df(ens, 6, 0)
        assert np.all(np.abs(df.a[1:]) < 4.0 / math.sqrt(n) * 3)

    @pytest.mark.filterwarnings("ignore::qdeflect.qct.GibbsOscillationWarning")
    def test_delta_ensemble_moments(self):
        ens = ensemble_of([3.0], [np.pi / 2], j_max=6.0)
        df = fit_legendre_df(ens, 6, 0)
        for m in range(7):
            pm = legval(0.0, [0.0] * m + [1.0])
            assert df.a[m] == pytest.approx((2 * m + 1) / 2 * pm, abs=1e-15)

    def test_normalization_identity(self, rng):
        # 2 pi Int dcs sin dtheta = sigma_r, exactly from a_0 = 1/2
        ens = smooth_ensemble(rng, count=3000, sigma_r=5.5)
        curve = qct_dcs_legendre(ens, 12, AngularGrid.uniform(0.1))
        total = 2.0 * np.pi * simpson(curve.values * np.sin(curve.grid.thetas), x=curve.grid.thetas)
        assert total == pytest.approx(5.5, rel=1e-6)


class TestJointLegendre:
    @pytest.mark.filterwarnings("ignore::qdeflect.qct.GibbsOscillationWarning")
    def test_single_record_alpha(self):
        ens = ensemble_of([4.0], [2.0], j_max=9.0)
        df = fit_legendre_df(ens, 3, 3)
        x0 = reduced_x(4.0, 9.0)
        for m in range(4):
            for n in range(4):
                pm = legval(math.cos(2.0), [0.0] * m + [1.0])
                pn = legval(x0, [0.0] * n + [1.0])
                assert df.alpha[m, n] == pytest.approx(
                    (2 * m + 1) * (2 * n + 1) / 4 * pm * pn, rel=1e-13
                )

    def test_marginals_match_1d_expansions(self, rng):
        ens = smooth_ensemble(rng, count=2500, sigma_r=2.2)
        order = 8
        df = fit_legendre_df(ens, order, order)
        probe_j = np.array([0.0, 7.3, 19.0, 33.0, 40.0])

        # theta marginal via Gauss-Legendre in cos(theta): exact for the
        # degree-8 polynomial integrand
        nodes, weights = leggauss(32)
        thetas = np.arccos(nodes)[::-1]
        joint = df.joint(thetas, probe_j)
        sin_t = np.sin(thetas)
        marg_j = 2.0 * np.pi * (joint / sin_t[:, None]).T @ weights[::-1]
        expect_j = np.asarray(qct_sigma_j_legendre(ens, order)(probe_j))
        assert np.abs(marg_j - expect_j).max() < 1e-8 * max(1.0, np.abs(expect_j).max())

        # J marginal via Gauss-Legendre in x(J)
        xnodes, xweights = leggauss(32)
        d = ens.j_max * (ens.j_max + 1.0)
        j_nodes = 0.5 * (np.sqrt(1.0 + 2.0 * d * (xnodes + 1.0)) - 1.0)
        probe_t = np.array([0.4, 1.3, 2.0, 2.9])
        joint_t = df.joint(probe_t, j_nodes)
        dxdj = 2.0 * (2.0 * j_nodes + 1.0) / d
        marg_t = (joint_t / dxdj[None, :]) @ xweights
        expect_t = qct_dcs_legendre(ens, order, AngularGrid(probe_t)).values * np.sin(probe_t)
        assert np.abs(marg_t - expect_t).max() < 1e-8 * max(1.0, np.abs(expect_t).max())

    def test_product_ensemble_factorizes(self, rng):
        n = 30000
        j = sample_ell_continuous(25.0, n, rng)
        theta = np.arccos(1.0 - 2.0 * rng.random(n))  # independent of J
        ens = ensemble_of(j, theta, j_max=25.0)
        df = fit_legendre_df(ens, 4, 4)
        outer = 4.0 * np.outer(df.a, df.b)
        mc_scale = 6.0 * 25.0 / math.sqrt(n)
        assert np.abs(df.alpha - outer).max() < mc_scale


class TestJointGaussian:
    def test_single_record_bump(self):
        ens = ensemble_of([20.0], [1.5], sigma_r=1.0, j_max=40.0)
        grid = AngularGrid.uniform(0.25)
        dmap = qct_df_gaussian(ens, KernelConfig(2.0, 0.1), grid)
        i, jdx = np.unravel_index(np.argmax(dmap.values), dmap.values.shape)
        assert grid.thetas[i] == pytest.approx(1.5, abs=0.01)
        assert dmap.j_values[jdx] == 20

    def test_mass_conservation_interior(self, rng):
        j = rng.uniform(12.0, 28.0, 3000)
        theta = rng.uniform(0.9, 2.2, 3000)
        ens = ensemble_of(j, theta, sigma_r=3.7, j_max=40.0)
        grid = AngularGrid.uniform(0.125)
        dmap = qct_df_gaussian(ens, KernelConfig(1.5, 0.15), grid)
        mass = 2.0 * np.pi * simpson(dmap.values.sum(axis=1), x=grid.thetas)
        assert mass == pytest.approx(3.7, rel=1e-6)

    def test_boundary_renormalization_single_record_factor(self):
        ens = ensemble_of([1.5], [1.2], sigma_r=1.0, j_max=40.0)
        cfg = KernelConfig(2.0, 0.15)
        grid = AngularGrid.uniform(0.25)
        plain = qct_df_gaussian(ens, cfg, grid)
        fixed = qct_df_gaussian(ens, cfg, grid, renormalize_boundary=True)
        f_j = 0.5 * (math.erf((40.0 - 1.5) / 2.0) + math.erf(1.5 / 2.0))
        f_t = 0.5 * (math.erf((np.pi - 1.2) / 0.15) + math.erf(1.2 / 0.15))
        assert np.allclose(fixed.values, plain.values / (f_j * f_t), rtol=1e-12)

    def test_boundary_renormalization_recovers_mass(self, rng):
        j = rng.uniform(1.0, 6.0, 2000)  # hugs the J = 0 edge
        theta = rng.uniform(0.9, 2.0, 2000)
        ens = ensemble_of(j, theta, sigma_r=1.0, j_max=40.0)
        grid = AngularGrid.uniform(0.125)
        plain = qct_df_gaussian(ens, KernelConfig(2.0, 0.15), grid)
        fixed = qct_df_gaussian(ens, KernelConfig(2.0, 0.15), grid, renormalize_boundary=True)

        def mass(dmap):
            # trapezoid in J covers [0, J_max], matching the renormalization domain
            return 2.0 * np.pi * simpson(np.trapezoid(dmap.values, axis=1), x=grid.thetas)

        assert mass(plain) < 0.97
        assert mass(fixed) == pytest.approx(1.0, rel=2e-2)
        assert abs(mass(fixed) - 1.0) < abs(mass(plain) - 1.0)

    def test_estimator_agreement(self, rng):
        # interior-supported in J (opacity-like falloff well before J_max),
        # broad band in theta: both estimators resolve the same structure
        count = 100000
        j_raw = sample_ell_continuous(40.0, 3 * count, rng)
        keep = rng.random(3 * count) < np.exp(-((j_raw / 30.0) ** 8))
        j = j_raw[keep][:count]
        theta = np.clip(
            2.1 - 1.0 * (j / 40.0) + 0.5 * rng.standard_normal(count), 0.0, np.pi
        )
        ens = ensemble_of(j, theta, sigma_r=7.5, j_max=40.0)
        grid = AngularGrid.uniform(0.5)
        j_values = np.arange(0, 41)
        lg = qct_df_legendre(ens, 20, 20, grid, j_values)
        gs = qct_df_gaussian(ens, KernelConfig(1.2, 0.07), grid, j_values)
        top = gs.values.max()
        region = gs.values > 0.1 * top
        rms = math.sqrt(np.mean((lg.values[region] - gs.values[region]) ** 2))
        assert rms < 0.05 * top


class TestSampler:
    def test_endpoints(self):
        d = 30.0 * 31.0
        lo = 0.5 * (math.sqrt(1.0 + 4.0 * 0.0 * d) - 1.0)
        hi = 0.5 * (math.sqrt(1.0 + 4.0 * 1.0 * d) - 1.0)
        assert lo == 0.0
        assert hi == pytest.approx(30.0, rel=1e-15)

    def test_uniformity_ks(self):
        j = sample_ell_continuous(55.0, 100000, 424242)
        xi = j * (j + 1.0) / (55.0 * 56.0)
        assert kstest(xi, "uniform").pvalue > 0.01

    def test_deterministic(self):
        a = sample_ell_continuous(20.0, 100, 9)
        b = sample_ell_continuous(20.0, 100, 9)
        assert np.array_equal(a, b)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_ell_continuous(10.0, 0)


class TestWidths:
    def test_kernel_width_of_an_ensemble(self):
        ens = ensemble_of([0.0, 1.0, 2.0, 3.0], [0.1, 0.2, 0.3, 0.4], j_max=5.0)
        assert kernel_width(ens.j_values, 1.0, "J") == pytest.approx(2.0)
        assert kernel_width(ens.thetas, 0.05, "theta") == pytest.approx(0.2)
        # each width is floored at its axis's grid step: 1 in J, the given step in theta
        ens = ensemble_of([0.0, 0.2, 0.4], [0.1, 0.2, 0.3])
        assert (kernel_width(ens.j_values, 1.0, "J"), kernel_width(ens.thetas, 0.5, "theta")) == (1.0, 0.5)

    def test_invalid_widths(self):
        with pytest.raises(ValueError):
            KernelConfig(0.0, 1.0)

    @pytest.mark.parametrize("s_j, s_theta", [(1.0, -1.0), (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                               (1.0, math.inf)])
    def test_non_finite_or_negative_widths_rejected(self, s_j, s_theta):
        with pytest.raises(ValueError, match="kernel widths must be positive and finite"):
            KernelConfig(s_j, s_theta)

    def test_kernel_width_is_per_axis(self):
        assert kernel_width(np.array([0.5, 3.0, 0.5, 1.0]), 1.0, "J") == 2.0 * 1.25
        assert kernel_width(np.array([0.5, 3.0, 0.5, 1.0]), 4.0, "J") == 4.0
        with pytest.raises(ValueError, match="every record has the same J, so no J kernel width"):
            kernel_width(np.array([3.0, 3.0, 3.0]), 1.0, "J")
        with pytest.raises(ValueError, match="every record has the same J"):
            kernel_width(ensemble_of([2.0, 2.0], [0.1, 0.2], j_max=5.0).j_values, 1.0, "J")
        with pytest.raises(ValueError, match="every record has the same theta"):
            kernel_width(ensemble_of([1.0, 2.0], [0.1, 0.1], j_max=5.0).thetas, 0.01, "theta")

    @pytest.mark.parametrize("seed", range(4))
    def test_kernel_width_equals_the_np_unique_form(self, seed):
        # repeats, and -0.0 next to 0.0, which np.unique counts as one value
        rng = np.random.default_rng(seed)
        values = np.concatenate([rng.integers(-5, 6, 40) * 0.25, [-0.0, 0.0, -0.0], rng.random(20)])
        rng.shuffle(values)
        assert kernel_width(values, 0.0, "J") == 2.0 * float(np.mean(np.diff(np.unique(values))))
        assert kernel_width(values.reshape(7, 9), 0.0, "J") == kernel_width(values, 0.0, "J")


class TestGibbsWarning:
    def test_concentrated_ensemble_warns(self):
        ens = ensemble_of([10.0] * 50, np.full(50, 2.8), j_max=40.0)
        with pytest.warns(GibbsOscillationWarning):
            fit_legendre_df(ens, 20, 20)


class TestTrajectoryIO:
    def test_round_trip(self, rng):
        ens = smooth_ensemble(rng, count=50, sigma_r=2.5)
        buf = io.StringIO()
        save_trajectories(ens, buf)
        back = load_trajectories(buf.getvalue().encode())
        assert back.sigma_r == ens.sigma_r
        assert back.j_max == ens.j_max
        assert np.array_equal(back.weights, ens.weights)
        assert np.array_equal(back.j_values, ens.j_values)
        assert np.allclose(back.thetas, ens.thetas, atol=1e-12)

    def test_synth_ensemble_reloads_with_theta_within_one_ulp(self):
        """The file holds degrees and the loader converts back to radians, so
        theta can come back 1 ulp off; weights and J come back exact."""
        ens = parse_model_file(b"kind = classical\njmax = 40\ncbranch = 1.0 3.14159 -3.14159\n"
                               b"noise = 0.08\ncount = 5000\nseed = 1\nsigma_r = 1.0\n").generate()
        buf = io.StringIO()
        save_trajectories(ens, buf)
        back = load_trajectories(buf.getvalue().encode())
        assert np.array_equal(back.weights, ens.weights) and np.array_equal(back.j_values, ens.j_values)
        assert np.all(np.nextafter(ens.thetas, -np.inf) <= back.thetas)
        assert np.all(back.thetas <= np.nextafter(ens.thetas, np.inf))

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError, match="sigma_r"):
            load_trajectories(b"# j_max = 5\n1.0 2.0 30.0\n")

    def test_malformed_record_rejected(self):
        text = b"# sigma_r = 1\n# j_max = 5\n1.0 2.0\n"
        with pytest.raises(ValueError, match="line 3"):
            load_trajectories(text)

    @pytest.mark.parametrize("record", [b"nan 2.0 30.0", b"1.0 nan 30.0", b"1.0 2.0 -inf"])
    def test_non_finite_record_rejected(self, record):
        with pytest.raises(ValueError, match="line 4"):
            load_trajectories(b"# sigma_r = 1\n# j_max = 5\n1.0 1.0 10.0\n" + record + b"\n")

    @pytest.mark.parametrize("header,message", [
        (b"# sigma_r = abc\n# j_max = 5\n", "line 1: bad sigma_r value 'abc'"),
        (b"# sigma_r = 1\n# j_max = 5x\n", "line 2: bad j_max value '5x'"),
    ])
    def test_bad_header_value_names_line(self, header, message):
        with pytest.raises(ValueError) as excinfo:
            load_trajectories(header + b"1.0 2.0 30.0\n")
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("line, name", [
        (b"# sigma_r 1.0", "sigma_r"), (b"#j_max: 5", "j_max"),
    ])
    def test_malformed_header_line_names_it(self, line, name):
        with pytest.raises(ValueError) as excinfo:
            load_trajectories(b"# sigma_r = 1\n# j_max = 5\n" + line + b"\n1.0 2.0 30.0\n")
        assert str(excinfo.value) == f"line 3: malformed '# {name}' line"

    @pytest.mark.parametrize("extra, line, key", [
        (b"# sigma_r = 5.0\n", 3, "sigma_r"),
        (b"# note\n#j_max=5\n", 4, "j_max"),
    ])
    def test_duplicate_header_line_fails_on_the_later_line(self, extra, line, key):
        with pytest.raises(ValueError) as excinfo:
            load_trajectories(b"# sigma_r = 1\n# j_max = 5\n" + extra + b"1.0 2.0 30.0\n")
        assert str(excinfo.value) == f"line {line}: duplicate '# {key}' line"

    def test_earlier_bad_record_comes_before_a_bad_header_line(self):
        with pytest.raises(ValueError, match="^line 3: expected 'w J theta_deg'$"):
            load_trajectories(b"# sigma_r = 1\n# j_max = 5\n1.0 2.0\n#j_max: 5\n")

    def test_header_lines_that_parse_and_comments_that_only_look_alike(self):
        text = (b"#sigma_r=2\n#  j_max   =   5  \n#n_tot 2   10\n# n_tot 2 abc\n"
                b"# n_totals 7\n# sigma_r_note: ignored\n1.0 2.0 30.0\n")
        ens = load_trajectories(text)  # '# n_tot' lines are comments
        assert (ens.sigma_r, ens.j_max) == (2.0, 5.0)

    @pytest.mark.parametrize("lines", [
        b"# n_tot 2", b"# n_tot 2 abc", b"# n_tot 2 10abc", b"# n_tot -2 10",
        b"# n_tot 2 10 3", b"# n_tot 2 10 trajectories", b"# n_tot 2 10\n# n_tot 3 4\n# n_tot 02 11",
    ])
    def test_an_n_tot_line_of_any_form_is_a_comment(self, lines):
        header, records = b"# sigma_r = 1\n# j_max = 5\n", b"1.0 2.0 30.0\n0.5 4.0 120.0\n"
        plain = load_trajectories(header + records)
        for text in (header + lines + b"\n" + records, header + records + lines + b"\n"):
            ens = load_trajectories(text)
            assert (ens.sigma_r, ens.j_max) == (plain.sigma_r, plain.j_max)
            for name in ("weights", "j_values", "thetas"):
                assert np.array_equal(getattr(ens, name), getattr(plain, name))

    def test_a_saved_ensemble_has_no_n_tot_line(self, rng):
        buf = io.StringIO()
        save_trajectories(smooth_ensemble(rng, count=5), buf)
        assert not [line for line in buf.getvalue().splitlines() if line.startswith("# n_tot")]

    @pytest.mark.parametrize("header, line, key", [
        (b"# sigma_r = 1.0 junk\n# j_max = 5\n", 1, "sigma_r"),
        (b"# sigma_r = 1.0\n# j_max = 5 (rounded up)\n", 2, "j_max"),
    ])
    def test_header_line_with_tokens_after_its_form_is_rejected(self, header, line, key):
        with pytest.raises(ValueError) as excinfo:
            load_trajectories(header + b"1.0 2.0 30.0\n")
        assert str(excinfo.value) == f"line {line}: malformed '# {key}' line"


class TestValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            ensemble_of([1.0], [1.0], w=[-0.5])

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            ensemble_of([1.0], [3.5])

    def test_j_above_jmax(self):
        with pytest.raises(ValueError):
            ensemble_of([6.0], [1.0], j_max=5.0)

    @pytest.mark.parametrize("j_max", [2.0**30 + 256, 1e300, np.inf, np.nan, 0.0, -1.0])
    def test_j_max_not_in_0_to_2_30_rejected(self, j_max):
        # the S-matrix header's bound on J_max: the arrays a j_max sizes stay indexable
        with pytest.raises(ValueError, match=r"^j_max must be positive and at most 2\^30$") as excinfo:
            TrajectoryEnsemble(np.ones(1), np.ones(1), np.ones(1), 1.0, j_max)
        assert excinfo.value.item == "j_max"
        assert TrajectoryEnsemble(np.ones(1), np.ones(1), np.ones(1), 1.0, 2.0**30).j_max == 2**30

    @pytest.mark.parametrize("j,theta", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0)])
    def test_non_finite_j_or_theta_rejected(self, j, theta):
        with pytest.raises(ValueError):
            ensemble_of([j], [theta], j_max=5.0)

    def test_zero_weight_sum_blocks_estimators(self):
        ens = ensemble_of([1.0, 2.0], [0.5, 0.6], w=[0.0, 0.0], j_max=4.0)
        with pytest.raises(ValueError, match="weight"):
            fit_legendre_df(ens, 2, 2)
