import io
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.ndimage import label

from qdeflect import (
    AngularGrid,
    ClassicalBranch,
    ClassicalModel,
    GaussianAmplitude,
    KernelConfig,
    PhaseBranch,
    PhaseModel,
    cqdf,
    linear_phase_model,
    parse_model_file,
    qct_df_gaussian,
    quadratic_phase_model,
    save_smatrix,
    save_trajectories,
    synth_smatrix,
    synth_trajectories,
    validate_unitarity,
)
from qdeflect._text import InputError
from qdeflect.qct import fit_legendre_df
from conftest import random_block, sparse_probe_block
from oracles import scaled_per_entry, synth_smatrix_helicity_per_entry, synth_smatrix_per_entry
from test_amplitude_core import assert_bits


class TestPhaseBlocks:
    def test_blocks_pass_validation(self):
        block = synth_smatrix(quadratic_phase_model(0.02, 30.0, 8.0), 1.0, 60)
        assert validate_unitarity(block) == ()
        assert len(block) == 61

    def test_linear_model_constant_deflection(self):
        c = -0.3
        block = synth_smatrix(linear_phase_model(c, 30.0, 8.0), 1.0, 60)
        curve = cqdf(block, 0, 0)
        assert_allclose(curve.theta_tilde, np.pi + c, atol=1e-12)

    def test_quadratic_model_analytic_derivative(self):
        alpha = 0.02
        block = synth_smatrix(quadratic_phase_model(alpha, 30.0, 8.0), 1.0, 60)
        curve = cqdf(block, 0, 0)
        js = np.arange(61)
        assert_allclose(
            curve.theta_tilde[1:-1], (np.pi - alpha * (2 * js + 1))[1:-1], atol=1e-12
        )

    def test_two_branch_flux_capped(self):
        branches = (
            PhaseBranch(GaussianAmplitude(20.0, 6.0, 1.0), (0.0, -0.2)),
            PhaseBranch(GaussianAmplitude(24.0, 6.0, 1.0), (0.0, -0.35)),
        )
        block = synth_smatrix(PhaseModel(branches), 1.0, 50)
        assert validate_unitarity(block) == ()

    def test_phase_model_rejects_no_branch(self):
        with pytest.raises(ValueError, match="phase model needs at least one branch"):
            PhaseModel(())

    def test_summed_branches_over_unit_modulus_are_rescaled(self):
        # two unit-height branches at one center reach |S| = 2: S^J is divided by its largest modulus
        branch = PhaseBranch(GaussianAmplitude(20.0, 6.0, 1.0), (0.0, -0.2))
        one = synth_smatrix(PhaseModel((branch,)), 1.0, 40)
        two = synth_smatrix(PhaseModel((branch, branch)), 1.0, 40)
        assert np.abs(two.amps).max() == 1.0
        assert_allclose(two.amps, one.amps / np.abs(one.amps).max(), rtol=0, atol=1e-15)
        assert validate_unitarity(two) == ()
        below = ORACLE_MODELS[3]  # a two-branch sum below unit modulus keeps its amplitudes
        js = np.arange(41.0)
        assert_bits(synth_smatrix(below, 1.0, 40).amps,
                    np.zeros(41, complex) + below.branches[0].amplitudes(js) + below.branches[1].amplitudes(js))

    def test_model_error_for_single_branch_overflow(self):
        with pytest.raises(ValueError):
            GaussianAmplitude(20.0, 6.0, 1.2)

    def test_jmax_too_small(self):
        with pytest.raises(ValueError):
            synth_smatrix(linear_phase_model(-0.3, 5.0, 2.0), 1.0, 1)

    def test_helicity_extension_respects_bounds(self):
        block = synth_smatrix(linear_phase_model(-0.5, 10.0, 4.0), 1.0, j_max=20, j_final=2)
        assert block.header.j_final == 2
        assert (1, 0, 2) not in block.entries  # |Omega'| <= min(J, jp)
        assert (2, 0, 2) in block.entries
        assert validate_unitarity(block) == ()

    def test_helicity_phase_offsets(self):
        block = synth_smatrix(
            linear_phase_model(-0.5, 10.0, 4.0), 1.0, j_max=20, j_final=1, phase_offset=0.7
        )
        base = block.entries[(5, 0, 0)]
        up = block.entries[(5, 0, 1)]
        assert up == pytest.approx(base * np.exp(0.7j))

    def test_deterministic_bytes(self):
        model = quadratic_phase_model(0.015, 25.0, 7.0)
        bufs = []
        for _ in range(2):
            block = synth_smatrix(model, 1.3, 40)
            buf = io.StringIO()
            save_smatrix(block, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]


# README's quadratic model, a linear one, a two-branch sum that the flux cap rescales
# and one that stays below unit modulus, so keeps its amplitudes
ORACLE_MODELS = [
    quadratic_phase_model(0.02, 30.0, 8.0),
    linear_phase_model(-0.3, 30.0, 8.0, 0.9),
    PhaseModel((PhaseBranch(GaussianAmplitude(20.0, 6.0, 1.0), (0.0, -0.2)),
                PhaseBranch(GaussianAmplitude(24.0, 6.0, 1.0), (0.0, -0.35)))),
    PhaseModel((PhaseBranch(GaussianAmplitude(15.0, 5.0, 0.45), (0.0, -0.2)),
                PhaseBranch(GaussianAmplitude(35.0, 6.0, 0.5), (0.0, 0.3, -0.004)))),
]


def assert_same_block(got, want):
    assert got.header == want.header
    assert_bits(got.keys, want.keys)
    assert_bits(got.amps, want.amps)
    texts = []
    for block in (got, want):
        save_smatrix(block, buf := io.StringIO())
        texts.append(buf.getvalue())
    assert texts[0] == texts[1]


class TestArrayPathMatchesPerEntryReference:
    @pytest.mark.parametrize("model", ORACLE_MODELS,
                             ids=["quadratic", "linear", "two-branch", "two-branch-below-1"])
    @pytest.mark.parametrize("jp", [0, 1, 2, 5])
    @pytest.mark.parametrize("offset", [0.4, 0.7])
    def test_generator_bits(self, model, jp, offset):
        got = synth_smatrix(model, 1.0, 60, jp, offset)
        assert_same_block(got, synth_smatrix_helicity_per_entry(model, 1.0, jp, 60, offset))
        if jp == 0:
            assert_same_block(synth_smatrix(model, 1.0, 60), synth_smatrix_per_entry(model, 1.0, 60))

    @pytest.mark.parametrize("factor", [np.exp(1.9j), 0.3 - 2.1j], ids=["exp(1.9j)", "0.3-2.1j"])
    def test_scaled_bits(self, factor):
        rng = np.random.default_rng(20)
        blocks = [random_block(rng) for _ in range(6)] + [random_block(rng, j=2, jp=2), sparse_probe_block()]
        for block in blocks:
            assert_same_block(block.scaled(factor), scaled_per_entry(block, factor))


class TestTrajectories:
    def test_single_branch_diagonal_band(self):
        model = ClassicalModel(
            j_max=40.0,
            branches=(ClassicalBranch(1.0, (np.pi, -np.pi)),),  # theta = pi (1 - u)
            noise_width=0.0,
        )
        ens = synth_trajectories(model, 4000, 5)
        assert_allclose(ens.thetas, np.pi * (1.0 - ens.j_values / 40.0), atol=1e-12)
        assert np.all(ens.weights == 1.0)

    def test_two_branch_map_has_two_bands(self):
        model = ClassicalModel(
            j_max=40.0,
            branches=(
                ClassicalBranch(1.0, (2.9, -2.4)),
                ClassicalBranch(1.0, (0.7, 0.9)),
            ),
            noise_width=0.03,
        )
        ens = synth_trajectories(model, 20000, 12)
        dmap = qct_df_gaussian(ens, KernelConfig(1.2, 0.05), AngularGrid.uniform(0.5))
        mask = dmap.values >= 0.1 * dmap.values.max()
        _, n_regions = label(mask)
        assert n_regions == 2

    def test_flat_branch_no_correlation(self):
        model = ClassicalModel(j_max=30.0, isotropic=True)
        ens = synth_trajectories(model, 30000, 3)
        df = fit_legendre_df(ens, 4, 4)
        # alpha_mn ~ a_m b_n scale; rows m >= 1 vanish for isotropic theta
        assert np.abs(df.alpha[1:, :]).max() < 6.0 * 9.0 / np.sqrt(30000)

    def test_deterministic_given_seed(self):
        model = ClassicalModel(
            j_max=20.0, branches=(ClassicalBranch(1.0, (2.0, -1.0)),), noise_width=0.1
        )
        outs = []
        for _ in range(2):
            ens = synth_trajectories(model, 500, 77)
            buf = io.StringIO()
            save_trajectories(ens, buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    def test_count_validation(self):
        with pytest.raises(ValueError):
            synth_trajectories(ClassicalModel(j_max=5.0, isotropic=True), 0)

    def test_negative_noise_width_is_refused_by_name(self):
        with pytest.raises(InputError, match="noise width must be nonnegative") as excinfo:
            ClassicalModel(j_max=20.0, branches=(ClassicalBranch(1.0, (2.0,)),), noise_width=-0.1)
        assert excinfo.value.item == "noise_width"


class TestModelFiles:
    def test_quadratic_spec(self):
        text = """
        kind = quadratic
        k = 1.5
        jmax = 50
        j0 = 25
        w = 7
        h = 0.9
        alpha = 0.01
        """
        spec = parse_model_file(text)
        assert spec.model == quadratic_phase_model(0.01, 25.0, 7.0, 0.9)
        assert spec.k == 1.5
        block = synth_smatrix(spec.model, spec.k, spec.j_max_int)
        assert abs(block.entries[(25, 0, 0)]) == pytest.approx(0.9, rel=1e-12)

    def test_two_branch_spec(self):
        text = """
        kind = two-branch
        jmax = 30
        branch = 0.8 10 4 0.0 -0.2
        branch = 0.8 20 4 0.0 -0.5
        """
        spec = parse_model_file(text)
        assert len(spec.model.branches) == 2
        synth_smatrix(spec.model, 1.0, spec.j_max_int)

    # the kind names a set of branches: the file's block is synth_smatrix of those branches
    @pytest.mark.parametrize("text, model, args", [
        ("kind = linear\nk = 1.2\njmax = 40\nj0 = 18\nw = 6\nh = 0.8\nc = -0.45\njp = 2\nphase_offset = 0.7\n",
         PhaseModel((PhaseBranch(GaussianAmplitude(18.0, 6.0, 0.8), (0.0, -0.45 / 2)),)), (1.2, 40, 2, 0.7)),
        ("kind = quadratic\njmax = 50\nj0 = 25\nw = 7\nalpha = 0.01\njp = 1\n",
         PhaseModel((PhaseBranch(GaussianAmplitude(25.0, 7.0, 1.0), (0.0, -0.01 / 2, -0.01 / 2)),)), (1.0, 50, 1, 0.4)),
        ("kind = two-branch\njmax = 60\njp = 1\nbranch = 1.0 20 6 0 -0.2\nbranch = 1.0 24 6 0 -0.35\n",
         PhaseModel((PhaseBranch(GaussianAmplitude(20.0, 6.0, 1.0), (0.0, -0.2)),
                     PhaseBranch(GaussianAmplitude(24.0, 6.0, 1.0), (0.0, -0.35)))), (1.0, 60, 1, 0.4)),
    ], ids=["linear", "quadratic", "two-branch"])
    def test_kind_is_shorthand_for_its_branches(self, text, model, args):
        spec = parse_model_file(text)
        assert spec.model == model
        assert_same_block(spec.generate(), synth_smatrix(model, *args))

    def test_classical_spec(self):
        text = """
        kind = classical
        jmax = 25
        cbranch = 1.0 2.9 -2.4
        cbranch = 0.5 0.7 0.9
        noise = 0.05
        count = 150
        seed = 4
        sigma_r = 2.0
        """
        spec = parse_model_file(text)
        ens = synth_trajectories(spec.model, spec.count, spec.seed)
        assert len(ens) == 150
        assert ens.sigma_r == 2.0

    @pytest.mark.parametrize(
        "kind, line",
        [("two-branch", "branch = 0.8 10"), ("two-branch", "branch = 0.8 10 4"),
         ("two-branch", "branch = 0.8 x 4 0.0"), ("classical", "cbranch = 1.0"),
         ("classical", "cbranch =")],
    )
    def test_malformed_branch_line_names_line(self, kind, line):
        text = f"kind = {kind}\njmax = 30\n{line}\nbranch = 0.8 20 4 0.0 -0.5\n"
        with pytest.raises(ValueError, match="line 3"):
            parse_model_file(text)

    def test_path_is_a_file_and_str_or_bytes_is_text(self, tmp_path):
        text = "kind = linear\njmax = 12\n"
        path = tmp_path / "model.txt"
        path.write_text(text)
        for source in (path, text, text.encode()):
            assert parse_model_file(source).j_max_int == 12
        with pytest.raises(ValueError, match="line 1"):
            parse_model_file(str(path))  # a str is spec text, never a file name

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            parse_model_file("kind = cubic\njmax = 5\n")

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            parse_model_file("jmax = 5\n")


class TestModelFileLines:
    @pytest.mark.parametrize("text, line, match", [
        ("kind = linear\njmax = abc\n", 2, "bad jmax value 'abc'"),
        ("kind = classical\njmax = 20\ncbranch = 1 2\nisotropic = yes\n", 4, "isotropic"),
        ("kind = linear\n\njmax = nan\n", 3, "jmax"),
        ("kind = linear\njmax = 20\nw = -1\n", 3, "width"),
        ("kind = classical\njmax = -5\ncbranch = 1 2\n", 2, "j_max"),
        ("kind = classical\njmax = 20\ncbranch = -1 2\n", 3, "weight"),
        ("kind = classical\njmax = 20\ncbranch = 1 inf\n", 3, "bad cbranch value .inf."),
        ("kind = cubic\n", 1, "kind"),
        ("kind = classical\njmax = 20\ncbranch = 1 2\nisotropic = 0.5\n", 4, "isotropic must be 0 or 1"),
        ("kind = classical\njmax = 20\nisotropic = 2\n", 3, "isotropic must be 0 or 1"),
        ("kind = classical\nisotropic = -1\njmax = 20\ncbranch = 1 2\n", 2, "isotropic must be 0 or 1"),
        ("kind = quadratic\njmax = 20\njp = -2\nalpha = 0.01\n", 3, "j_final must be nonnegative"),
        ("kind = quadratic\njmax = 20\njp = 1e30\n", 3, r"j_final must be nonnegative and at most 2\^30"),
        ("kind = linear\njmax = 1073741825\n", 2, r"J_max must be nonnegative and at most 2\^30"),
        ("kind = classical\njmax = 20\ncbranch = 0 1\ncbranch = 0.0 2\n", 3, "branch weights must not all vanish"),
        ("kind = classical\njmax = 20\ncbranch = 1 2\nseed = -1\n", 4, "seed must be nonnegative"),
    ])
    def test_rejected_value_names_its_line(self, text, line, match):
        with pytest.raises(ValueError, match=match) as excinfo:
            parse_model_file(text).generate()  # a fault the header finds shows when the block is built
        assert excinfo.value.line == line
        assert str(excinfo.value).startswith(f"line {line}: ")

    @pytest.mark.parametrize("text, line, match", [
        ("kind = linear\njmax = 20\njmax = 40\n", 3, "duplicate 'jmax =' line"),
        ("kind = linear\nkind = classical\njmax = 20\n", 2, "duplicate 'kind =' line"),
        ("kind = linear\nc = 0.1\njmax = 20\n# note\nc = 0.2\n", 5, "duplicate 'c =' line"),
        ("kind = classical\njmax = 20\ncbranch = 1 2\nseed = 1\nSEED = 2\n", 5, "duplicate 'seed =' line"),
    ])
    def test_repeated_key_fails_on_its_later_line(self, text, line, match):
        with pytest.raises(ValueError, match=match) as excinfo:
            parse_model_file(text)
        assert excinfo.value.line == line

    def test_branch_lines_repeat(self):
        spec = parse_model_file("kind = classical\njmax = 20\ncbranch = 1 2\ncbranch = 1 3\ncbranch = 1 4\n")
        assert len(spec.model.branches) == 3

    @pytest.mark.parametrize("text, line, match", [
        ("kind = quadratic\njmax = 20\nalhpa = 0.5\n", 3, "kind quadratic does not read 'alhpa ='"),
        ("kind = linear\njmax = 20\nalpha = 0.5\n", 3, "kind linear does not read 'alpha ='"),
        ("kind = quadratic\nc = -0.4\njmax = 20\n", 2, "kind quadratic does not read 'c ='"),
        ("jmax = 20\nk = 1.0\nkind = classical\ncbranch = 1 2\n", 2, "kind classical does not read 'k ='"),
        ("kind = classical\njmax = 20\nbranch = 0.8 10 4 0.1\ncbranch = 1 2\n", 3,
         "kind classical does not read 'branch ='"),
        ("kind = two-branch\njmax = 30\nbranch = 0.8 10 4 0.1\nbranch = 0.8 20 4 0.1\nj0 = 3\n", 5,
         "kind two-branch does not read 'j0 ='"),
        ("kind = linear\njmax = 20\ncount = 10\nnoise = 0.1\n", 3, "kind linear does not read 'count ='"),
    ])
    def test_key_the_kind_does_not_read_fails_on_its_line(self, text, line, match):
        with pytest.raises(ValueError, match=match) as excinfo:
            parse_model_file(text)
        assert excinfo.value.line == line
        assert str(excinfo.value).startswith(f"line {line}: ")

    @pytest.mark.parametrize("text, line, key", [
        ("kind = quadratic\njmax = 60.7\n", 2, "jmax"),
        ("kind = quadratic\njmax = 20\njp = 2.5\n", 3, "jp"),
        ("kind = linear\nseed = 2.7\njmax = 20\n", 2, "seed"),
        ("kind = classical\njmax = 20\ncbranch = 1 2\ncount = 10.9\n", 4, "count"),
        ("kind = classical\nseed = 1e-3\ncbranch = 1 2\n", 2, "seed"),
    ])
    def test_non_integral_integer_key_fails_on_its_line(self, text, line, key):
        with pytest.raises(ValueError, match=f"line {line}: '{key} =' must be an integer") as excinfo:
            parse_model_file(text)
        assert excinfo.value.line == line

    def test_integral_floats_and_a_real_classical_jmax_are_read(self):
        spec = parse_model_file("kind = quadratic\njmax = 20.0\njp = 2e0\nseed = 3.0\n")
        assert (spec.j_max_int, spec.j_final, spec.seed) == (20, 2, 3)
        spec = parse_model_file("kind = classical\njmax = 20.5\ncbranch = 1 2\ncount = 1e1\n")
        assert (spec.model.j_max, spec.count) == (20.5, 10)

    @pytest.mark.parametrize("text, line", [
        ("kind = linear\njmax = 1\n", 2),
        ("kind = linear\njmax = 20\nk = -1\n", 3),
        ("kind = classical\njmax = 20\ncbranch = 1 2\ncount = 0\n", 4),
        ("kind = classical\njmax = 20\ncbranch = 1 2\nsigma_r = -1\n", 4),
        # the header's faults come before an offset phase that overflows
        ("kind = quadratic\njmax = 10\njp = 2\nphase_offset = 1e308\nk = -1\n", 5),
        ("kind = quadratic\njmax = 10\nphase_offset = 1e308\njp = -2\n", 4),
    ])
    def test_generation_error_names_the_key_line(self, text, line):
        spec = parse_model_file(text)
        with pytest.raises(ValueError) as excinfo:
            spec.generate()
        assert excinfo.value.line == line

    @pytest.mark.parametrize("text, line, J", [
        ("kind = linear\njmax = 10\nc = 1e308\nk = 1.0\n", 3, 2),
        ("kind = quadratic\nalpha = 1e308\njmax = 10\n", 2, 1),
        ("kind = quadratic\njmax = 10\njp = 2\nphase_offset = 1e308\n", 4, 2),
        ("kind = two-branch\njmax = 10\nbranch = 0.5 3 2 0 1e308\nbranch = 0.5 3 2 0 1\n", 3, 1),
        ("kind = two-branch\njmax = 10\nbranch = 0.5 3 2 0 1\nbranch = 0.5 3 2 0 1e308\n", 4, 1),
    ])
    def test_overflowing_phase_names_its_key_line(self, text, line, J):
        spec = parse_model_file(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning escapes
            with pytest.raises(ValueError) as excinfo:
                spec.generate()
        assert str(excinfo.value) == f"line {line}: the phase overflows: amplitude at J={J} is not finite"
