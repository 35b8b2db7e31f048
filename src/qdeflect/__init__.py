"""Quantum and quasiclassical deflection-function analysis of S-matrix data."""

__version__ = "0.1.0"

from .angular import AngularGrid, default_grid, integrate_curve
from .cqdf import (
    CqdfCurve,
    PhaseSequence,
    PhaseUnwrapError,
    cqdf,
    fold_to_observable,
    modified_smatrix,
    predicted_scattering_angle,
    unwrap_arg,
)
from .observables import (
    AmplitudeCurve,
    AngularCurve,
    dcs,
    integral_cross_section,
    opacity,
    partial_cross_section,
    scattering_amplitude,
)
from .qct import (
    KernelConfig,
    LegendreDF,
    TrajectoryEnsemble,
    fit_legendre_df,
    load_trajectories,
    qct_dcs_legendre,
    qct_df_gaussian,
    qct_df_legendre,
    qct_opacity,
    qct_sigma_j_gaussian,
    qct_sigma_j_legendre,
    sample_ell_continuous,
    save_trajectories,
)
from .qmdf import (
    DeflectionMap,
    JWindow,
    integrate_over_theta,
    j_partial_amplitude,
    partial_dcs,
    qmdf_helicity_map,
    qmdf_map,
    random_phase_map,
    smooth_map,
    sum_over_j,
)
from .smatrix import (
    ChannelHeader,
    SMatrixBlock,
    SMatrixParseError,
    SMatrixValidationError,
    UnitarityReport,
    load_smatrix,
    save_smatrix,
    validate_unitarity,
)
from .synth import (
    ClassicalBranch,
    ClassicalModel,
    GaussianAmplitude,
    PhaseBranch,
    PhaseModel,
    linear_phase_model,
    parse_model_file,
    quadratic_phase_model,
    synth_smatrix,
    synth_smatrix_helicity,
    synth_trajectories,
    two_branch_model,
)
from .wigner import wigner_d, wigner_d_table
