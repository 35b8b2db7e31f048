"""Quantum and quasiclassical deflection-function analysis of S-matrix data.

The public names load on first use (PEP 562), so `import qdeflect` loads no
numpy and a CLI command loads only the submodules it runs.
"""

import sys
from types import ModuleType

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "angular": "AngularCurve AngularGrid DeflectionMap default_grid integrate_curve",
    "cqdf": "CqdfCurve PhaseSequence PhaseUnwrapError cqdf fold_to_observable modified_smatrix "
            "predicted_scattering_angle unwrap_arg",
    "observables": "AmplitudeCurve dcs integral_cross_section opacity partial_cross_section "
                   "scattering_amplitude",
    "qct": "KernelConfig LegendreDF TrajectoryEnsemble fit_legendre_df load_trajectories qct_dcs_legendre "
           "qct_df_gaussian qct_df_legendre qct_opacity qct_sigma_j_gaussian qct_sigma_j_legendre "
           "sample_ell_continuous save_trajectories",
    "qmdf": "JWindow integrate_over_theta j_partial_amplitude partial_dcs qmdf_helicity_map "
            "qmdf_map random_phase_map smooth_map sum_over_j",
    "smatrix": "ChannelHeader SMatrixBlock SMatrixParseError SMatrixValidationError UnitarityReport "
               "load_smatrix save_smatrix validate_unitarity",
    "synth": "ClassicalBranch ClassicalModel GaussianAmplitude PhaseBranch PhaseModel linear_phase_model "
             "parse_model_file quadratic_phase_model synth_smatrix synth_smatrix_helicity synth_trajectories "
             "two_branch_model",
    "wigner": "wigner_d wigner_d_table",
}
# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names.split()}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    # resolved on every access and never stored here, so a wrapper set on
    # the defining submodule (a profiler) is what callers get; __import__ is
    # the import statement's own path, which `python -X importtime` reports
    if name in _EXPORTS:
        return getattr(__import__(_EXPORTS[name], globals(), None, (name,), 1), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


class _Package(ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # importing the submodule qdeflect.cqdf would bind it over the function cqdf
        if not (name in _EXPORTS and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
