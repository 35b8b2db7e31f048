"""Quantum and quasiclassical deflection-function analysis of S-matrix data.

The public names load on first use (PEP 562), so `import qdeflect` loads no
numpy and a CLI command loads only the submodules it runs.
"""

import sys
from types import ModuleType

__version__ = "0.1.0"

_SUBMODULE_NAMES = {
    "_text": "InputError",
    "angular": "AngularCurve AngularGrid DeflectionMap default_grid integrate_curve",
    "cqdf": "CqdfCurve PhaseUnwrapError cqdf predicted_scattering_angle unwrap_arg",
    "observables": "dcs opacity partial_cross_section",
    "qct": "KernelConfig TrajectoryEnsemble load_trajectories qct_dcs_legendre qct_df_gaussian qct_df_legendre "
           "qct_sigma_j_gaussian qct_sigma_j_legendre save_trajectories",
    "qmdf": "JWindow integrate_over_theta partial_dcs qmdf_helicity_map qmdf_map random_phase_map smooth_map "
            "sum_over_j",
    "smatrix": "ChannelHeader SMatrixBlock load_smatrix save_smatrix validate_unitarity",
    "synth": "ClassicalBranch ClassicalModel GaussianAmplitude PhaseBranch PhaseModel linear_phase_model "
             "parse_model_file quadratic_phase_model synth_smatrix synth_trajectories",
    "wigner": "wigner_d",
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
