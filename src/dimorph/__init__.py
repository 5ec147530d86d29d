"""Trait evolution in two-sex populations.

Exact stochastic simulation of the individual-based model, deterministic
solvers for the trait-resolved and total-mass systems, persistence and
extinction classification, and the stability lab computing the common
limiting trait distribution of males and females.

The names below load on first use (PEP 562): `import dimorph` costs
nothing beyond this file, and `dimorph.fixed_point` imports only the
modules `stability` needs.
"""

import importlib

# exported name -> the submodule it lives in
_EXPORTS = {name: module for module, names in (
    ("errors", "ConfigError ConvergenceFailure DegenerateRow DimorphError ExtinctionDetected "
               "GridMismatch InsufficientReplicas IoError MassMismatch "
               "MeanConditionError NoConvergence NonFiniteState StepRejected UnsupportedKernel "
               "ZeroMass"),
    ("measures", "GridMeasure TraitGrid gaussian_measure measure_from_samples moment normalize "
                 "point_mass total_mass total_variation uniform_measure wasserstein1"),
    ("kernels", "AdditiveNoiseKernel CustomDensityKernel GaussianNoise HypothesisReport "
                "InheritanceKernel MultiplicativeNoiseKernel NoiseDensity SamplerKernel "
                "TabulatedNoise UniformNoise birth_operator check_hypotheses"),
    ("totals", "Classification RateSet StationaryResult TotalsState classify integrate_totals "
               "stationary_point totals_rhs"),
    ("stepping", "SolverConfig"),
    ("macro", "MacroState coupled_full_run integrate integrate_normalized"),
    ("ibm", "BufferedRng IbmParams IbmTrajectory simulate"),
    ("stability", "ConvergenceReport FixedPointResult LlnErrorTable convergence_report "
                  "fixed_point limiting_mean lln_compare"),
) for name in names.split()}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS.values():  # the submodules holding exports, as `dimorph.macro`
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
