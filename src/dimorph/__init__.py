"""Trait evolution in two-sex populations.

Exact stochastic simulation of the individual-based model, deterministic
solvers for the trait-resolved and total-mass systems, persistence and
extinction classification, and the stability lab computing the common
limiting trait distribution of males and females.
"""

from .errors import (ConfigError, ConvergenceFailure, DegenerateRow, DimorphError,
                     ExtinctionDetected, ExtinctPopulation, GridMismatch,
                     InsufficientReplicas, IoError, MassMismatch, MeanConditionError,
                     NoConvergence, NonFiniteState, StepRejected, UnsupportedKernel,
                     ZeroMass)
from .measures import (GridMeasure, TraitGrid, gaussian_measure,
                       measure_from_samples, moment, normalize, point_mass,
                       total_mass, total_variation, uniform_measure, wasserstein1)
from .kernels import (AdditiveNoiseKernel, CustomDensityKernel, GaussianNoise,
                      HypothesisReport, InheritanceKernel, MultiplicativeNoiseKernel,
                      NoiseDensity, SamplerKernel, TabulatedNoise, UniformNoise,
                      birth_operator, check_hypotheses)
from .totals import (Classification, RateSet, StationaryResult, TotalsState,
                     classify, integrate_totals, stationary_point, totals_rhs)
from .macro import (MacroState, SolverConfig, coupled_full_run, integrate,
                    integrate_normalized, rhs_general)
from .ibm import (BufferedRng, IbmParams, IbmTrajectory,
                  ScaledPopulation, Sex, event_rates, simulate, step)
from .stability import (ConvergenceReport, FixedPointResult, LlnErrorTable,
                        convergence_report, fixed_point, limiting_mean, lln_compare)

__version__ = "0.1.0"
