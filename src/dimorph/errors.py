"""Exception types shared across the package."""


class DimorphError(Exception):
    """Base class for all package errors."""


class GridMismatch(DimorphError):
    """Two measures live on different grids."""


class MassMismatch(DimorphError):
    """Wasserstein distance requested between measures of unequal mass."""


class ZeroMass(DimorphError):
    """Operation requires strictly positive total mass."""


class DegenerateRow(DimorphError):
    """An inheritance-kernel row has no mass inside the grid."""


class UnsupportedKernel(DimorphError):
    """Kernel does not expose the densities needed by this operation."""


class MeanConditionError(DimorphError):
    """Kernel violates the parental-midpoint mean condition."""


class ExtinctPopulation(DimorphError):
    """No event can occur: the total event rate is zero."""


class StepRejected(DimorphError):
    """The step-size control found no acceptable step above dt / 2**20."""


class NonFiniteState(DimorphError):
    """An accepted time step left a NaN or -inf weight in the state."""


class ConvergenceFailure(DimorphError):
    """Stationary-point solve found no unique root meeting its residual target."""


class NoConvergence(DimorphError):
    """Fixed-point iteration exceeded its iteration budget."""

    def __init__(self, message, last_iterate=None, step_history=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.step_history = step_history


class ExtinctionDetected(DimorphError):
    """Total mass fell below the extinction floor during a persistence-regime run."""


class InsufficientReplicas(DimorphError):
    """Too few replicas per scale for a meaningful comparison."""


class ConfigError(DimorphError):
    """Scenario configuration is invalid; the message names the offending field."""


class IoError(DimorphError):
    """Artifact file could not be written or read."""
