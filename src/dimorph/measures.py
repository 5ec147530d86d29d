"""Discretized finite Borel measures on a uniform 1D trait grid.

A measure is stored as a vector of non-negative cell masses. The metric
used throughout the stability analysis is the 1D Wasserstein distance,
computed from the cumulative distribution function of the signed
difference of two equal-mass measures. The normal CDF maps math.erf over
an array: its callers need O(n) points per grid, and scipy stays off the
import path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import GridMismatch, MassMismatch, ZeroMass

__all__ = [
    "TraitGrid",
    "GridMeasure",
    "moment",
    "mean",
    "variance",
    "wasserstein1",
    "total_variation",
    "normalize",
    "point_mass",
    "uniform_measure",
    "gaussian_measure",
    "measure_from_samples",
    "normal_cdf",
]

#: Absolute tolerance when two masses must agree.
MASS_TOLERANCE = 1e-9


def normal_cdf(x: np.ndarray | float) -> np.ndarray | float:
    """Standard normal CDF, elementwise, from the standard library's math.erf."""
    z = np.asarray(x) / math.sqrt(2.0)
    erf = np.fromiter(map(math.erf, z.ravel().tolist()), float, count=z.size)
    return 0.5 * (1.0 + erf.reshape(z.shape))


@dataclass(frozen=True)
class TraitGrid:
    """Uniform partition of the trait interval [x_min, x_max] into n_cells cells.

    Cell i covers [x_min + i*dx, x_min + (i+1)*dx) and is represented by
    its center. Instances are immutable and hashable.
    """

    x_min: float
    x_max: float
    n_cells: int

    def __post_init__(self) -> None:
        if not -np.inf < self.x_min < self.x_max < np.inf:
            raise ValueError(f"need finite x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if isinstance(self.n_cells, bool) or not isinstance(self.n_cells, Integral) or self.n_cells < 2:
            raise ValueError(f"n_cells must be an integer >= 2, got {self.n_cells!r}")
        edges = np.linspace(self.x_min, self.x_max, self.n_cells + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        edges.flags.writeable = False
        centers.flags.writeable = False
        object.__setattr__(self, "_edges", edges)
        object.__setattr__(self, "_centers", centers)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self._centers

    @property
    def edges(self) -> np.ndarray:
        return self._edges

    def cell_of(self, x: np.ndarray | float) -> np.ndarray | int:
        """Index of the cell containing x; points outside clamp to the boundary cells."""
        idx = np.floor((np.asarray(x) - self.x_min) / self.dx).astype(int)
        idx = np.clip(idx, 0, self.n_cells - 1)
        return idx if idx.ndim else int(idx)

    def contains(self, x: float) -> bool:
        return self.x_min <= x <= self.x_max


@dataclass(frozen=True, eq=False)
class GridMeasure:
    """Finite Borel measure on a TraitGrid: one non-negative mass per cell.

    Immutable after construction; the weight array is copied and frozen.
    Instances compare by identity; use total_variation or wasserstein1 to
    compare contents.
    """

    grid: TraitGrid
    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float).copy()
        if w.shape != (self.grid.n_cells,):
            raise ValueError(
                f"weights length {w.shape} does not match grid with {self.grid.n_cells} cells"
            )
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError(f"weights must be non-negative, min = {float(w.min())}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_mass", float(w.sum()))

    @property
    def mass(self) -> float:
        return self._mass

    def mean(self) -> float:
        return mean(self)

    def variance(self) -> float:
        return variance(self)


def _require_same_grid(a: GridMeasure, b: GridMeasure) -> None:
    if a.grid != b.grid:
        raise GridMismatch(f"grids differ: {a.grid} vs {b.grid}")


def moment(m: GridMeasure, k: int) -> float:
    """Raw k-th moment, sum of center^k * weight, by the midpoint rule."""
    if k < 0:
        raise ValueError("moment order must be a non-negative integer")
    if k == 0:
        return m.mass
    return float(np.sum(m.grid.centers**k * m.weights))


def mean(m: GridMeasure) -> float:
    """First moment of the normalized measure."""
    if m.mass <= 0.0:
        raise ZeroMass("mean undefined for a zero measure")
    return moment(m, 1) / m.mass


def variance(m: GridMeasure) -> float:
    """Second central moment of the normalized measure."""
    mu = mean(m)
    return moment(m, 2) / m.mass - mu * mu


def wasserstein1(a: GridMeasure, b: GridMeasure) -> float:
    """Wasserstein-1 distance between two equal-mass measures.

    Computed as dx * sum(|cdf of the signed difference|). Defined only when
    the total masses agree within MASS_TOLERANCE; raises MassMismatch
    otherwise.
    """
    _require_same_grid(a, b)
    if abs(a.mass - b.mass) > MASS_TOLERANCE:
        raise MassMismatch(
            f"masses differ by {abs(a.mass - b.mass):.3e} (> {MASS_TOLERANCE:.1e}); "
            "transport distance undefined"
        )
    phi = np.cumsum(a.weights - b.weights)
    return float(a.grid.dx * np.sum(np.abs(phi)))


def total_variation(a: GridMeasure, b: GridMeasure) -> float:
    """Total-variation distance, sum of |a_i - b_i| over cells."""
    _require_same_grid(a, b)
    return float(np.sum(np.abs(a.weights - b.weights)))


def normalize(m: GridMeasure) -> tuple[GridMeasure, float]:
    """Split a measure into (probability measure, total mass).

    Raises ZeroMass for the zero measure.
    """
    if m.mass <= 0.0:
        raise ZeroMass("cannot normalize a zero measure")
    return GridMeasure(m.grid, m.weights / m.mass), m.mass


def point_mass(grid: TraitGrid, at: float, mass: float = 1.0) -> GridMeasure:
    """All mass in the cell containing `at`."""
    if not grid.contains(at):
        raise ValueError(f"point {at} lies outside the grid [{grid.x_min}, {grid.x_max}]")
    w = np.zeros(grid.n_cells)
    w[grid.cell_of(at)] = mass
    return GridMeasure(grid, w)


def uniform_measure(grid: TraitGrid, lo: float, hi: float, mass: float = 1.0) -> GridMeasure:
    """Mass spread uniformly over [lo, hi], cell-integrated."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    e = grid.edges
    overlap = np.clip(np.minimum(e[1:], hi) - np.maximum(e[:-1], lo), 0.0, None)
    total = overlap.sum()
    if total <= 0.0:
        raise ValueError(f"[{lo}, {hi}] does not intersect the grid")
    return GridMeasure(grid, mass * overlap / total)


def gaussian_measure(grid: TraitGrid, center: float, sd: float, mass: float = 1.0) -> GridMeasure:
    """Normal distribution binned by exact cell integrals, renormalized to `mass`."""
    if sd <= 0.0:
        raise ValueError("sd must be positive")
    cdf = normal_cdf((grid.edges - center) / sd)
    w = np.diff(cdf)
    total = w.sum()
    if total <= 0.0:
        raise ValueError("distribution has no mass inside the grid")
    return GridMeasure(grid, mass * w / total)


def measure_from_samples(grid: TraitGrid, xs: np.ndarray, atom_mass: float) -> GridMeasure:
    """Empirical measure of atoms binned to grid cells, each of mass `atom_mass`."""
    xs = np.asarray(xs, dtype=float)
    w = np.zeros(grid.n_cells)
    if xs.size:
        np.add.at(w, grid.cell_of(xs), atom_mass)
    return GridMeasure(grid, w)
