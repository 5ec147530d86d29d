"""Trait-inheritance kernels and the bilinear birth operator.

A kernel maps a parent trait pair (x, y) to the offspring trait law. The
built-in families place the offspring at the parental midpoint plus
additive noise, or at the parental sum scaled by a [0, 1] random factor
of mean one half. Both keep the expected offspring trait equal to the
parental midpoint, which is what the stability analysis relies on.

Rows are discretized by exact cell integrals of the noise CDF, truncated
to the grid and renormalized to unit mass. The birth operator pushes the
product of two measures through the kernel; for the built-in families it
runs in O(n^2) via the parent-sum convolution against a row table cached
per grid. Every other kernel runs the direct tensor contraction, which
the tests also keep as the slow reference for the fast path. The cell
edges of every additive row sit on one half-cell lattice of offsets from
the row center, so that table is gathered from one vector of noise cell
masses: the noise CDF at 4n - 1 points.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateRow, GridMismatch, UnsupportedKernel
from .measures import GridMeasure, TraitGrid, gaussian_measure, normal_cdf

__all__ = [
    "NoiseDensity",
    "GaussianNoise",
    "UniformNoise",
    "TabulatedNoise",
    "InheritanceKernel",
    "AdditiveNoiseKernel",
    "MultiplicativeNoiseKernel",
    "CustomDensityKernel",
    "SamplerKernel",
    "birth_operator",
    "birth_weights",
    "check_hypotheses",
    "condition_i_contribution",
    "HypothesisReport",
    "ConditionTwoFit",
    "tabulated_kernel_from_csv",
]

# Rows whose in-grid mass falls below this are degenerate.
_MIN_INSIDE = 1e-12

# Truncated tail mass above this triggers a diagnostic warning.
TAIL_MASS_REPORT_THRESHOLD = 1e-6

# Degenerate rows may absorb at most this fraction of the product mass;
# matches the birth operator's mass postcondition tolerance.
DEGENERATE_MASS_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# Noise densities


class NoiseDensity:
    """Probability density of the inheritance noise.

    Subclasses provide a vectorized CDF, exact first and second moments,
    and a sampler drawing one variate from an rng exposing the numpy
    Generator interface.
    """

    mean: float
    second_moment: float
    support: tuple[float, float]

    def cdf(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def sample(self, rng) -> float:
        raise NotImplementedError


class GaussianNoise(NoiseDensity):
    """Zero-mean normal noise with standard deviation sigma."""

    def __init__(self, sigma: float):
        if sigma <= 0.0:
            raise ValueError("sigma must be positive")
        self.sigma = float(sigma)
        self.mean = 0.0
        self.second_moment = self.sigma**2
        self.support = (-np.inf, np.inf)

    def cdf(self, x):
        return normal_cdf(np.asarray(x) / self.sigma)

    def sample(self, rng) -> float:
        return float(rng.normal(0.0, self.sigma))

    def __repr__(self):
        return f"GaussianNoise(sigma={self.sigma})"


class UniformNoise(NoiseDensity):
    """Uniform noise on [lo, hi]."""

    def __init__(self, lo: float, hi: float):
        if not lo < hi:
            raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
        self.lo = float(lo)
        self.hi = float(hi)
        self.mean = 0.5 * (lo + hi)
        self.second_moment = (lo * lo + lo * hi + hi * hi) / 3.0
        self.support = (self.lo, self.hi)

    def cdf(self, x):
        return np.clip((np.asarray(x) - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def sample(self, rng) -> float:
        return float(rng.uniform(self.lo, self.hi))

    def __repr__(self):
        return f"UniformNoise({self.lo}, {self.hi})"


class TabulatedNoise(NoiseDensity):
    """Noise density tabulated on its own knot grid, linearly interpolated.

    The tabulated values must integrate to one within 1e-6 by the
    trapezoid rule; they are then renormalized exactly.
    """

    def __init__(self, z: np.ndarray, pdf: np.ndarray):
        z = np.asarray(z, dtype=float)
        pdf = np.asarray(pdf, dtype=float)
        if z.ndim != 1 or z.shape != pdf.shape or z.size < 2:
            raise ValueError("z and pdf must be matching 1D arrays with >= 2 knots")
        if np.any(np.diff(z) <= 0):
            raise ValueError("z knots must be strictly increasing")
        if np.any(pdf < 0):
            raise ValueError("pdf values must be non-negative")
        total = float(np.trapezoid(pdf, z))
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"density integrates to {total}, expected 1 within 1e-6")
        pdf = pdf / total
        self.z = z
        self.pdf = pdf
        seg = 0.5 * (pdf[:-1] + pdf[1:]) * np.diff(z)
        self._cum = np.concatenate(([0.0], np.cumsum(seg)))
        self._cum /= self._cum[-1]
        self.mean = float(np.trapezoid(z * pdf, z))
        self.second_moment = float(np.trapezoid(z * z * pdf, z))
        self.support = (float(z[0]), float(z[-1]))

    def cdf(self, x):
        return np.interp(np.asarray(x), self.z, self._cum, left=0.0, right=1.0)

    def sample(self, rng) -> float:
        return float(np.interp(rng.random(), self._cum, self.z))

    def __repr__(self):
        return f"TabulatedNoise({self.z.size} knots on [{self.z[0]}, {self.z[-1]}])"


# ---------------------------------------------------------------------------
# Kernels


@dataclass(frozen=True)
class _SumRowTable:
    """Per-grid cache of kernel rows indexed by the parent-sum lattice."""

    matrix: np.ndarray  # (2n-1, n) unit-sum row masses, zero where degenerate
    degenerate: np.ndarray  # 1.0 on rows without in-grid mass, else 0.0
    tails: np.ndarray  # truncated mass per row, zero where degenerate


class InheritanceKernel:
    """Offspring-trait law k(x, y, dz) with sampling and discretized rows."""

    #: rows depend on (x, y) only through x + y, enabling the fast birth path
    sum_structured: bool = False

    def __init__(self):
        self._tables: dict[TraitGrid, _SumRowTable] = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_tables"] = {}
        return state

    # -- discretized rows ---------------------------------------------------

    def row_masses(self, x: float, y: float, grid: TraitGrid) -> np.ndarray:
        """Unit-sum cell masses of k(x, y, .), truncated and renormalized."""
        masses, _ = self.row_masses_with_tail(x, y, grid)
        return masses

    def row_masses_with_tail(self, x: float, y: float, grid: TraitGrid):
        raise UnsupportedKernel(f"{type(self).__name__} has no density rows")

    def density_row(self, x: float, y: float, grid: TraitGrid) -> np.ndarray:
        """Cell-averaged density of k(x, y, .); sums to 1/dx per cell width."""
        return self.row_masses(x, y, grid) / grid.dx

    # -- sampling -----------------------------------------------------------

    def sample_offspring(self, x: float, y: float, rng) -> float:
        raise UnsupportedKernel(f"{type(self).__name__} has no sampler")

    # -- internals ----------------------------------------------------------

    def _table(self, grid: TraitGrid) -> _SumRowTable:
        """Rows of a sum-structured kernel for the parent sums 2 x_min + (k + 1) dx,
        from its _lattice_rows(grid) -> (rows, tails), tails NaN where degenerate."""
        table = self._tables.get(grid)
        if table is None:
            matrix, tails = self._lattice_rows(grid)
            bad = np.isnan(tails)
            matrix[bad] = 0.0
            tails[bad] = 0.0
            table = _SumRowTable(matrix, bad.astype(float), tails)
            self._tables[grid] = table
        return table

    def safe_parent_window(self, grid: TraitGrid) -> tuple[float, float]:
        """Parent-trait range on which discretized rows are essentially untruncated."""
        return (grid.x_min, grid.x_max)


def _truncate_renormalize(raw: np.ndarray):
    """Row masses from raw in-grid cell masses; returns (rows, tails).

    raw has shape (..., n_cells) with total in-grid mass <= 1 per row.
    Degenerate rows (no in-grid mass) get tail NaN.
    """
    inside = raw.sum(axis=-1)
    tails = 1.0 - inside
    bad = inside <= _MIN_INSIDE
    safe = np.where(bad, 1.0, inside)
    rows = raw / safe[..., None]
    tails = np.where(bad, np.nan, tails)
    return rows, tails


class AdditiveNoiseKernel(InheritanceKernel):
    """Offspring trait = (x + y)/2 + Z with zero-mean noise Z."""

    sum_structured = True

    def __init__(self, noise: NoiseDensity):
        super().__init__()
        if abs(noise.mean) > 1e-9:
            raise ValueError(f"additive noise must have zero mean, got {noise.mean}")
        self.noise = noise

    def _lattice_rows(self, grid):
        # edge i sits at offset (2i - k - 1) dx/2 from the center of row k,
        # so row k, cell j holds g[2j - k + 2n - 2], the noise mass between
        # the half-cell offsets 2j - k - 2 and 2j - k (counted from 1 - 2n)
        n = grid.n_cells
        c = self.noise.cdf(0.5 * grid.dx * np.arange(1 - 2 * n, 2 * n))
        g = c[2:] - c[:-2]
        return _truncate_renormalize(sliding_window_view(g, 2 * n - 1)[::-1, ::2])

    def row_masses_with_tail(self, x, y, grid):
        row, tail = _truncate_renormalize(np.diff(self.noise.cdf(grid.edges - 0.5 * (x + y))))
        if np.isnan(tail):
            raise DegenerateRow(f"row for parents ({x}, {y}) has no mass inside the grid")
        return row, float(tail)

    def sample_offspring(self, x, y, rng) -> float:
        return 0.5 * (x + y) + self.noise.sample(rng)

    def safe_parent_window(self, grid):
        span = grid.x_max - grid.x_min
        margin = min(span / 3.0, 6.0 * np.sqrt(self.noise.second_moment))
        return (grid.x_min + margin, grid.x_max - margin)

    def __repr__(self):
        return f"AdditiveNoiseKernel({self.noise!r})"


class MultiplicativeNoiseKernel(InheritanceKernel):
    """Offspring trait = (x + y) * Z with Z in [0, 1] of mean one half.

    Defined for non-negative traits; at x + y = 0 the row degenerates to a
    point mass at zero, the limit of the scaled law.
    """

    sum_structured = True

    def __init__(self, noise: NoiseDensity):
        super().__init__()
        lo, hi = noise.support
        if lo < -1e-12 or hi > 1.0 + 1e-12:
            raise ValueError(f"multiplicative noise support must lie in [0, 1], got {noise.support}")
        if abs(noise.mean - 0.5) > 1e-9:
            raise ValueError(f"multiplicative noise must have mean 1/2, got {noise.mean}")
        self.noise = noise

    def _rows(self, sums, grid):
        """Rows and tails for an array of parent sums."""
        if grid.x_min < 0.0:
            raise ValueError("multiplicative kernel requires a non-negative trait grid")
        sums = np.atleast_1d(np.asarray(sums, dtype=float))
        if np.any(sums < 0):
            raise ValueError("parent sums must be non-negative")
        pos = np.where(sums > 0, sums, 1.0)
        cdf = self.noise.cdf(grid.edges[None, :] / pos[:, None])
        rows, tails = _truncate_renormalize(np.diff(cdf, axis=1))
        zero = sums == 0
        if zero.any():
            if not grid.contains(0.0):
                tails = np.where(zero, np.nan, tails)
                rows = np.where(zero[:, None], 0.0, rows)
            else:
                delta = np.zeros(grid.n_cells)
                delta[grid.cell_of(0.0)] = 1.0
                rows = np.where(zero[:, None], delta[None, :], rows)
                tails = np.where(zero, 0.0, tails)
        return rows, tails

    def _lattice_rows(self, grid):
        n = grid.n_cells
        return self._rows(2.0 * grid.x_min + (np.arange(2 * n - 1) + 1.0) * grid.dx, grid)

    def row_masses_with_tail(self, x, y, grid):
        if x < 0 or y < 0:
            raise ValueError("multiplicative kernel requires non-negative parent traits")
        rows, tails = self._rows(np.array([x + y]), grid)
        if np.isnan(tails[0]):
            raise DegenerateRow(f"row for parents ({x}, {y}) has no mass inside the grid")
        return rows[0], float(tails[0])

    def sample_offspring(self, x, y, rng) -> float:
        return (x + y) * self.noise.sample(rng)

    def safe_parent_window(self, grid):
        # parent sums up to x_max keep the whole row inside [0, x_max]
        return (grid.x_min, grid.x_min + 0.5 * (grid.x_max - grid.x_min))

    def __repr__(self):
        return f"MultiplicativeNoiseKernel({self.noise!r})"


class CustomDensityKernel(InheritanceKernel):
    """Kernel given by a density function kappa(x, y, z).

    The callable receives scalar parents and a vector of z values and must
    return non-negative densities. Sampling draws from the discretized row
    on `sample_grid` when one is provided.
    """

    def __init__(self, density: Callable[[float, float, np.ndarray], np.ndarray],
                 sample_grid: TraitGrid | None = None):
        super().__init__()
        self.density = density
        self.sample_grid = sample_grid

    def row_masses_with_tail(self, x, y, grid):
        vals = np.asarray(self.density(x, y, grid.centers), dtype=float)
        if vals.shape != (grid.n_cells,):
            raise ValueError("density function must return one value per grid cell")
        if np.any(vals < 0):
            raise ValueError("density function returned negative values")
        raw = vals * grid.dx
        inside = raw.sum()
        if inside <= _MIN_INSIDE:
            raise DegenerateRow(f"row for parents ({x}, {y}) has no mass inside the grid")
        return raw / inside, float(max(0.0, 1.0 - inside))

    def sample_offspring(self, x, y, rng) -> float:
        if self.sample_grid is None:
            raise UnsupportedKernel("custom kernel has no sample grid; sampling unavailable")
        grid = self.sample_grid
        masses = self.row_masses(x, y, grid)
        cum = np.cumsum(masses)
        idx = int(np.searchsorted(cum, rng.random() * cum[-1]))
        idx = min(idx, grid.n_cells - 1)
        return float(grid.edges[idx] + grid.dx * rng.random())


class SamplerKernel(InheritanceKernel):
    """Kernel known only through a sampler; density rows are unavailable."""

    def __init__(self, sampler: Callable[[float, float, object], float]):
        super().__init__()
        self.sampler = sampler

    def sample_offspring(self, x, y, rng) -> float:
        return float(self.sampler(x, y, rng))


def tabulated_kernel_from_csv(path, sample_grid: TraitGrid | None = None) -> CustomDensityKernel:
    """Load a custom kernel from a CSV with columns x, y, z, density.

    The tabulation must form a full rectangular lattice; densities are
    interpolated trilinearly and treated as zero outside the table.
    """
    from scipy.interpolate import RegularGridInterpolator

    data = np.genfromtxt(path, delimiter=",", names=True)
    needed = ("x", "y", "z", "density")
    if data.dtype.names is None or any(c not in data.dtype.names for c in needed):
        raise ValueError(f"kernel table must have columns {needed}")
    xs = np.unique(data["x"])
    ys = np.unique(data["y"])
    zs = np.unique(data["z"])
    if xs.size * ys.size * zs.size != data.size:
        raise ValueError("kernel table is not a full x/y/z lattice")
    cube = np.full((xs.size, ys.size, zs.size), np.nan)
    ix = np.searchsorted(xs, data["x"])
    iy = np.searchsorted(ys, data["y"])
    iz = np.searchsorted(zs, data["z"])
    cube[ix, iy, iz] = data["density"]
    if np.any(np.isnan(cube)):
        raise ValueError("kernel table has missing lattice points")
    interp = RegularGridInterpolator((xs, ys, zs), cube, bounds_error=False, fill_value=0.0)

    def density(x, y, z):
        pts = np.column_stack([np.full(len(z), x), np.full(len(z), y), z])
        return np.clip(interp(pts), 0.0, None)

    return CustomDensityKernel(density, sample_grid=sample_grid)


# ---------------------------------------------------------------------------
# Spec operations


def birth_weights(kernel: InheritanceKernel, wa: np.ndarray, wb: np.ndarray,
                  grid: TraitGrid) -> np.ndarray:
    """Array-level birth operator core; no measure validation.

    Sum-structured kernels take the parent-sum path against their cached
    row table, every other kernel the direct contraction.
    """
    if kernel.sum_structured:
        table = kernel._table(grid)
        conv = np.convolve(wa, wb)
        total = max(conv.sum(), 1e-300)
        # rows without in-grid mass contribute nothing; that is fine up to
        # the operator's documented 1e-9 mass tolerance
        lost = float(conv @ table.degenerate)
        if lost > DEGENERATE_MASS_TOLERANCE * total:
            raise DegenerateRow(
                f"parent pairs carrying {lost / total:.3e} of the mass fall on "
                "rows without in-grid offspring mass")
        # truncation bias actually incurred, weighted by parent-pair usage
        shed = float(conv @ table.tails)
        if shed > TAIL_MASS_REPORT_THRESHOLD * total:
            warnings.warn(
                "inheritance rows shed noticeable mass to grid truncation "
                "before renormalization; widen the grid",
                stacklevel=2,
            )
        return conv @ table.matrix
    return _birth_weights_exact(kernel, wa, wb, grid)


def _birth_weights_exact(kernel: InheritanceKernel, wa: np.ndarray, wb: np.ndarray,
                         grid: TraitGrid) -> np.ndarray:
    """Direct contraction, one kernel row per parent pair: the reference for
    the parent-sum path. Pairs below its weight tolerance are skipped."""
    out = np.zeros(grid.n_cells)
    centers = grid.centers
    total = max(wa.sum() * wb.sum(), 1e-300)
    floor = 1e-12 * total
    dropped = 0.0
    ja = np.nonzero(wa)[0]
    jb = np.nonzero(wb)[0]
    for j in ja:
        acc = np.zeros(grid.n_cells)
        for k in jb:
            pair = wa[j] * wb[k]
            if pair <= floor:
                continue
            try:
                acc += wb[k] * kernel.row_masses(centers[j], centers[k], grid)
            except DegenerateRow:
                dropped += pair
        out += wa[j] * acc
    if dropped > DEGENERATE_MASS_TOLERANCE * total:
        raise DegenerateRow(
            f"parent pairs carrying {dropped / total:.3e} of the mass have no "
            "in-grid offspring mass")
    return out


def birth_operator(kernel: InheritanceKernel, mu: GridMeasure, nu: GridMeasure) -> GridMeasure:
    """Push the product measure mu x nu through the kernel.

    The result has mass equal to mass(mu) * mass(nu) and, for probability
    inputs, mean equal to the average of the input means.
    """
    if mu.grid != nu.grid:
        raise GridMismatch("birth operator requires measures on the same grid")
    if mu.mass == 0.0 or nu.mass == 0.0:
        return GridMeasure(mu.grid, np.zeros(mu.grid.n_cells))
    return GridMeasure(mu.grid, birth_weights(kernel, mu.weights, nu.weights, mu.grid))


# ---------------------------------------------------------------------------
# Hypothesis checkers


@dataclass(frozen=True)
class ConditionTwoFit:
    """Moment-bound fit: second moment of the birth image vs its inputs."""

    c_est: float
    l_est: float
    holds: bool


@dataclass(frozen=True)
class HypothesisReport:
    """Numerical certificate for the stability hypotheses of a kernel.

    condition_i_max is the largest sampled value of the integral
    of |d/dx K(a, y, .) - d/dx K(b, y, .)|, which the theory requires to
    stay below one. condition_ii reports the smallest moment-bound slope
    consistent with the sampled measure pairs. A finite sample certifies,
    it does not prove.
    """

    condition_i_max: float
    condition_ii: ConditionTwoFit
    mean_condition_max_error: float
    symmetry_max_error: float
    n_triples: int
    n_pairs: int


# Sample sizes of check_hypotheses: parent triples (condition i), parent pairs
# (mean, symmetry), spread levels and mixture pairs per level (moment bound).
_N_TRIPLES = 200
_N_MEAN_CHECKS = 64
_N_SCALE_LEVELS = 6
_PAIRS_PER_LEVEL = 4


def condition_i_contribution(kernel: InheritanceKernel, a: float, b: float, y: float,
                             grid: TraitGrid) -> float:
    """Integral of |d/dx K(a,y,.) - d/dx K(b,y,.)| by central differences.

    The row-CDF derivative in the first parent argument is differenced
    with a step of half a cell width. Values below one for all parent
    triples certify the contraction hypothesis on the sample.
    """
    delta = grid.dx / 2.0
    k_ap = np.cumsum(kernel.row_masses(a + delta, y, grid))
    k_am = np.cumsum(kernel.row_masses(a - delta, y, grid))
    k_bp = np.cumsum(kernel.row_masses(b + delta, y, grid))
    k_bm = np.cumsum(kernel.row_masses(b - delta, y, grid))
    integrand = np.abs((k_ap - k_am) - (k_bp - k_bm)) / (2.0 * delta)
    return float(grid.dx * integrand.sum())


def _mixture_measure(grid, rng, lo, hi, sd):
    c1, c2 = rng.uniform(lo, hi, size=2)
    s1, s2 = sd * rng.uniform(0.5, 1.5, size=2)
    w = rng.uniform(0.2, 0.8)
    a = gaussian_measure(grid, c1, max(s1, grid.dx / 4)).weights
    b = gaussian_measure(grid, c2, max(s2, grid.dx / 4)).weights
    return GridMeasure(grid, w * a + (1 - w) * b)


def check_hypotheses(kernel: InheritanceKernel, grid: TraitGrid, seed: int = 0,
                     parent_window: tuple[float, float] | None = None) -> HypothesisReport:
    """Sample-based check of the stability hypotheses on a grid.

    The hypotheses guarantee a unique stable trait distribution: the
    derivative-gap integral of the row CDFs stays below one, and second
    moments contract under the birth map up to an additive constant.

    Samples parent triples inside parent_window, by default the kernel's
    safe window, where grid truncation does not distort the rows. The
    moment bound is fitted on structured equal pairs across geometric
    spread levels: their second moments grow linearly under the birth map,
    so the regression slope estimates the tightest admissible contraction
    factor.
    """
    rng = np.random.default_rng(seed)
    delta = grid.dx / 2.0

    lo, hi = parent_window or kernel.safe_parent_window(grid)
    lo = max(lo, grid.x_min + delta)
    hi = min(hi, grid.x_max - delta)
    if not lo < hi:
        raise ValueError("parent window is empty; widen the grid")

    # condition (i): finite-difference derivative gap of the row CDFs
    cond_i = 0.0
    for _ in range(_N_TRIPLES):
        a, b, y = rng.uniform(lo, hi, size=3)
        cond_i = max(cond_i, condition_i_contribution(kernel, a, b, y, grid))

    # mean condition and row symmetry on sampled parent pairs
    mean_err = 0.0
    sym_err = 0.0
    for _ in range(_N_MEAN_CHECKS):
        x, y = rng.uniform(lo, hi, size=2)
        row_xy = kernel.row_masses(x, y, grid)
        row_yx = kernel.row_masses(y, x, grid)
        mean_err = max(mean_err, abs(float(grid.centers @ row_xy) - 0.5 * (x + y)))
        sym_err = max(sym_err, float(np.abs(row_xy - row_yx).max()))

    # condition (ii): moment-bound fit on second moments, with the measures
    # centred in the middle fifth of the parent window
    m_lo, m_hi = lo + 0.4 * (hi - lo), lo + 0.6 * (hi - lo)
    c_mid = 0.5 * (m_lo + m_hi)
    sd_top = min(hi - lo, grid.x_max - grid.x_min) / 6.0
    levels = sd_top / 2.0 ** np.arange(_N_SCALE_LEVELS)[::-1]

    def m2(w):
        return float(np.sum(grid.centers**2 * w))

    pts_u, pts_v = [], []
    structured = []
    n_pairs = 0
    for sd in levels:
        base = gaussian_measure(grid, c_mid, max(sd, grid.dx / 4))
        img = birth_weights(kernel, base.weights, base.weights, grid)
        structured.append((m2(base.weights), m2(img)))
        pts_u.append(structured[-1][0])
        pts_v.append(structured[-1][1])
        n_pairs += 1
        for _ in range(_PAIRS_PER_LEVEL):
            mu = _mixture_measure(grid, rng, m_lo, m_hi, sd)
            nu = _mixture_measure(grid, rng, m_lo, m_hi, sd)
            img = birth_weights(kernel, mu.weights, nu.weights, grid)
            pts_u.append(max(m2(mu.weights), m2(nu.weights)))
            pts_v.append(m2(img))
            n_pairs += 1

    su = np.array([p[0] for p in structured])
    sv = np.array([p[1] for p in structured])
    slope = float(np.polyfit(su, sv, 1)[0])
    c_est = float(np.max(np.array(pts_v) - slope * np.array(pts_u)))
    holds = bool(np.isfinite(slope) and np.isfinite(c_est) and slope < 1.0)

    return HypothesisReport(
        condition_i_max=cond_i,
        condition_ii=ConditionTwoFit(c_est=c_est, l_est=slope, holds=holds),
        mean_condition_max_error=mean_err,
        symmetry_max_error=sym_err,
        n_triples=_N_TRIPLES,
        n_pairs=n_pairs,
    )
