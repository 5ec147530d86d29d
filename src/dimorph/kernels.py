"""Trait-inheritance kernels and the bilinear birth operator.

A kernel maps a parent trait pair (x, y) to the offspring trait law. The
built-in families place the offspring at the parental midpoint plus
additive noise, or at the parental sum scaled by a [0, 1] random factor
of mean one half. Both keep the expected offspring trait equal to the
parental midpoint, which is what the stability analysis relies on. The
`custom` family reads its density from a table of knots.

Each family supplies only the raw in-grid cell masses of its rows; the
base class alone truncates them to the grid, renormalizes them to unit
mass and flags rows with no in-grid mass as degenerate. The birth
operator pushes the product of two measures through the kernel. Its one
hook is InheritanceKernel._contraction(grid), each density family's
contraction cached per grid; the tests pin every contraction to the exact
one, one kernel row per parent pair.

Additive kernels compute birth without a row table. The cell edges of
every additive row sit on one half-cell lattice of offsets from its
center, so row k, cell j of the (2n - 1) x n row table would be
g[2j - k + 2n - 2], one vector g of noise masses from the noise CDF at
4n - 1 points. Birth cell j is then (s * g)[2j + 2n - 2], with s the
parent-sum convolution over the rows' in-grid masses, and split by the
parity of the parent sum it is two length-n by length-(2n - 1)
convolutions. Below _FFT_MIN_CELLS = 1024 cells they run directly, in
O(n^2) products of non-negative numbers for non-negative inputs, so such
births are exactly non-negative; from 1024 cells they run by numpy.fft,
imported on the first such call, in O(n log n). Either way the grid's
cache is O(n), about 80 n bytes (41 kB at n = 512, 82 kB at 1024, where
the table would take 4.2 and 16.8 MB). Multiplicative kernels take the
O(n^2) product with their row table, cached per grid.

The FFT is faster from 512 cells (README, "Performance notes"), but there
its round-off makes the criterion-5 normalized flow clip 2.6e-17 of mass
where the direct sums clip none, and the shipped fixed-point config and
acceptance criterion 5 run at 512; so the crossover is the next measured
size.

FFT round-off is absolute: each output errs by at most a first-order
bound of 8 eps log2(L) max(1/inside) (|g|_1 + 5 |g|_2) |wa|_1 |wb|_1,
about 1e-13 of the product mass. An output in [-bound, 0) is zeroed; for
non-negative inputs one below raises FloatingPointError.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    "TabulatedKernel",
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

# Additive kernels on grids of at least this many cells take the FFT birth
# path instead of the direct sums (measured crossover; see the module docstring).
_FFT_MIN_CELLS = 1024

# The FFT path's round-off constant c in c eps log2(L), above Higham's 3.4
# for radix-2 transforms with correctly rounded twiddles (Accuracy and
# Stability of Numerical Algorithms, 2nd ed., Thm 24.2).
_FFT_ROUNDOFF = 8.0

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
        if not 0.0 < sigma < np.inf:
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
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
        if not -np.inf < lo < hi < np.inf:
            raise ValueError(f"need finite lo < hi, got [{lo}, {hi}]")
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
    trapezoid rule, which is exact for this density; they are then
    renormalized exactly. The CDF is piecewise quadratic, the sampler
    inverts it exactly per segment and the moments are exact.
    """

    def __init__(self, z: np.ndarray, pdf: np.ndarray):
        z = np.asarray(z, dtype=float)
        pdf = np.asarray(pdf, dtype=float)
        if z.ndim != 1 or z.shape != pdf.shape or z.size < 2:
            raise ValueError("z and pdf must be matching 1D arrays with >= 2 knots")
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(pdf))):
            raise ValueError("z and pdf must be finite")
        if np.any(np.diff(z) <= 0):
            raise ValueError("z knots must be strictly increasing")
        if np.any(pdf < 0):
            raise ValueError("pdf values must be non-negative")
        h = np.diff(z)
        cum = np.cumsum(0.5 * (pdf[:-1] + pdf[1:]) * h)
        total = float(cum[-1])
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"density integrates to {total}, expected 1 within 1e-6")
        pdf = pdf / total
        self.z = z
        self.pdf = pdf
        lo, hi, zl, zr = pdf[:-1], pdf[1:], z[:-1], z[1:]
        self._h = h
        self._slope = (hi - lo) / h
        self._cum = np.concatenate(([0.0], cum / total))
        # the integrals of z p(z) and z^2 p(z) over each linear segment
        self.mean = float(np.sum(h / 6 * (lo * (2 * zl + zr) + hi * (zl + 2 * zr))))
        self.second_moment = float(np.sum(h / 12 * (lo * (3 * zl**2 + 2 * zl * zr + zr**2)
                                                     + hi * (zl**2 + 2 * zl * zr + 3 * zr**2))))
        self.support = (float(z[0]), float(z[-1]))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(self.z, x, side="right") - 1, 0, self.z.size - 2)
        t = np.clip(x - self.z[i], 0.0, self._h[i])
        c = self._cum[i] + t * (self.pdf[i] + 0.5 * self._slope[i] * t)
        return np.where(x >= self.z[-1], 1.0, c)

    def sample(self, rng) -> float:
        u = rng.random()
        i = min(int(np.searchsorted(self._cum, u, side="right")) - 1, self.z.size - 2)
        r = u - self._cum[i]
        if r <= 0.0:
            return float(self.z[i])
        # t solves pdf[i] t + slope t^2 / 2 = r; this root form has no cancellation
        p = self.pdf[i]
        t = 2.0 * r / (p + math.sqrt(max(p * p + 2.0 * self._slope[i] * r, 0.0)))
        return float(self.z[i] + min(t, self._h[i]))

    def __repr__(self):
        return f"TabulatedNoise({self.z.size} knots on [{self.z[0]}, {self.z[-1]}])"


# ---------------------------------------------------------------------------
# Kernels


class _SumRowTable:
    """Per-grid cache of kernel rows indexed by the parent-sum lattice, from
    their raw in-grid masses."""

    def __init__(self, raw: np.ndarray):
        rows, tails, degenerate = _truncate_renormalize(raw)
        self.matrix = rows  # (2n-1, n) unit-sum row masses, zero where degenerate
        # (2n-1, 2) per row: 1.0 if it has no in-grid mass, and its truncated
        # mass (zero where degenerate)
        self.checks = np.column_stack([degenerate, tails])

    def contract(self, wa: np.ndarray, wb: np.ndarray) -> tuple[np.ndarray, float, float]:
        """(birth weights, mass on degenerate rows, shed mass) of the weight pair."""
        conv = np.convolve(wa, wb)
        return conv @ self.matrix, *(conv @ self.checks)


class _NoiseLattice:
    """Per-grid cache of the additive birth path: O(n) vectors, no row table.

    Built from the noise CDF c at the 4n - 1 half-cell offsets, with g =
    c[2:] - c[:-2] the noise masses between them. Birth cell j is
    (s * g)[2j + 2n - 2], with s the parent-sum convolution over the in-grid
    row masses. Split by the parity of the parent sum, that is
    (s_even * g_even + s_odd * g_odd)[j + n - 1], where g_even[m] = g[2m]
    and g_odd[m] = g[2m - 1] (zero at m = 0). Below _FFT_MIN_CELLS the cache
    keeps g_even and g_odd without its leading zero and sums both
    convolutions directly, products of non-negative numbers for
    non-negative inputs; from it, it keeps their spectra at one
    power-of-two length >= 2n, at which none of the wanted outputs wraps
    around.
    """

    def __init__(self, c: np.ndarray):
        n = (c.size + 1) // 4
        g = c[2:] - c[:-2]
        # row k sums g over the parity-strided run 2n - 2 - k, 2n - k, ..,
        # 4n - 4 - k, which telescopes to c[4n - 2 - k] - c[2n - 2 - k]
        safe, tails, degenerate = _row_rule(c[:2 * n - 1:-1] - c[2 * n - 2::-1])
        self.checks = np.column_stack([degenerate, tails])  # as _SumRowTable's
        # (2n,) 1 / in-grid row mass, zero where degenerate and at k = 2n - 1
        self.inv_inside = np.append(np.where(degenerate, 0.0, 1.0 / safe), 0.0)
        self.g_hat = None
        if n < _FFT_MIN_CELLS:
            self.g_even, self.g_odd = g[::2].copy(), g[1::2].copy()  # (2n-1,), (2n-2,)
            return
        self.length = 1 << (2 * n - 1).bit_length()
        # (2, length/2 + 1) spectra of g_even and g_odd
        self.g_hat = np.fft.rfft(np.stack([g[::2], np.append(0.0, g[1::2])]), self.length)
        # round-off bound of one call per unit of |wa|_1 |wb|_1, first order
        # in eps, with the l-infinity error bounded by the l2 one: an FFT
        # convolution x * y errs by <= c eps log2(L) (|x|_2 |y|_1 +
        # 2 |x|_1 |y|_2) (the reference at _FFT_ROUNDOFF), the division
        # scales the parent-sum error by max 1/inside and the second
        # convolution adds its own
        self.dust = float(_FFT_ROUNDOFF * np.finfo(float).eps * math.log2(self.length)
                          * self.inv_inside.max() * (g.sum() + 5.0 * math.sqrt(g @ g)))

    def contract(self, wa: np.ndarray, wb: np.ndarray) -> tuple[np.ndarray, float, float]:
        """(birth weights, mass on degenerate rows, shed mass) of the weight pair.

        By FFT every output errs by at most bound = dust |wa|_1 |wb|_1, so
        one in [-bound, 0) is zero to working accuracy and is set to zero.
        Below -bound only inputs with negative weights (Runge-Kutta stages
        can have some) give an output, kept as computed; for non-negative
        inputs, whose exact product is non-negative, it raises
        FloatingPointError.
        """
        if self.g_hat is None:
            conv = np.convolve(wa, wb)
            s = conv * self.inv_inside[:-1]
            return (np.convolve(self.g_even, s[::2], "valid")
                    + np.convolve(self.g_odd, s[1::2], "valid"), *(conv @ self.checks))
        fft = np.fft
        n, length = wa.size, self.length
        parents = fft.rfft(np.stack([wa, wb]), length)
        conv = fft.irfft(parents[0] * parents[1], length)[:2 * n]
        s = fft.rfft((conv * self.inv_inside).reshape(n, 2).T, length)
        out = fft.irfft(s[0] * self.g_hat[0] + s[1] * self.g_hat[1], length)[n - 1:2 * n - 1]
        low = out.min()
        if low < 0.0:
            bound = self.dust * np.abs(wa).sum() * np.abs(wb).sum()
            if low < -bound and wa.min() >= 0.0 and wb.min() >= 0.0:
                raise FloatingPointError(
                    f"FFT birth output {low:.3e} lies below its round-off bound -{bound:.3e}")
            out[(out < 0.0) & (out >= -bound)] = 0.0
        return out, *(conv[:-1] @ self.checks)


class InheritanceKernel:
    """Offspring-trait law k(x, y, dz) with sampling and discretized rows."""

    def __init__(self):
        self._tables: dict[TraitGrid, _SumRowTable | _NoiseLattice | _TrilinearTable] = {}

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_tables"] = {}
        return state

    # -- discretized rows ---------------------------------------------------

    def row_masses(self, x: float, y: float, grid: TraitGrid) -> np.ndarray:
        """Unit-sum cell masses of k(x, y, .), truncated and renormalized."""
        row, _, degenerate = _truncate_renormalize(self._raw_row(x, y, grid))
        if degenerate:
            raise DegenerateRow(f"row for parents ({x}, {y}) has no mass inside the grid")
        return row

    def _raw_row(self, x: float, y: float, grid: TraitGrid) -> np.ndarray:
        """In-grid cell masses of k(x, y, .) before truncation."""
        raise UnsupportedKernel(f"{type(self).__name__} has no density rows")

    # -- sampling -----------------------------------------------------------

    def sample_offspring(self, x: float, y: float, rng) -> float:
        raise UnsupportedKernel(f"{type(self).__name__} has no sampler")

    # -- internals ----------------------------------------------------------

    def _offspring_sampler(self, rng) -> Callable[[float, float], float]:
        """`(x, y) -> child` bound once per run: `sample_offspring`'s draws, order and float."""
        sample = self.sample_offspring
        return lambda x, y: sample(x, y, rng)

    def _contraction(self, grid: TraitGrid) -> _SumRowTable | _NoiseLattice | _TrilinearTable:
        """The birth contraction on grid, cached per grid: its contract(wa, wb)
        gives (birth weights, mass on degenerate rows, shed mass)."""
        raise UnsupportedKernel(f"{type(self).__name__} has no density rows")

    def safe_parent_window(self, grid: TraitGrid) -> tuple[float, float]:
        """Parent-trait range on which discretized rows are essentially untruncated."""
        return (grid.x_min, grid.x_max)


def _row_rule(inside):
    """The truncation rule for rows of in-grid mass inside (<= 1): returns
    (safe, tails, degenerate). Degenerate rows have no in-grid mass and get
    zero tails; safe is inside with 1.0 on them, a divisor for the rows."""
    degenerate = inside <= _MIN_INSIDE
    safe = np.where(degenerate, 1.0, inside)
    tails = np.where(degenerate, 0.0, 1.0 - inside)
    return safe, tails, degenerate


def _truncate_renormalize(raw: np.ndarray):
    """Row masses from raw in-grid cell masses; returns (rows, tails, degenerate).

    raw has shape (..., n_cells) with total in-grid mass <= 1 per row.
    Degenerate rows (no in-grid mass) get zero rows and zero tails.
    """
    safe, tails, degenerate = _row_rule(raw.sum(axis=-1))
    rows = raw / safe[..., None]
    rows[degenerate] = 0.0
    return rows, tails, degenerate


class AdditiveNoiseKernel(InheritanceKernel):
    """Offspring trait = (x + y)/2 + Z with zero-mean noise Z."""

    def __init__(self, noise: NoiseDensity):
        super().__init__()
        if abs(noise.mean) > 1e-9:
            raise ValueError(f"additive noise must have zero mean, got {noise.mean}")
        self.noise = noise

    def _offset_cdf(self, grid):
        """The noise CDF at the half-cell offsets (1 - 2n .. 2n - 1) dx/2."""
        n = grid.n_cells
        return self.noise.cdf(0.5 * grid.dx * np.arange(1 - 2 * n, 2 * n))

    def _contraction(self, grid):
        lattice = self._tables.get(grid)
        if lattice is None:
            lattice = self._tables[grid] = _NoiseLattice(self._offset_cdf(grid))
        return lattice

    def _raw_row(self, x, y, grid):
        return np.diff(self.noise.cdf(grid.edges - 0.5 * (x + y)))

    def sample_offspring(self, x, y, rng) -> float:
        return 0.5 * (x + y) + self.noise.sample(rng)

    def _offspring_sampler(self, rng):
        if type(self.noise) is not GaussianNoise:
            return super()._offspring_sampler(rng)
        # rng.normal(0.0, sigma) is 0.0 + sigma * z, on a Generator as on a BufferedRng
        z, sigma = rng.standard_normal, self.noise.sigma
        return lambda x, y: 0.5 * (x + y) + (0.0 + sigma * z())

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

    def __init__(self, noise: NoiseDensity):
        super().__init__()
        lo, hi = noise.support
        if lo < -1e-12 or hi > 1.0 + 1e-12:
            raise ValueError(f"multiplicative noise support must lie in [0, 1], got {noise.support}")
        if abs(noise.mean - 0.5) > 1e-9:
            raise ValueError(f"multiplicative noise must have mean 1/2, got {noise.mean}")
        self.noise = noise

    def _raw(self, sums, grid):
        """Raw in-grid masses of the rows for an array of non-negative parent sums."""
        if grid.x_min < 0.0:
            raise ValueError("multiplicative kernel requires a non-negative trait grid")
        pos = np.where(sums > 0, sums, 1.0)
        raw = np.diff(self.noise.cdf(grid.edges[None, :] / pos[:, None]), axis=1)
        # a zero sum is the point mass at 0, degenerate when 0 is off the grid
        zero = sums == 0
        raw[zero] = 0.0
        if grid.contains(0.0):
            raw[zero, grid.cell_of(0.0)] = 1.0
        return raw

    def _contraction(self, grid):
        # rows for the parent sums 2 x_min + (k + 1) dx, k = 0 .. 2n - 2
        table = self._tables.get(grid)
        if table is None:
            sums = 2.0 * grid.x_min + (np.arange(2 * grid.n_cells - 1) + 1.0) * grid.dx
            table = self._tables[grid] = _SumRowTable(self._raw(sums, grid))
        return table

    def _raw_row(self, x, y, grid):
        if x < 0 or y < 0:
            raise ValueError("multiplicative kernel requires non-negative parent traits")
        return self._raw(np.array([x + y], dtype=float), grid)[0]

    def sample_offspring(self, x, y, rng) -> float:
        return (x + y) * self.noise.sample(rng)

    def safe_parent_window(self, grid):
        # parent sums up to x_max keep the whole row inside [0, x_max]
        return (grid.x_min, grid.x_min + 0.5 * (grid.x_max - grid.x_min))

    def __repr__(self):
        return f"MultiplicativeNoiseKernel({self.noise!r})"


def _hats(knots: np.ndarray, points) -> np.ndarray:
    """(points, knots) linear-interpolation weights, zero outside the knots."""
    return np.array([np.interp(points, knots, e, left=0.0, right=0.0) for e in np.eye(knots.size)]).T


class _TrilinearTable:
    """Per-grid cache of a tabulated kernel's birth path. Trilinear
    interpolation is linear in the table: with a (n, nx) and b (n, ny) the
    parents' interpolation weights and g the table's z-rows in cell masses,
    row (j, k) is sum a[j, p] b[k, q] g[p, q], and birth is g contracted with
    a^T (wa wb^T / inside) b, O(nx n^2 + nx ny n) per call. The cache adds
    1/inside of every parent pair, zero where degenerate."""

    def __init__(self, kernel: TabulatedKernel, grid: TraitGrid):
        xs, ys, zs = kernel.knots
        self.a, self.b = _hats(xs, grid.centers), _hats(ys, grid.centers)
        g = np.tensordot(kernel.cube, _hats(zs, grid.centers), axes=([2], [1])) * grid.dx
        safe, _, degenerate = _row_rule(self.a @ g.sum(axis=2) @ self.b.T)
        self.inv_inside = np.where(degenerate, 0.0, 1.0 / safe)
        self.dead = np.flatnonzero(degenerate)  # flat indices of degenerate pairs
        self.g = g.reshape(-1, grid.n_cells)

    def contract(self, wa: np.ndarray, wb: np.ndarray) -> tuple[np.ndarray, float, float]:
        """(birth weights, mass on degenerate rows, 0.0): rows shed no mass."""
        pairs = np.outer(wa, wb)
        out = (self.a.T @ (pairs * self.inv_inside) @ self.b).ravel() @ self.g
        return out, pairs.ravel()[self.dead].sum(), 0.0


class TabulatedKernel(InheritanceKernel):
    """Kernel whose density kappa(x, y, z) is tabulated on knots xs, ys, zs.

    cube[a, b, c] is the density at (xs[a], ys[b], zs[c]). Between knots
    it is interpolated trilinearly; outside the table it is zero, so a
    parent outside the table gives a degenerate row. Each axis needs at
    least 2 strictly increasing knots, and the densities must be finite
    and non-negative. Sampling draws from the discretized row on
    `sample_grid` when one is provided.
    """

    def __init__(self, xs, ys, zs, cube, sample_grid: TraitGrid | None = None):
        super().__init__()
        self.knots = tuple(np.asarray(k, dtype=float) for k in (xs, ys, zs))
        for axis, k in zip("xyz", self.knots):
            if k.ndim != 1 or k.size < 2 or not np.all(np.isfinite(k)) or np.any(np.diff(k) <= 0):
                raise ValueError(f"{axis} knots must be at least 2 finite, strictly increasing values")
        self.cube = np.asarray(cube, dtype=float)
        shape = tuple(k.size for k in self.knots)
        if self.cube.shape != shape:
            raise ValueError(f"density table has shape {self.cube.shape}, its knots need {shape}")
        if not np.all(np.isfinite(self.cube)) or np.any(self.cube < 0):
            raise ValueError("kernel densities must be finite and non-negative")
        self.sample_grid = sample_grid

    def _raw_row(self, x, y, grid):
        xs, ys, zs = self.knots
        profile = _hats(ys, [y])[0] @ np.tensordot(_hats(xs, [x])[0], self.cube, axes=1)
        return np.interp(grid.centers, zs, profile, left=0.0, right=0.0) * grid.dx

    def _contraction(self, grid):
        table = self._tables.get(grid)
        if table is None:
            table = self._tables[grid] = _TrilinearTable(self, grid)
        return table

    def sample_offspring(self, x, y, rng) -> float:
        if self.sample_grid is None:
            raise UnsupportedKernel("custom kernel has no sample grid; sampling unavailable")
        grid = self.sample_grid
        cum = np.cumsum(self.row_masses(x, y, grid))
        idx = min(int(np.searchsorted(cum, rng.random() * cum[-1])), grid.n_cells - 1)
        return float(grid.edges[idx] + grid.dx * rng.random())


class SamplerKernel(InheritanceKernel):
    """Kernel known only through a sampler; density rows are unavailable."""

    def __init__(self, sampler: Callable[[float, float, object], float]):
        super().__init__()
        self.sampler = sampler

    def sample_offspring(self, x, y, rng) -> float:
        return float(self.sampler(x, y, rng))


def tabulated_kernel_from_csv(path, sample_grid: TraitGrid | None = None) -> TabulatedKernel:
    """Load a custom kernel from a CSV with columns x, y, z, density.

    The tabulation must form a full rectangular lattice; densities are
    interpolated trilinearly and treated as zero outside the table.
    """
    data = np.genfromtxt(path, delimiter=",", names=True)
    needed = ("x", "y", "z", "density")
    if data.dtype.names is None or any(c not in data.dtype.names for c in needed):
        raise ValueError(f"kernel table must have columns {needed}")
    knots = [np.unique(data[axis]) for axis in "xyz"]
    shape = tuple(k.size for k in knots)
    if math.prod(shape) != data.size:
        raise ValueError("kernel table is not a full x/y/z lattice")
    cube = np.full(shape, np.nan)
    cube[tuple(np.searchsorted(k, data[axis]) for k, axis in zip(knots, "xyz"))] = data["density"]
    if np.any(np.isnan(cube)):
        raise ValueError("kernel table has missing lattice points")
    return TabulatedKernel(*knots, cube, sample_grid=sample_grid)


# ---------------------------------------------------------------------------
# Spec operations


def birth_weights(kernel: InheritanceKernel, wa: np.ndarray, wb: np.ndarray,
                  grid: TraitGrid) -> np.ndarray:
    """Array-level birth operator core; no measure validation.

    Every kernel takes its cached contraction, kernel._contraction(grid):
    multiplicative ones their row table, additive ones direct sums below
    _FFT_MIN_CELLS cells and the FFT from there, tabulated ones their
    factored trilinear table. A kernel without density rows raises
    UnsupportedKernel.
    """
    out, lost, shed = kernel._contraction(grid).contract(wa, wb)
    total = max(wa.sum() * wb.sum(), 1e-300)
    # mass on rows without in-grid mass, which contribute nothing (fine up
    # to the operator's documented 1e-9 mass tolerance), and the truncation
    # bias actually incurred, both weighted by parent-pair usage
    if lost > DEGENERATE_MASS_TOLERANCE * total:
        raise DegenerateRow(
            f"parent pairs carrying {lost / total:.3e} of the mass fall on "
            "rows without in-grid offspring mass")
    if shed > TAIL_MASS_REPORT_THRESHOLD * total:
        warnings.warn(
            "inheritance rows shed noticeable mass to grid truncation "
            "before renormalization; widen the grid",
            stacklevel=2,
        )
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

    pairs = []  # (input, image) second moments, each level's structured pair first
    for sd in levels:
        base = gaussian_measure(grid, c_mid, max(sd, grid.dx / 4))
        img = birth_weights(kernel, base.weights, base.weights, grid)
        pairs.append((m2(base.weights), m2(img)))
        for _ in range(_PAIRS_PER_LEVEL):
            mu = _mixture_measure(grid, rng, m_lo, m_hi, sd)
            nu = _mixture_measure(grid, rng, m_lo, m_hi, sd)
            img = birth_weights(kernel, mu.weights, nu.weights, grid)
            pairs.append((max(m2(mu.weights), m2(nu.weights)), m2(img)))

    u, v = np.array(pairs).T
    structured = slice(None, None, 1 + _PAIRS_PER_LEVEL)
    slope = float(np.polyfit(u[structured], v[structured], 1)[0])
    c_est = float(np.max(v - slope * u))
    holds = bool(np.isfinite(slope) and np.isfinite(c_est) and slope < 1.0)

    return HypothesisReport(
        condition_i_max=cond_i,
        condition_ii=ConditionTwoFit(c_est=c_est, l_est=slope, holds=holds),
        mean_condition_max_error=mean_err,
        symmetry_max_error=sym_err,
        n_triples=_N_TRIPLES,
        n_pairs=len(pairs),
    )
