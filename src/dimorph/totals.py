"""Total-population dynamics for constant demographic rates.

The male and female total masses follow a planar ODE driven by a shared
birth rate and sex-specific death and competition losses. Whether the
population persists or dies out is decided by the threshold
p_m/D_m + p_f/D_f versus 2; in the persistence regime the masses settle
at the unique positive root of a polynomial system. Writing M = A*F turns
that system into one cubic in the sex ratio A, so the root has a closed
form, polished by two Newton steps.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import ConvergenceFailure
from .stepping import _RTOL, SolverConfig, SolverDiagnostics, march

__all__ = [
    "RateSet",
    "TotalsState",
    "StationaryResult",
    "Classification",
    "TotalsSeries",
    "totals_rhs",
    "classify",
    "positive_roots",
    "stationary_point",
    "integrate_totals",
    "fit_exponential_tail",
    "TAIL_FLOOR",
]

RateEntry = float | Callable[..., float]


@dataclass(frozen=True)
class RateSet:
    """All demographic rates of the model.

    p_f, p_m: mating capabilities; D_f, D_m: natural death rates;
    U_ff, U_fm, U_mf, U_mm: competition kernels, where U_ab(x, y) is the
    rate at which a sex-a individual of trait x loses against a sex-b
    individual of trait y. Entries are constants or trait functions;
    the totals operations require constants. A trait function must accept
    scalar traits as well as arrays, as every numpy ufunc expression does:
    the stochastic engine evaluates it for one newborn or one pair at a time.
    """

    p_f: RateEntry
    p_m: RateEntry
    D_f: RateEntry
    D_m: RateEntry
    U_ff: RateEntry
    U_fm: RateEntry
    U_mf: RateEntry
    U_mm: RateEntry

    def __post_init__(self) -> None:
        for name in ("D_f", "D_m", "U_ff", "U_fm", "U_mf", "U_mm"):
            v = getattr(self, name)
            if isinstance(v, (int, float)) and not 0 < v < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {v}")
        for name in ("p_f", "p_m"):
            v = getattr(self, name)
            if isinstance(v, (int, float)) and not 0 <= v < np.inf:
                raise ValueError(f"{name} must be non-negative and finite, got {v}")
        if self.is_constant and self.p_f + self.p_m <= 0:
            raise ValueError("p_f + p_m must be positive")

    @cached_property
    def is_constant(self) -> bool:
        return all(
            isinstance(getattr(self, f), (int, float))
            for f in ("p_f", "p_m", "D_f", "D_m", "U_ff", "U_fm", "U_mf", "U_mm")
        )

    def require_constant(self) -> "RateSet":
        if not self.is_constant:
            raise ValueError("this operation requires constant rates")
        return self

    def at(self, name: str, *traits) -> np.ndarray:
        """Rate `name` at the given traits, in their broadcast shape.

        A capability or death rate (p_*, D_*) takes one trait array, a
        competition kernel (U_*) a pair (x, y) that broadcasts. A callable
        entry must return that shape and be non-negative and finite at every
        point it is asked for; a zero rate there freezes that event, and a
        negative or infinite one has no meaning as an event rate.
        """
        v = self._evaluate(name, *traits)
        if not callable(getattr(self, name)):
            return v
        shape = np.broadcast(*traits).shape
        if v.shape != shape:
            raise ValueError(f"{name} must map its traits to their broadcast shape {shape}, "
                             f"got {v.shape}")
        if v.size and not (v.min() >= 0 and v.max() < np.inf):
            i = np.unravel_index(np.argmin((v >= 0) & (v < np.inf)), shape)
            where = [float(np.broadcast_to(t, shape)[i]) for t in traits]
            place = f"trait {where[0]}" if len(where) == 1 else f"traits {tuple(where)}"
            need = "finite" if v[i] == np.inf else "non-negative"
            raise ValueError(f"{name} must be {need}, got {v[i]} at {place}")
        return v

    def _evaluate(self, name: str, *traits) -> np.ndarray:
        """Rate `name` at the given traits, without the checks of `at`."""
        entry = getattr(self, name)
        if not callable(entry):
            return np.full(np.broadcast(*traits).shape, float(entry))
        return np.asarray(entry(*traits), dtype=float)

    @classmethod
    def constant(cls, p_f: float, p_m: float, D_f: float, D_m: float, U: float) -> "RateSet":
        """All four competition kernels equal to the same constant U."""
        return cls(p_f=p_f, p_m=p_m, D_f=D_f, D_m=D_m, U_ff=U, U_fm=U, U_mf=U, U_mm=U)


@dataclass(frozen=True)
class TotalsState:
    """Total masses of the male and female subpopulations."""

    M: float
    F: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.M) and np.isfinite(self.F)):
            raise ValueError("masses must be finite")
        if self.M < 0 or self.F < 0:
            raise ValueError("masses must be non-negative")


class Classification(enum.Enum):
    PERSISTENCE = "Persistence"
    EXTINCTION = "Extinction"


@dataclass(frozen=True)
class StationaryResult:
    """Outcome of the stationary-point search.

    Persistent results carry the unique positive masses and the relative
    residual of the polynomial system; otherwise only the trivial zero
    state is stationary.
    """

    classification: Classification
    M_bar: float | None = None
    F_bar: float | None = None
    residual: float | None = None

    @property
    def is_persistent(self) -> bool:
        return self.classification is Classification.PERSISTENCE


def totals_rhs(state: TotalsState | np.ndarray, rates: RateSet) -> tuple:
    """Right-hand side (dM, dF) of the planar mass system.

    state is a TotalsState or an (M, F) pair of scalars or of equal-shape
    arrays, such as a stacked state of shape (2, k) holding k systems.
    """
    rates.require_constant()
    M, F = (state.M, state.F) if isinstance(state, TotalsState) else state
    lam = 0.5 * (rates.p_f * F + rates.p_m * M)
    return (lam - (rates.D_m + rates.U_mm * M + rates.U_mf * F) * M,
            lam - (rates.D_f + rates.U_fm * M + rates.U_ff * F) * F)


def classify(rates: RateSet) -> Classification:
    """Persistence iff p_m/D_m + p_f/D_f exceeds 2; equality means extinction."""
    rates.require_constant()
    if rates.p_m / rates.D_m + rates.p_f / rates.D_f > 2.0:
        return Classification.PERSISTENCE
    return Classification.EXTINCTION


def _poly(rates: RateSet, M: float, F: float) -> np.ndarray:
    g1 = (rates.p_m * M + rates.p_f * F - 2 * rates.D_m * M
          - 2 * rates.U_mm * M * M - 2 * rates.U_mf * F * M)
    g2 = (rates.p_m * M + rates.p_f * F - 2 * rates.D_f * F
          - 2 * rates.U_fm * M * F - 2 * rates.U_ff * F * F)
    return np.array([g1, g2])


def _poly_jacobian(rates: RateSet, M: float, F: float) -> np.ndarray:
    return np.array([
        [rates.p_m - 2 * rates.D_m - 4 * rates.U_mm * M - 2 * rates.U_mf * F,
         rates.p_f - 2 * rates.U_mf * M],
        [rates.p_m - 2 * rates.U_fm * F,
         rates.p_f - 2 * rates.D_f - 2 * rates.U_fm * M - 4 * rates.U_ff * F],
    ])


def poly_relative_residual(rates: RateSet, M: float, F: float) -> float:
    """Residual of the polynomial system scaled by its term magnitudes.

    No unit floor: near the trivial zero root the terms shrink with the
    point, so collapsing iterates cannot pass as converged.
    """
    g = _poly(rates, M, F)
    t1 = max(1e-300, abs(rates.p_m * M), abs(rates.p_f * F), abs(2 * rates.D_m * M),
             abs(2 * rates.U_mm * M * M), abs(2 * rates.U_mf * F * M))
    t2 = max(1e-300, abs(rates.p_m * M), abs(rates.p_f * F), abs(2 * rates.D_f * F),
             abs(2 * rates.U_fm * M * F), abs(2 * rates.U_ff * F * F))
    return max(abs(g[0]) / t1, abs(g[1]) / t2)


def positive_roots(rates: RateSet) -> list[tuple[float, float]]:
    """Every root (M, F) of the polynomial system with M > 0 and F > 0.

    Substituting M = A*F and dividing each equation by F leaves one cubic
    in the sex ratio A,
    (p_m A + p_f - 2 D_m A)(U_fm A + U_ff) = (p_m A + p_f - 2 D_f) A (U_mm A + U_mf),
    and F = (p_m A + p_f - 2 D_f) / (2 (U_fm A + U_ff)). A positive root of
    the system is a real A > 0 giving F > 0, so this lists them all. The
    roots come straight from np.roots, unpolished.
    """
    rates.require_constant()
    bm = rates.p_m - 2 * rates.D_m
    bf = rates.p_f - 2 * rates.D_f
    cubic = [rates.p_m * rates.U_mm,
             rates.p_m * rates.U_mf + bf * rates.U_mm - bm * rates.U_fm,
             bf * rates.U_mf - bm * rates.U_ff - rates.p_f * rates.U_fm,
             -rates.p_f * rates.U_ff]
    out = []
    for a in np.roots(cubic):
        if a.imag != 0 or a.real <= 0:
            continue
        a = float(a.real)
        F = (rates.p_m * a + bf) / (2 * (rates.U_fm * a + rates.U_ff))
        if F > 0:
            out.append((a * F, F))
    return out


def stationary_point(rates: RateSet) -> StationaryResult:
    """Unique positive stationary masses in the persistence regime.

    The sex-ratio cubic of `positive_roots` gives the root in closed form;
    two Newton steps on the polynomial system polish it to rounding level.
    Raises ConvergenceFailure unless persistent rates give exactly one
    positive root with relative residual below 1e-10.
    """
    if classify(rates) is Classification.EXTINCTION:
        return StationaryResult(Classification.EXTINCTION)
    roots = positive_roots(rates)
    if len(roots) != 1:
        raise ConvergenceFailure(f"{len(roots)} positive roots for persistent rates, expected 1")
    x = np.array(roots[0])
    for _ in range(2):
        x = x - np.linalg.solve(_poly_jacobian(rates, x[0], x[1]), _poly(rates, x[0], x[1]))
    res = poly_relative_residual(rates, x[0], x[1])
    if not (res < 1e-10 and x.min() > 0):
        raise ConvergenceFailure(f"polished root {x} has relative residual {res:.2e}")
    return StationaryResult(Classification.PERSISTENCE,
                            M_bar=float(x[0]), F_bar=float(x[1]), residual=res)


@dataclass(frozen=True)
class TotalsSeries:
    """Sampled trajectory of the planar mass system."""

    t: np.ndarray
    M: np.ndarray
    F: np.ndarray


def integrate_totals(state0: TotalsState, rates: RateSet, t_end: float,
                     dt: float = 0.01) -> TotalsSeries:
    """Classic fourth-order Runge-Kutta integration of the mass system,
    with negative masses clipped to zero after every step. The series is
    sampled at every step, so an error-controlled scheme could not grow them."""
    rates.require_constant()

    def f(_t, y: np.ndarray) -> np.ndarray:
        return np.array(totals_rhs(y, rates))

    times, ys = zip(*march(np.array([state0.M, state0.F], dtype=float), 0.0, f,
                           SolverConfig(dt, t_end, scheme="rk4"), SolverDiagnostics()))
    out = np.array(ys)
    return TotalsSeries(np.array(times), out[:, 0], out[:, 1])


# Tail points below this fraction of a series' scale are within a thousand
# solver tolerances of step and rounding error, so a fit would read noise.
TAIL_FLOOR = 1e3 * _RTOL


def fit_exponential_tail(t: np.ndarray, dist: np.ndarray, floor: float) -> tuple[float, float]:
    """Least-squares slope and R^2 of log(dist) vs t on the usable tail.

    Points at or below the floor are dropped; returns (nan, nan) when
    fewer than three remain.
    """
    t = np.asarray(t, dtype=float)
    dist = np.asarray(dist, dtype=float)
    keep = dist > floor
    if keep.sum() < 3:
        return float("nan"), float("nan")
    tt, ld = t[keep], np.log(dist[keep])
    slope, intercept = np.polyfit(tt, ld, 1)
    pred = slope * tt + intercept
    ss_res = float(np.sum((ld - pred) ** 2))
    ss_tot = float(np.sum((ld - ld.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r2
