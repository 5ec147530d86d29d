"""Deterministic time integration of the trait-resolved population systems.

Covers the raw two-sex system (male and female trait measures with
mating, inheritance, natural death and competition), and the normalized
probability-measure system driven by a constant or time-varying sex
ratio. Both are advanced by the shared stepping core in
``dimorph.stepping``, the error-controlled DOP853 pair; a step with a NaN
stage fails its error test, so no accepted state holds NaN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import stability
from .errors import ExtinctionDetected
from .kernels import InheritanceKernel, birth_weights
from .measures import GridMeasure, TraitGrid, gaussian_measure, normalize
from .stepping import SolverConfig, SolverDiagnostics, march, sample_index
from .totals import (TAIL_FLOOR, Classification, RateSet, classify, fit_exponential_tail,
                     stationary_point)

__all__ = [
    "MacroState",
    "SolverConfig",
    "MacroTrajectory",
    "NormalizedTrajectory",
    "CoupledRunResult",
    "integrate",
    "integrate_normalized",
    "coupled_full_run",
]

# An explicit step is at most this fraction of 1 / (largest per-capita rate).
_DT_SAFETY = 0.1
# coupled_full_run: the fixed-point tolerance, and the mass of either sex
# below which a persistence run counts as dying out
_FIXED_POINT_TOL = 1e-8
_MASS_FLOOR = 1e-8


@dataclass(frozen=True)
class MacroState:
    """Male and female trait measures at one time point."""

    m: GridMeasure
    f: GridMeasure
    t: float = 0.0

    def __post_init__(self) -> None:
        if self.m.grid != self.f.grid:
            raise ValueError("male and female measures must share one grid")

    @property
    def masses(self) -> tuple[float, float]:
        return self.m.mass, self.f.mass


@dataclass(frozen=True)
class MacroTrajectory:
    states: Sequence[MacroState]
    diagnostics: SolverDiagnostics

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    @property
    def masses(self) -> np.ndarray:
        """Array of (M, F) per snapshot."""
        return np.array([[s.m.mass, s.f.mass] for s in self.states])

    def state_at(self, t: float) -> MacroState:
        return self.states[sample_index(self.times, t)]


@dataclass(frozen=True)
class NormalizedTrajectory:
    times: np.ndarray
    mus: Sequence[GridMeasure]
    nus: Sequence[GridMeasure]
    diagnostics: SolverDiagnostics


# ---------------------------------------------------------------------------
# Rate tables on a grid


class _GridRates:
    """Demographic rates precompiled onto a grid.

    Constant rates stay scalars, so constant-rate death fields are floats;
    trait-dependent rates become vectors, and competition kernels dense
    matrices.
    """

    def __init__(self, rates: RateSet, grid: TraitGrid):
        c = grid.centers

        def on_grid(name, *traits):
            entry = getattr(rates, name)
            return rates.at(name, *traits) if callable(entry) else float(entry)

        self.pf, self.pm, self.df, self.dm = (on_grid(name, c)
                                              for name in ("p_f", "p_m", "D_f", "D_m"))
        self.u = {name: on_grid(name, c[:, None], c[None, :])
                  for name in ("U_ff", "U_fm", "U_mf", "U_mm")}

    def competition(self, name: str, weights: np.ndarray, mass: float) -> np.ndarray | float:
        """Competition of kernel `name` against weights of total mass `mass`."""
        u = self.u[name]
        if isinstance(u, float):
            return u * mass
        return u @ weights

    def deaths(self, mw: np.ndarray, fw: np.ndarray, m_mass: float,
               f_mass: float) -> tuple[np.ndarray, np.ndarray]:
        """Per-capita (male, female) death fields at the given weights and
        their masses."""
        return (self.dm + self.competition("U_mm", mw, m_mass)
                + self.competition("U_mf", fw, f_mass),
                self.df + self.competition("U_fm", mw, m_mass)
                + self.competition("U_ff", fw, f_mass))

    def dt_bound(self, mw: np.ndarray, fw: np.ndarray) -> float:
        """Explicit-step bound from the largest per-capita rate."""
        death_m, death_f = self.deaths(mw, fw, mw.sum(), fw.sum())
        rmax = float(max(np.max(death_m + self.pm), np.max(death_f + self.pf)))
        return _DT_SAFETY / rmax if rmax > 0 else float("inf")


def _birth_and_death(gr: _GridRates, kernel: InheritanceKernel, grid: TraitGrid,
                     mw: np.ndarray, fw: np.ndarray):
    """Shared birth measure (already halved for sex assignment) plus the two
    per-capita death fields; flags when a mating denominator vanished."""
    m_mass = mw.sum()
    f_mass = fw.sum()
    wf = gr.pf * fw
    wm = gr.pm * mw
    fp = wf.sum()
    mp = wm.sum()
    empty = False
    birth = np.zeros(grid.n_cells)
    if m_mass > 0.0 and f_mass > 0.0:
        if fp > 0.0 and mp > 0.0:
            birth = (0.5 * (1.0 / mp + 1.0 / fp)) * birth_weights(kernel, wf, wm, grid)
        elif fp > 0.0:
            # no male carries mating weight; partners are drawn uniformly
            birth = 0.5 * birth_weights(kernel, wf, mw / m_mass, grid)
        elif mp > 0.0:
            birth = 0.5 * birth_weights(kernel, fw / f_mass, wm, grid)
        else:
            empty = True
    else:
        empty = True
    return (birth, *gr.deaths(mw, fw, m_mass, f_mass), empty)


# ---------------------------------------------------------------------------
# Integrators


def integrate(state0: MacroState, rates: RateSet, kernel: InheritanceKernel,
              config: SolverConfig) -> MacroTrajectory:
    """Integrate the raw two-sex system from state0 up to t_end.

    Raises ValueError when dt exceeds the explicit-step bound at state0.
    """
    grid = state0.m.grid
    gr = _GridRates(rates, grid)
    diag = SolverDiagnostics(dt_bound=gr.dt_bound(state0.m.weights, state0.f.weights))

    # set by any stage (or rejected retry) of the step under way
    empty_in_step = False

    def rhs(_t, y):
        nonlocal empty_in_step
        birth, death_m, death_f, empty = _birth_and_death(gr, kernel, grid, y[0], y[1])
        empty_in_step |= empty
        dy = np.empty_like(y)
        np.multiply(death_m, y[0], out=dy[0])
        np.multiply(death_f, y[1], out=dy[1])
        return np.subtract(birth, dy, out=dy)

    def after_step(_y):
        nonlocal empty_in_step
        diag.empty_denominator_steps += empty_in_step
        empty_in_step = False

    states = [MacroState(GridMeasure(grid, y[0]), GridMeasure(grid, y[1]), t)
              for t, y in march(np.stack([state0.m.weights, state0.f.weights]),
                                state0.t, rhs, config, diag, after_step)]
    return MacroTrajectory(states, diag)


def integrate_normalized(mu0: GridMeasure, nu0: GridMeasure,
                         A: float | Callable[[float], float],
                         kernel: InheritanceKernel, config: SolverConfig) -> NormalizedTrajectory:
    """Integrate the normalized system for probability measures mu, nu.

    mu relaxes toward the birth image at unit rate, nu at rate A (a
    constant or a function of time). The birth image is taken of the
    normalized inputs, P(mu / |mu|, nu / |nu|): P is bilinear, so on
    probability measures this is the paper's flow, and off them the masses
    obey m' = 1 - m and n' = A (1 - n). Unit mass, a saddle of the plain
    flow, thus attracts, and no step is renormalized; the largest drift
    of either mass from 1 is reported as max_mass_drift. dt may not exceed
    0.1 / max(1, A(0)).
    """
    if mu0.grid != nu0.grid:
        raise ValueError("mu0 and nu0 must share one grid")
    for name, m in (("mu0", mu0), ("nu0", nu0)):
        if abs(m.mass - 1.0) > 1e-9:
            raise ValueError(f"{name} must be a probability measure, mass = {m.mass}")
    grid = mu0.grid
    a_of = A if callable(A) else (lambda _t: A)
    a0 = float(a_of(0.0))
    if a0 <= 0:
        raise ValueError(f"sex-ratio constant must be positive, got {a0}")
    diag = SolverDiagnostics(dt_bound=_DT_SAFETY / max(1.0, a0))

    def rhs(t, y):
        dy = birth_weights(kernel, y[0], y[1], grid) / (y[0].sum() * y[1].sum()) - y
        dy[1] *= float(a_of(t))
        return dy

    def after_step(y):
        diag.max_mass_drift = max(diag.max_mass_drift,
                                  abs(y[0].sum() - 1.0), abs(y[1].sum() - 1.0))

    times, mus, nus = zip(*[(t, GridMeasure(grid, y[0]), GridMeasure(grid, y[1]))
                            for t, y in march(np.stack([mu0.weights, nu0.weights]), 0.0,
                                              rhs, config, diag, after_step)])
    return NormalizedTrajectory(np.array(times), list(mus), list(nus), diag)


@dataclass(frozen=True)
class CoupledRunResult:
    """Raw constant-rate run with its normalized view and limit diagnostics."""

    times: np.ndarray
    mus: Sequence[GridMeasure]
    nus: Sequence[GridMeasure]
    A_series: np.ndarray
    A_limit: float
    A_fit: tuple[float, float]
    fixed_point: "stability.FixedPointResult"
    report: "stability.ConvergenceReport"
    diagnostics: SolverDiagnostics


def coupled_full_run(m0: GridMeasure, f0: GridMeasure, rates: RateSet,
                     kernel: InheritanceKernel, config: SolverConfig) -> CoupledRunResult:
    """Run the raw constant-rate system and compare its normalized trait
    distributions against the common limiting distribution.

    Requires persistence-regime rates. The limiting distribution is the
    birth-map fixed point started at the mass-weighted limit of the two
    initial means, using the stationary sex ratio as weight.
    """
    rates.require_constant()
    if classify(rates) is not Classification.PERSISTENCE:
        raise ValueError("coupled run requires persistence-regime rates")
    sp = stationary_point(rates)
    a_limit = sp.M_bar / sp.F_bar

    raw = integrate(MacroState(m0, f0), rates, kernel, config)
    times = raw.times
    mus, nus, ratios = [], [], []
    for s in raw.states:
        if min(s.m.mass, s.f.mass) < _MASS_FLOOR:
            raise ExtinctionDetected(
                f"mass fell below {_MASS_FLOOR} at t = {s.t} in a persistence run")
        mus.append(normalize(s.m)[0])
        nus.append(normalize(s.f)[0])
        ratios.append(s.m.mass / s.f.mass)
    ratios = np.array(ratios)

    target_mean = stability.limiting_mean(a_limit, mus[0].mean(), nus[0].mean())
    grid = m0.grid
    span = grid.x_max - grid.x_min
    seed = gaussian_measure(grid, target_mean, span / 16.0)
    fp = stability.fixed_point(kernel, seed, tol=_FIXED_POINT_TOL)
    # below ~10x the fixed-point tolerance the distances only resolve the
    # reference measure's own accuracy
    report = stability.convergence_report(times, mus, nus, fp.mu_star,
                                          monotone_floor=10.0 * _FIXED_POINT_TOL)
    a_fit = fit_exponential_tail(times, np.abs(ratios - a_limit), floor=TAIL_FLOOR * a_limit)
    return CoupledRunResult(times, mus, nus, ratios, a_limit, a_fit, fp, report,
                            raw.diagnostics)
