"""Long-time behavior of the trait distributions.

The shared limiting distribution of males and females is the fixed point
of the quadratic birth map, computed by direct iteration with a damping
fallback. The module also grades solver trajectories against that limit
and compares stochastic runs at several population scales with the
deterministic solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InsufficientReplicas, MeanConditionError, NoConvergence
from .kernels import InheritanceKernel, birth_operator
from .measures import GridMeasure, mean, normalize, variance, wasserstein1
from .totals import fit_exponential_tail

__all__ = [
    "FixedPointResult",
    "ConvergenceReport",
    "LlnErrorTable",
    "fixed_point",
    "limiting_mean",
    "convergence_report",
    "lln_compare",
]


@dataclass(frozen=True)
class FixedPointResult:
    """Birth-map fixed point and how the iteration got there."""

    mu_star: GridMeasure
    iterations: int
    final_step_distance: float
    mean: float
    variance: float
    mean_drift: float
    residual: float
    damped: bool


def _check_mean_condition(kernel: InheritanceKernel, grid, tol: float) -> None:
    lo, hi = kernel.safe_parent_window(grid)
    probes = np.linspace(lo, hi, 4)
    for x in probes:
        for y in probes:
            row = kernel.row_masses(float(x), float(y), grid)
            err = abs(float(grid.centers @ row) - 0.5 * (x + y))
            if err > tol:
                raise MeanConditionError(
                    f"row mean at ({x:.3g}, {y:.3g}) is off the parental midpoint "
                    f"by {err:.3e} (> {tol:.3e}); the stability machinery refuses "
                    "kernels without the midpoint property"
                )


def fixed_point(kernel: InheritanceKernel, mu0: GridMeasure, tol: float = 1e-8,
                max_iter: int = 10_000) -> FixedPointResult:
    """Iterate the birth map from mu0 until consecutive iterates are closer
    than tol in Wasserstein distance.

    The map preserves the mean, so the limit is the unique fixed point with
    the mean of mu0. Plain iteration is used until step sizes stop
    improving for five consecutive iterations, after which updates are
    damped halfway. Raises NoConvergence when the budget runs out.
    """
    if abs(mu0.mass - 1.0) > 1e-9:
        raise ValueError(f"mu0 must be a probability measure, mass = {mu0.mass}")
    grid = mu0.grid
    _check_mean_condition(kernel, grid, tol=10.0 * grid.dx + 1e-9)

    mean0 = mean(mu0)
    cur = mu0
    damped = False
    stall = 0
    prev_step = np.inf
    mean_drift = 0.0
    history: list[float] = []
    for it in range(1, max_iter + 1):
        image = birth_operator(kernel, cur, cur)
        w = image.weights if not damped else 0.5 * cur.weights + 0.5 * image.weights
        # mass squares under the map, so rounding drift compounds; renormalize
        nxt = GridMeasure(grid, w / w.sum())
        step = wasserstein1(nxt, cur)
        history.append(step)
        mean_drift = max(mean_drift, abs(mean(nxt) - mean0))
        cur = nxt
        if step < tol:
            image = birth_operator(kernel, cur, cur)
            return FixedPointResult(
                mu_star=cur,
                iterations=it,
                final_step_distance=step,
                mean=mean(cur),
                variance=variance(cur),
                mean_drift=mean_drift,
                residual=wasserstein1(image, cur),
                damped=damped,
            )
        if step >= prev_step:
            stall += 1
            if stall >= 5:
                damped = True
        else:
            stall = 0
        prev_step = step
    raise NoConvergence(
        f"no convergence after {max_iter} iterations (last step {history[-1]:.3e})",
        last_iterate=cur,
        step_history=history[-20:],
    )


def limiting_mean(A: float, m0: float, n0: float) -> float:
    """Mean of the shared limiting distribution for sex ratio A and initial
    male and female means m0, n0."""
    if A <= 0:
        raise ValueError(f"sex ratio must be positive, got {A}")
    return (A * m0 + n0) / (A + 1.0)


@dataclass(frozen=True)
class ConvergenceReport:
    """Distance series of a normalized trajectory against the limit.

    The monotone flag ignores increases that happen entirely below the
    resolution floor, where the distances only measure how accurately the
    reference measure itself was computed.
    """

    times: np.ndarray
    d_between: np.ndarray  # d(mu_t, nu_t)
    d_mu: np.ndarray  # d(mu_t, mu_star)
    d_nu: np.ndarray  # d(nu_t, mu_star)
    d_max: np.ndarray  # max of the two
    fit_slope: float
    fit_r2: float
    monotone_max_distance: bool
    monotone_floor: float


def convergence_report(times: Sequence[float] | np.ndarray,
                       mus: Sequence[GridMeasure], nus: Sequence[GridMeasure],
                       mu_star: GridMeasure,
                       monotone_floor: float = 0.0) -> ConvergenceReport:
    """Grade snapshots of the normalized system against the limit measure."""
    times = np.asarray(times, dtype=float)
    if not (len(times) == len(mus) == len(nus)):
        raise ValueError("times, mus and nus must have matching lengths")
    d_between = np.array([wasserstein1(a, b) for a, b in zip(mus, nus)])
    d_mu = np.array([wasserstein1(a, mu_star) for a in mus])
    d_nu = np.array([wasserstein1(b, mu_star) for b in nus])
    d_max = np.maximum(d_mu, d_nu)
    slope, r2 = fit_exponential_tail(times, d_max)
    jitter = 1e-9 * float(d_max[0]) + 1e-12
    rising = np.diff(d_max) > jitter
    above_floor = np.maximum(d_max[:-1], d_max[1:]) > monotone_floor
    monotone = bool(not np.any(rising & above_floor))
    return ConvergenceReport(times, d_between, d_mu, d_nu, d_max, slope, r2,
                             monotone, monotone_floor)


@dataclass(frozen=True)
class LlnErrorTable:
    """Wasserstein error of scaled stochastic runs against the solver.

    means[i, j] is the replica-averaged error at scale Ns[i] and
    checkpoint times[j]; stderrs are the matching standard errors.
    """

    Ns: tuple[int, ...]
    times: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray

    def errors_decrease(self) -> bool:
        """Strict decrease of the mean error along increasing N at every time."""
        return bool(np.all(np.diff(self.means, axis=0) < 0.0))


def lln_compare(runs: Mapping[int, Sequence], macro_traj, checkpoints) -> LlnErrorTable:
    """Compare empirical sex-conditional distributions with the solver.

    runs maps each population scale N to its replica trajectories (objects
    exposing measures_at(t) returning the male and female empirical
    measures). The error of one replica at one checkpoint is the average
    over the two sexes of the Wasserstein distance between normalized
    empirical and solver distributions.
    """
    checkpoints = np.asarray(checkpoints, dtype=float)
    ns = tuple(sorted(runs))
    for n in ns:
        if len(runs[n]) < 3:
            raise InsufficientReplicas(f"scale N = {n} has {len(runs[n])} replicas; need >= 3")

    macro_pairs = []
    for t in checkpoints:
        s = macro_traj.state_at(t)
        macro_pairs.append((normalize(s.m)[0], normalize(s.f)[0]))

    means = np.empty((len(ns), len(checkpoints)))
    stderrs = np.empty_like(means)
    for i, n in enumerate(ns):
        reps = runs[n]
        errs = np.empty((len(reps), len(checkpoints)))
        for r, traj in enumerate(reps):
            for j, t in enumerate(checkpoints):
                emp_m, emp_f = traj.measures_at(t)
                mac_m, mac_f = macro_pairs[j]
                em = wasserstein1(normalize(emp_m)[0], mac_m)
                ef = wasserstein1(normalize(emp_f)[0], mac_f)
                errs[r, j] = 0.5 * (em + ef)
        means[i] = errs.mean(axis=0)
        stderrs[i] = errs.std(axis=0, ddof=1) / np.sqrt(len(reps))
    return LlnErrorTable(ns, checkpoints, means, stderrs)
