"""Acceptance scenarios graded at fixed tolerances.

Each criterion function reproduces one acceptance scenario end to end and
returns a CriterionResult; run_all executes the whole gate. The same
functions back the test suite and the `dimorph acceptance` subcommand.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ibm import IbmParams, simulate, simulate_all
from .kernels import (AdditiveNoiseKernel, GaussianNoise, MultiplicativeNoiseKernel,
                      UniformNoise, birth_operator, check_hypotheses)
from .macro import MacroState, SolverConfig, integrate, integrate_normalized
from .measures import (GridMeasure, TraitGrid, gaussian_measure, mean,
                       point_mass, total_mass, wasserstein1)
from .stability import fixed_point, limiting_mean, lln_compare
from .stepping import SolverDiagnostics, march
from .totals import (Classification, RateSet, TotalsState, classify, integrate_totals,
                     poly_relative_residual, positive_roots, stationary_point, totals_rhs)

__all__ = ["CriterionResult", "run_all", "ALL_CRITERIA", "format_table"]


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    title: str
    passed: bool
    details: str
    elapsed: float


def _finish(cid, title, t0, checks, budget=None):
    elapsed = time.time() - t0
    if budget is not None:
        checks.append((elapsed < budget, f"runtime {elapsed:.2f}s within {budget:.0f}s"))
    passed = all(ok for ok, _ in checks)
    details = "; ".join(("ok: " if ok else "FAIL: ") + msg for ok, msg in checks)
    return CriterionResult(cid, title, passed, details, elapsed)


# -- criterion 1: persistence threshold --------------------------------------

_PERSIST = RateSet.constant(p_f=2.0, p_m=2.0, D_f=1.0, D_m=1.0, U=0.25)
_BOUNDARY = RateSet.constant(p_f=1.0, p_m=1.0, D_f=1.0, D_m=1.0, U=0.25)
_STRICT_EXTINCT = RateSet.constant(p_f=1.0, p_m=1.0, D_f=2.0, D_m=2.0, U=0.25)


def criterion_1a_threshold_and_persistence() -> CriterionResult:
    t0 = time.time()
    checks = []
    checks.append((classify(_BOUNDARY) is Classification.EXTINCTION,
                   "p=1, D=1 classified Extinction (boundary)"))
    checks.append((classify(_PERSIST) is Classification.PERSISTENCE,
                   "p=2, D=1 classified Persistence"))
    nomale = RateSet.constant(p_f=3.0, p_m=0.0, D_f=1.0, D_m=2.0, U=0.25)
    checks.append((classify(nomale) is Classification.PERSISTENCE,
                   "p_m=0, p_f=3, D_f=1 classified Persistence"))
    series = integrate_totals(TotalsState(1.0, 1.0), _PERSIST, t_end=60.0, dt=0.01)
    err = max(abs(series.M[-1] - 2.0), abs(series.F[-1] - 2.0))
    checks.append((err <= 1e-6, f"persistence run reaches (2, 2) by t=60, err {err:.2e}"))
    return _finish("1a", "persistence threshold and stationary approach", t0, checks, budget=1.0)


def criterion_1b_extinction_decay() -> CriterionResult:
    """Extinction at and below the threshold: exact boundary law, strict bound.

    At the threshold p_m/D_m + p_f/D_f = 2 the birth and natural-death
    terms cancel exactly, leaving dM/dt = -2 U M^2 for the symmetric run;
    the decay is algebraic, M(t) = 1/(1 + 0.5 t) here, so M(100) = 1/51.
    A bound of 1e-6 by t = 100 would require exponential decay, which only
    the strict inequality provides: at the threshold the masses reach 1e-6
    only near t = 2e6. The clause therefore has two parts. The boundary run
    must follow 1/(1 + t/2) at every sample within relative error 1e-6,
    which fails an exponential decay, a wrong coefficient or a run stalled
    by the clipping of negative masses. The strictly subcritical run (p = 1, D = 2)
    decays exponentially and must fall below 1e-6 by t = 100.
    """
    t0 = time.time()
    series = integrate_totals(TotalsState(1.0, 1.0), _BOUNDARY, t_end=100.0, dt=0.01)
    exact = 1.0 / (1.0 + 0.5 * series.t)
    dev = max(float(np.max(np.abs(x / exact - 1.0))) for x in (series.M, series.F))
    strict = integrate_totals(TotalsState(1.0, 1.0), _STRICT_EXTINCT, t_end=100.0, dt=0.01)
    worst = max(strict.M[-1], strict.F[-1])
    checks = [
        (dev <= 1e-6,
         f"boundary run follows 1/(1+t/2) on [0, 100], max rel dev {dev:.2e} <= 1e-6 "
         f"(M(100) = {series.M[-1]:.6e}, F(100) = {series.F[-1]:.6e}, 1/51 = {1 / 51:.6e})"),
        (worst < 1e-6,
         f"strict run (p=1, D=2) masses below 1e-6 by t=100 "
         f"(M = {strict.M[-1]:.3e}, F = {strict.F[-1]:.3e})"),
    ]
    return _finish("1b", "extinction at the threshold and below it", t0, checks)


# -- criterion 2: stationary uniqueness probe ---------------------------------

def criterion_2_stationary_uniqueness() -> CriterionResult:
    """(a) The sex-ratio cubic has exactly one admissible root, which stands
    for every positive root of the polynomial system; (b) the planar flow
    from 100 random starts, stacked as one state, ends at the closed form."""
    t0 = time.time()
    checks = []
    rng = np.random.default_rng(2024)
    for label, rates in (("symmetric", _PERSIST),
                         ("asymmetric", RateSet(p_f=3.0, p_m=1.0, D_f=0.8, D_m=1.2,
                                                U_ff=0.3, U_fm=0.2, U_mf=0.15, U_mm=0.4))):
        n_roots = len(positive_roots(rates))
        checks.append((n_roots == 1, f"{label}: {n_roots} admissible sex-ratio root(s), expected 1"))
        ref = stationary_point(rates)
        starts = rng.uniform(1e-6, 10.0 * ref.M_bar, size=(100, 2))
        # one sample at the end, so DOP853's steps grow up to the whole run
        flow = SolverConfig(dt=0.05, t_end=40.0, sample_stride=800)
        *_, (_, end) = march(starts.T, 0.0, lambda _t, y: np.array(totals_rhs(y, rates)),
                             flow, SolverDiagnostics())
        spread = float(max(np.abs(end[0] - ref.M_bar).max(), np.abs(end[1] - ref.F_bar).max()))
        res_worst = max(ref.residual, *(poly_relative_residual(rates, M, F) for M, F in end.T))
        checks.append((spread <= 1e-8,
                       f"{label}: flow from 100 starts within {spread:.2e} <= 1e-8 of the closed form"))
        checks.append((res_worst < 1e-10, f"{label}: worst residual {res_worst:.2e} < 1e-10"))
    return _finish("2", "stationary point uniqueness probe", t0, checks, budget=1.0)


# -- criteria 3 and 4: mean dynamics of the normalized constant-ratio system --

@lru_cache(maxsize=1)
def _mean_dynamics_run():
    grid = TraitGrid(-8.0, 8.0, 128)
    kernel = AdditiveNoiseKernel(GaussianNoise(0.5))
    mu0 = gaussian_measure(grid, 1.0, 0.5)
    nu0 = gaussian_measure(grid, 4.0, 0.5)
    cfg = SolverConfig(dt=1e-3, t_end=10.0, sample_stride=10)
    traj = integrate_normalized(mu0, nu0, 2.0, kernel, cfg)
    ms = np.array([mean(m) for m in traj.mus])
    ns = np.array([mean(n) for n in traj.nus])
    return traj, ms, ns


def criterion_3_mean_dynamics() -> CriterionResult:
    t0 = time.time()
    traj, ms, ns = _mean_dynamics_run()
    gap_err = float(np.max(np.abs(np.abs(ms - ns) - 3.0 * np.exp(-1.5 * traj.times))))
    cons_err = float(np.max(np.abs(2.0 * ms + ns - 6.0)))
    checks = [
        (gap_err <= 1e-4, f"mean gap follows 3*exp(-1.5 t), max err {gap_err:.2e} <= 1e-4"),
        (cons_err <= 1e-6, f"A*m(t)+n(t) conserved, max err {cons_err:.2e} <= 1e-6"),
    ]
    return _finish("3", "mean dynamics of the constant-ratio system", t0, checks, budget=10.0)


def criterion_4_limiting_mean() -> CriterionResult:
    t0 = time.time()
    _traj, ms, ns = _mean_dynamics_run()
    target = limiting_mean(2.0, 1.0, 4.0)
    err = max(abs(ms[-1] - target), abs(ns[-1] - target))
    checks = [(err <= 1e-3,
               f"terminal means at (A*m0+n0)/(A+1) = {target}, err {err:.2e} <= 1e-3")]
    return _finish("4", "limiting mean of both components", t0, checks)


# -- criterion 5: Gaussian stationary law -------------------------------------

def criterion_5_gaussian_stationary_law() -> CriterionResult:
    t0 = time.time()
    grid = TraitGrid(-8.0, 8.0, 512)
    kernel = AdditiveNoiseKernel(GaussianNoise(0.5))
    mu0 = gaussian_measure(grid, 0.7, 1.2)
    fp = fixed_point(kernel, mu0)
    var_err = abs(fp.variance - 0.5)
    mean_err = abs(fp.mean - mean(mu0))
    checks = [
        (var_err <= 0.01, f"fixed-point variance {fp.variance:.5f} within 2% of 0.5"),
        (mean_err <= 1e-3, f"fixed-point mean preserved, err {mean_err:.2e} <= 1e-3"),
    ]

    nu0_w = 0.5 * (gaussian_measure(grid, 0.2, 0.4).weights
                   + gaussian_measure(grid, 1.2, 0.4).weights)
    nu0 = GridMeasure(grid, nu0_w)
    traj = integrate_normalized(gaussian_measure(grid, 0.7, 0.6), nu0, 1.5, kernel,
                                SolverConfig(dt=0.01, t_end=30.0, sample_stride=100))
    d_mu = wasserstein1(traj.mus[-1], fp.mu_star)
    d_nu = wasserstein1(traj.nus[-1], fp.mu_star)
    bound = 5.0 * grid.dx
    checks.append((d_mu < bound and d_nu < bound,
                   f"trajectories reach the fixed point by t=30: d_mu {d_mu:.2e}, "
                   f"d_nu {d_nu:.2e} < {bound:.3f}"))
    return _finish("5", "Gaussian stationary law and flow convergence", t0, checks, budget=60.0)


# -- criterion 6: contraction probe -------------------------------------------

def _random_mixture(grid, rng, c_lo, c_hi, sd_lo, sd_hi) -> GridMeasure:
    k = int(rng.integers(1, 4))
    parts = rng.dirichlet(np.ones(k))
    w = np.zeros(grid.n_cells)
    for p in parts:
        c = rng.uniform(c_lo, c_hi)
        sd = rng.uniform(sd_lo, sd_hi)
        w += p * gaussian_measure(grid, c, sd).weights
    return GridMeasure(grid, w)


def _equal_mean_pair(grid, rng, c_lo, c_hi, sd_lo, sd_hi, anchor_lo, anchor_hi):
    a = _random_mixture(grid, rng, c_lo, c_hi, sd_lo, sd_hi)
    b = _random_mixture(grid, rng, c_lo, c_hi, sd_lo, sd_hi)
    ma, mb = mean(a), mean(b)
    if ma == mb:
        return a, b
    # blend b with a point mass beyond ma so the means match exactly
    z = float(grid.centers[grid.cell_of(anchor_hi if ma > mb else anchor_lo)])
    lam = (ma - mb) / (z - mb)
    bw = (1.0 - lam) * b.weights + lam * point_mass(grid, z).weights
    return a, GridMeasure(grid, bw)


def criterion_6_contraction_probe() -> CriterionResult:
    t0 = time.time()
    checks = []
    cases = [
        ("additive", AdditiveNoiseKernel(GaussianNoise(0.5)),
         TraitGrid(-8.0, 8.0, 256), (-2.0, 2.0), (0.3, 1.0), (-2.6, 2.6)),
        ("multiplicative", MultiplicativeNoiseKernel(UniformNoise(0.0, 1.0)),
         TraitGrid(0.0, 6.0, 256), (0.6, 2.4), (0.15, 0.4), (0.3, 2.7)),
    ]
    for label, kernel, grid, (c_lo, c_hi), (sd_lo, sd_hi), (a_lo, a_hi) in cases:
        rng = np.random.default_rng(6)
        strict = True
        min_margin = np.inf
        for _ in range(200):
            mu1, mu2 = _equal_mean_pair(grid, rng, c_lo, c_hi, sd_lo, sd_hi, a_lo, a_hi)
            nu1, nu2 = _equal_mean_pair(grid, rng, c_lo, c_hi, sd_lo, sd_hi, a_lo, a_hi)
            lhs = wasserstein1(birth_operator(kernel, mu1, nu1),
                               birth_operator(kernel, mu2, nu2))
            rhs = max(wasserstein1(mu1, mu2), wasserstein1(nu1, nu2))
            if not lhs < rhs:
                strict = False
            min_margin = min(min_margin, (rhs - lhs) / rhs if rhs > 0 else np.inf)
        checks.append((strict, f"{label}: strict contraction in 200/200 pairs "
                               f"(min margin {min_margin:.3f})"))
    return _finish("6", "birth-map contraction probe", t0, checks)


# -- criterion 7: hypothesis checkers ------------------------------------------

def criterion_7_hypothesis_checkers() -> CriterionResult:
    t0 = time.time()
    checks = []
    rep_a = check_hypotheses(AdditiveNoiseKernel(GaussianNoise(1.0)),
                             TraitGrid(-8.0, 8.0, 256), seed=7)
    checks.append((rep_a.condition_i_max < 1.0,
                   f"additive: condition (i) max {rep_a.condition_i_max:.4f} < 1"))
    checks.append((rep_a.condition_ii.l_est <= 0.55,
                   f"additive: L_est {rep_a.condition_ii.l_est:.4f} <= 0.55"))
    checks.append((rep_a.condition_ii.holds, "additive: moment bound holds with L < 1"))
    rep_m = check_hypotheses(MultiplicativeNoiseKernel(UniformNoise(0.0, 1.0)),
                             TraitGrid(0.0, 6.0, 256), seed=7)
    checks.append((rep_m.condition_i_max < 1.0,
                   f"multiplicative: condition (i) max {rep_m.condition_i_max:.4f} < 1"))
    checks.append((rep_m.condition_ii.l_est < 1.0,
                   f"multiplicative: L_est {rep_m.condition_ii.l_est:.4f} < 1"))
    checks.append((rep_m.condition_ii.holds, "multiplicative: moment bound holds with L < 1"))
    return _finish("7", "stability hypothesis checkers", t0, checks)


# -- criterion 8: law of large numbers -----------------------------------------

_LLN_GRID = TraitGrid(-6.0, 6.0, 192)
_LLN_KERNEL = AdditiveNoiseKernel(GaussianNoise(0.5))
_LLN_SCALES = (100, 1000, 10000)
_LLN_REPLICAS = 10
_LLN_TIMES = (1.0, 3.0)


def _lln_params(n_scale: int, seed: int) -> IbmParams:
    rng = np.random.default_rng(seed)
    init_f = np.clip(rng.normal(0.0, 0.5, size=n_scale), _LLN_GRID.x_min, _LLN_GRID.x_max)
    init_m = np.clip(rng.normal(0.0, 0.5, size=n_scale), _LLN_GRID.x_min, _LLN_GRID.x_max)
    return IbmParams(grid=_LLN_GRID, rates=_PERSIST, kernel=_LLN_KERNEL, N=n_scale,
                     t_end=3.001, sample_times=(0.0,) + _LLN_TIMES, seed=seed,
                     initial_female=init_f, initial_male=init_m)


def criterion_8_law_of_large_numbers(jobs: int = 1) -> CriterionResult:
    t0 = time.time()
    params = [_lln_params(n, seed=10_000 * (i + 1) + r)
              for i, n in enumerate(_LLN_SCALES) for r in range(_LLN_REPLICAS)]
    trajs = simulate_all(params, jobs)
    runs = {n: trajs[i * _LLN_REPLICAS:(i + 1) * _LLN_REPLICAS]
            for i, n in enumerate(_LLN_SCALES)}

    m0 = gaussian_measure(_LLN_GRID, 0.0, 0.5)
    macro = integrate(MacroState(m0, m0), _PERSIST, _LLN_KERNEL,
                      SolverConfig(dt=0.005, t_end=3.0, sample_stride=20))
    table = lln_compare(runs, macro, _LLN_TIMES)

    checks = []
    desc = " | ".join(
        f"N={n}: " + ", ".join(f"{table.means[i, j]:.4f}" for j in range(len(_LLN_TIMES)))
        for i, n in enumerate(table.Ns))
    checks.append((table.errors_decrease(),
                   f"mean Wasserstein error strictly decreases with N ({desc})"))
    ratio_ok = True
    worst = 0.0
    for traj in trajs:
        births = traj.births
        if births == 0:
            continue
        dev = abs(traj.births_female / births - 0.5)
        bound = 4.0 * np.sqrt(0.25 / births)
        worst = max(worst, dev / bound)
        if dev > bound:
            ratio_ok = False
    checks.append((ratio_ok,
                   f"birth sex ratio within 0.5 +- 4*sqrt(0.25/births) per run "
                   f"(worst {worst:.2f} of the bound)"))
    return _finish("8", "law of large numbers surrogate", t0, checks, budget=300.0)


# -- criterion 9: IBM internal exactness ----------------------------------------

def criterion_9_ibm_exactness() -> CriterionResult:
    t0 = time.time()
    checks = []
    grid = TraitGrid(-6.0, 6.0, 192)
    kernel = AdditiveNoiseKernel(GaussianNoise(0.5))

    trait_rates = RateSet(
        p_f=lambda x: 2.0 + 0.2 * np.tanh(x), p_m=2.0,
        D_f=1.0, D_m=lambda x: 1.0 + 0.05 * x**2,
        U_ff=lambda x, y: 0.2 + 0.02 * np.abs(x - y), U_fm=0.25,
        U_mf=0.25, U_mm=lambda x, y: 0.25 + 0.01 * np.cos(x - y))
    # 4,000 individuals at t = 0 make about 2e4 events by t_end = 1; the
    # short horizon bounds the run of a loop whose caches run away
    for label, rates, seed in (("constant", _PERSIST, 91), ("trait", trait_rates, 92)):
        init = np.random.default_rng(seed)
        params = IbmParams(grid=grid, rates=rates, kernel=kernel, N=4000, t_end=1.0,
                           sample_times=(0.5, 1.0), seed=seed,
                           initial_female=init.normal(0, 0.5, 2000),
                           initial_male=init.normal(0, 0.5, 2000))
        traj, replay = simulate(params), simulate(params)
        events = traj.n_events
        checks.append((events >= 10_000, f"{label} rates: {events} events >= 1e4"))
        checks.append((traj.cache_error <= 1e-6,
                       f"{label} rates: cache error {traj.cache_error:.2e} <= 1e-6 "
                       f"after {events} events"))
        grown = traj.final_n_female + traj.final_n_male - 4000
        checks.append((traj.births - traj.deaths == grown,
                       f"event accounting exact ({label} rates): births - deaths = "
                       f"{traj.births - traj.deaths}, population change {grown}"))
        identical = (
            (traj.n_proposals, traj.births_female, traj.births_male, traj.deaths)
            == (replay.n_proposals, replay.births_female, replay.births_male, replay.deaths)
            and all(a.male.weights.tobytes() == b.male.weights.tobytes()
                    and a.female.weights.tobytes() == b.female.weights.tobytes()
                    for a, b in zip(traj.snapshots, replay.snapshots, strict=True)))
        checks.append((identical, f"seed replay is bit-identical ({label} rates)"))
    return _finish("9", "stochastic engine internal exactness", t0, checks)


# -- criterion 10: cross-module consistency ---------------------------------------

def criterion_10_cross_module_consistency() -> CriterionResult:
    t0 = time.time()
    grid = TraitGrid(-8.0, 8.0, 128)
    kernel = AdditiveNoiseKernel(GaussianNoise(0.5))
    m0 = gaussian_measure(grid, 0.5, 1.0, mass=1.0)
    f0 = gaussian_measure(grid, -0.5, 0.8, mass=1.5)
    dt = 0.01
    traj = integrate(MacroState(m0, f0), _PERSIST, kernel,
                     SolverConfig(dt=dt, t_end=20.0, sample_stride=50))
    series = integrate_totals(TotalsState(total_mass(m0), total_mass(f0)),
                              _PERSIST, t_end=20.0, dt=dt)
    idx = np.rint(traj.times / dt).astype(int)
    diff = float(np.max(np.abs(traj.masses - np.column_stack([series.M[idx], series.F[idx]]))))
    checks = [(diff <= 1e-6,
               f"trait-resolved masses match the planar system, max diff {diff:.2e} <= 1e-6")]
    return _finish("10", "trait-resolved vs planar mass consistency", t0, checks)


# -- runner -----------------------------------------------------------------------

ALL_CRITERIA = (
    ("1a", criterion_1a_threshold_and_persistence),
    ("1b", criterion_1b_extinction_decay),
    ("2", criterion_2_stationary_uniqueness),
    ("3", criterion_3_mean_dynamics),
    ("4", criterion_4_limiting_mean),
    ("5", criterion_5_gaussian_stationary_law),
    ("6", criterion_6_contraction_probe),
    ("7", criterion_7_hypothesis_checkers),
    ("8", criterion_8_law_of_large_numbers),
    ("9", criterion_9_ibm_exactness),
    ("10", criterion_10_cross_module_consistency),
)


def run_all(only=None, jobs: int = 1) -> list[CriterionResult]:
    """Run the selected criteria in order; one that raises is reported as
    failed, naming the exception and the line that raised it.

    `only`, when given, must be a non-empty list of criterion ids; anything
    else raises ValueError before any criterion runs.
    """
    known = [cid for cid, _ in ALL_CRITERIA]
    if only is not None and (not isinstance(only, (list, tuple)) or not only
                             or any(c not in known for c in only)):
        raise ValueError(f"only must be a non-empty list of criterion ids from {known}, "
                         f"got {only!r}")
    results = []
    for cid, fn in ALL_CRITERIA:
        if only is not None and cid not in only:
            continue
        t0 = time.time()
        try:
            results.append(fn(jobs=jobs) if fn is criterion_8_law_of_large_numbers else fn())
        except Exception as exc:
            where = traceback.extract_tb(exc.__traceback__)[-1]
            results.append(CriterionResult(
                cid, fn.__name__, False,
                f"FAIL: raised {type(exc).__name__}: {exc} "
                f"(at {where.filename.rsplit('/', 1)[-1]}:{where.lineno})",
                time.time() - t0))
    return results


def format_table(results) -> str:
    lines = []
    width = max((len(r.title) for r in results), default=0) + 2
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"  [{status}] {r.cid:>3}  {r.title:<{width}} {r.elapsed:7.2f}s")
        if not r.passed:
            lines.append(f"         {r.details}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"  {n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
