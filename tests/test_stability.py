import numpy as np
import pytest

from dimorph.errors import (InsufficientReplicas, MeanConditionError,
                            NoConvergence)
from dimorph.ibm import IbmParams, simulate
from dimorph.kernels import AdditiveNoiseKernel, GaussianNoise, birth_operator
from dimorph.macro import MacroState, SolverConfig, integrate, integrate_normalized
from dimorph.measures import (GridMeasure, TraitGrid, gaussian_measure,
                              measure_from_samples, wasserstein1)
from dimorph.stability import (convergence_report, fixed_point, limiting_mean,
                               lln_compare)
from dimorph.totals import RateSet
from kernel_reference import tabulate

GRID = TraitGrid(-8.0, 8.0, 256)
KERNEL = AdditiveNoiseKernel(GaussianNoise(0.5))


def test_fixed_point_gaussian_law():
    # the Gaussian family is closed under the birth map; the stationary
    # spread doubles the noise variance
    fp = fixed_point(KERNEL, gaussian_measure(GRID, 0.5, 1.5))
    assert fp.variance == pytest.approx(2.0 * 0.5**2, rel=0.02)
    assert fp.mean == pytest.approx(0.5, abs=1e-3)
    assert fp.mean_drift <= 1e-8
    assert fp.residual <= 2e-8
    assert fp.final_step_distance < 1e-8


@pytest.mark.parametrize("budget", [dict(max_iter=0), dict(max_iter=-1), dict(tol=0.0),
                                    dict(tol=-1e-8)],
                         ids=["max_iter-0", "max_iter-negative", "tol-0", "tol-negative"])
def test_fixed_point_rejects_empty_budget(budget):
    name = next(iter(budget))
    with pytest.raises(ValueError, match=f"^{name} must be"):
        fixed_point(KERNEL, gaussian_measure(GRID, 0.0, 1.0), **budget)


def test_fixed_point_unique_for_equal_means():
    a = fixed_point(KERNEL, gaussian_measure(GRID, 1.0, 0.4), tol=1e-9)
    b_w = 0.5 * (gaussian_measure(GRID, 0.0, 0.3).weights
                 + gaussian_measure(GRID, 2.0, 0.3).weights)
    b = fixed_point(KERNEL, GridMeasure(GRID, b_w), tol=1e-9)
    assert wasserstein1(a.mu_star, b.mu_star) <= 2e-9 * 10


def test_fixed_point_residual_definition():
    fp = fixed_point(KERNEL, gaussian_measure(GRID, 0.0, 1.0), tol=1e-9)
    image = birth_operator(KERNEL, fp.mu_star, fp.mu_star)
    w = image.weights / image.mass
    assert wasserstein1(GridMeasure(GRID, w), fp.mu_star) == pytest.approx(fp.residual, abs=1e-12)


def test_fixed_point_no_convergence_budget():
    with pytest.raises(NoConvergence) as exc:
        fixed_point(KERNEL, gaussian_measure(GRID, 0.0, 2.0), tol=1e-14, max_iter=3)
    assert exc.value.last_iterate is not None
    assert len(exc.value.step_history) == 3


def test_fixed_point_refuses_mean_violating_kernel():
    # offspring biased toward the first parent
    knots = np.linspace(-8.0, 8.0, 65)
    biased = tabulate(lambda x, y, z: np.exp(-0.5 * ((z - (0.8 * x + 0.2 * y)) / 0.5) ** 2),
                      knots, knots, np.linspace(-8.0, 8.0, 257))
    with pytest.raises(MeanConditionError):
        fixed_point(biased, gaussian_measure(GRID, 0.0, 1.0))


def test_fixed_point_requires_probability_input():
    with pytest.raises(ValueError):
        fixed_point(KERNEL, gaussian_measure(GRID, 0.0, 1.0, mass=2.0))


def test_limiting_mean_examples():
    assert limiting_mean(1.0, 0.0, 1.0) == pytest.approx(0.5)
    assert limiting_mean(3.7, 2.5, 2.5) == pytest.approx(2.5)
    assert limiting_mean(2.0, 1.0, 4.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        limiting_mean(-1.0, 0.0, 0.0)


def test_limiting_mean_conservation_identity():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a = rng.uniform(0.1, 5.0)
        m0, n0 = rng.uniform(-3.0, 3.0, size=2)
        bar = limiting_mean(a, m0, n0)
        assert a * bar + bar == pytest.approx(a * m0 + n0, rel=1e-12)


def test_convergence_report_at_fixed_point():
    fp = fixed_point(KERNEL, gaussian_measure(GRID, 0.0, 1.0), tol=1e-10)
    traj = integrate_normalized(fp.mu_star, fp.mu_star, 1.5, KERNEL,
                                SolverConfig(dt=0.01, t_end=3.0, sample_stride=50))
    rep = convergence_report(traj.times, traj.mus, traj.nus, fp.mu_star,
                             monotone_floor=1e-8)
    assert np.max(rep.d_max) < 1e-7
    assert rep.monotone_max_distance
    with pytest.raises(ValueError, match="matching lengths"):
        convergence_report(traj.times[:-1], traj.mus, traj.nus, fp.mu_star)


def test_convergence_report_gaussian_scenario():
    mu0 = gaussian_measure(GRID, 1.0, 0.4)
    nu0 = GridMeasure(GRID, 0.5 * (gaussian_measure(GRID, 0.0, 0.3).weights
                                   + gaussian_measure(GRID, 2.0, 0.3).weights))
    fp = fixed_point(KERNEL, mu0, tol=1e-10)
    traj = integrate_normalized(mu0, nu0, 1.5, KERNEL,
                                SolverConfig(dt=0.01, t_end=25.0, sample_stride=100))
    rep = convergence_report(traj.times, traj.mus, traj.nus, fp.mu_star,
                             monotone_floor=1e-8)
    assert rep.d_between[-1] < 1e-6
    assert rep.d_max[-1] < 1e-6
    assert rep.monotone_max_distance
    assert rep.fit_slope < 0.0


def _tiny_runs(n_scale, replicas, t_end=0.5):
    grid = TraitGrid(-6.0, 6.0, 96)
    rates = RateSet.constant(p_f=2.0, p_m=2.0, D_f=1.0, D_m=1.0, U=0.25)
    kernel = AdditiveNoiseKernel(GaussianNoise(0.5))
    trajs = []
    for r in range(replicas):
        rng = np.random.default_rng(100 + r)
        params = IbmParams(grid=grid, rates=rates, kernel=kernel, N=n_scale,
                           t_end=t_end + 1e-3, sample_times=(0.0, t_end),
                           seed=100 + r,
                           initial_female=np.clip(rng.normal(0, 0.5, n_scale), -6, 6),
                           initial_male=np.clip(rng.normal(0, 0.5, n_scale), -6, 6))
        trajs.append(simulate(params))
    macro = integrate(MacroState(gaussian_measure(grid, 0.0, 0.5),
                                 gaussian_measure(grid, 0.0, 0.5)),
                      rates, kernel, SolverConfig(dt=0.005, t_end=t_end, sample_stride=10))
    return trajs, macro


def test_lln_compare_requires_three_replicas():
    trajs, macro = _tiny_runs(50, 2)
    with pytest.raises(InsufficientReplicas):
        lln_compare({50: trajs}, macro, (0.5,))


def test_lln_zero_time_error_is_binning_only():
    # initial empirical measure used directly as the solver start: the
    # t = 0 comparison is then exact, with no sampling residual
    grid = TraitGrid(-6.0, 6.0, 96)
    rates = RateSet.constant(p_f=2.0, p_m=2.0, D_f=1.0, D_m=1.0, U=0.25)
    kernel = AdditiveNoiseKernel(GaussianNoise(0.5))
    rng = np.random.default_rng(0)
    n = 200
    traits_f = np.clip(rng.normal(0, 0.5, n), -6, 6)
    traits_m = np.clip(rng.normal(0, 0.5, n), -6, 6)
    trajs = []
    for r in range(3):
        params = IbmParams(grid=grid, rates=rates, kernel=kernel, N=n,
                           t_end=0.5, sample_times=(0.0,), seed=r,
                           initial_female=traits_f, initial_male=traits_m)
        trajs.append(simulate(params))
    m0 = measure_from_samples(grid, traits_m, 1.0 / n)
    f0 = measure_from_samples(grid, traits_f, 1.0 / n)
    macro = integrate(MacroState(m0, f0), rates, kernel,
                      SolverConfig(dt=0.01, t_end=0.1, sample_stride=1))
    table = lln_compare({n: trajs}, macro, (0.0,))
    assert table.means[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_lln_replica_spread_shrinks_with_replica_count():
    trajs, macro = _tiny_runs(200, 24)
    few = lln_compare({200: trajs[:6]}, macro, (0.5,))
    many = lln_compare({200: trajs}, macro, (0.5,))
    ratio = many.stderrs[0, 0] / few.stderrs[0, 0]
    expected = np.sqrt(6 / 24)
    assert expected / 2 <= ratio <= expected * 2
