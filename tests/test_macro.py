import numpy as np
import pytest

from dimorph.errors import StepRejected
from dimorph.kernels import AdditiveNoiseKernel, GaussianNoise
from dimorph.macro import (MacroState, SolverConfig, coupled_full_run, integrate,
                           integrate_normalized, rhs_general, suggest_dt)
from dimorph.measures import (GridMeasure, TraitGrid, gaussian_measure, mean,
                              point_mass, wasserstein1)
from dimorph.stability import limiting_mean
from dimorph.stepping import SolverDiagnostics, _step_with_positivity, march
from dimorph.totals import RateSet, TotalsState, integrate_totals, stationary_point

GRID = TraitGrid(-8.0, 8.0, 128)
KERNEL = AdditiveNoiseKernel(GaussianNoise(0.5))
PERSIST = RateSet.constant(p_f=2.0, p_m=2.0, D_f=1.0, D_m=1.0, U=0.25)


def test_rhs_zero_state_is_fixed_point():
    zero = GridMeasure(GRID, np.zeros(GRID.n_cells))
    dm, df = rhs_general(MacroState(zero, zero), PERSIST, KERNEL)
    assert np.all(dm == 0.0) and np.all(df == 0.0)


def test_rhs_mass_balance_matches_planar_system():
    m0 = gaussian_measure(GRID, 0.5, 1.0, mass=1.2)
    f0 = gaussian_measure(GRID, -0.3, 0.8, mass=0.7)
    dm, df = rhs_general(MacroState(m0, f0), PERSIST, KERNEL)
    lam = 0.5 * (PERSIST.p_f * f0.mass + PERSIST.p_m * m0.mass)
    dM_expected = lam - (PERSIST.D_m + PERSIST.U_mm * m0.mass + PERSIST.U_mf * f0.mass) * m0.mass
    dF_expected = lam - (PERSIST.D_f + PERSIST.U_fm * m0.mass + PERSIST.U_ff * f0.mass) * f0.mass
    assert dm.sum() == pytest.approx(dM_expected, abs=1e-12)
    assert df.sum() == pytest.approx(dF_expected, abs=1e-12)


def test_rhs_birth_mass_equals_birth_rate():
    m0 = gaussian_measure(GRID, 0.5, 1.0, mass=1.2)
    f0 = gaussian_measure(GRID, -0.3, 0.8, mass=0.7)
    dm, _df = rhs_general(MacroState(m0, f0), PERSIST, KERNEL)
    death = (PERSIST.D_m + PERSIST.U_mm * m0.mass + PERSIST.U_mf * f0.mass) * m0.weights
    lam = 0.5 * (PERSIST.p_f * f0.mass + PERSIST.p_m * m0.mass)
    assert (dm + death).sum() == pytest.approx(lam, abs=1e-12)


def test_empty_sex_class_means_pure_death():
    zero = GridMeasure(GRID, np.zeros(GRID.n_cells))
    m0 = gaussian_measure(GRID, 0.0, 1.0)
    dm, df = rhs_general(MacroState(m0, zero), PERSIST, KERNEL)
    assert np.all(dm <= 0.0)
    assert np.all(df == 0.0)
    for positivity in ("clip", "reject"):
        traj = integrate(MacroState(m0, zero), PERSIST, KERNEL,
                         SolverConfig(dt=0.01, t_end=2.0, sample_stride=50,
                                      positivity=positivity))
        # each of the 200 steps counted once, not once per RK4 stage
        assert traj.diagnostics.empty_denominator_steps == 200
        assert traj.states[-1].m.mass < m0.mass


def test_masses_converge_to_stationary_point():
    sp = stationary_point(PERSIST)
    m0 = gaussian_measure(GRID, 0.5, 1.0, mass=0.8)
    f0 = gaussian_measure(GRID, -0.5, 0.7, mass=1.4)
    traj = integrate(MacroState(m0, f0), PERSIST, KERNEL,
                     SolverConfig(dt=0.01, t_end=50.0, sample_stride=100))
    assert traj.states[-1].m.mass == pytest.approx(sp.M_bar, abs=1e-4)
    assert traj.states[-1].f.mass == pytest.approx(sp.F_bar, abs=1e-4)


def test_extinction_regime_masses_vanish():
    rates = RateSet.constant(p_f=1.0, p_m=1.0, D_f=2.0, D_m=2.0, U=0.25)
    m0 = gaussian_measure(GRID, 0.0, 1.0)
    traj = integrate(MacroState(m0, m0), rates, KERNEL,
                     SolverConfig(dt=0.01, t_end=40.0, sample_stride=100))
    assert traj.states[-1].m.mass < 1e-6
    assert traj.states[-1].f.mass < 1e-6


def test_macro_masses_match_totals_solver():
    m0 = gaussian_measure(GRID, 0.5, 1.0, mass=1.0)
    f0 = gaussian_measure(GRID, -0.5, 0.8, mass=1.5)
    dt = 0.01
    traj = integrate(MacroState(m0, f0), PERSIST, KERNEL,
                     SolverConfig(dt=dt, t_end=20.0, sample_stride=50))
    series = integrate_totals(TotalsState(1.0, 1.5), PERSIST, t_end=20.0, dt=dt)
    idx = np.rint(traj.times / dt).astype(int)
    gap = np.abs(traj.masses - np.column_stack([series.M[idx], series.F[idx]]))
    assert gap.max() < 1e-6


def test_point_mass_start_keeps_mean():
    c = float(GRID.centers[70])
    mu0 = point_mass(GRID, c)
    traj = integrate_normalized(mu0, mu0, 1.0, KERNEL,
                                SolverConfig(dt=0.01, t_end=5.0, sample_stride=100))
    for m, n in zip(traj.mus, traj.nus):
        assert mean(m) == pytest.approx(c, abs=1e-6)
        assert mean(n) == pytest.approx(c, abs=1e-6)


def test_normalized_masses_stay_unit_without_renormalization():
    mu0 = gaussian_measure(GRID, 1.0, 0.5)
    nu0 = gaussian_measure(GRID, -1.0, 0.5)
    # "reject" never renormalizes, and no step here overshoots, so this is
    # the plain flow
    traj = integrate_normalized(mu0, nu0, 2.0, KERNEL,
                                SolverConfig(dt=0.01, t_end=5.0, sample_stride=50,
                                             positivity="reject"))
    assert traj.diagnostics.max_mass_drift < 1e-6 * 5.0


def test_normalized_distance_strictly_decreases():
    mu0 = gaussian_measure(GRID, 1.0, 0.5)
    nu0 = gaussian_measure(GRID, -1.0, 0.5)
    traj = integrate_normalized(mu0, nu0, 1.5, KERNEL,
                                SolverConfig(dt=0.01, t_end=8.0, sample_stride=100))
    d = np.array([wasserstein1(m, n) for m, n in zip(traj.mus, traj.nus)])
    assert np.all(np.diff(d) < 0.0)


def test_normalized_mean_gap_and_conservation():
    mu0 = gaussian_measure(GRID, 1.0, 0.5)
    nu0 = gaussian_measure(GRID, 4.0, 0.5)
    traj = integrate_normalized(mu0, nu0, 2.0, KERNEL,
                                SolverConfig(dt=0.01, t_end=10.0, sample_stride=100))
    ms = np.array([mean(m) for m in traj.mus])
    ns = np.array([mean(n) for n in traj.nus])
    assert np.max(np.abs(np.abs(ms - ns) - 3.0 * np.exp(-1.5 * traj.times))) <= 1e-4
    assert np.max(np.abs(2.0 * ms + ns - 6.0)) <= 1e-6
    target = limiting_mean(2.0, 1.0, 4.0)
    assert ms[-1] == pytest.approx(target, abs=1e-3)
    assert ns[-1] == pytest.approx(target, abs=1e-3)


def _time_step_refinement_order(scheme):
    mu0 = gaussian_measure(GRID, 1.0, 0.6)
    nu0 = gaussian_measure(GRID, -0.5, 0.9)

    def run(dt):
        traj = integrate_normalized(mu0, nu0, 1.5, KERNEL,
                                    SolverConfig(dt=dt, t_end=2.0, scheme=scheme,
                                                 sample_stride=10**9, positivity="reject"))
        return np.concatenate([traj.mus[-1].weights, traj.nus[-1].weights])

    y1, y2, y4 = run(0.04), run(0.02), run(0.01)
    e12 = np.abs(y1 - y2).sum()
    e24 = np.abs(y2 - y4).sum()
    return np.log2(e12 / e24)


def test_time_step_refinement_order():
    assert _time_step_refinement_order("rk4") >= 3.5


def test_euler_time_step_refinement_order():
    assert 0.8 <= _time_step_refinement_order("euler") <= 1.5


def test_callable_constant_sex_ratio_matches_constant():
    mu0 = gaussian_measure(GRID, 1.0, 0.5)
    nu0 = gaussian_measure(GRID, 4.0, 0.5)
    cfg = SolverConfig(dt=0.01, t_end=2.0, sample_stride=50)
    const = integrate_normalized(mu0, nu0, 2.0, KERNEL, cfg)
    called = integrate_normalized(mu0, nu0, lambda _t: 2.0, KERNEL, cfg)
    np.testing.assert_array_equal(const.times, called.times)
    for a, b in zip(const.mus + const.nus, called.mus + called.nus):
        np.testing.assert_array_equal(a.weights, b.weights)


def test_time_varying_sex_ratio_mean_gap():
    # (m - n)' = -(1 + A(t)) (m - n) / 2 with A(t) = 2 + sin t
    mu0 = gaussian_measure(GRID, 1.0, 0.5)
    nu0 = gaussian_measure(GRID, 4.0, 0.5)
    traj = integrate_normalized(mu0, nu0, lambda t: 2.0 + np.sin(t), KERNEL,
                                SolverConfig(dt=0.01, t_end=10.0, sample_stride=100))
    gap = np.abs(np.array([mean(m) - mean(n) for m, n in zip(traj.mus, traj.nus)]))
    t = traj.times
    expected = 3.0 * np.exp(-(1.5 * t + 0.5 * (1.0 - np.cos(t))))
    assert np.max(np.abs(gap - expected)) <= 1e-4


def test_last_sample_at_t_end_when_stride_does_not_divide():
    m0 = gaussian_measure(GRID, 0.0, 1.0)
    cfg = SolverConfig(dt=0.01, t_end=1.0, sample_stride=30)
    raw = integrate(MacroState(m0, m0), PERSIST, KERNEL, cfg)
    norm = integrate_normalized(m0, m0, 1.0, KERNEL, cfg)
    for times in (raw.times, norm.times):
        np.testing.assert_allclose(times, [0.0, 0.3, 0.6, 0.9, 1.0], rtol=0, atol=1e-12)


def test_reject_without_overshoot_matches_clip():
    m0 = gaussian_measure(GRID, 0.5, 1.0, mass=0.8)
    f0 = gaussian_measure(GRID, -0.5, 0.7, mass=1.4)

    def run(mode):
        return integrate(MacroState(m0, f0), PERSIST, KERNEL,
                         SolverConfig(dt=0.01, t_end=2.0, positivity=mode,
                                      sample_stride=20))

    clip, reject = run("clip"), run("reject")
    assert clip.diagnostics.clipped_mass == 0.0
    np.testing.assert_array_equal(clip.times, reject.times)
    for a, b in zip(clip.states, reject.states):
        np.testing.assert_array_equal(a.m.weights, b.m.weights)
        np.testing.assert_array_equal(a.f.weights, b.f.weights)


def test_negative_trait_rate_rejected():
    rates = RateSet(p_f=lambda x: x, p_m=1.0, D_f=1.0, D_m=1.0,
                    U_ff=0.25, U_fm=0.25, U_mf=0.25, U_mm=0.25)
    m0 = point_mass(GRID, 0.0)
    f0 = GridMeasure(GRID, point_mass(GRID, -2.0).weights + point_mass(GRID, 1.0).weights)
    with pytest.raises(ValueError, match="p_f must be non-negative"):
        integrate(MacroState(m0, f0), rates, KERNEL, SolverConfig(dt=0.01, t_end=1.0))


def test_infinite_trait_rate_rejected():
    # an infinite rate is named as such, not reported as a stability bound
    # of 0 that no dt meets
    rates = RateSet(p_f=lambda x: np.where(x > 1.0, np.inf, 1.0), p_m=1.0, D_f=1.0, D_m=1.0,
                    U_ff=0.25, U_fm=0.25, U_mf=0.25, U_mm=0.25)
    m0 = point_mass(GRID, 0.0)
    with pytest.raises(ValueError, match=r"p_f must be finite, got inf at trait 1\.0625"):
        integrate(MacroState(m0, m0), rates, KERNEL, SolverConfig(dt=0.01, t_end=1.0))


def test_negative_competition_kernel_rejected():
    # U_ff(x, y) = 0.25 - 0.5|x - y| is negative on every center pair more
    # than half a trait unit apart; a kernel that ignores y has the wrong shape
    f0 = gaussian_measure(GRID, 0.0, 1.0)
    bad = [dict(U_ff=lambda x, y: 0.25 - 0.5 * np.abs(x - y)),
           dict(U_mf=lambda y, z: 0.1 + 0.1 * np.abs(y))]
    for entry, message in zip(bad, ("U_ff must be non-negative", "U_mf must map its traits")):
        rates = RateSet(**{**dict(p_f=2.0, p_m=2.0, D_f=1.0, D_m=1.0,
                                  U_ff=0.25, U_fm=0.25, U_mf=0.25, U_mm=0.25), **entry})
        with pytest.raises(ValueError, match=message):
            integrate(MacroState(f0, f0), rates, KERNEL, SolverConfig(dt=0.01, t_end=1.0))


def test_grid_refinement_order():
    def run(n_cells):
        g = TraitGrid(-8.0, 8.0, n_cells)
        k = AdditiveNoiseKernel(GaussianNoise(0.5))
        mu0 = gaussian_measure(g, 1.0, 0.6)
        nu0 = gaussian_measure(g, -0.5, 0.9)
        traj = integrate_normalized(mu0, nu0, 1.5, k,
                                    SolverConfig(dt=0.01, t_end=10.0, sample_stride=10**9))
        return traj.mus[-1], traj.nus[-1]

    def coarsen(m, factor):
        return m.weights.reshape(-1, factor).sum(axis=1)

    mu64, nu64 = run(64)
    mu128, nu128 = run(128)
    mu256, nu256 = run(256)
    e1 = np.abs(mu64.weights - coarsen(mu128, 2)).sum() \
        + np.abs(nu64.weights - coarsen(nu128, 2)).sum()
    e2 = np.abs(coarsen(mu256, 2) - mu128.weights).sum() \
        + np.abs(coarsen(nu256, 2) - nu128.weights).sum()
    order = np.log2(e1 / e2)
    assert order >= 1.0


def test_dt_bound_enforced():
    m0 = gaussian_measure(GRID, 0.0, 1.0)
    bound = suggest_dt(MacroState(m0, m0), PERSIST)
    with pytest.raises(ValueError):
        integrate(MacroState(m0, m0), PERSIST, KERNEL,
                  SolverConfig(dt=2.0 * bound, t_end=1.0))


def test_normalized_dt_bound_enforced():
    # the bound is 0.1 / max(1, A) = 0.02 at A = 5
    m0 = gaussian_measure(GRID, 0.0, 1.0)
    with pytest.raises(ValueError, match="exceeds the stability bound 2.000e-02"):
        integrate_normalized(m0, m0, 5.0, KERNEL, SolverConfig(dt=0.025, t_end=1.0))
    traj = integrate_normalized(m0, m0, 5.0, KERNEL,
                                SolverConfig(dt=0.02, t_end=0.1, sample_stride=5))
    assert traj.diagnostics.dt_bound == pytest.approx(0.02)


def test_march_refuses_dt_above_bound_before_first_step():
    calls = []

    def rhs(_t, y):
        calls.append(1)
        return -y

    y0 = np.ones((1, 3))
    cfg = SolverConfig(dt=0.1, t_end=1.0)
    steps = march(y0, 0.0, rhs, cfg, SolverDiagnostics(dt_bound=0.05))
    with pytest.raises(ValueError, match="dt = 0.1 exceeds the stability bound 5.000e-02"):
        next(steps)
    assert not calls
    samples = list(march(y0, 0.0, rhs, cfg, SolverDiagnostics(dt_bound=0.1)))
    assert len(samples) == 11


def test_clip_only_zeroes_negative_weights():
    # one Euler step takes the first weight to -0.5 and the second to 0.6;
    # the clipped mass is reported, not put back
    def rhs(_t, y):
        return np.array([[-10.0, 1.0]])

    diag = SolverDiagnostics()
    cfg = SolverConfig(dt=0.1, t_end=1.0, scheme="euler")
    out = _step_with_positivity(np.array([[0.5, 0.5]]), 0.0, 0.1, rhs, cfg, diag)
    np.testing.assert_allclose(out, [[0.0, 0.6]], rtol=0, atol=1e-15)
    assert diag.clipped_mass == pytest.approx(0.5)


def test_normalized_clip_renormalizes_every_step():
    mu0 = gaussian_measure(GRID, 1.0, 0.5)
    nu0 = gaussian_measure(GRID, -1.0, 0.5)
    traj = integrate_normalized(mu0, nu0, 2.0, KERNEL,
                                SolverConfig(dt=0.01, t_end=5.0, sample_stride=50))
    assert traj.diagnostics.max_mass_drift > 0.0
    for m, n in zip(traj.mus[1:], traj.nus[1:]):
        assert abs(m.mass - 1.0) <= 1e-14 and abs(n.mass - 1.0) <= 1e-14


def test_positivity_modes_on_synthetic_overshoot():
    # rhs drives the state negative within one step; clip zeroes it while
    # reject keeps halving until it gives up
    def rhs(_t, y):
        return -200.0 * np.ones_like(y)

    y0 = np.full((1, 4), 0.5)
    diag = SolverDiagnostics()
    cfg_clip = SolverConfig(dt=0.1, t_end=1.0, positivity="clip")
    out = _step_with_positivity(y0, 0.0, 0.1, rhs, cfg_clip, diag)
    assert np.all(out >= 0.0)
    assert diag.clipped_mass > 0.0

    cfg_reject = SolverConfig(dt=0.1, t_end=1.0, positivity="reject")
    with pytest.raises(StepRejected):
        _step_with_positivity(y0, 0.0, 0.1, rhs, cfg_reject, SolverDiagnostics())


def test_coupled_run_detects_mass_floor():
    from dimorph.errors import ExtinctionDetected

    tiny = gaussian_measure(GRID, 0.0, 1.0, mass=1e-9)
    with pytest.raises(ExtinctionDetected):
        coupled_full_run(tiny, tiny, PERSIST, KERNEL,
                         SolverConfig(dt=0.01, t_end=1.0, sample_stride=10))


def test_coupled_run_requires_persistence_rates():
    m0 = gaussian_measure(GRID, 0.0, 1.0)
    doomed = RateSet.constant(p_f=1.0, p_m=1.0, D_f=2.0, D_m=2.0, U=0.25)
    with pytest.raises(ValueError):
        coupled_full_run(m0, m0, doomed, KERNEL,
                         SolverConfig(dt=0.01, t_end=1.0))


def test_coupled_run_converges_and_symmetric_case_exact():
    m0 = gaussian_measure(GRID, 0.6, 0.7, mass=0.9)
    f0 = gaussian_measure(GRID, 0.6, 1.1, mass=1.3)
    run = coupled_full_run(m0, f0, PERSIST, KERNEL,
                           SolverConfig(dt=0.01, t_end=30.0, sample_stride=100))
    assert run.A_limit == pytest.approx(1.0)
    assert run.A_fit[0] < 0.0
    assert run.report.d_mu[-1] < 5.0 * GRID.dx
    assert run.report.d_nu[-1] < 5.0 * GRID.dx
    assert run.report.monotone_max_distance

    sym = integrate(MacroState(m0, m0), PERSIST, KERNEL,
                    SolverConfig(dt=0.01, t_end=5.0, sample_stride=100))
    for s in sym.states:
        np.testing.assert_array_equal(s.m.weights, s.f.weights)
