import dataclasses
from dataclasses import replace

import numpy as np
import pytest

from dimorph import macro
from dimorph.config import parse_solver
from dimorph.errors import ConfigError, StepRejected
from dimorph.kernels import _FFT_MIN_CELLS, AdditiveNoiseKernel, GaussianNoise, birth_weights
from dimorph.macro import (MacroState, SolverConfig, _GridRates, coupled_full_run,
                           integrate, integrate_normalized)
from dimorph.measures import (GridMeasure, TraitGrid, gaussian_measure, mean,
                              point_mass, wasserstein1)
from dimorph.stability import limiting_mean
from dimorph.stepping import SolverDiagnostics, march, sample_index, sample_times
from dimorph.totals import RateSet, TotalsState, integrate_totals, stationary_point
from kernel_reference import birth_weights_exact

GRID = TraitGrid(-8.0, 8.0, 128)
KERNEL = AdditiveNoiseKernel(GaussianNoise(0.5))
PERSIST = RateSet.constant(p_f=2.0, p_m=2.0, D_f=1.0, D_m=1.0, U=0.25)


def _rhs_handed_to_march(monkeypatch, solve, *args):
    """The right-hand side a solver passes to march, from a one-step run."""
    seen = []

    def spy(y0, t0, rhs, *rest):
        seen.append(rhs)
        return march(y0, t0, rhs, *rest)

    monkeypatch.setattr(macro, "march", spy)
    solve(*args, SolverConfig(dt=0.01, t_end=0.01))
    return seen[0]


def _raw_rhs(monkeypatch, m0, f0, rates=PERSIST):
    """(dm, df) at (m0, f0) from the right-hand side integrate runs."""
    rhs = _rhs_handed_to_march(monkeypatch, integrate, MacroState(m0, f0), rates, KERNEL)
    return rhs(0.0, np.stack([m0.weights, f0.weights]))


def test_rhs_zero_state_is_fixed_point(monkeypatch):
    zero = GridMeasure(GRID, np.zeros(GRID.n_cells))
    dm, df = _raw_rhs(monkeypatch, zero, zero)
    assert np.all(dm == 0.0) and np.all(df == 0.0)


def test_rhs_mass_balance_matches_planar_system(monkeypatch):
    m0 = gaussian_measure(GRID, 0.5, 1.0, mass=1.2)
    f0 = gaussian_measure(GRID, -0.3, 0.8, mass=0.7)
    dm, df = _raw_rhs(monkeypatch, m0, f0)
    lam = 0.5 * (PERSIST.p_f * f0.mass + PERSIST.p_m * m0.mass)
    dM_expected = lam - (PERSIST.D_m + PERSIST.U_mm * m0.mass + PERSIST.U_mf * f0.mass) * m0.mass
    dF_expected = lam - (PERSIST.D_f + PERSIST.U_fm * m0.mass + PERSIST.U_ff * f0.mass) * f0.mass
    assert dm.sum() == pytest.approx(dM_expected, abs=1e-12)
    assert df.sum() == pytest.approx(dF_expected, abs=1e-12)


def test_rhs_birth_mass_equals_birth_rate(monkeypatch):
    m0 = gaussian_measure(GRID, 0.5, 1.0, mass=1.2)
    f0 = gaussian_measure(GRID, -0.3, 0.8, mass=0.7)
    dm, _df = _raw_rhs(monkeypatch, m0, f0)
    death = (PERSIST.D_m + PERSIST.U_mm * m0.mass + PERSIST.U_mf * f0.mass) * m0.weights
    lam = 0.5 * (PERSIST.p_f * f0.mass + PERSIST.p_m * m0.mass)
    assert (dm + death).sum() == pytest.approx(lam, abs=1e-12)


def _rate(rates, name, *traits):
    entry = getattr(rates, name)
    return float(entry(*traits)) if callable(entry) else entry


def _model_rhs(rates, kernel, grid, m, f):
    """The raw system written out cell by cell: every female mates at rate
    p_f with a male drawn from p_m m / <p_m, m>, every male at rate p_m with
    a female drawn from p_f f / <p_f, f>, half the young are of each sex, and
    a sex-a individual at x dies at rate D_a(x) + sum_y U_ab(x, y) b(y) over
    both sexes b."""
    x = grid.centers
    wf = np.array([_rate(rates, "p_f", xi) for xi in x]) * f
    wm = np.array([_rate(rates, "p_m", xi) for xi in x]) * m
    birth = 0.5 * (1.0 / wm.sum() + 1.0 / wf.sum()) * birth_weights_exact(kernel, wf, wm, grid)
    out = []
    for a, w in (("m", m), ("f", f)):
        death = [_rate(rates, f"D_{a}", xi)
                 + sum(_rate(rates, f"U_{a}m", xi, yj) * m[j] for j, yj in enumerate(x))
                 + sum(_rate(rates, f"U_{a}f", xi, yj) * f[j] for j, yj in enumerate(x))
                 for xi in x]
        out.append(birth - np.array(death) * w)
    return np.array(out)


_TRAIT_RATES = RateSet(p_f=lambda x: 1.0 + 0.2 * x * x, p_m=2.0,
                       D_f=1.0, D_m=lambda x: 0.5 + 0.1 * np.abs(x),
                       U_ff=lambda x, y: 0.2 + 0.05 * (x - y) ** 2, U_fm=0.25,
                       U_mf=lambda x, y: 0.1 + 0.02 * np.abs(x + y), U_mm=0.3)


@pytest.mark.filterwarnings("ignore:inheritance rows shed noticeable mass")
@pytest.mark.parametrize("rates", [PERSIST, _TRAIT_RATES], ids=["constant", "callable"])
def test_integrate_rhs_follows_the_model_equations(monkeypatch, rates):
    # weights bounded away from zero, so the exact contraction skips no pair
    grid = TraitGrid(-3.0, 3.0, 24)
    rng = np.random.default_rng(7)
    m, f = rng.uniform(0.1, 1.0, (2, 24)) * np.array([[0.05], [0.08]])
    state = MacroState(GridMeasure(grid, m), GridMeasure(grid, f))
    rhs = _rhs_handed_to_march(monkeypatch, integrate, state, rates, KERNEL)
    want = _model_rhs(rates, KERNEL, grid, m, f)
    got = rhs(0.0, np.stack([m, f]))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


@pytest.mark.filterwarnings("ignore:inheritance rows shed noticeable mass")
def test_integrate_normalized_rhs_follows_the_model_equations(monkeypatch):
    # mu' = P(mu, nu) - mu and nu' = A(t) (P(mu, nu) - nu), with P taken of
    # the normalized inputs, also off unit mass
    grid = TraitGrid(-3.0, 3.0, 24)
    rng = np.random.default_rng(8)
    mu, nu = rng.uniform(0.1, 1.0, (2, 24))
    mu0, nu0 = (GridMeasure(grid, w / w.sum()) for w in (mu, nu))
    rhs = _rhs_handed_to_march(monkeypatch, integrate_normalized, mu0, nu0,
                               lambda t: 2.0 + t, KERNEL)
    p = birth_weights_exact(KERNEL, mu / mu.sum(), nu / nu.sum(), grid)
    want = np.array([p - mu, (2.0 + 0.5) * (p - nu)])
    got = rhs(0.5, np.stack([mu, nu]))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


def test_empty_sex_class_means_pure_death(monkeypatch):
    zero = GridMeasure(GRID, np.zeros(GRID.n_cells))
    m0 = gaussian_measure(GRID, 0.0, 1.0)
    dm, df = _raw_rhs(monkeypatch, m0, zero)
    assert np.all(dm <= 0.0)
    assert np.all(df == 0.0)
    # each accepted step is counted once, not once per stage
    traj = integrate(MacroState(m0, zero), PERSIST, KERNEL,
                     SolverConfig(dt=0.01, t_end=2.0, sample_stride=50))
    diag = traj.diagnostics
    assert 0 < diag.empty_denominator_steps == diag.accepted_steps < 200
    assert traj.states[-1].m.mass < m0.mass


def _zero(x):
    return 0 * x


@pytest.mark.parametrize("silent", ["male", "female"])
def test_sex_without_mating_capability_is_chosen_uniformly(silent):
    # with no capability on one side, each individual of the other sex mates
    # at its own rate with a partner drawn from the silent sex's trait law,
    # as the stochastic engine does; masses are off one so that a missing
    # normalization shows
    p_f, p_m = (1.5, _zero) if silent == "male" else (_zero, 1.5)
    rates = RateSet(p_f=p_f, p_m=p_m, D_f=1.0, D_m=1.0, U_ff=0.25, U_fm=0.25, U_mf=0.25,
                    U_mm=0.25)
    m = gaussian_measure(GRID, 0.5, 1.0, mass=1.7).weights
    f = gaussian_measure(GRID, -0.3, 0.8, mass=0.6).weights
    birth, *_, empty = macro._birth_and_death(_GridRates(rates, GRID), KERNEL, GRID, m, f)
    if silent == "male":
        want = 0.5 * birth_weights(KERNEL, 1.5 * f, m / m.sum(), GRID)
    else:
        want = 0.5 * birth_weights(KERNEL, f / f.sum(), 1.5 * m, GRID)
    np.testing.assert_array_equal(birth, want)
    # half of the young born at the mating sex's total rate are of each sex
    mating_mass = f.sum() if silent == "male" else m.sum()
    assert birth.sum() == pytest.approx(0.5 * 1.5 * mating_mass, rel=1e-12)
    assert not empty


def test_no_mating_capability_on_either_side_is_pure_death(monkeypatch):
    rates = RateSet(p_f=_zero, p_m=_zero, D_f=1.0, D_m=1.0, U_ff=0.25, U_fm=0.25, U_mf=0.25,
                    U_mm=0.25)
    m0 = gaussian_measure(GRID, 0.5, 1.0, mass=1.2)
    f0 = gaussian_measure(GRID, -0.3, 0.8, mass=0.7)
    dm, df = _raw_rhs(monkeypatch, m0, f0, rates)
    death = 1.0 + 0.25 * (m0.mass + f0.mass)
    np.testing.assert_allclose(dm, -death * m0.weights, rtol=1e-14, atol=0)
    np.testing.assert_allclose(df, -death * f0.weights, rtol=1e-14, atol=0)
    traj = integrate(MacroState(m0, f0), rates, KERNEL,
                     SolverConfig(dt=0.01, t_end=1.0, sample_stride=50))
    diag = traj.diagnostics
    assert 0 < diag.empty_denominator_steps == diag.accepted_steps
    assert traj.states[-1].m.mass < m0.mass and traj.states[-1].f.mass < f0.mass


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


def _criterion_5_start(n_cells=512):
    """Grid and initial measures of the acceptance criterion-5 flow."""
    grid = TraitGrid(-8.0, 8.0, n_cells)
    mu0 = gaussian_measure(grid, 0.7, 0.6)
    nu0 = GridMeasure(grid, 0.5 * (gaussian_measure(grid, 0.2, 0.4).weights
                                   + gaussian_measure(grid, 1.2, 0.4).weights))
    return grid, mu0, nu0


def test_normalized_masses_stay_unit_without_renormalization(monkeypatch):
    # the criterion-5 flow, where unit mass is a saddle of the plain flow
    # (the masses grow like e^(sqrt(1.5) t) from rounding) and the RHS alone
    # now holds it; with no state change between steps the FSAL stage
    # carries, so each accepted step costs twelve birth images
    import dimorph.macro

    calls = []

    def counted(*args):
        calls.append(1)
        return birth_weights(*args)

    monkeypatch.setattr(dimorph.macro, "birth_weights", counted)
    grid, mu0, nu0 = _criterion_5_start()
    traj = integrate_normalized(mu0, nu0, 1.5, AdditiveNoiseKernel(GaussianNoise(0.5)),
                                SolverConfig(dt=0.01, t_end=30.0, sample_stride=100))
    diag = traj.diagnostics
    assert diag.max_mass_drift <= 1e-12
    assert (diag.clipped_mass, diag.rejected_steps) == (0.0, 0)
    assert len(calls) == 12 * diag.accepted_steps + 1


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


def _independent_rk4(y, t0, dt, n_steps, rhs):
    """Classic RK4 by the literal dt, step i starting at t0 + i * dt
    (Hairer, Norsett & Wanner, Solving ODEs I, II.1)."""
    ys = [y]
    for i in range(n_steps):
        t = t0 + i * dt
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys.append(y)
    return ys


def _rk4_run(monkeypatch, solve, *args):
    """solve(*args) with march replaced by _independent_rk4 over the
    right-hand side the solver hands it, sampled at march's sample times:
    a reference that shares no code with march. Its states are neither
    clipped nor shown to after_step."""
    def rk4_march(y0, t0, rhs, cfg, _diag, _after_step=None):
        n = round(cfg.t_end / cfg.dt)
        ys = _independent_rk4(y0, t0, cfg.dt, n, rhs)
        for k in (*range(0, n, cfg.sample_stride), n):
            yield t0 + k * cfg.dt, ys[k]

    with monkeypatch.context() as patched:
        patched.setattr(macro, "march", rk4_march)
        return solve(*args)


def test_time_step_refinement_order(monkeypatch):
    mu0 = gaussian_measure(GRID, 1.0, 0.6)
    nu0 = gaussian_measure(GRID, -0.5, 0.9)

    def run(dt):
        traj = _rk4_run(monkeypatch, integrate_normalized, mu0, nu0, 1.5, KERNEL,
                        SolverConfig(dt=dt, t_end=2.0, sample_stride=10**9))
        return np.concatenate([traj.mus[-1].weights, traj.nus[-1].weights])

    y1, y2, y4 = run(0.04), run(0.02), run(0.01)
    e12 = np.abs(y1 - y2).sum()
    e24 = np.abs(y2 - y4).sum()
    assert np.log2(e12 / e24) >= 3.5


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
    bound = _GridRates(PERSIST, GRID).dt_bound(m0.weights, m0.weights)
    with pytest.raises(ValueError):
        integrate(MacroState(m0, m0), PERSIST, KERNEL,
                  SolverConfig(dt=2.0 * bound, t_end=1.0))
    with pytest.raises(ValueError, match="share one grid"):
        MacroState(m0, gaussian_measure(TraitGrid(-8.0, 8.0, 64), 0.0, 1.0))


def test_normalized_dt_bound_enforced():
    # the bound is 0.1 / max(1, A) = 0.02 at A = 5
    m0 = gaussian_measure(GRID, 0.0, 1.0)
    with pytest.raises(ValueError, match="exceeds the stability bound 2.000e-02"):
        integrate_normalized(m0, m0, 5.0, KERNEL, SolverConfig(dt=0.025, t_end=1.0))
    traj = integrate_normalized(m0, m0, 5.0, KERNEL,
                                SolverConfig(dt=0.02, t_end=0.1, sample_stride=5))
    assert traj.diagnostics.dt_bound == pytest.approx(0.02)
    cfg = SolverConfig(dt=0.01, t_end=0.1)
    for mu0, nu0, a, message in (
            (m0, gaussian_measure(TraitGrid(-8.0, 8.0, 64), 0.0, 1.0), 1.0, "share one grid"),
            (m0, gaussian_measure(GRID, 0.0, 1.0, mass=1.5), 1.0, "nu0 must be a probability"),
            (m0, m0, lambda _t: 0.0, "sex-ratio constant must be positive")):
        with pytest.raises(ValueError, match=message):
            integrate_normalized(mu0, nu0, a, KERNEL, cfg)


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
    # under a constant rhs one DOP853 step is the Euler step, with an error
    # estimate of zero: it takes the first weight to -0.5 and the second to
    # 0.6; the clipped mass is reported, not put back
    def rhs(_t, y):
        return np.array([[-10.0, 1.0]])

    diag = SolverDiagnostics()
    cfg = SolverConfig(dt=0.1, t_end=0.1)
    (_, _), (t, out) = march(np.array([[0.5, 0.5]]), 0.0, rhs, cfg, diag)
    assert t == 0.1 and diag.accepted_steps == 1
    np.testing.assert_allclose(out, [[0.0, 0.6]], rtol=0, atol=1e-15)
    assert diag.clipped_mass == pytest.approx(0.5)


def test_normalized_mass_off_unit_is_attracted_back():
    # off unit mass the RHS gives m' = 1 - m and n' = A (1 - n): a start
    # 5e-10 above unit mass, which the input check lets through, decays
    # like e^-t and e^-At
    mu0 = gaussian_measure(GRID, 1.0, 0.5, mass=1.0 + 5e-10)
    nu0 = gaussian_measure(GRID, -1.0, 0.5, mass=1.0 + 5e-10)
    traj = integrate_normalized(mu0, nu0, 2.0, KERNEL,
                                SolverConfig(dt=0.01, t_end=5.0, sample_stride=50))
    drift_m = np.array([m.mass for m in traj.mus]) - 1.0
    drift_n = np.array([n.mass for n in traj.nus]) - 1.0
    np.testing.assert_allclose(drift_m, drift_m[0] * np.exp(-traj.times), rtol=1e-6, atol=1e-15)
    np.testing.assert_allclose(drift_n, drift_n[0] * np.exp(-2.0 * traj.times),
                               rtol=1e-6, atol=1e-15)
    assert traj.diagnostics.max_mass_drift <= drift_m[0]


def test_positivity_modes_on_synthetic_overshoot():
    # rhs drives the state negative within one step, and the step is
    # accepted with its negative weights zeroed and their mass reported
    def rhs(_t, y):
        return -200.0 * np.ones_like(y)

    diag = SolverDiagnostics()
    cfg = SolverConfig(dt=0.1, t_end=0.1)
    (_, _), (_, out) = march(np.full((1, 4), 0.5), 0.0, rhs, cfg, diag)
    assert np.all(out >= 0.0)
    assert diag.clipped_mass > 0.0
    assert (diag.accepted_steps, diag.rejected_steps) == (1, 0)


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


def test_default_scheme_matches_rk4_on_the_shipped_normalized_setup(monkeypatch):
    # configs/macro_normalized.json, against 10,000 RK4 steps of dt = 1e-3
    mu0 = gaussian_measure(GRID, 1.0, 0.5)
    nu0 = gaussian_measure(GRID, 4.0, 0.5)
    cfg = SolverConfig(dt=1e-3, t_end=10.0, sample_stride=100)
    fast = integrate_normalized(mu0, nu0, 2.0, KERNEL, cfg)
    ref = _rk4_run(monkeypatch, integrate_normalized, mu0, nu0, 2.0, KERNEL, cfg)
    np.testing.assert_array_equal(fast.times, ref.times)
    diff = max(float(np.abs(a.weights - b.weights).max())
               for a, b in zip(fast.mus + fast.nus, ref.mus + ref.nus, strict=True))
    assert diff <= 1e-9
    assert fast.diagnostics.accepted_steps < 1_000


def test_default_scheme_matches_rk4_on_the_shipped_raw_setup(monkeypatch):
    # configs/macro_raw.json, against 2,000 RK4 steps of dt = 0.01
    state0 = MacroState(gaussian_measure(GRID, 0.5, 1.0, mass=1.0),
                        gaussian_measure(GRID, -0.5, 0.8, mass=1.5))
    cfg = SolverConfig(dt=0.01, t_end=20.0, sample_stride=100)
    runs = [integrate(state0, PERSIST, KERNEL, cfg),
            *(_rk4_run(monkeypatch, integrate, state0, PERSIST, KERNEL, c)
              for c in (cfg, replace(cfg, dt=0.005, sample_stride=200)))]
    fast, rk4, rk4_half = ([np.concatenate([s.m.weights, s.f.weights]) for s in r.states]
                           for r in runs)
    np.testing.assert_allclose(runs[0].times, runs[2].times, rtol=0, atol=1e-12)

    def gap(a, b):
        return max(float(np.abs(x - y).max()) for x, y in zip(a, b, strict=True))

    # RK4 is of order 4: its error at dt is e = C dt^4 + O(dt^5), at dt/2 it
    # is e/16, so the gap g between the two runs is 15e/16, RK4(dt) is
    # (16/15)g from the solution and RK4(dt/2) is g/15. DOP853, at least as
    # accurate as the RK4 run it replaces, thus lies within 16g/15 + g/15 =
    # 17g/15 of RK4(dt/2).
    assert gap(fast, rk4_half) <= 17.0 / 15.0 * gap(rk4, rk4_half)
    assert runs[0].diagnostics.accepted_steps < 200
    assert runs[0].diagnostics.rejected_steps == 0


def _moment_oracle_error(grid, mu0, nu0):
    """Largest gap between the first two moments of the normalized flow and
    the closed moment system.

    For an additive kernel an offspring trait is X = (X1 + X2)/2 + Z with
    the parents X1 ~ mu, X2 ~ nu and Z independent. So the birth image P
    has mean p1 = (m + n)/2 and second moment p2 = (a + b + 2mn)/4 + Var Z,
    where m, n are the means and a, b the second moments of mu, nu. Then
    mu' = P - mu and nu' = A (P - nu) give m' = p1 - m, n' = A (p1 - n),
    a' = p2 - a and b' = A (p2 - b). On the grid the noise is taken at
    cell midpoints, and Sheppard's correction makes Var Z = sigma^2 + dx^2/12.
    """
    from scipy.integrate import solve_ivp

    kernel = AdditiveNoiseKernel(GaussianNoise(0.5))
    a_const = 1.5
    traj = integrate_normalized(mu0, nu0, a_const, kernel,
                                SolverConfig(dt=0.01, t_end=30.0, sample_stride=100))
    x = grid.centers
    var_z = 0.5**2 + grid.dx**2 / 12.0

    def moments(mu, nu):
        return [mu.weights @ x, nu.weights @ x, mu.weights @ x**2, nu.weights @ x**2]

    def closed(_t, s):
        m, n, a, b = s
        p1 = 0.5 * (m + n)
        p2 = 0.25 * (a + b + 2.0 * m * n) + var_z
        return [p1 - m, a_const * (p1 - n), p2 - a, a_const * (p2 - b)]

    ref = solve_ivp(closed, (0.0, 30.0), moments(mu0, nu0), method="DOP853",
                    rtol=1e-13, atol=1e-14, t_eval=traj.times)
    got = np.array([moments(mu, nu) for mu, nu in zip(traj.mus, traj.nus)]).T
    return np.abs(got - ref.y).max()


def test_normalized_moments_follow_the_closed_moment_system():
    # the first two moments obey a closed 4-ODE, whatever the step sizes
    assert _moment_oracle_error(*_criterion_5_start()) <= 1e-9


def test_normalized_moments_follow_the_closed_moment_system_on_the_fft_path():
    # the same flow on 1024 cells, where the birth operator runs by FFT
    assert 1024 >= _FFT_MIN_CELLS
    assert _moment_oracle_error(*_criterion_5_start(1024)) <= 1e-9


def test_default_scheme_rejects_a_nan_step_and_gives_up_when_the_budget_is_spent():
    # the rhs has no value past t = 0.0025: every step that reaches beyond
    # it has a NaN error estimate and is rejected, and the steps that stop
    # short of it shrink until none above dt / 2**20 is left
    def rhs(t, y):
        return -y if t <= 0.0025 else np.full_like(y, np.nan)

    cfg = SolverConfig(dt=1e-3, t_end=0.01)
    diag = SolverDiagnostics()
    samples = []
    with pytest.raises(StepRejected, match=r"dt / 2\*\*20"):
        for t, y in march(np.full((1, 4), 0.5), 0.0, rhs, cfg, diag):
            samples.append((t, y.copy()))
    assert [t for t, _ in samples] == [0.0, 0.001, 0.002]
    assert all(np.isfinite(y).all() for _, y in samples)
    assert diag.accepted_steps >= 3
    assert diag.rejected_steps >= 9
    assert diag.clipped_mass == 0.0

    # a constant drain empties the state at t = 0.0025; its error estimate
    # is zero, so every step is accepted and the negative weights are
    # zeroed and reported
    diag = SolverDiagnostics()
    samples = list(march(np.full((1, 4), 0.5), 0.0, lambda _t, y: -200.0 * np.ones_like(y),
                         cfg, diag))
    assert len(samples) == 11
    assert all(y.min() >= 0.0 for _, y in samples)
    assert diag.rejected_steps == 0
    assert diag.clipped_mass > 0.0


def test_after_step_cannot_write_and_each_dop853_step_costs_twelve_rhs_calls():
    # the FSAL stage is carried to the next step, which is sound only while
    # nothing changes the state between steps, so the state is read-only
    calls = []

    def rhs(_t, y):
        calls.append(1)
        return -y

    def halve(y):
        y *= 0.5

    cfg = SolverConfig(dt=0.1, t_end=1.0)
    with pytest.raises(ValueError, match="read-only"):
        list(march(np.ones((2, 3)), 0.0, rhs, cfg, SolverDiagnostics(), halve))

    calls.clear()
    diag = SolverDiagnostics()
    seen = []
    list(march(np.ones((2, 3)), 0.0, rhs, cfg, diag, seen.append))
    assert diag.accepted_steps == len(seen) >= 10
    # one first stage, then twelve per step tried, rejected ones included, so
    # every accepted step's last stage was carried; the final state's rhs
    # is never wanted, so it is not taken
    assert len(calls) == 12 * (diag.accepted_steps + diag.rejected_steps) + 1


# steps end on the sample times, or, given a step cap, run over them
@pytest.mark.parametrize("step_cap", [None, lambda _y: 1.0], ids=["dop853", "dense"])
def test_march_yields_exactly_the_sample_times(step_cap):
    cfg = SolverConfig(dt=0.01, t_end=1.0, sample_stride=30)
    times = [t for t, _ in march(np.ones((1, 2)), 0.3, lambda _t, y: -y, cfg,
                                 SolverDiagnostics(), step_cap=step_cap)]
    assert times == sample_times(cfg, 0.3)
    assert times == [0.3 + k * 0.01 for k in (0, 30, 60, 90, 100)]
    assert [sample_index(times, t) for t in (0.3, 0.9, 1.3)] == [0, 2, 4]
    with pytest.raises(KeyError, match="nearest is 0.6"):
        sample_index(times, 0.65)
    with pytest.raises(KeyError, match="no snapshot at t = 0.3"):
        sample_index([], 0.3)


def test_default_scheme_steps_grow_to_the_sample_interval():
    # a flow at rest: every step but the first few spans a whole interval
    diag = SolverDiagnostics()
    list(march(np.ones((1, 2)), 0.0, lambda _t, y: np.zeros_like(y),
               SolverConfig(dt=0.01, t_end=10.0, sample_stride=50), diag))
    assert diag.accepted_steps <= 20 + 4
    assert diag.rejected_steps == 0


def test_coupled_a_fit_slope_agrees_between_rk4_and_the_default(monkeypatch):
    # configs/macro_coupled.json, against 3,000 RK4 steps of dt = 0.01; at
    # the old absolute floor of 1e-12 the fit read rounding-level points and
    # the two slopes differed by 1.0e-5
    m0 = gaussian_measure(GRID, 0.6, 0.7, mass=0.9)
    f0 = gaussian_measure(GRID, 0.6, 1.1, mass=1.3)
    cfg = SolverConfig(dt=0.01, t_end=30.0, sample_stride=100)
    fast = coupled_full_run(m0, f0, PERSIST, KERNEL, cfg)
    ref = _rk4_run(monkeypatch, coupled_full_run, m0, f0, PERSIST, KERNEL, cfg)
    assert fast.A_fit[0] == pytest.approx(ref.A_fit[0], rel=1e-6)
    assert fast.diagnostics.accepted_steps < 3_000
    # the distance fit reads only the decay above the fixed point's accuracy,
    # not the plateau at 8.4e-9 (r2 was 0.833 when it did)
    for run in (fast, ref):
        assert run.report.fit_r2 >= 0.999
        assert run.report.fit_slope == pytest.approx(-1.0, abs=0.05)
    assert fast.report.fit_slope == pytest.approx(ref.report.fit_slope, rel=1.5e-6)


@pytest.mark.parametrize("fields, message", [
    ({"dt": 0.04, "t_end": 0.01}, "is under half a step"),
    ({"dt": 0.01, "t_end": 0.004}, "is under half a step"),
    ({"dt": float("inf")}, "positive and finite"),
    ({"dt": float("nan")}, "positive and finite"),
    ({"t_end": float("inf")}, "positive and finite"),
    ({"t_end": float("nan")}, "positive and finite"),
    # a float stride would fail only in sample_times, and True would run as 1
    ({"sample_stride": 2.5}, "sample_stride must be an int >= 1, got 2.5"),
    ({"sample_stride": True}, "sample_stride must be an int >= 1, got True"),
    ({"sample_stride": 0}, "sample_stride must be an int >= 1, got 0"),
], ids=["normalized-short", "raw-short", "dt-inf", "dt-nan", "t_end-inf", "t_end-nan",
        "stride-float", "stride-bool", "stride-zero"])
def test_solver_config_needs_finite_times_a_step_and_a_known_scheme(fields, message):
    with pytest.raises(ValueError, match=message):
        SolverConfig(**({"dt": 0.01, "t_end": 1.0} | fields))


def test_solver_config_holds_exactly_the_settings_a_config_may_give():
    # a library setting that no config can reach would be a second way to
    # run the solver that the shipped runs never take
    names = [field.name for field in dataclasses.fields(SolverConfig)]
    assert names == ["dt", "t_end", "sample_stride"]
    assert parse_solver(dict(zip(names, (0.01, 1.0, 2)))) == SolverConfig(0.01, 1.0, 2)
    with pytest.raises(ConfigError, match="the solver takes dt, t_end and sample_stride$"):
        parse_solver({"dt": 0.01, "t_end": 1.0, "scheme": "rk4"})
