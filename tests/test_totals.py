import numpy as np
import pytest
from scipy.integrate import solve_ivp

from dimorph.stepping import _RTOL
from dimorph.totals import (Classification, RateSet, TotalsState, _jacobian_radius,
                            classify, fit_exponential_tail, integrate_totals,
                            poly_relative_residual, positive_roots, stationary_point,
                            totals_rhs)

PERSIST = RateSet.constant(p_f=2.0, p_m=2.0, D_f=1.0, D_m=1.0, U=0.25)
BOUNDARY = RateSet.constant(p_f=1.0, p_m=1.0, D_f=1.0, D_m=1.0, U=0.25)
STRICT_EXTINCT = RateSet.constant(p_f=1.0, p_m=1.0, D_f=2.0, D_m=2.0, U=0.25)
NO_MALE = RateSet.constant(p_f=3.0, p_m=0.0, D_f=1.0, D_m=2.0, U=0.25)
ASYM = RateSet(p_f=3.0, p_m=1.0, D_f=0.8, D_m=1.2,
               U_ff=0.3, U_fm=0.2, U_mf=0.15, U_mm=0.4)


def test_rateset_validation():
    with pytest.raises(ValueError):
        RateSet.constant(p_f=1.0, p_m=1.0, D_f=0.0, D_m=1.0, U=0.25)
    with pytest.raises(ValueError):
        RateSet.constant(p_f=1.0, p_m=1.0, D_f=1.0, D_m=1.0, U=-0.1)
    with pytest.raises(ValueError):
        RateSet.constant(p_f=-1.0, p_m=1.0, D_f=1.0, D_m=1.0, U=0.25)
    with pytest.raises(ValueError):
        RateSet.constant(p_f=0.0, p_m=0.0, D_f=1.0, D_m=1.0, U=0.25)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["p_f", "D_m", "U_fm"])
def test_rateset_rejects_non_finite_constants(name, value):
    entries = dict(p_f=1.0, p_m=1.0, D_f=1.0, D_m=1.0, U_ff=0.25, U_fm=0.25, U_mf=0.25, U_mm=0.25)
    with pytest.raises(ValueError, match=f"{name} must be"):
        RateSet(**(entries | {name: value}))


def test_classify_examples():
    assert classify(BOUNDARY) is Classification.EXTINCTION  # sum exactly 2
    assert classify(PERSIST) is Classification.PERSISTENCE
    no_male_mating = RateSet.constant(p_f=3.0, p_m=0.0, D_f=1.0, D_m=7.0, U=0.25)
    assert classify(no_male_mating) is Classification.PERSISTENCE


def test_classify_scale_invariance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p_f, p_m = rng.uniform(0.0, 4.0, size=2)
        d_f, d_m = rng.uniform(0.2, 3.0, size=2)
        if p_f + p_m == 0.0:
            continue
        base = RateSet.constant(p_f=p_f, p_m=p_m, D_f=d_f, D_m=d_m, U=0.25)
        c = rng.uniform(0.1, 10.0)
        scaled = RateSet.constant(p_f=c * p_f, p_m=c * p_m, D_f=c * d_f, D_m=c * d_m, U=0.25)
        assert classify(base) is classify(scaled)


def test_totals_rhs_examples():
    assert totals_rhs(TotalsState(0.0, 0.0), PERSIST) == (0.0, 0.0)
    dM, dF = totals_rhs(TotalsState(1.3, 1.3), PERSIST)
    assert dM == pytest.approx(dF)  # symmetric rates, symmetric state
    sp = stationary_point(ASYM)
    dM, dF = totals_rhs(TotalsState(sp.M_bar, sp.F_bar), ASYM)
    assert abs(dM) < 1e-10 and abs(dF) < 1e-10
    for masses, message in (((np.nan, 1.0), "finite"), ((1.0, np.inf), "finite"),
                            ((-0.1, 1.0), "non-negative")):
        with pytest.raises(ValueError, match=message):
            TotalsState(*masses)
    # a stacked (2, k) state gives the k single-state values
    states = np.array([[0.0, 1.3, sp.M_bar, 0.4], [0.0, 1.3, sp.F_bar, 3.1]])
    dM, dF = totals_rhs(states, ASYM)
    for k in range(states.shape[1]):
        assert (dM[k], dF[k]) == totals_rhs(TotalsState(*states[:, k]), ASYM)


def test_stationary_symmetric_value():
    # symmetric reduction: M_bar = (p - D) / (2 U) = 2 for p=2, D=1, U=0.25
    sp = stationary_point(PERSIST)
    assert sp.is_persistent
    assert sp.M_bar == pytest.approx(2.0, abs=1e-10)
    assert sp.F_bar == pytest.approx(2.0, abs=1e-10)
    assert sp.residual < 1e-10


def test_stationary_extinction_regime():
    sp = stationary_point(BOUNDARY)
    assert not sp.is_persistent
    assert sp.M_bar is None


def test_closed_form_root_exactly_when_persistent():
    # rates drawn log-uniformly over six decades; the cubic must give one
    # positive root exactly when classify says persistence
    rng = np.random.default_rng(11)
    n_persistent = 0
    for _ in range(400):
        rates = RateSet(*(10.0 ** rng.uniform(-3.0, 3.0, size=8)))
        roots = positive_roots(rates)
        if classify(rates) is Classification.EXTINCTION:
            assert roots == []
            assert not stationary_point(rates).is_persistent
            continue
        n_persistent += 1
        assert len(roots) == 1
        sp = stationary_point(rates)
        assert sp.M_bar == pytest.approx(roots[0][0], rel=1e-5)
        assert sp.F_bar == pytest.approx(roots[0][1], rel=1e-5)
        assert sp.residual < 1e-10
        assert poly_relative_residual(rates, sp.M_bar, sp.F_bar) < 1e-10
        dM, dF = totals_rhs(TotalsState(sp.M_bar, sp.F_bar), rates)
        scale = rates.p_f * sp.F_bar + rates.p_m * sp.M_bar
        assert abs(dM) < 1e-10 * scale and abs(dF) < 1e-10 * scale
    assert 100 < n_persistent < 400


@pytest.mark.parametrize("rates", [
    # p_m = 0: the cubic's leading coefficient vanishes, leaving a quadratic
    RateSet(p_f=3.0, p_m=0.0, D_f=0.8, D_m=1.2, U_ff=0.3, U_fm=0.2, U_mf=0.15, U_mm=0.4),
    # p_f = 0: A = 0 is a root of the cubic and must not be taken
    RateSet(p_f=0.0, p_m=3.0, D_f=0.8, D_m=1.2, U_ff=0.3, U_fm=0.2, U_mf=0.15, U_mm=0.4),
], ids=["p_m-zero", "p_f-zero"])
def test_closed_form_edge_cases(rates):
    assert classify(rates) is Classification.PERSISTENCE
    assert len(positive_roots(rates)) == 1
    sp = stationary_point(rates)
    assert sp.M_bar > 0 and sp.F_bar > 0
    assert poly_relative_residual(rates, sp.M_bar, sp.F_bar) < 1e-10
    dM, dF = totals_rhs(TotalsState(sp.M_bar, sp.F_bar), rates)
    scale = rates.p_f * sp.F_bar + rates.p_m * sp.M_bar
    assert abs(dM) < 1e-10 * scale and abs(dF) < 1e-10 * scale


def test_integrate_fixed_point_is_stationary():
    sp = stationary_point(PERSIST)
    series = integrate_totals(TotalsState(sp.M_bar, sp.F_bar), PERSIST, t_end=100.0, dt=0.01)
    assert np.max(np.abs(series.M - sp.M_bar)) < 1e-8
    assert np.max(np.abs(series.F - sp.F_bar)) < 1e-8


def test_integrate_converges_from_any_start():
    a = integrate_totals(TotalsState(0.1, 5.0), PERSIST, t_end=60.0, dt=0.01)
    b = integrate_totals(TotalsState(5.0, 0.1), PERSIST, t_end=60.0, dt=0.01)
    assert a.M[-1] == pytest.approx(2.0, abs=1e-6)
    assert b.M[-1] == pytest.approx(2.0, abs=1e-6)
    assert a.F[-1] == pytest.approx(b.F[-1], abs=1e-8)


# the shipped totals run from five starts drawn as the cli-batch benchmark draws them
_CLI_STARTS = [tuple(s) for s in np.random.default_rng(0).uniform(0.5, 1.5, size=(5, 2))]


@pytest.mark.parametrize("rates, start, t_end", [
    (PERSIST, (1.0, 1.0), 60.0), (ASYM, (1.0, 1.0), 60.0), (BOUNDARY, (1.0, 1.0), 100.0),
    (STRICT_EXTINCT, (1.0, 1.0), 100.0), (NO_MALE, (1.0, 1.0), 60.0),
    (PERSIST, (0.1, 5.0), 60.0), *((PERSIST, s, 60.0) for s in _CLI_STARTS),
], ids=["persist", "asymmetric", "boundary", "strict-extinct", "no-male", "skewed",
        *(f"cli-start-{i}" for i in range(5))])
def test_dense_series_stays_within_its_step_tolerances_of_a_tight_reference(
        rates, start, t_end):
    # The error test holds each accepted step's local error under _RTOL times
    # (max(|y|, |y_new|) + max|y|) <= 2 _RTOL max|y|; k contracting steps add
    # at most k of those, and a sample read inside a step within the
    # stability cap errs by the same order. A tolerance-1e-13 DOP853 run is
    # the reference.
    series = integrate_totals(TotalsState(*start), rates, t_end=t_end, dt=0.01)
    ref = solve_ivp(lambda _t, y: np.array(totals_rhs(y, rates)), (0.0, t_end),
                    np.array(start, dtype=float), method="DOP853", rtol=1e-13, atol=1e-16,
                    t_eval=series.t)
    got = np.stack([series.M, series.F])
    diag = series.diagnostics
    bound = diag.accepted_steps * _RTOL * 2.0 * np.abs(got).max()
    assert np.abs(got - ref.y).max() <= bound
    assert series.t.size == round(t_end / 0.01) + 1
    assert diag.accepted_steps + diag.rejected_steps < 400
    assert diag.clipped_mass == diag.clipped_interpolated_mass == 0.0


@pytest.mark.parametrize("rates", [PERSIST, ASYM, BOUNDARY, NO_MALE],
                         ids=["persist", "asymmetric", "boundary", "no-male"])
def test_jacobian_radius_is_the_largest_eigenvalue_modulus(rates):
    rng = np.random.default_rng(3)
    for M, F in rng.uniform(0.0, 5.0, size=(20, 2)):
        h = 1e-6
        jac = np.column_stack([
            (np.array(totals_rhs((M + h, F), rates)) - totals_rhs((M - h, F), rates)) / (2 * h),
            (np.array(totals_rhs((M, F + h), rates)) - totals_rhs((M, F - h), rates)) / (2 * h)])
        want = np.abs(np.linalg.eigvals(jac)).max()
        assert _jacobian_radius(rates, M, F) == pytest.approx(want, rel=1e-7)


def test_exponential_tail_fit():
    series = integrate_totals(TotalsState(1.0, 1.0), PERSIST, t_end=30.0, dt=0.01)
    dist = np.hypot(series.M - 2.0, series.F - 2.0)
    slope, r2 = fit_exponential_tail(series.t, dist, floor=1e-12)
    assert slope < 0.0
    assert r2 > 0.99


def test_boundary_decay_is_algebraic():
    # at the threshold the linear terms cancel: M' = -0.5 M^2, so M(t) = 1/(1 + t/2)
    series = integrate_totals(TotalsState(1.0, 1.0), BOUNDARY, t_end=100.0, dt=0.01)
    expected = 1.0 / (1.0 + 0.5 * series.t)
    np.testing.assert_allclose(series.M, expected, rtol=1e-6)
    assert series.M[-1] == pytest.approx(1.0 / 51.0, rel=1e-6)


def test_strict_extinction_is_exponential():
    rates = RateSet.constant(p_f=1.0, p_m=1.0, D_f=2.0, D_m=2.0, U=0.25)
    series = integrate_totals(TotalsState(1.0, 1.0), rates, t_end=60.0, dt=0.01)
    assert series.M[-1] < 1e-6 and series.F[-1] < 1e-6
    slope, r2 = fit_exponential_tail(series.t, np.hypot(series.M, series.F), floor=1e-12)
    assert slope < -0.5 and r2 > 0.99


def test_stationary_handles_badly_scaled_rates():
    nasty = RateSet(p_f=1e6, p_m=1e-6, D_f=1e-3, D_m=1e3,
                    U_ff=1e-6, U_fm=1e3, U_mf=1e-6, U_mm=1e3)
    assert classify(nasty) is Classification.PERSISTENCE
    assert len(positive_roots(nasty)) == 1
    sp = stationary_point(nasty)
    assert sp.is_persistent
    assert poly_relative_residual(nasty, sp.M_bar, sp.F_bar) < 1e-10
    dM, dF = totals_rhs(TotalsState(sp.M_bar, sp.F_bar), nasty)
    scale = nasty.p_f * sp.F_bar + nasty.p_m * sp.M_bar
    assert abs(dM) < 1e-10 * scale and abs(dF) < 1e-10 * scale


def test_require_constant_guards_callables():
    trait = RateSet(p_f=lambda x: 1.0 + 0 * x, p_m=1.0, D_f=1.0, D_m=1.0,
                    U_ff=0.25, U_fm=0.25, U_mf=0.25, U_mm=0.25)
    with pytest.raises(ValueError):
        classify(trait)
    with pytest.raises(ValueError):
        integrate_totals(TotalsState(1.0, 1.0), trait, t_end=1.0)
