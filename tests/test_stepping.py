"""The DOP853 tableau in dimorph.stepping, checked against the conditions
it must meet (Hairer, Norsett & Wanner, Solving ODEs I, II.10), and the
order its step shows on a problem with a known solution; its continuous
extension (II.6), checked against scipy's coefficients, its order, and
what march reads from it."""

import math

import numpy as np
import pytest
from scipy.integrate._ivp import dop853_coefficients

from dimorph.errors import NonFiniteState
from dimorph.stepping import (_A, _A_DENSE, _BHH, _C, _C_DENSE, _D, _E5, SolverConfig,
                              SolverDiagnostics, _dense, _dop853, _interpolate, march)

B = _A[12]


def test_stage_rows_sum_to_their_nodes():
    assert len(_A) == len(_C) + 1 == 13
    for i, row in enumerate(_A[:12]):
        assert row.size == i
        assert math.fsum(row) == pytest.approx(_C[i], rel=0, abs=1e-14)
    # stage 12 is the eighth-order solution, so its node is the step's end
    assert math.fsum(B) == pytest.approx(1.0, rel=0, abs=1e-14)


def test_weights_integrate_polynomials_to_degree_seven_and_no_further():
    # sum_i b_i c_i^(k-1) = 1/k, the quadrature conditions of order k
    c = np.array(_C)
    for k in range(1, 9):
        assert k * math.fsum(B * c ** (k - 1)) == pytest.approx(1.0, rel=0, abs=1e-14), k
    assert 9 * math.fsum(B * c**8) == pytest.approx(1.00024, rel=0, abs=1e-5)


def test_both_error_estimates_vanish_on_a_constant_rhs():
    # E5 and E3 = b - bhh are differences of two solutions' weights
    assert _E5.size == _BHH.size == 12
    assert math.fsum(_E5) == pytest.approx(0.0, rel=0, abs=1e-14)
    assert math.fsum(B - _BHH) == pytest.approx(0.0, rel=0, abs=1e-14)


def _logistic_max_error(n_steps):
    """Largest error of n_steps fixed DOP853 steps of y' = 2y(1 - y) from
    y(0) = 0.01 to t = 8, against 1 / (1 + 99 e^(-2t))."""
    def rhs(_t, y):
        return 2.0 * y * (1.0 - y)

    h = 8.0 / n_steps
    y = np.array([[0.01]])
    k1 = rhs(0.0, y)
    ks = np.empty((12, 1))
    worst = 0.0
    for i in range(n_steps):
        y, k1, _ = _dop853(y, i * h, h, k1, rhs, ks)
        t = (i + 1) * h
        worst = max(worst, abs(float(y[0, 0]) - 1.0 / (1.0 + 99.0 * math.exp(-2.0 * t))))
    return worst


def test_fixed_step_dop853_converges_at_order_eight():
    # from 16 to 64 steps the error falls from about 2e-8 to 3e-13, far
    # above rounding, and the observed order is log2 of its drop per halving
    coarse, fine = _logistic_max_error(16), _logistic_max_error(64)
    assert fine > 1e-14
    assert 7.5 <= math.log2(coarse / fine) / 2 <= 8.5


def test_stability_interval_ends_near_minus_6_39():
    # R(z) = 1 + z b^T (I - zA)^-1 1 on the negative real axis
    a = np.zeros((12, 12))
    for i, row in enumerate(_A[:12]):
        a[i, :i] = row

    def amplification(z):
        return abs(1.0 + z * B @ np.linalg.solve(np.eye(12) - z * a, np.ones(12)))

    assert all(amplification(z) <= 1.0 for z in np.linspace(-6.38, -0.01, 200))
    assert amplification(-6.40) > 1.0


def test_continuous_extension_coefficients_equal_scipys():
    # stages 13-15 and the 4 x 16 weights of the interpolant's last rows
    assert np.array_equal(_C_DENSE, dop853_coefficients.C[13:16])
    for i, row in enumerate(_A_DENSE, start=13):
        assert np.array_equal(row, dop853_coefficients.A[i, :i]), i
    assert np.array_equal(_D, dop853_coefficients.D)


def _logistic(t):
    return 1.0 / (1.0 + 99.0 * math.exp(-2.0 * t))


def _interpolant_local_error(h):
    """Largest error of the interpolant at step fractions 1/4, 1/2 and 3/4
    of one DOP853 step of y' = 2y(1 - y) of length h from the exact state
    at t = 1."""
    def rhs(_t, y):
        return 2.0 * y * (1.0 - y)

    y = np.array([_logistic(1.0)])
    ks = np.empty((16, 1))
    y_new, k_new, _ = _dop853(y, 1.0, h, rhs(1.0, y), rhs, ks)
    x = np.array([0.25, 0.5, 0.75])
    got = _interpolate(_dense(y, 1.0, h, y_new, k_new, rhs, ks), y, x)[:, 0]
    return max(abs(g - _logistic(1.0 + xi * h)) for g, xi in zip(got, x))


def test_continuous_extension_has_order_seven():
    # an interpolant of order p errs by O(h^(p+1)) inside one step; from
    # h = 0.4 to 0.1 the error falls from about 7e-9 to 1e-13, far above
    # rounding, so log2 of its drop per halving is p + 1
    coarse, fine = _interpolant_local_error(0.4), _interpolant_local_error(0.1)
    assert fine > 1e-15
    assert 6.5 <= math.log2(coarse / fine) / 2 - 1 <= 7.5


def _clocked_logistic(t_end, dt, sample_stride, step_cap, rate=2.0):
    """A dense march of y' = rate y(1 - y) beside a clock c' = 1, so each
    stepped state tells the time it was taken at: (samples, stepped states,
    diagnostics, RHS calls)."""
    calls = []

    def rhs(t, y):
        calls.append(t)
        return np.array([1.0, rate * y[1] * (1.0 - y[1])])

    stepped, diag = [], SolverDiagnostics()
    cfg = SolverConfig(dt=dt, t_end=t_end, sample_stride=sample_stride)
    samples = list(march(np.array([0.0, 0.01]), 0.0, rhs, cfg, diag,
                         after_step=stepped.append, step_cap=step_cap))
    return samples, stepped, diag, len(calls)


def test_a_sample_on_a_step_end_is_the_stepped_state():
    # steps capped at dt = 0.25 from t = 0 end exactly on every sample time,
    # and the slow logistic rejects none of them
    samples, stepped, diag, calls = _clocked_logistic(4.0, 0.25, 1, lambda _y: 0.25,
                                                      rate=0.2)
    assert [t for t, _ in samples] == [0.25 * k for k in range(17)]
    assert len(stepped) == diag.accepted_steps == 16 and diag.rejected_steps == 0
    for (_, y), y_step in zip(samples[1:], stepped):
        assert y is y_step
    # no sample lies inside a step, so no stage of the extension is paid
    assert calls == 12 * (diag.accepted_steps + diag.rejected_steps) + 1
    # a free run ends on a step end too
    samples, stepped, _, _ = _clocked_logistic(8.0, 0.1, 1, lambda _y: math.inf)
    assert samples[-1][1] is stepped[-1]


@pytest.mark.parametrize("sample_stride", [1, 7, 80])
def test_dense_run_pays_three_rhs_calls_per_step_holding_a_sample(sample_stride):
    samples, stepped, diag, calls = _clocked_logistic(8.0, 0.1, sample_stride,
                                                      lambda _y: math.inf)
    assert diag.rejected_steps + diag.accepted_steps < 80
    ends = [0.0, *(float(y[0]) for y in stepped)]
    # a sample on a step end is that state; every other lies well inside a step
    on_end = {id(y) for y in stepped}
    inner = [t for t, y in samples[1:] if id(y) not in on_end]
    assert all(min(abs(t - e) for e in ends) > 1e-9 for t in inner)
    holding = sum(any(a < t < b for t in inner) for a, b in zip(ends, ends[1:]))
    assert (holding > 0) == (sample_stride < 80)
    assert calls == 12 * (diag.accepted_steps + diag.rejected_steps) + 3 * holding + 1
    # each interpolated sample is the logistic within the run's accuracy
    worst = max(abs(y[1] - _logistic(t)) for t, y in samples)
    assert worst < 1e-8
    assert diag.clipped_interpolated_mass == 0.0


def test_negative_interpolated_weights_are_zeroed_and_counted_apart():
    # y = (t - 0.5)(t - 2) + 0.1: DOP853 is exact on it, so the steps are
    # 0 -> 0.5 (the first trial step dt) and 0.5 -> 2 (the cap), both ends
    # at y = 0.1, while the samples at t = 1 and 1.5 lie at y = -0.4
    stepped, diag = [], SolverDiagnostics()
    samples = list(march(np.array([1.1]), 0.0, lambda t, _y: np.array([2.0 * t - 2.5]),
                         SolverConfig(dt=0.5, t_end=2.0), diag,
                         after_step=stepped.append, step_cap=lambda _y: 2.0))
    assert [t for t, _ in samples] == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert diag.accepted_steps == len(stepped) == 2
    assert all(float(y[0]) == pytest.approx(0.1, abs=1e-14) for y in stepped)
    assert diag.clipped_mass == 0.0
    assert diag.clipped_interpolated_mass == pytest.approx(0.8, abs=1e-13)
    assert [float(y[0]) for _, y in samples[2:4]] == [0.0, 0.0]
    assert not samples[2][1].flags.writeable


def test_a_nan_in_an_interpolated_sample_raises():
    # the rhs is NaN at its 27th call only: the middle extension stage of
    # the second step, which holds the sample time 0.5. No error test reads
    # the extension's stages, so the NaN reaches the sample, where the
    # positivity step names it
    calls = []

    def rhs(_t, y):
        calls.append(1)
        return np.full_like(y, np.nan) if len(calls) == 27 else -y

    diag, samples = SolverDiagnostics(), []
    with pytest.raises(NonFiniteState, match="interpolated sample has 2 non-finite weights"):
        for t, _y in march(np.ones((1, 2)), 0.0, rhs, SolverConfig(dt=0.25, t_end=3.0), diag,
                           step_cap=lambda _y: 1.0):
            samples.append(t)
    assert samples == [0.0, 0.25]
    # one first stage, twelve for each of the two steps, three for the extension
    assert (diag.accepted_steps, diag.rejected_steps, len(calls)) == (2, 0, 1 + 12 * 2 + 3)


def test_a_nan_first_stage_raises_instead_of_shrinking_the_step():
    # the rhs is NaN at its 13th call only: the last stage of the first
    # step, the right-hand side at the accepted state t = 0.1, which no
    # error test reads and which the next step takes as its first stage.
    # Every retry would reuse it, so the first rejection names it
    calls = []

    def rhs(_t, y):
        calls.append(1)
        return np.full_like(y, np.nan) if len(calls) == 13 else -y

    diag = SolverDiagnostics()
    with pytest.raises(NonFiniteState, match=r"right-hand side has 1 non-finite values at the "
                                             r"state at t = 0\.1,"):
        list(march(np.ones(1), 0.0, rhs, SolverConfig(dt=0.1, t_end=1.0), diag))
    # one first stage, twelve for the accepted step, twelve for the one that raises
    assert (diag.accepted_steps, diag.rejected_steps, len(calls)) == (1, 0, 1 + 12 * 2)
