"""The DOP853 tableau in dimorph.stepping, checked against the conditions
it must meet (Hairer, Norsett & Wanner, Solving ODEs I, II.10), and the
order its step shows on a problem with a known solution."""

import math

import numpy as np
import pytest

from dimorph.stepping import _A, _BHH, _C, _E5, _dop853

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
