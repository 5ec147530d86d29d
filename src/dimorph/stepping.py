"""Explicit time stepping shared by the deterministic solvers.

One loop advances a stacked state array (one row per component). The
default scheme is DOP853, the embedded Runge-Kutta pair of order 8 with
error estimates of orders 5 and 3 (Prince & Dormand 1981; Hairer, Norsett
& Wanner, Solving ODEs I, II.10), with step-size control: its first trial
step is dt. A step costs twelve right-hand sides, its last stage being the
next step's first. On the negative real axis it is stable up to
h*lambda = -6.39, against -3.31 for the Dormand-Prince 5(4) pair it
replaced, both from R(z) = 1 + z b^T (I - zA)^-1 1. Every solver in the
package runs DOP853; classic RK4, with steps of at most dt, is kept as the
tests' pinned reference.

By default a step grows up to the sample interval dt * sample_stride, and
each sample interval is split into equal steps, so every sample time is a
step end. A caller may instead cap each step by a function of the state it
starts from (march's step_cap). Steps then run over the sample times, and
a sample time strictly inside an accepted step is read from Hairer's
continuous extension of DOP853 (Solving ODEs I, II.6; CONTD8 in
dop853.f), an order-7 interpolant for three more right-hand sides per
such step. Both schemes refuse a dt above the caller's bound before the
first step and zero negative weights after every step, reporting their
mass, and an interpolated sample is treated the same way under its own
counter; an accepted state with a NaN weight raises. The trait-resolved,
normalized and planar total-mass integrators differ only in their
right-hand sides, their bound and what they do with the samples.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import NonFiniteState, StepRejected

__all__ = ["SolverConfig", "SolverDiagnostics", "march", "sample_index", "sample_times"]

# The error test may shrink a step to dt / 2**_MAX_HALVINGS before the run
# gives up.
_MAX_HALVINGS = 20
# Relative tolerance of the error-controlled scheme, fixed by design.
_RTOL = 1e-10
# DOP853 is stable on the negative real axis for h*lambda down to -6.3937.
_STABLE_REAL = 6.39

# DOP853, from Hairer's dop853.f rounded to double: the stage nodes, the
# stage rows (row 12 holds the eighth-order weights, so stage 12 is the
# next step's first: FSAL), and the weights of the two error estimates,
# E5 and E3 = b - bhh; neither reads stage 12.
_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0)
_A = tuple(np.array(row) for row in (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
))
_E5 = np.array((0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
                -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                0.3341791187130175, 0.08192320648511571, -0.022355307863886294))
_BHH = np.array((0.2440944881889764, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                 0.7338466882816118, 0.0, 0.0, 0.022058823529411766))
# the eighth-order increment and both error estimates in one product
_OUT = np.stack([_A[12], _E5, _A[12] - _BHH])

# The continuous extension (dop853.f, CONTD8): stages 13-15 at the nodes
# _C_DENSE, whose rows read stages 0-12 (stage 12 is the RHS at the step's
# end), and the weights _D giving the interpolant's last four rows.
_C_DENSE = (0.1, 0.2, 0.7777777777777778)
_A_DENSE = tuple(np.array(row) for row in (
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
     0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
))
_D = np.array((
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
))

Rhs = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SolverConfig:
    """Explicit solver settings.

    scheme: "dop853" (error-controlled, first step dt, largest step
    dt * sample_stride unless march is given a step cap), which every
    solver runs, or "rk4" (steps of at most dt), the tests' pinned
    reference.
    dt and t_end must be finite and give at least one step; sample_stride
    is an int of at least 1.
    """

    dt: float
    t_end: float
    scheme: str = "dop853"
    sample_stride: int = 1

    def __post_init__(self) -> None:
        if not (0 < self.dt < math.inf and 0 < self.t_end < math.inf):
            raise ValueError(f"dt and t_end must be positive and finite, "
                             f"got {self.dt} and {self.t_end}")
        if round(self.t_end / self.dt) < 1:
            raise ValueError(f"t_end = {self.t_end} is under half a step of dt = {self.dt}, "
                             f"so the run would take no step")
        if self.scheme not in ("dop853", "rk4"):
            raise ValueError(f"unknown scheme {self.scheme!r}; scheme must be 'dop853' or 'rk4'")
        if type(self.sample_stride) is not int or self.sample_stride < 1:
            raise ValueError(f"sample_stride must be an int >= 1, got {self.sample_stride!r}")


@dataclass
class SolverDiagnostics:
    """Positivity interventions, degenerate-denominator bookkeeping, the dt
    bound and the step counts. clipped_mass counts the negative mass zeroed
    in stepped states, clipped_interpolated_mass that zeroed in samples
    read between them."""

    clipped_mass: float = 0.0
    clipped_interpolated_mass: float = 0.0
    empty_denominator_steps: int = 0
    max_mass_drift: float = 0.0
    dt_bound: float = float("inf")
    accepted_steps: int = 0
    rejected_steps: int = 0


def sample_times(cfg: SolverConfig, t0: float = 0.0) -> list[float]:
    """The times march yields: t0 + k*dt for k = 0, sample_stride,
    2*sample_stride, ... and the last step k = round(t_end / dt)."""
    n_steps = round(cfg.t_end / cfg.dt)
    return [t0 + k * cfg.dt for k in (*range(0, n_steps, cfg.sample_stride), n_steps)]


def sample_index(times: Sequence[float], t: float) -> int:
    """Index of the sample time within 1e-9 + 1e-9 |t| of t; KeyError
    naming the nearest sample time when there is none."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise KeyError(f"no snapshot at t = {t}")
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) > 1e-9 + 1e-9 * abs(t):
        raise KeyError(f"no snapshot at t = {t}; nearest is {times[i]}")
    return i


def _dop853(y: np.ndarray, t: float, h: float, k1: np.ndarray, rhs: Rhs, ks: np.ndarray):
    """One DOP853 step from (t, y) with first stage k1: the eighth-order
    solution, its RHS (stage 12, the next step's first) and the two error
    estimates (E5, E3), flat and not yet multiplied by h. Stages 0-11 are
    the first rows of ks, a (12 or 16, y.size) array the caller reuses, so
    each stage input is one product over it. The products run in einsum, not BLAS:
    a BLAS product's first call maps a work buffer that lifts the peak RSS
    of every solving process by about 0.3 MB."""
    ks[0] = k1.reshape(-1)
    for i in range(1, 12):
        dy = np.einsum("i,ij->j", _A[i], ks[:i]).reshape(y.shape)
        ks[i] = rhs(t + _C[i] * h, y + h * dy).reshape(-1)
    out = np.einsum("ki,ij->kj", _OUT, ks[:12])
    y_new = y + h * out[0].reshape(y.shape)
    return y_new, rhs(t + h, y_new), out[1:]


def _rk4(y: np.ndarray, t: float, h: float, k1: np.ndarray, rhs: Rhs):
    """One classic RK4 step from (t, y) with first stage k1; no stage to
    carry over, no error estimate."""
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), None, None


def _dense(y: np.ndarray, t: float, h: float, y_new: np.ndarray, k_new: np.ndarray,
           rhs: Rhs, ks: np.ndarray) -> np.ndarray:
    """The seven rows of the continuous extension of the accepted DOP853
    step of length h from (t, y) to y_new, whose RHS is k_new; the step's
    stages 0-11 are still in ks, a (16, y.size) array that receives stages
    12-15. Three RHS calls."""
    ks[12] = k_new.reshape(-1)
    for i, (c, a) in enumerate(zip(_C_DENSE, _A_DENSE), start=13):
        dy = np.einsum("i,ij->j", a, ks[:i]).reshape(y.shape)
        ks[i] = rhs(t + c * h, y + h * dy).reshape(-1)
    rows = np.empty((7, ks.shape[1]))
    rows[0] = (y_new - y).reshape(-1)
    rows[1] = h * ks[0] - rows[0]
    rows[2] = 2.0 * rows[0] - h * (ks[12] + ks[0])
    rows[3:] = h * np.einsum("ki,ij->kj", _D, ks)
    return rows


def _interpolate(rows: np.ndarray, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The interpolant of _dense at the step fractions x, one flat state per
    row: y + x(r0 + (1-x)(r1 + x(r2 + (1-x)(r3 + x(r4 + (1-x)(r5 + x r6)))))."""
    x = x[:, None]
    acc = rows[6] * x
    for i in range(5, -1, -1):
        acc = (acc + rows[i]) * (x if i % 2 == 0 else 1.0 - x)
    return y.reshape(-1) + acc


def _positive(y: np.ndarray, diag: SolverDiagnostics,
              counter: str = "clipped_mass") -> np.ndarray:
    """y itself when no weight is negative, else a copy with the negative
    weights zeroed and their mass added to the diag field named counter.

    Raises NonFiniteState for a NaN or -inf weight. Both fail the sign test,
    so the clean path pays nothing for the check; a +inf weight alone
    passes it.
    """
    if y.min() >= 0.0:
        return y
    if not np.isfinite(y).all():
        what = "accepted state" if counter == "clipped_mass" else "interpolated sample"
        raise NonFiniteState(f"{what} has {np.count_nonzero(~np.isfinite(y))} "
                             f"non-finite weights")
    setattr(diag, counter, getattr(diag, counter) + float(-y[y < 0].sum()))
    return np.clip(y, 0.0, None)


def march(y0: np.ndarray, t0: float, rhs: Rhs, cfg: SolverConfig,
          diag: SolverDiagnostics,
          after_step: Callable[[np.ndarray], None] | None = None,
          step_cap: Callable[[np.ndarray], float] | None = None
          ) -> Iterator[tuple[float, np.ndarray]]:
    """Advance y0 from t0 to t0 + round(t_end / dt) * dt.

    Raises ValueError before the first step when dt exceeds diag.dt_bound.
    A step is accepted when its error estimate, if the scheme has one, is
    within tolerance (a NaN estimate never is); StepRejected is raised when
    the step that would pass falls below dt / 2**20, and NonFiniteState
    when an accepted state holds NaN (only rk4, with no estimate, accepts
    one). after_step, when given, sees each accepted state, read-only,
    before it is sampled. Yields (t, y) at every time of
    sample_times(cfg, t0), so callers can convert each sample before the
    next step is taken.

    step_cap (dop853 only), when given, caps each step at step_cap(y) of
    the state it starts from instead of at the sample interval, and steps
    run toward the last sample time. A sample time strictly inside an
    accepted step is then read from the continuous extension, negative
    weights zeroed into diag.clipped_interpolated_mass; one on a step end
    is the stepped state.
    """
    if cfg.dt > diag.dt_bound:
        raise ValueError(f"dt = {cfg.dt} exceeds the stability bound {diag.dt_bound:.3e}")
    dop853 = cfg.scheme == "dop853"
    if step_cap is not None and not dop853:
        raise ValueError("step_cap needs the dop853 scheme's continuous extension")
    if dop853:
        ks = np.empty((12 if step_cap is None else 16, np.size(y0)))
        scheme = partial(_dop853, ks=ks)
        h_max = cfg.dt * cfg.sample_stride
    else:
        scheme, h_max = _rk4, cfg.dt
    times = sample_times(cfg, t0)
    t, y, h, k1 = t0, y0, cfg.dt, None
    yield t, y
    i = 1  # the next sample time to yield
    while i < len(times):
        if k1 is None:
            k1 = rhs(t, y)
        if step_cap is None:
            target, cap = times[i], h_max
        else:
            target, cap = times[-1], step_cap(y)
        # equal steps of at most h to the target, so none is a sliver
        n = max(1, math.ceil((target - t) / min(h, cap) - 1e-9))
        step = (target - t) / n
        y_new, k_new, err = scheme(y, t, step, k1, rhs)
        ratio = 0.0
        if dop853:
            scale = max(float(np.abs(y).max()), 1e-300)
            tol = _RTOL * (np.maximum(np.abs(y), np.abs(y_new)) + scale)
            e5, e3 = map(float, (np.abs(err) / tol.reshape(-1)).max(axis=1))
            # Hairer's blend of the two estimates; 0/0 only when both vanish
            den = e5 * e5 + 0.01 * e3 * e3
            ratio = step * e5 * e5 / math.sqrt(den) if den else 0.0
        fac = 5.0 if ratio == 0.0 else 0.9 * ratio ** -0.125
        if not ratio <= 1.0:  # a NaN error is rejected too
            diag.rejected_steps += 1
            h = step * max(0.2, fac)
            if h < cfg.dt / 2**_MAX_HALVINGS:
                raise StepRejected(f"no acceptable step above dt / 2**20 at t = {t}")
            continue
        diag.accepted_steps += 1
        t_old, y_old = t, y
        t = target if n == 1 else t + step
        h = step * min(5.0, fac)
        y = _positive(y_new, diag)
        y.flags.writeable = False
        if after_step is not None:
            after_step(y)
        # the last stage is the next first one only at the state it saw
        k1 = k_new if y is y_new else None
        # times[i:j] lie strictly inside the step, only when step_cap is given
        j = bisect_left(times, t, i)
        if j > i:
            rows = _dense(y_old, t_old, step, y_new, k_new, rhs, ks)
            x = (np.array(times[i:j]) - t_old) / step
            inner = _positive(_interpolate(rows, y_old, x), diag, "clipped_interpolated_mass")
            inner.flags.writeable = False
            for s, y_s in zip(times[i:j], inner):
                yield s, y_s.reshape(y.shape)
        i = j
        if i < len(times) and times[i] == t:
            yield t, y
            i += 1
