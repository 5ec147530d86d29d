"""Explicit time stepping shared by the deterministic solvers.

One loop advances a stacked state array (one row per component). The
default scheme is DOP853, the embedded Runge-Kutta pair of order 8 with
error estimates of orders 5 and 3 (Prince & Dormand 1981; Hairer, Norsett
& Wanner, Solving ODEs I, II.10), with step-size control: its first trial
step is dt and its steps grow up to the sample interval dt * sample_stride.
A step costs twelve right-hand sides, its last stage being the next step's
first. On the negative real axis it is stable up to h*lambda = -6.39,
against -3.31 for the Dormand-Prince 5(4) pair it replaced, both from
R(z) = 1 + z b^T (I - zA)^-1 1. Every solve a config sets up runs DOP853.
Classic RK4, with steps of at most dt, runs only where the code picks it:
for the planar totals, which are sampled at every step, and as the tests'
pinned reference. Each sample interval is split into equal steps, so the
last lands exactly on the sample time. Both schemes refuse a dt above the
caller's bound before the first step and zero negative weights after
every step, reporting their mass; an accepted state with a NaN weight
raises. The trait-resolved, normalized and planar total-mass
integrators differ only in their right-hand sides, their bound and what
they do with the samples.
"""

from __future__ import annotations

import math
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

Rhs = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SolverConfig:
    """Explicit solver settings.

    scheme: "dop853" (error-controlled, first step dt, largest step
    dt * sample_stride), the one a config runs, or "rk4" (steps of at
    most dt), which only callers in code pick.
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
    bound and the step counts."""

    clipped_mass: float = 0.0
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
    the rows of ks, a (12, y.size) array the caller reuses, so each stage
    input is one product over it. The products run in einsum, not BLAS:
    a BLAS product's first call maps a work buffer that lifts the peak RSS
    of every solving process by about 0.3 MB."""
    ks[0] = k1.reshape(-1)
    for i in range(1, 12):
        dy = np.einsum("i,ij->j", _A[i], ks[:i]).reshape(y.shape)
        ks[i] = rhs(t + _C[i] * h, y + h * dy).reshape(-1)
    out = np.einsum("ki,ij->kj", _OUT, ks)
    y_new = y + h * out[0].reshape(y.shape)
    return y_new, rhs(t + h, y_new), out[1:]


def _rk4(y: np.ndarray, t: float, h: float, k1: np.ndarray, rhs: Rhs):
    """One classic RK4 step from (t, y) with first stage k1; no stage to
    carry over, no error estimate. Written out rather than stacked: on the
    totals' 2-vector the extra numpy calls cost more than the step."""
    k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
    k4 = rhs(t + h, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), None, None


def _positive(y: np.ndarray, diag: SolverDiagnostics) -> np.ndarray:
    """y itself when no weight is negative, else a copy with the negative
    weights zeroed and their mass added to diag.clipped_mass.

    Raises NonFiniteState for a NaN or -inf weight. Both fail the sign test,
    so the clean path pays nothing for the check; a +inf weight alone
    passes it.
    """
    if y.min() >= 0.0:
        return y
    if not np.isfinite(y).all():
        raise NonFiniteState(f"accepted state has {np.count_nonzero(~np.isfinite(y))} "
                             f"non-finite weights")
    diag.clipped_mass += float(-y[y < 0].sum())
    return np.clip(y, 0.0, None)


def march(y0: np.ndarray, t0: float, rhs: Rhs, cfg: SolverConfig,
          diag: SolverDiagnostics,
          after_step: Callable[[np.ndarray], None] | None = None
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
    """
    if cfg.dt > diag.dt_bound:
        raise ValueError(f"dt = {cfg.dt} exceeds the stability bound {diag.dt_bound:.3e}")
    dop853 = cfg.scheme == "dop853"
    if dop853:
        scheme = partial(_dop853, ks=np.empty((12, np.size(y0))))
        h_max = cfg.dt * cfg.sample_stride
    else:
        scheme, h_max = _rk4, cfg.dt
    t, y, h, k1 = t0, y0, cfg.dt, None
    yield t, y
    for t_next in sample_times(cfg, t0)[1:]:
        while t < t_next:
            if k1 is None:
                k1 = rhs(t, y)
            # equal steps of at most h to the target, so none is a sliver
            n = max(1, math.ceil((t_next - t) / h - 1e-9))
            step = (t_next - t) / n
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
            t = t_next if n == 1 else t + step
            h = min(h_max, step * min(5.0, fac))
            y = _positive(y_new, diag)
            y.flags.writeable = False
            if after_step is not None:
                after_step(y)
            # the last stage is the next first one only at the state it saw
            k1 = k_new if y is y_new else None
        yield t, y
