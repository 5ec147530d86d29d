"""Explicit time stepping shared by the deterministic solvers.

One loop advances a stacked state array (one row per component). The
default scheme is the embedded Dormand-Prince 5(4) pair with step-size
control (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.5): its first
trial step is dt and its steps grow up to the sample interval dt *
sample_stride. Classic RK4 stays as the pinned reference, with steps of
at most dt. Each sample interval is split into equal steps, so the last
lands exactly on the sample time. Both schemes refuse a dt above the
caller's bound before the first step and zero negative weights after every
step, reporting their mass; an accepted state with a NaN weight raises.
The trait-resolved, normalized and planar total-mass integrators differ
only in their right-hand sides, their bound and what they do with the
samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import NonFiniteState, StepRejected

__all__ = ["SolverConfig", "SolverDiagnostics", "march", "sample_index", "sample_times"]

# The error test may shrink a step to dt / 2**_MAX_HALVINGS before the run
# gives up.
_MAX_HALVINGS = 20
# Relative tolerance of the error-controlled scheme, fixed by design.
_RTOL = 1e-10

# Dormand-Prince 5(4): stage nodes and rows, the fifth-order weights (the
# last stage is the next step's first: FSAL) and the weights of the fifth-
# minus fourth-order solution, whose last entry multiplies the FSAL stage.
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = ((1 / 5,),
         (3 / 40, 9 / 40),
         (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_DP_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

Rhs = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SolverConfig:
    """Explicit solver settings.

    scheme: "dopri5" (error-controlled, first step dt, largest step
    dt * sample_stride) or "rk4" (steps of at most dt).
    dt and t_end must be finite and give at least one step; sample_stride
    is an int of at least 1.
    """

    dt: float
    t_end: float
    scheme: str = "dopri5"
    sample_stride: int = 1

    def __post_init__(self) -> None:
        if not (0 < self.dt < math.inf and 0 < self.t_end < math.inf):
            raise ValueError(f"dt and t_end must be positive and finite, "
                             f"got {self.dt} and {self.t_end}")
        if round(self.t_end / self.dt) < 1:
            raise ValueError(f"t_end = {self.t_end} is under half a step of dt = {self.dt}, "
                             f"so the run would take no step")
        if self.scheme not in ("dopri5", "rk4"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
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


def _combine(weights, ks: list) -> np.ndarray:
    first, *rest = (w * k for w, k in zip(weights, ks) if w)
    return sum(rest, first)


def _dopri(y: np.ndarray, t: float, h: float, k1: np.ndarray, rhs: Rhs):
    """One Dormand-Prince step from (t, y) with first stage k1: the
    fifth-order solution, its RHS and the embedded error estimate."""
    ks = [k1]
    for c, row in zip(_DP_C, _DP_A):
        ks.append(rhs(t + c * h, y + h * _combine(row, ks)))
    y_new = y + h * _combine(_DP_B, ks)
    ks.append(rhs(t + h, y_new))
    return y_new, ks[-1], h * _combine(_DP_E, ks)


def _rk4(y: np.ndarray, t: float, h: float, k1: np.ndarray, rhs: Rhs):
    """One classic RK4 step from (t, y) with first stage k1; no stage to
    carry over, no error estimate. Written out rather than _combine'd: on
    the totals' 2-vector the extra numpy calls cost more than the step."""
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
    dopri = cfg.scheme == "dopri5"
    scheme, h_max = (_dopri, cfg.dt * cfg.sample_stride) if dopri else (_rk4, cfg.dt)
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
            if dopri:
                scale = max(float(np.abs(y).max()), 1e-300)
                tol = _RTOL * (np.maximum(np.abs(y), np.abs(y_new)) + scale)
                ratio = float(np.max(np.abs(err) / tol))
            fac = 5.0 if ratio == 0.0 else 0.9 * ratio ** -0.2
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
