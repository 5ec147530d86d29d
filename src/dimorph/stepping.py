"""Explicit time stepping shared by the deterministic solvers.

One loop advances a stacked state array (one row per component). The
default scheme is the embedded Dormand-Prince 5(4) pair with step-size
control (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.5): its first
trial step is dt, its steps grow up to the sample interval dt *
sample_stride, and the last step of each interval lands exactly on the
sample time. Explicit Euler and classic RK4 take fixed steps of dt and
stay as pinned references. Every scheme refuses a dt above the caller's
bound before the first step, enforces positivity after every step and
yields the trajectory on the same sample lattice. The trait-resolved,
normalized and planar total-mass integrators differ only in their
right-hand sides, their bound and what they do with the samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import StepRejected

__all__ = ["SolverConfig", "SolverDiagnostics", "march", "sample_times"]

# Weights this far below zero (relative to the largest weight) mean the
# step genuinely overshot; smaller excursions are rounding dust.
_NEG_TOL = 1e-12
# A step may be halved this many times below dt before the run gives up.
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
    dt * sample_stride), or the fixed-step "rk4" and "euler".
    positivity: "clip" zeroes negative weights, "reject" refuses a step
    that overshoots below zero and retries it halved, at most 20 halvings
    below dt.
    """

    dt: float
    t_end: float
    scheme: str = "dopri5"
    positivity: str = "clip"
    sample_stride: int = 1

    def __post_init__(self) -> None:
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.scheme not in ("dopri5", "rk4", "euler"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.positivity not in ("clip", "reject"):
            raise ValueError(f"unknown positivity mode {self.positivity!r}")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")


@dataclass
class SolverDiagnostics:
    """Positivity interventions, degenerate-denominator bookkeeping, the dt
    bound and the step counts (a fixed-step scheme accepts every step)."""

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


def _advance(y: np.ndarray, t: float, dt: float, rhs: Rhs, scheme: str) -> np.ndarray:
    if scheme == "euler":
        return y + dt * rhs(t, y)
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = rhs(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _combine(weights, ks: list) -> np.ndarray:
    return sum(w * k for w, k in zip(weights, ks) if w)


def _dopri(y: np.ndarray, t: float, h: float, k1: np.ndarray, rhs: Rhs):
    """One Dormand-Prince step from (t, y) with first stage k1: the
    fifth-order solution, its RHS and the embedded error estimate."""
    ks = [k1]
    for c, row in zip(_DP_C, _DP_A):
        ks.append(rhs(t + c * h, y + h * _combine(row, ks)))
    y_new = y + h * _combine(_DP_B, ks)
    ks.append(rhs(t + h, y_new))
    return y_new, ks[-1], h * _combine(_DP_E, ks)


def _positive(y: np.ndarray, cfg: SolverConfig, diag: SolverDiagnostics) -> np.ndarray:
    """Zero the negative weights of an accepted step; under "clip" their
    mass is reported (under "reject" only rounding dust is left)."""
    if y.min() >= 0.0:
        return y
    if cfg.positivity == "clip":
        diag.clipped_mass += float(-y[y < 0].sum())
    return np.clip(y, 0.0, None)


def _step_with_positivity(y: np.ndarray, t: float, dt: float, rhs: Rhs,
                          cfg: SolverConfig, diag: SolverDiagnostics) -> np.ndarray:
    """One accepted fixed step of size dt, honoring the positivity mode.

    y is the stacked weight matrix (n_components, n_cells).
    """
    if cfg.positivity == "reject":
        scale = max(float(np.abs(y).max()), 1e-300)
        for k in range(_MAX_HALVINGS + 1):
            sub = 2**k
            h = dt / sub
            cand = y
            ok = True
            for i in range(sub):
                cand = _advance(cand, t + i * h, h, rhs, cfg.scheme)
                if cand.min() < -_NEG_TOL * scale:
                    ok = False
                    break
            if ok:
                return _positive(cand, cfg, diag)
            diag.rejected_steps += 1
        raise StepRejected(f"positivity not restored after 20 halvings at t = {t}")
    return _positive(_advance(y, t, dt, rhs, cfg.scheme), cfg, diag)


def _march_fixed(y: np.ndarray, t0: float, rhs: Rhs, cfg: SolverConfig,
                 diag: SolverDiagnostics, after_step, targets: list[float]):
    """Steps of dt through each target time in turn; step i starts at t0 + i*dt."""
    i = 0
    for t_next in targets:
        while (t := t0 + i * cfg.dt) < t_next:
            y = _step_with_positivity(y, t, cfg.dt, rhs, cfg, diag)
            diag.accepted_steps += 1
            if after_step is not None:
                after_step(y)
            i += 1
        yield t_next, y


def _march_dopri(y: np.ndarray, t: float, rhs: Rhs, cfg: SolverConfig,
                 diag: SolverDiagnostics, after_step, targets: list[float]):
    """Error-controlled steps through each target time in turn."""
    h, h_max = cfg.dt, cfg.dt * cfg.sample_stride
    k1 = rhs(t, y)
    for t_next in targets:
        while t < t_next:
            # equal steps of at most h to the target, so none is a sliver
            n = max(1, int(np.ceil((t_next - t) / h - 1e-9)))
            step = (t_next - t) / n
            y_new, k_new, err = _dopri(y, t, step, k1, rhs)
            scale = max(float(np.abs(y).max()), 1e-300)
            tol = _RTOL * (np.maximum(np.abs(y), np.abs(y_new)) + scale)
            ratio = float(np.max(np.abs(err) / tol))
            fac = 5.0 if ratio == 0.0 else 0.9 * ratio ** -0.2
            overshoot = cfg.positivity == "reject" and y_new.min() < -_NEG_TOL * scale
            if overshoot or not ratio <= 1.0:  # a NaN error is rejected too
                diag.rejected_steps += 1
                h = step * (0.5 if overshoot else max(0.2, fac))
                if h < cfg.dt / 2**_MAX_HALVINGS:
                    raise StepRejected(f"no acceptable step above dt / 2**20 at t = {t}")
                continue
            diag.accepted_steps += 1
            t = t_next if n == 1 else t + step
            h = min(h_max, step * min(5.0, fac))
            y = _positive(y_new, cfg, diag)
            unchanged = y is y_new
            if after_step is not None:
                before = y.copy()
                after_step(y)
                unchanged = unchanged and np.array_equal(y, before)
            # the last stage is the next first one only at the state it saw
            k1 = k_new if unchanged else rhs(t, y)
        yield t, y


def march(y0: np.ndarray, t0: float, rhs: Rhs, cfg: SolverConfig,
          diag: SolverDiagnostics,
          after_step: Callable[[np.ndarray], None] | None = None
          ) -> Iterator[tuple[float, np.ndarray]]:
    """Advance y0 from t0 to t0 + round(t_end / dt) * dt.

    Raises ValueError before the first step when dt exceeds diag.dt_bound.
    after_step, when given, may update each accepted state in place before
    it is sampled. Yields (t, y) at every time of sample_times(cfg, t0), so
    callers can convert each sample before the next step is taken.
    """
    if cfg.dt > diag.dt_bound:
        raise ValueError(f"dt = {cfg.dt} exceeds the stability bound {diag.dt_bound:.3e}")
    times = sample_times(cfg, t0)
    yield t0, y0
    steps = _march_dopri if cfg.scheme == "dopri5" else _march_fixed
    yield from steps(y0, t0, rhs, cfg, diag, after_step, times[1:])
