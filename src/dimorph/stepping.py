"""Fixed-step explicit time stepping shared by the deterministic solvers.

One loop advances a stacked state array (one row per component) with
explicit Euler or classic RK4. It refuses a dt above the caller's bound
before the first step, enforces positivity after every step and samples
the trajectory on a fixed stride. The trait-resolved, normalized and
planar total-mass integrators differ only in their right-hand sides,
their bound and what they do with the samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import StepRejected

__all__ = ["SolverConfig", "SolverDiagnostics", "march"]

# Weights this far below zero (relative to the largest weight) mean the
# step genuinely overshot; smaller excursions are rounding dust.
_NEG_TOL = 1e-12

Rhs = Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-step explicit solver settings.

    positivity: "clip" zeroes negative weights, "reject" retries the step
    with halved sub-steps up to 20 times.
    """

    dt: float
    t_end: float
    scheme: str = "rk4"
    positivity: str = "clip"
    sample_stride: int = 1

    def __post_init__(self) -> None:
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.scheme not in ("rk4", "euler"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.positivity not in ("clip", "reject"):
            raise ValueError(f"unknown positivity mode {self.positivity!r}")
        if self.sample_stride < 1:
            raise ValueError("sample_stride must be >= 1")


@dataclass
class SolverDiagnostics:
    """Positivity interventions, degenerate-denominator bookkeeping, the dt bound."""

    clipped_mass: float = 0.0
    empty_denominator_steps: int = 0
    max_mass_drift: float = 0.0
    dt_bound: float = float("inf")


def _advance(y: np.ndarray, t: float, dt: float, rhs: Rhs, scheme: str) -> np.ndarray:
    if scheme == "euler":
        return y + dt * rhs(t, y)
    k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = rhs(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = rhs(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_with_positivity(y: np.ndarray, t: float, dt: float, rhs: Rhs,
                          cfg: SolverConfig, diag: SolverDiagnostics) -> np.ndarray:
    """One accepted step of size dt, honoring the positivity mode.

    y is the stacked weight matrix (n_components, n_cells).
    """
    if cfg.positivity == "reject":
        scale = max(float(np.abs(y).max()), 1e-300)
        for k in range(21):
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
                return np.clip(cand, 0.0, None)
        raise StepRejected(f"positivity not restored after 20 halvings at t = {t}")

    out = _advance(y, t, dt, rhs, cfg.scheme)
    if out.min() < 0.0:
        diag.clipped_mass += float(-out[out < 0].sum())
        out = np.clip(out, 0.0, None)
    return out


def march(y0: np.ndarray, t0: float, rhs: Rhs, cfg: SolverConfig,
          diag: SolverDiagnostics,
          after_step: Callable[[np.ndarray], None] | None = None
          ) -> Iterator[tuple[float, np.ndarray]]:
    """Advance y0 from t0 by round(t_end / dt) steps of size dt.

    Raises ValueError before the first step when dt exceeds diag.dt_bound.
    Step i starts at t0 + i*dt. after_step, when given, may update the
    accepted state in place before it is sampled. Yields (t, y) at t0 and
    after every sample_stride-th step and the last one, so callers can
    convert each sample before the next step is taken.
    """
    if cfg.dt > diag.dt_bound:
        raise ValueError(f"dt = {cfg.dt} exceeds the stability bound {diag.dt_bound:.3e}")
    n_steps = int(round(cfg.t_end / cfg.dt))
    yield t0, y0
    y = y0
    for i in range(n_steps):
        y = _step_with_positivity(y, t0 + i * cfg.dt, cfg.dt, rhs, cfg, diag)
        if after_step is not None:
            after_step(y)
        if (i + 1) % cfg.sample_stride == 0 or i + 1 == n_steps:
            yield t0 + (i + 1) * cfg.dt, y
