"""Scenario configuration: JSON schema, validation, object construction.

Every validation failure raises ConfigError naming the offending field by
its dotted path, so batch users can fix configs without reading code.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError, IoError
from .kernels import (AdditiveNoiseKernel, GaussianNoise, InheritanceKernel,
                      MultiplicativeNoiseKernel, TabulatedNoise, UniformNoise,
                      tabulated_kernel_from_csv)
from .io import read_measure_csv
from .macro import SolverConfig
from .measures import (GridMeasure, TraitGrid, gaussian_measure, point_mass,
                       uniform_measure)
from .totals import RateSet

__all__ = [
    "load_config",
    "parse_grid",
    "parse_rates",
    "parse_kernel",
    "parse_measure",
    "parse_solver",
    "sample_traits",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1


def _get(d: dict, field: str, ctx: str, expected=None, required: bool = True, default=None):
    if field not in d:
        if required:
            raise ConfigError(f"missing field {ctx}{field}")
        return default
    value = d[field]
    if expected is not None and not isinstance(value, expected):
        names = expected if isinstance(expected, tuple) else (expected,)
        kinds = "/".join(t.__name__ for t in names)
        raise ConfigError(f"field {ctx}{field} must be {kinds}, got {type(value).__name__}")
    return value


def _number(d: dict, field: str, ctx: str, required: bool = True, default=None) -> float:
    v = _get(d, field, ctx, expected=(int, float), required=required, default=default)
    if isinstance(v, bool):
        raise ConfigError(f"field {ctx}{field} must be a number")
    return v


def load_config(path: str | Path) -> dict:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    version = _get(raw, "schema_version", "", expected=int)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"field schema_version must be {SCHEMA_VERSION}, got {version}")
    return raw


def parse_grid(d: dict, ctx: str = "grid.") -> TraitGrid:
    if not isinstance(d, dict):
        raise ConfigError(f"field {ctx[:-1]} must be an object")
    x_min = _number(d, "x_min", ctx)
    x_max = _number(d, "x_max", ctx)
    n_cells = _get(d, "n_cells", ctx, expected=int)
    try:
        return TraitGrid(float(x_min), float(x_max), n_cells)
    except ValueError as exc:
        raise ConfigError(f"field {ctx[:-1]}: {exc}") from exc


def parse_rates(d: dict, ctx: str = "rates.") -> RateSet:
    if not isinstance(d, dict):
        raise ConfigError(f"field {ctx[:-1]} must be an object")
    vals = {}
    for name in ("p_f", "p_m", "D_f", "D_m", "U_ff", "U_fm", "U_mf", "U_mm"):
        vals[name] = float(_number(d, name, ctx))
    try:
        return RateSet(**vals)
    except ValueError as exc:
        raise ConfigError(f"field {ctx[:-1]}: {exc}") from exc


def _parse_noise(d: dict, ctx: str):
    kind = _get(d, "kind", ctx, expected=str)
    try:
        if kind == "gaussian":
            return GaussianNoise(_number(d, "sigma", ctx))
        if kind == "uniform":
            return UniformNoise(_number(d, "lo", ctx), _number(d, "hi", ctx))
        if kind == "tabulated":
            z = _get(d, "z", ctx, expected=list)
            pdf = _get(d, "pdf", ctx, expected=list)
            return TabulatedNoise(np.asarray(z, dtype=float), np.asarray(pdf, dtype=float))
    except ValueError as exc:
        raise ConfigError(f"field {ctx[:-1]}: {exc}") from exc
    raise ConfigError(f"field {ctx}kind must be gaussian, uniform or tabulated, got {kind!r}")


def parse_kernel(d: dict, ctx: str = "kernel.",
                 sample_grid: TraitGrid | None = None) -> InheritanceKernel:
    if not isinstance(d, dict):
        raise ConfigError(f"field {ctx[:-1]} must be an object")
    family = _get(d, "family", ctx, expected=str)
    try:
        if family == "additive":
            return AdditiveNoiseKernel(_parse_noise(_get(d, "noise", ctx, expected=dict), ctx + "noise."))
        if family == "multiplicative":
            return MultiplicativeNoiseKernel(_parse_noise(_get(d, "noise", ctx, expected=dict), ctx + "noise."))
        if family == "custom":
            path = _get(d, "table_csv", ctx, expected=str)
            return tabulated_kernel_from_csv(path, sample_grid=sample_grid)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"field {ctx[:-1]}: {exc}") from exc
    raise ConfigError(f"field {ctx}family must be additive, multiplicative or custom, got {family!r}")


def parse_measure(d: dict, grid: TraitGrid, ctx: str) -> GridMeasure:
    """Initial-condition shapes: point, uniform, gaussian, tabulated CSV."""
    if not isinstance(d, dict):
        raise ConfigError(f"field {ctx[:-1]} must be an object")
    shape = _get(d, "shape", ctx, expected=str)
    mass = _number(d, "mass", ctx, required=False, default=1.0)
    if mass <= 0:
        raise ConfigError(f"field {ctx}mass must be positive")
    try:
        if shape == "point":
            return point_mass(grid, _number(d, "at", ctx), mass)
        if shape == "uniform":
            return uniform_measure(grid, _number(d, "lo", ctx), _number(d, "hi", ctx), mass)
        if shape == "gaussian":
            return gaussian_measure(grid, _number(d, "mean", ctx), _number(d, "sd", ctx), mass)
        if shape == "tabulated":
            m = read_measure_csv(_get(d, "path", ctx, expected=str), grid)
            return GridMeasure(grid, m.weights * (mass / m.mass))
    except ConfigError:
        raise
    except (ValueError, IoError) as exc:
        raise ConfigError(f"field {ctx[:-1]}: {exc}") from exc
    raise ConfigError(f"field {ctx}shape must be point, uniform, gaussian or tabulated, got {shape!r}")


def sample_traits(d: dict, count: int, grid: TraitGrid, rng, ctx: str) -> np.ndarray:
    """Draw individual traits from an initial-condition shape."""
    shape = _get(d, "shape", ctx, expected=str)
    if shape == "point":
        at = _number(d, "at", ctx)
        traits = np.full(count, at)
    elif shape == "uniform":
        traits = rng.uniform(_number(d, "lo", ctx), _number(d, "hi", ctx), size=count)
    elif shape == "gaussian":
        traits = rng.normal(_number(d, "mean", ctx), _number(d, "sd", ctx), size=count)
    elif shape == "tabulated":
        m = read_measure_csv(_get(d, "path", ctx, expected=str), grid)
        cells = rng.choice(grid.n_cells, size=count, p=m.weights / m.mass)
        traits = grid.edges[cells] + grid.dx * rng.random(count)
    else:
        raise ConfigError(f"field {ctx}shape must be point, uniform, gaussian or tabulated, got {shape!r}")
    return np.clip(traits, grid.x_min, grid.x_max)


def parse_solver(d: dict, ctx: str = "solver.") -> SolverConfig:
    if not isinstance(d, dict):
        raise ConfigError(f"field {ctx[:-1]} must be an object")
    try:
        return SolverConfig(
            dt=_number(d, "dt", ctx),
            t_end=_number(d, "t_end", ctx),
            scheme=_get(d, "scheme", ctx, expected=str, required=False, default="rk4"),
            positivity=_get(d, "positivity", ctx, expected=str, required=False, default="clip"),
            sample_stride=_get(d, "sample_stride", ctx, expected=int, required=False, default=1),
        )
    except ValueError as exc:
        raise ConfigError(f"field {ctx[:-1]}: {exc}") from exc
