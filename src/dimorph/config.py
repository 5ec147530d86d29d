"""Scenario configuration: the one layer that reads and checks CLI input.

Every config field and the --jobs and --seed flags are checked here before
anything runs. A failure raises ConfigError naming the field by its dotted
path, so batch users can fix configs without reading code. `lln_study`
reads a whole `lln` config, for `dimorph lln` and acceptance criterion 8.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ConfigError, IoError
from .io import read_measure_csv
from .measures import (GridMeasure, TraitGrid, gaussian_measure, point_mass,
                       uniform_measure)
from .stepping import SolverConfig, sample_index, sample_times
from .totals import RATE_NAMES, RateSet

if TYPE_CHECKING:
    from .ibm import IbmParams
    from .kernels import InheritanceKernel

__all__ = [
    "load_config",
    "checked",
    "flag_integer",
    "parse_grid",
    "parse_rates",
    "parse_kernel",
    "parse_measure",
    "parse_solver",
    "sample_traits",
    "lln_study",
    "LlnStudy",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1


def _get(d: dict, field: str, ctx: str, expected, required: bool = True, default=None):
    """d[field], of type `expected`; a JSON boolean is never a number."""
    if field not in d:
        if required:
            raise ConfigError(f"missing field {ctx}{field}")
        return default
    value = d[field]
    kinds = expected if isinstance(expected, tuple) else (expected,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        names = "/".join(t.__name__ for t in kinds)
        raise ConfigError(f"field {ctx}{field} must be {names}, got {type(value).__name__}")
    return value


def _number(d: dict, field: str, ctx: str, required: bool = True, default=None) -> float:
    v = _get(d, field, ctx, expected=(int, float), required=required, default=default)
    if not abs(v) <= sys.float_info.max:  # NaN, an infinity or an int beyond float range
        got = v if isinstance(v, float) else "an integer too large for a float"
        raise ConfigError(f"field {ctx}{field} must be finite, got {got}")
    return v


def _positive(d: dict, field: str, ctx: str, required: bool = True, default=None,
              allow_zero: bool = False) -> float:
    v = _number(d, field, ctx, required=required, default=default)
    if v < 0 or (v == 0 and not allow_zero):
        kind = "non-negative" if allow_zero else "positive"
        raise ConfigError(f"field {ctx}{field} must be {kind}, got {v}")
    return v


def _integer(d: dict, field: str, ctx: str, minimum: int, default=None) -> int:
    v = _get(d, field, ctx, expected=int, required=default is None, default=default)
    if v < minimum:
        raise ConfigError(f"field {ctx}{field} must be >= {minimum}, got {v}")
    return v


def _list_of(d: dict, field: str, ctx: str, read, what: str, empty_ok: bool = True) -> list:
    values = _get(d, field, ctx, expected=list)
    try:
        items = [read({field: v}, field, ctx) for v in values]
    except ConfigError:
        raise ConfigError(f"field {ctx}{field} must contain {what}, got {values!r}") from None
    if not items and not empty_ok:
        raise ConfigError(f"field {ctx}{field} must be a non-empty list")
    return items


def _scales(d: dict, field: str, ctx: str) -> list[int]:
    """Population scales: distinct, as their results are keyed by scale."""
    scales = _list_of(d, field, ctx, lambda e, f, c: _integer(e, f, c, 1),
                      "positive integers", empty_ok=False)
    if len(set(scales)) < len(scales):
        raise ConfigError(f"field {ctx}{field} must not repeat a scale, got {scales}")
    return scales


def _times(d: dict, field: str, ctx: str, empty_ok: bool = True) -> list[float]:
    """Sample times or checkpoints: sorted, non-negative and finite."""
    times = _list_of(d, field, ctx, lambda e, f, c: float(_positive(e, f, c, allow_zero=True)),
                     "non-negative numbers", empty_ok=empty_ok)
    if times != sorted(times):
        raise ConfigError(f"field {ctx}{field} must be sorted, got {times}")
    return times


def _on_lattice(times: list[float], solver: SolverConfig, field: str, ctx: str) -> None:
    """Every time must be one the solver samples, matched as
    MacroTrajectory.state_at matches it."""
    lattice = sample_times(solver)
    for t in times:
        try:
            sample_index(lattice, t)
        except KeyError:
            near = min(lattice, key=lambda s: abs(s - t))
            raise ConfigError(
                f"field {ctx}{field} must lie on the solver's samples (every "
                f"dt * sample_stride = {solver.dt * solver.sample_stride:g} up to "
                f"{lattice[-1]:g}), got {t}; nearest is {near:g}") from None


def _run_length(d: dict, t_end: float, dt: float) -> tuple[float, float]:
    """(t_end, dt), defaulting to the given ones, checked as SolverConfig checks them."""
    t_end = _positive(d, "t_end", "", required=False, default=t_end)
    dt = _positive(d, "dt", "", required=False, default=dt)
    with checked():
        SolverConfig(dt, t_end)
    return t_end, dt


def _flag_or_field(cfg: dict, field: str, minimum: int, flag: int | None) -> int:
    """The --<field> flag if given, else the config field (default `minimum`),
    which is checked either way."""
    value = _integer(cfg, field, "", minimum, default=minimum)
    return value if flag is None else flag


def flag_integer(minimum: int):
    """The argparse `type` of an integer flag of at least `minimum`."""
    def integer(text: str) -> int:
        if int(text) < minimum:
            from argparse import ArgumentTypeError  # loaded already: argparse calls this
            raise ArgumentTypeError(f"must be >= {minimum}, got {text}")
        return int(text)
    return integer


@contextmanager
def checked(ctx: str = ""):
    """Re-raise a library ValueError or failed file read in the block as a
    ConfigError: `field grid: <reason>` for ctx "grid.", `field <reason>` for ""."""
    try:
        yield
    except (ValueError, OSError, IoError) as exc:
        raise ConfigError(f"field {ctx[:-1]}: {exc}" if ctx else f"field {exc}") from exc


def load_config(path: str | Path) -> dict:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    version = _get(raw, "schema_version", "", expected=int)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"field schema_version must be {SCHEMA_VERSION}, got {version}")
    return raw


def _section(d: dict, ctx: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"field {ctx[:-1]} must be an object")


def parse_grid(d: dict, ctx: str = "grid.") -> TraitGrid:
    _section(d, ctx)
    x_min = _number(d, "x_min", ctx)
    x_max = _number(d, "x_max", ctx)
    n_cells = _get(d, "n_cells", ctx, expected=int)
    with checked(ctx):
        return TraitGrid(float(x_min), float(x_max), n_cells)


def parse_rates(d: dict, ctx: str = "rates.") -> RateSet:
    _section(d, ctx)
    vals = {name: _number(d, name, ctx) for name in RATE_NAMES}
    with checked(ctx):
        return RateSet(**vals)


def _parse_noise(d: dict, ctx: str):
    from . import kernels  # only the runs that take a kernel load it
    kind = _get(d, "kind", ctx, expected=str)
    with checked(ctx):
        if kind == "gaussian":
            return kernels.GaussianNoise(_number(d, "sigma", ctx))
        if kind == "uniform":
            return kernels.UniformNoise(_number(d, "lo", ctx), _number(d, "hi", ctx))
        if kind == "tabulated":
            z = _get(d, "z", ctx, expected=list)
            pdf = _get(d, "pdf", ctx, expected=list)
            return kernels.TabulatedNoise(np.asarray(z, dtype=float), np.asarray(pdf, dtype=float))
    raise ConfigError(f"field {ctx}kind must be gaussian, uniform or tabulated, got {kind!r}")


def parse_kernel(d: dict, ctx: str = "kernel.",
                 sample_grid: TraitGrid | None = None) -> InheritanceKernel:
    from . import kernels
    _section(d, ctx)
    family = _get(d, "family", ctx, expected=str)
    with checked(ctx):
        if family == "additive":
            return kernels.AdditiveNoiseKernel(_parse_noise(_get(d, "noise", ctx, expected=dict), ctx + "noise."))
        if family == "multiplicative":
            return kernels.MultiplicativeNoiseKernel(_parse_noise(_get(d, "noise", ctx, expected=dict), ctx + "noise."))
        if family == "custom":
            path = _get(d, "table_csv", ctx, expected=str)
            return kernels.tabulated_kernel_from_csv(path, sample_grid=sample_grid)
    raise ConfigError(f"field {ctx}family must be additive, multiplicative or custom, got {family!r}")


def parse_measure(d: dict, grid: TraitGrid, ctx: str) -> GridMeasure:
    """Initial-condition shapes: point, uniform, gaussian, tabulated CSV."""
    _section(d, ctx)
    shape = _get(d, "shape", ctx, expected=str)
    mass = _positive(d, "mass", ctx, required=False, default=1.0)
    with checked(ctx):
        if shape == "point":
            return point_mass(grid, _number(d, "at", ctx), mass)
        if shape == "uniform":
            return uniform_measure(grid, _number(d, "lo", ctx), _number(d, "hi", ctx), mass)
        if shape == "gaussian":
            return gaussian_measure(grid, _number(d, "mean", ctx), _number(d, "sd", ctx), mass)
        if shape == "tabulated":
            m = read_measure_csv(_get(d, "path", ctx, expected=str), grid)
            if m.mass == 0.0:
                raise ValueError("distribution has no mass inside the grid")
            return GridMeasure(grid, m.weights * (mass / m.mass))
    raise ConfigError(f"field {ctx}shape must be point, uniform, gaussian or tabulated, got {shape!r}")


def sample_traits(d: dict, count: int, grid: TraitGrid, rng, ctx: str) -> np.ndarray:
    """Draw `count` individual traits from an initial-condition shape.

    The spec must pass parse_measure, so a shape without a measure on the
    grid has no traits either.
    """
    if count < 0:
        raise ConfigError(f"field {ctx}count must be non-negative, got {count}")
    return _draw_traits(d, parse_measure(d, grid, ctx), count, grid, rng)


def _draw_traits(d: dict, m: GridMeasure, count: int, grid: TraitGrid, rng) -> np.ndarray:
    """`count` traits drawn from spec `d`, whose measure `m` parse_measure gave."""
    shape = d["shape"]
    if shape == "point":
        traits = np.full(count, d["at"])
    elif shape == "uniform":
        traits = rng.uniform(d["lo"], d["hi"], size=count)
    elif shape == "gaussian":
        traits = rng.normal(d["mean"], d["sd"], size=count)
    else:
        cells = rng.choice(grid.n_cells, size=count, p=m.weights / m.mass)
        traits = grid.edges[cells] + grid.dx * rng.random(count)
    return np.clip(traits, grid.x_min, grid.x_max)


def parse_solver(d: dict, ctx: str = "solver.") -> SolverConfig:
    _section(d, ctx)
    unknown = sorted(d.keys() - {"dt", "t_end", "sample_stride"})
    if unknown:
        raise ConfigError(f"field {ctx}{unknown[0]} is not a solver setting; "
                          f"the solver takes dt, t_end and sample_stride")
    with checked(ctx):
        return SolverConfig(
            dt=_number(d, "dt", ctx),
            t_end=_number(d, "t_end", ctx),
            sample_stride=_get(d, "sample_stride", ctx, expected=int, required=False, default=1),
        )


def _ibm_params(grid: TraitGrid, rates: RateSet, kernel: InheritanceKernel, n_scale: int,
                t_end: float, sample_times, seed: int, inits: dict) -> IbmParams:
    """One stochastic run; `inits` maps initial_female and initial_male to a
    (shape spec, its parsed measure, count) triple, drawn in that order from
    one default_rng(seed)."""
    from .ibm import IbmParams  # only the runs that simulate load it
    rng = np.random.default_rng(seed)
    traits = {name: _draw_traits(*inits[name], grid, rng)
              for name in ("initial_female", "initial_male")}
    with checked():
        return IbmParams(grid=grid, rates=rates, kernel=kernel, N=n_scale, t_end=t_end,
                         sample_times=tuple(sample_times), seed=seed, **traits)


class LlnStudy(NamedTuple):
    """An lln config, read and checked: the replica runs, scale-major, and
    the solver run they are compared with at the checkpoints."""

    params: list  # of IbmParams
    scales: list[int]
    replicas: int
    seed: int
    m0: GridMeasure
    f0: GridMeasure
    rates: RateSet
    kernel: InheritanceKernel
    solver: SolverConfig
    checkpoints: list[float]

    def by_scale(self, results: list) -> dict:
        """Per-replica results, in the order of `params`, keyed by scale."""
        k = self.replicas
        return {n: results[i * k:(i + 1) * k] for i, n in enumerate(self.scales)}


def lln_study(cfg: dict, seed: int | None = None) -> LlnStudy:
    """Read an lln config; `seed`, when given, replaces its seed. Replica r
    of scale index i is seeded 10,000·(i + 1) + r above it and starts with
    round(N * mass) individuals of each sex."""
    from .stability import MIN_REPLICAS
    grid = parse_grid(_get(cfg, "grid", "", expected=dict))
    rates = parse_rates(_get(cfg, "rates", "", expected=dict))
    kernel = parse_kernel(_get(cfg, "kernel", "", expected=dict), sample_grid=grid)
    scales = _scales(cfg, "N_list", "")
    replicas = _integer(cfg, "replicas", "", MIN_REPLICAS)
    checkpoints = _times(cfg, "checkpoints", "", empty_ok=False)
    base_seed = _flag_or_field(cfg, "seed", 0, seed)
    specs = {name: _get(cfg, name, "", expected=dict)
             for name in ("initial_female", "initial_male")}
    measures = {name: parse_measure(spec, grid, f"{name}.") for name, spec in specs.items()}
    f0, m0 = measures.values()
    t_end = max(checkpoints) + 1e-3
    # the default solver takes at least its one step, even for checkpoints [0]
    solver = parse_solver(_get(cfg, "solver", "", expected=dict, required=False,
                               default={"dt": 0.005, "t_end": max(t_end, 0.005),
                                        "sample_stride": 10}))
    _on_lattice(checkpoints, solver, "checkpoints", "")
    params = [_ibm_params(grid, rates, kernel, n, t_end, checkpoints,
                          base_seed + 10_000 * (i + 1) + r,
                          {name: (spec, measures[name], round(n * spec.get("mass", 1.0)))
                           for name, spec in specs.items()})  # mass checked above
              for i, n in enumerate(scales) for r in range(replicas)]
    return LlnStudy(params, scales, replicas, base_seed, m0, f0, rates, kernel, solver,
                    checkpoints)
