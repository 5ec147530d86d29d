"""Command-line scenario runner.

Usage: dimorph <subcommand> --config <path> [--out DIR] [flags]

Subcommands: ibm, macro, totals, stationary, fixed-point, lln, acceptance.
Only the runners that read a flag take it: --seed ibm and lln, --jobs lln
and acceptance. Configs are versioned JSON documents (see README), read and
checked by `config` before anything runs; a runner here only composes
library calls and writes artifacts. Every run writes its artifacts plus a
manifest.json with content hashes into the output directory; fixed seeds
give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from pathlib import Path

import numpy as np

# no runner calls sample_traits, but bench/tracing.py wraps it as a name of
# this module too
from .config import (_flag_or_field, _get, _ibm_params, _integer, _positive, _run_length,
                     _times, checked, flag_integer, lln_study, load_config, parse_grid,
                     parse_kernel, parse_measure, parse_rates, parse_solver, sample_traits)
from .errors import ConfigError, DimorphError
from .io import (atomic_write_text, csv_text, emit_distribution_csv, trajectory_blocks,
                 write_json, write_manifest, write_measure_csv)
from .measures import normalize, wasserstein1
from .totals import (TAIL_FLOOR, TotalsState, fit_exponential_tail, integrate_totals,
                     stationary_point)

# Names from modules that only some subcommands run, imported on first use:
# `cli.simulate` resolves through __getattr__ below, and main binds the names
# its runner looks up before the runner starts. A name already bound (say,
# replaced by a test or a tracer) is kept.
_DEFERRED = {name: module for module, names in (
    ("ibm", "simulate simulate_all"),
    ("macro", "MacroState coupled_full_run integrate integrate_normalized"),
    ("stability", "fixed_point lln_compare"),
    ("acceptance", "format_table run_all"),
) for name in names.split()}


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_DEFERRED[name]}", __package__), name)
    # The home module's own definition, as an import at cli's load would have
    # bound it: a wrapper set on the home module since then (one made with
    # functools.wraps records `__wrapped__`) is peeled off, so whoever wraps
    # `cli.<name>` next, as bench/tracing.py does, wraps the definition once.
    while hasattr(value, "__wrapped__"):
        value = value.__wrapped__
    globals()[name] = value
    return value


OUT_DIR_ENV = "DIMORPH_OUT"


def _stationary_summary(rates) -> dict:
    sp = stationary_point(rates)
    if sp.is_persistent:
        return {
            "classification": sp.classification.value,
            "M_bar": sp.M_bar,
            "F_bar": sp.F_bar,
            "A": sp.M_bar / sp.F_bar,
            "residual": sp.residual,
        }
    return {"classification": sp.classification.value,
            "M_bar": None, "F_bar": None, "A": None, "residual": None}


def run_totals(cfg: dict, out: Path) -> list[Path]:
    rates = parse_rates(_get(cfg, "rates", "", expected=dict))
    init = _get(cfg, "initial", "", expected=dict, required=False, default={"M": 1.0, "F": 1.0})
    state0 = TotalsState(_positive(init, "M", "initial.", allow_zero=True),
                         _positive(init, "F", "initial.", allow_zero=True))
    t_end, dt = _run_length(cfg, t_end=60.0, dt=0.01)
    series = integrate_totals(state0, rates, t_end=t_end, dt=dt)
    summary = _stationary_summary(rates)
    if summary["M_bar"] is not None:
        dist = np.hypot(series.M - summary["M_bar"], series.F - summary["F_bar"])
    else:
        dist = np.hypot(series.M, series.F)
    scale = float(np.hypot(series.M, series.F).max())
    slope, r2 = fit_exponential_tail(series.t, dist, floor=TAIL_FLOOR * scale)
    summary.update({"fit_slope": slope, "fit_r2": r2,
                    "final_M": float(series.M[-1]), "final_F": float(series.F[-1]),
                    "diagnostics": _diagnostics(series.diagnostics, "clipped_mass",
                                                "clipped_interpolated_mass")})
    return [atomic_write_text(out / "totals_series.csv", csv_text(
                "time,M,F", [(series.t, series.M, series.F)])),
            write_json(out / "summary.json", summary)]


def run_stationary(cfg: dict, out: Path) -> list[Path]:
    rates = parse_rates(_get(cfg, "rates", "", expected=dict))
    return [write_json(out / "summary.json", _stationary_summary(rates))]


def _snapshot_summary(times, pairs) -> list[dict]:
    return [{"t": float(t), "mass_male": m.mass, "mass_female": f.mass,
             "mean_male": m.mean() if m.mass > 0 else None,
             "mean_female": f.mean() if f.mass > 0 else None,
             "d_normalized": (wasserstein1(normalize(m)[0], normalize(f)[0])
                              if m.mass > 0 and f.mass > 0 else None)}
            for t, (m, f) in zip(times, pairs)]


_RAW_DIAGNOSTICS = ("clipped_mass", "clipped_roundoff_mass", "empty_denominator_steps",
                    "dt_bound")


def _diagnostics(diag, *fields) -> dict:
    """The named solver diagnostics and the step counts, for summary.json."""
    return {k: getattr(diag, k) for k in (*fields, "accepted_steps", "rejected_steps")}


def run_macro(cfg: dict, out: Path) -> list[Path]:
    grid = parse_grid(_get(cfg, "grid", "", expected=dict))
    kernel = parse_kernel(_get(cfg, "kernel", "", expected=dict), sample_grid=grid)
    solver = parse_solver(_get(cfg, "solver", "", expected=dict))
    mode = _get(cfg, "mode", "", expected=str, required=False, default="raw")
    m0 = parse_measure(_get(cfg, "initial_male", "", expected=dict), grid, "initial_male.")
    f0 = parse_measure(_get(cfg, "initial_female", "", expected=dict), grid, "initial_female.")
    rates = None if mode == "normalized" else parse_rates(_get(cfg, "rates", "", expected=dict))
    files: list[Path] = []
    if mode == "raw":
        traj = integrate(MacroState(m0, f0), rates, kernel, solver)
        times, pairs = traj.times, [(s.m, s.f) for s in traj.states]
        summary = {"snapshots": _snapshot_summary(times, pairs),
                   "diagnostics": _diagnostics(traj.diagnostics, *_RAW_DIAGNOSTICS)}
    elif mode == "normalized":
        a_const = _positive(cfg, "A", "")
        traj = integrate_normalized(m0, f0, a_const, kernel, solver)
        times, pairs = traj.times, list(zip(traj.mus, traj.nus))
        summary = {"A": a_const, "snapshots": _snapshot_summary(times, pairs),
                   "diagnostics": _diagnostics(traj.diagnostics, "max_mass_drift",
                                               "clipped_mass", "clipped_roundoff_mass",
                                               "dt_bound")}
    elif mode == "coupled":
        run = coupled_full_run(m0, f0, rates, kernel, solver)
        times, pairs = run.times, list(zip(run.mus, run.nus))
        files.append(atomic_write_text(out / "distances.csv", csv_text(
            "time,A,d_between,d_male_limit,d_female_limit",
            [(run.times, run.A_series, run.report.d_between, run.report.d_mu,
              run.report.d_nu)])))
        summary = {
            "A_limit": run.A_limit,
            "A_fit_slope": run.A_fit[0],
            "A_fit_r2": run.A_fit[1],
            "fixed_point": {k: getattr(run.fixed_point, k)
                            for k in ("mean", "variance", "iterations", "residual")},
            "distance_fit_slope": run.report.fit_slope,
            "distance_fit_r2": run.report.fit_r2,
            "monotone_max_distance": run.report.monotone_max_distance,
            "diagnostics": _diagnostics(run.diagnostics, *_RAW_DIAGNOSTICS),
        }
    else:
        raise ConfigError(f"field mode must be raw, normalized or coupled, got {mode!r}")
    return [emit_distribution_csv(out / "distributions.csv", trajectory_blocks(times, pairs)),
            *files, write_json(out / "summary.json", {"mode": mode, **summary})]


def run_ibm(cfg: dict, out: Path, seed) -> list[Path]:
    grid = parse_grid(_get(cfg, "grid", "", expected=dict))
    rates = parse_rates(_get(cfg, "rates", "", expected=dict))
    kernel = parse_kernel(_get(cfg, "kernel", "", expected=dict), sample_grid=grid)
    n_scale = _integer(cfg, "N", "", 1)
    t_end = _positive(cfg, "t_end", "")
    sample_times = tuple(_times(cfg, "sample_times", ""))
    run_seed = _flag_or_field(cfg, "seed", 0, seed)
    inits = {}
    for name in ("initial_female", "initial_male"):
        spec = _get(cfg, name, "", expected=dict)
        count = _integer(spec, "count", f"{name}.", 0)
        inits[name] = (spec, parse_measure(spec, grid, f"{name}."), count)
    traj = simulate(_ibm_params(grid, rates, kernel, n_scale, t_end, sample_times, run_seed,
                                inits))
    pairs = [(s.male, s.female) for s in traj.snapshots]
    times = [s.time for s in traj.snapshots]
    return [
        emit_distribution_csv(out / "distributions.csv", trajectory_blocks(times, pairs)),
        write_json(out / "run.json", {
            "seed": run_seed,
            "N": n_scale,
            "t_end": t_end,
            "sample_times": list(sample_times),
            "events": traj.n_events,
            "births_female": traj.births_female,
            "births_male": traj.births_male,
            "deaths": traj.deaths,
            "clamped_births": traj.clamped_births,
            "extinction_time": traj.extinction_time,
            "final_counts": {"male": traj.final_n_male, "female": traj.final_n_female},
        }),
    ]


def run_fixed_point(cfg: dict, out: Path) -> list[Path]:
    grid = parse_grid(_get(cfg, "grid", "", expected=dict))
    kernel = parse_kernel(_get(cfg, "kernel", "", expected=dict), sample_grid=grid)
    mu0 = parse_measure(_get(cfg, "initial", "", expected=dict), grid, "initial.")
    tol = _positive(cfg, "tol", "", required=False, default=1e-8)
    max_iter = _integer(cfg, "max_iter", "", 1, default=10_000)
    fp = fixed_point(kernel, mu0, tol=tol, max_iter=max_iter)
    return [
        emit_distribution_csv(out / "mu_star.csv",
                              trajectory_blocks([0.0], [(fp.mu_star,)], components=("limit",))),
        write_measure_csv(out / "mu_star_measure.csv", fp.mu_star),
        write_json(out / "summary.json", {k: getattr(fp, k) for k in (
            "iterations", "final_step_distance", "mean", "variance", "mean_drift",
            "residual")}),
    ]


def run_lln(cfg: dict, out: Path, jobs, seed) -> list[Path]:
    study = lln_study(cfg, seed)
    runs = study.by_scale(simulate_all(study.params, jobs or 1))
    macro = integrate(MacroState(study.m0, study.f0), study.rates, study.kernel, study.solver)
    table = lln_compare(runs, macro, study.checkpoints)

    err_blocks = [(n, table.times, table.means[i], table.stderrs[i])
                  for i, n in enumerate(table.Ns)]
    return [
        atomic_write_text(out / "lln_errors.csv",
                          csv_text("N,checkpoint,mean_error,stderr", err_blocks)),
        write_json(out / "lln_report.json", {
            "N_list": list(table.Ns),
            "checkpoints": table.times.tolist(),
            "mean_errors": table.means.tolist(),
            "stderrs": table.stderrs.tolist(),
            "errors_decrease": table.errors_decrease(),
            "replicas": study.replicas,
            "seed": study.seed,
        }),
    ]


def run_acceptance(cfg: dict, out: Path, jobs) -> list[Path]:
    """Run the gate; a failed criterion raises once the report and manifest are written."""
    only = _get(cfg, "only", "", expected=list, required=False)
    jobs = _flag_or_field(cfg, "jobs", 1, jobs)
    with checked():  # only the check of `only`: criteria report their own errors
        results = run_all(only=only, jobs=jobs)
    print(format_table(results))
    n_failed = sum(not r.passed for r in results)
    files = [write_json(out / "acceptance_report.json", {
        "results": [{"id": r.cid, "title": r.title, "passed": r.passed,
                     "details": r.details, "elapsed_s": r.elapsed} for r in results],
        "all_passed": n_failed == 0,
    })]
    if n_failed:
        write_manifest(out, files)
        raise DimorphError(f"{n_failed} of {len(results)} criteria failed")
    return files


_RUNNERS = {
    "totals": run_totals,
    "stationary": run_stationary,
    "macro": run_macro,
    "ibm": run_ibm,
    "fixed-point": run_fixed_point,
    "lln": run_lln,
    "acceptance": run_acceptance,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimorph",
        description="Two-sex trait-evolution simulators, solvers and analyzers.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"run a {name} scenario")
        p.add_argument("--config", required=(name != "acceptance"),
                       help="path to the JSON scenario config")
        p.add_argument("--out", default=None,
                       help=f"output directory (default: ${OUT_DIR_ENV} or CWD)")
        # only the runners that read a flag take it, as a parameter of its name
        if name in ("lln", "acceptance"):
            p.add_argument("--jobs", type=flag_integer(1),
                           help="parallel replicas (wins over an acceptance config's jobs; "
                                "default 1)")
        if name in ("ibm", "lln"):
            p.add_argument("--seed", type=flag_integer(0), help="override the config seed")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = Path(args.out if args.out is not None else os.environ.get(OUT_DIR_ENV, "."))
    try:
        cfg = load_config(args.config) if args.config else {}
        declared = cfg.get("kind")
        if declared is not None and declared != args.command:
            raise ConfigError(f"field kind is {declared!r} but the subcommand is {args.command!r}")
        out.mkdir(parents=True, exist_ok=True)
        runner = _RUNNERS[args.command]
        # the deferred names the runner's own code looks up (co_names also
        # lists attribute names: a match there only binds a name early)
        for name in _DEFERRED.keys() & runner.__code__.co_names:
            if name not in globals():
                __getattr__(name)
        flags = {k: v for k, v in vars(args).items() if k in ("jobs", "seed")}
        files = runner(cfg, out, **flags)
        files.append(write_manifest(out, files))
        for f in files:
            print(f"wrote {f}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DimorphError as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure with scenario context
        print(f"{args.command} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
