"""Command-line scenario runner.

Usage: dimorph <subcommand> --config <path> [--out DIR] [--jobs K] [--seed S]

Subcommands: ibm, macro, totals, stationary, fixed-point, lln, acceptance.
Configs are versioned JSON documents (see README). Every run writes its
artifacts plus a manifest.json with content hashes into the output
directory; fixed seeds give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import acceptance as acc
from .config import (_get, _number, load_config, parse_grid, parse_kernel,
                     parse_measure, parse_rates, parse_solver, sample_traits)
from .errors import ConfigError, DimorphError
from .ibm import IbmParams, simulate
from .io import (emit_distribution_csv, fmt, trajectory_rows, write_json,
                 write_manifest, write_measure_csv, atomic_write_text)
from .macro import MacroState, coupled_full_run, integrate, integrate_normalized
from .measures import normalize, wasserstein1
from .stability import fixed_point, lln_compare
from .totals import (TotalsState, fit_exponential_tail, integrate_totals,
                     stationary_point)

OUT_DIR_ENV = "DIMORPH_OUT"


def _series_csv(path, header: str, rows) -> Path:
    lines = [header]
    for row in rows:
        lines.append(",".join(fmt(v) if isinstance(v, float) else str(v) for v in row))
    return atomic_write_text(path, "\n".join(lines) + "\n")


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


def run_totals(cfg: dict, out: Path, seed, jobs) -> list[Path]:
    rates = parse_rates(_get(cfg, "rates", "", expected=dict))
    init = _get(cfg, "initial", "", expected=dict, required=False, default={"M": 1.0, "F": 1.0})
    state0 = TotalsState(_number(init, "M", "initial."), _number(init, "F", "initial."))
    t_end = _number(cfg, "t_end", "", required=False, default=60.0)
    dt = _number(cfg, "dt", "", required=False, default=0.01)
    series = integrate_totals(state0, rates, t_end=t_end, dt=dt)
    summary = _stationary_summary(rates)
    if summary["M_bar"] is not None:
        dist = np.hypot(series.M - summary["M_bar"], series.F - summary["F_bar"])
    else:
        dist = np.hypot(series.M, series.F)
    slope, r2 = fit_exponential_tail(series.t, dist)
    summary.update({"fit_slope": slope, "fit_r2": r2,
                    "final_M": float(series.M[-1]), "final_F": float(series.F[-1])})
    files = [
        _series_csv(out / "totals_series.csv", "time,M,F",
                    zip(series.t.tolist(), series.M.tolist(), series.F.tolist())),
        write_json(out / "summary.json", summary),
    ]
    return files


def run_stationary(cfg: dict, out: Path, seed, jobs) -> list[Path]:
    rates = parse_rates(_get(cfg, "rates", "", expected=dict))
    return [write_json(out / "summary.json", _stationary_summary(rates))]


def _snapshot_summary(times, pairs) -> list[dict]:
    rows = []
    for t, (m, f) in zip(times, pairs):
        entry = {"t": float(t), "mass_male": m.mass, "mass_female": f.mass,
                 "mean_male": m.mean() if m.mass > 0 else None,
                 "mean_female": f.mean() if f.mass > 0 else None}
        if m.mass > 0 and f.mass > 0:
            entry["d_normalized"] = wasserstein1(normalize(m)[0], normalize(f)[0])
        else:
            entry["d_normalized"] = None
        rows.append(entry)
    return rows


def run_macro(cfg: dict, out: Path, seed, jobs) -> list[Path]:
    grid = parse_grid(_get(cfg, "grid", "", expected=dict))
    kernel = parse_kernel(_get(cfg, "kernel", "", expected=dict), sample_grid=grid)
    solver = parse_solver(_get(cfg, "solver", "", expected=dict))
    mode = _get(cfg, "mode", "", expected=str, required=False, default="raw")
    files: list[Path] = []
    if mode == "raw":
        rates = parse_rates(_get(cfg, "rates", "", expected=dict))
        m0 = parse_measure(_get(cfg, "initial_male", "", expected=dict), grid, "initial_male.")
        f0 = parse_measure(_get(cfg, "initial_female", "", expected=dict), grid, "initial_female.")
        traj = integrate(MacroState(m0, f0), rates, kernel, solver)
        pairs = [(s.m, s.f) for s in traj.states]
        files.append(emit_distribution_csv(out / "distributions.csv",
                                           trajectory_rows(traj.times, pairs)))
        files.append(write_json(out / "summary.json", {
            "mode": mode,
            "snapshots": _snapshot_summary(traj.times, pairs),
            "diagnostics": {
                "clipped_mass": traj.diagnostics.clipped_mass,
                "empty_denominator_steps": traj.diagnostics.empty_denominator_steps,
                "dt_bound": traj.diagnostics.dt_bound,
            },
        }))
    elif mode == "normalized":
        mu0 = parse_measure(_get(cfg, "initial_male", "", expected=dict), grid, "initial_male.")
        nu0 = parse_measure(_get(cfg, "initial_female", "", expected=dict), grid, "initial_female.")
        a_const = _number(cfg, "A", "")
        traj = integrate_normalized(mu0, nu0, a_const, kernel, solver)
        pairs = list(zip(traj.mus, traj.nus))
        files.append(emit_distribution_csv(out / "distributions.csv",
                                           trajectory_rows(traj.times, pairs)))
        files.append(write_json(out / "summary.json", {
            "mode": mode, "A": a_const,
            "snapshots": _snapshot_summary(traj.times, pairs),
            "diagnostics": {"max_mass_drift": traj.diagnostics.max_mass_drift,
                            "clipped_mass": traj.diagnostics.clipped_mass},
        }))
    elif mode == "coupled":
        rates = parse_rates(_get(cfg, "rates", "", expected=dict))
        m0 = parse_measure(_get(cfg, "initial_male", "", expected=dict), grid, "initial_male.")
        f0 = parse_measure(_get(cfg, "initial_female", "", expected=dict), grid, "initial_female.")
        run = coupled_full_run(m0, f0, rates, kernel, solver)
        pairs = list(zip(run.mus, run.nus))
        files.append(emit_distribution_csv(out / "distributions.csv",
                                           trajectory_rows(run.times, pairs)))
        files.append(_series_csv(out / "distances.csv",
                                 "time,A,d_between,d_male_limit,d_female_limit",
                                 zip(run.times.tolist(), run.A_series.tolist(),
                                     run.report.d_between.tolist(),
                                     run.report.d_mu.tolist(), run.report.d_nu.tolist())))
        files.append(write_json(out / "summary.json", {
            "mode": mode,
            "A_limit": run.A_limit,
            "A_fit_slope": run.A_fit[0],
            "A_fit_r2": run.A_fit[1],
            "fixed_point": {"mean": run.fixed_point.mean,
                            "variance": run.fixed_point.variance,
                            "iterations": run.fixed_point.iterations,
                            "residual": run.fixed_point.residual},
            "distance_fit_slope": run.report.fit_slope,
            "distance_fit_r2": run.report.fit_r2,
            "monotone_max_distance": run.report.monotone_max_distance,
        }))
    else:
        raise ConfigError(f"field mode must be raw, normalized or coupled, got {mode!r}")
    return files


def run_ibm(cfg: dict, out: Path, seed, jobs) -> list[Path]:
    grid = parse_grid(_get(cfg, "grid", "", expected=dict))
    rates = parse_rates(_get(cfg, "rates", "", expected=dict))
    kernel = parse_kernel(_get(cfg, "kernel", "", expected=dict), sample_grid=grid)
    n_scale = _get(cfg, "N", "", expected=int)
    t_end = _number(cfg, "t_end", "")
    sample_times = tuple(float(t) for t in _get(cfg, "sample_times", "", expected=list))
    run_seed = int(seed if seed is not None else _get(cfg, "seed", "", expected=int,
                                                     required=False, default=0))
    rng = np.random.default_rng(run_seed)
    inits = {}
    for name in ("initial_female", "initial_male"):
        spec = _get(cfg, name, "", expected=dict)
        count = _get(spec, "count", f"{name}.", expected=int)
        inits[name] = sample_traits(spec, count, grid, rng, f"{name}.")
    params = IbmParams(grid=grid, rates=rates, kernel=kernel, N=n_scale, t_end=t_end,
                       sample_times=sample_times, seed=run_seed,
                       initial_female=inits["initial_female"],
                       initial_male=inits["initial_male"])
    traj = simulate(params)
    pairs = [(s.male, s.female) for s in traj.snapshots]
    times = [s.time for s in traj.snapshots]
    files = [
        emit_distribution_csv(out / "distributions.csv", trajectory_rows(times, pairs)),
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
    return files


def run_fixed_point(cfg: dict, out: Path, seed, jobs) -> list[Path]:
    grid = parse_grid(_get(cfg, "grid", "", expected=dict))
    kernel = parse_kernel(_get(cfg, "kernel", "", expected=dict), sample_grid=grid)
    mu0 = parse_measure(_get(cfg, "initial", "", expected=dict), grid, "initial.")
    tol = _number(cfg, "tol", "", required=False, default=1e-8)
    max_iter = _get(cfg, "max_iter", "", expected=int, required=False, default=10_000)
    fp = fixed_point(kernel, mu0, tol=tol, max_iter=max_iter)
    files = [
        emit_distribution_csv(out / "mu_star.csv",
                              trajectory_rows([0.0], [(fp.mu_star,)], components=("limit",))),
        write_measure_csv(out / "mu_star_measure.csv", fp.mu_star),
        write_json(out / "summary.json", {
            "iterations": fp.iterations,
            "final_step_distance": fp.final_step_distance,
            "mean": fp.mean,
            "variance": fp.variance,
            "mean_drift": fp.mean_drift,
            "residual": fp.residual,
            "damped": fp.damped,
        }),
    ]
    return files


def run_lln(cfg: dict, out: Path, seed, jobs) -> list[Path]:
    grid = parse_grid(_get(cfg, "grid", "", expected=dict))
    rates = parse_rates(_get(cfg, "rates", "", expected=dict))
    kernel = parse_kernel(_get(cfg, "kernel", "", expected=dict), sample_grid=grid)
    scales = _get(cfg, "N_list", "", expected=list)
    replicas = _get(cfg, "replicas", "", expected=int)
    checkpoints = [float(t) for t in _get(cfg, "checkpoints", "", expected=list)]
    base_seed = int(seed if seed is not None else _get(cfg, "seed", "", expected=int,
                                                      required=False, default=0))
    init_f_spec = _get(cfg, "initial_female", "", expected=dict)
    init_m_spec = _get(cfg, "initial_male", "", expected=dict)
    mass_f = _number(init_f_spec, "mass", "initial_female.", required=False, default=1.0)
    mass_m = _number(init_m_spec, "mass", "initial_male.", required=False, default=1.0)
    t_end = max(checkpoints) + 1e-3

    params_list = []
    for i, n in enumerate(scales):
        if not isinstance(n, int):
            raise ConfigError("field N_list must contain integers")
        for r in range(replicas):
            run_seed = base_seed + 10_000 * (i + 1) + r
            rng = np.random.default_rng(run_seed)
            init_f = sample_traits(init_f_spec, int(round(n * mass_f)), grid, rng,
                                   "initial_female.")
            init_m = sample_traits(init_m_spec, int(round(n * mass_m)), grid, rng,
                                   "initial_male.")
            params_list.append(IbmParams(grid=grid, rates=rates, kernel=kernel, N=n,
                                         t_end=t_end, sample_times=tuple(checkpoints),
                                         seed=run_seed, initial_female=init_f,
                                         initial_male=init_m))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            trajs = list(pool.map(simulate, params_list))
    else:
        trajs = [simulate(p) for p in params_list]
    runs = {n: trajs[i * replicas:(i + 1) * replicas] for i, n in enumerate(scales)}

    m0 = parse_measure(init_m_spec | {"mass": mass_m}, grid, "initial_male.")
    f0 = parse_measure(init_f_spec | {"mass": mass_f}, grid, "initial_female.")
    solver = parse_solver(_get(cfg, "solver", "", expected=dict, required=False,
                               default={"dt": 0.005, "t_end": t_end, "sample_stride": 10}))
    macro = integrate(MacroState(m0, f0), rates, kernel, solver)
    table = lln_compare(runs, macro, checkpoints)

    err_rows = []
    for i, n in enumerate(table.Ns):
        for j, t in enumerate(table.times):
            err_rows.append((n, float(t), float(table.means[i, j]), float(table.stderrs[i, j])))
    files = [
        _series_csv(out / "lln_errors.csv", "N,checkpoint,mean_error,stderr", err_rows),
        write_json(out / "lln_report.json", {
            "N_list": list(table.Ns),
            "checkpoints": table.times.tolist(),
            "mean_errors": table.means.tolist(),
            "stderrs": table.stderrs.tolist(),
            "errors_decrease": table.errors_decrease(),
            "replicas": replicas,
            "seed": base_seed,
        }),
    ]
    return files


def run_acceptance(cfg: dict | None, out: Path, seed, jobs) -> list[Path]:
    """Run the gate; a failed criterion raises once the report and manifest are written."""
    only = None
    if cfg:
        known = [cid for cid, _ in acc.ALL_CRITERIA]
        only = _get(cfg, "only", "", expected=list, required=False)
        if only is not None and (not only or any(c not in known for c in only)):
            raise ConfigError(f"field only must be a non-empty list of criterion ids "
                              f"from {known}, got {only!r}")
        if "jobs" in cfg:
            jobs = _get(cfg, "jobs", "", expected=int)
            if isinstance(jobs, bool) or jobs < 1:
                raise ConfigError(f"field jobs must be a positive integer, got {jobs!r}")
    results = acc.run_all(only=only, jobs=jobs)
    print(acc.format_table(results))
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
        p.add_argument("--jobs", type=int, default=1, help="parallel replicas")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out if args.out is not None else os.environ.get(OUT_DIR_ENV, "."))
    try:
        cfg = load_config(args.config) if args.config else None
        if cfg is not None:
            declared = cfg.get("kind")
            if declared is not None and declared != args.command:
                raise ConfigError(f"field kind is {declared!r} but the subcommand "
                                  f"is {args.command!r}")
        out.mkdir(parents=True, exist_ok=True)
        if args.command != "acceptance" and cfg is None:
            raise ConfigError("missing config")
        files = _RUNNERS[args.command](cfg, out, args.seed, args.jobs)
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
