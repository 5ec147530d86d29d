"""The four benchmark workloads: inputs from a seed, the run, the checks.

Every dimorph function is looked up on its module at call time
(``ibm.simulate``, not a name imported once), so a tracer installed after
import still sees the calls. Each workload returns its correctness checks
as (passed, description) pairs; the harness counts a failed check as a
failed operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from dimorph import config, ibm, macro, measures, stability, totals

# Trait-dependent rates of acceptance criterion 9.
TRAIT_RATES = totals.RateSet(
    p_f=lambda x: 2.0 + 0.2 * np.tanh(x), p_m=2.0,
    D_f=1.0, D_m=lambda x: 1.0 + 0.05 * x**2,
    U_ff=lambda x, y: 0.2 + 0.02 * np.abs(x - y), U_fm=0.25,
    U_mf=0.25, U_mm=lambda x, y: 0.25 + 0.01 * np.cos(x - y))


class Ops:
    """Counts and times the top-level operations of one repetition."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.count = 0
        self.seconds: dict[str, list[float]] = {}

    def __call__(self, label, fn, *args, **kwargs):
        self.count += 1
        if self.tracer is not None:
            self.tracer.op = self.count
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds.setdefault(label, []).append(time.perf_counter() - t)
            if self.tracer is not None:
                self.tracer.op = 0


def _load(root: Path, name: str) -> dict:
    return config.load_config(root / "configs" / f"{name}.json")


def _ibm_params(cfg, grid, rates, kernel, n_scale, t_end, sample_times, rng):
    count = {k: int(round(n_scale * cfg[k].get("mass", 1.0))) for k in
             ("initial_female", "initial_male")}
    traits = {k: config.sample_traits(cfg[k], count[k], grid, rng, k + ".") for k in count}
    return ibm.IbmParams(grid=grid, rates=rates, kernel=kernel, N=n_scale, t_end=t_end,
                         sample_times=tuple(sample_times), seed=int(rng.integers(2**31)),
                         **traits)


def _ibm_checks(params, traj) -> list:
    """Exact event accounting and a fair birth sex ratio for one replica.

    The last sample time is t_end, so the last snapshot is the final state.
    """
    final = traj.snapshots[-1]
    grown = final.n_male + final.n_female - len(params.initial_female) - len(params.initial_male)
    births = traj.births
    share = traj.births_female / births
    slack = 4.0 * math.sqrt(0.25 / births)
    return [
        (traj.births - traj.deaths == grown,
         f"N={params.N}: births - deaths = {traj.births - traj.deaths}, population change {grown}"),
        (abs(share - 0.5) <= slack,
         f"N={params.N}: female birth share {share:.4f} within 0.5 +- {slack:.4f}"),
    ]


class Workload:
    """Inputs from a seed (setup), the timed operations (run), the checks."""

    def __init__(self, root: Path, inprocess: bool):
        self.root = root
        self.inprocess = inprocess

    def close(self) -> None:
        pass


class LlnSweep(Workload):
    """Constant-rate IBM replicas at two scales against the solver, as `dimorph lln`."""

    scales = (200, 4000)
    replicas = 3

    def setup(self, seed: int) -> dict:
        cfg = _load(self.root, "lln")
        grid = config.parse_grid(cfg["grid"])
        rates = config.parse_rates(cfg["rates"])
        kernel = config.parse_kernel(cfg["kernel"], sample_grid=grid)
        checkpoints = tuple(float(t) for t in cfg["checkpoints"])
        t_end = max(checkpoints) + 1e-3
        streams = np.random.SeedSequence(seed).spawn(len(self.scales) * self.replicas)
        params = [_ibm_params(cfg, grid, rates, kernel, n, t_end, checkpoints + (t_end,),
                              np.random.default_rng(streams[i * self.replicas + r]))
                  for i, n in enumerate(self.scales) for r in range(self.replicas)]
        state0 = macro.MacroState(
            config.parse_measure(cfg["initial_male"], grid, "initial_male."),
            config.parse_measure(cfg["initial_female"], grid, "initial_female."))
        return {"params": params, "state0": state0, "rates": rates, "kernel": kernel,
                "solver": config.parse_solver(cfg["solver"]), "checkpoints": checkpoints}

    def run(self, x: dict, op: Ops) -> dict:
        trajs = [op("simulate", ibm.simulate, p) for p in x["params"]]
        ref = op("integrate", macro.integrate, x["state0"], x["rates"], x["kernel"], x["solver"])
        runs = {n: [t for p, t in zip(x["params"], trajs) if p.N == n] for n in self.scales}
        table = op("lln_compare", stability.lln_compare, runs, ref, x["checkpoints"])
        return {"trajs": trajs, "table": table}

    def check(self, x: dict, out: dict) -> list:
        checks = [c for p, t in zip(x["params"], out["trajs"]) for c in _ibm_checks(p, t)]
        errs = out["table"].means.mean(axis=1)
        checks.append((bool(np.all(np.diff(errs) < 0)),
                       f"mean W1 error falls with N: {dict(zip(self.scales, errs.round(5).tolist()))}"))
        return checks


class IbmTrait(Workload):
    """IBM replicas with trait-dependent rates, graded against the solver.

    Several short replicas rather than one long run: the work of one run
    depends on its random population path, and averaging over replicas
    keeps the work of a repetition nearly the same from seed to seed.
    """

    n_scale = 1000
    t_end = 0.5
    replicas = 3
    mass_sigmas = 6.0

    def setup(self, seed: int) -> dict:
        cfg = _load(self.root, "ibm")
        grid = config.parse_grid(cfg["grid"])
        kernel = config.parse_kernel(cfg["kernel"], sample_grid=grid)
        inits = {k: cfg[k] | {"mass": cfg[k]["count"] / self.n_scale}
                 for k in ("initial_female", "initial_male")}
        params = [_ibm_params(inits, grid, TRAIT_RATES, kernel, self.n_scale, self.t_end,
                              (0.0, self.t_end / 2, self.t_end), np.random.default_rng(stream))
                  for stream in np.random.SeedSequence(seed).spawn(self.replicas)]
        state0 = macro.MacroState(
            config.parse_measure(inits["initial_male"], grid, "initial_male."),
            config.parse_measure(inits["initial_female"], grid, "initial_female."))
        solver = config.parse_solver({"dt": 0.01, "t_end": self.t_end, "sample_stride": 25})
        return {"params": params, "state0": state0, "kernel": kernel, "solver": solver}

    def run(self, x: dict, op: Ops) -> dict:
        trajs = [op("simulate", ibm.simulate, p) for p in x["params"]]
        ref = op("integrate", macro.integrate, x["state0"], TRAIT_RATES, x["kernel"], x["solver"])
        sol = ref.state_at(self.t_end)
        emps = [t.measures_at(self.t_end) for t in trajs]
        w1 = [op("wasserstein1", measures.wasserstein1, measures.normalize(a)[0],
                 measures.normalize(b)[0]) for emp in emps for a, b in zip(emp, (sol.m, sol.f))]
        return {"trajs": trajs, "emps": emps, "sol": sol, "w1": w1}

    def check(self, x: dict, out: dict) -> list:
        checks = [c for p, t in zip(x["params"], out["trajs"]) for c in _ibm_checks(p, t)]
        for emp in out["emps"]:
            for sex, a, b in zip(("male", "female"), emp, (out["sol"].m, out["sol"].f)):
                tol = self.mass_sigmas * math.sqrt(b.mass / self.n_scale)
                checks.append((abs(a.mass - b.mass) <= tol,
                               f"{sex} mass {a.mass:.4f} vs solver {b.mass:.4f}, tol {tol:.4f}"))
        return checks


def _jitter(spec: dict, rng, shift: float) -> dict:
    """A Gaussian initial condition with its mean moved by up to +-shift."""
    return spec | {"mean": spec["mean"] + rng.uniform(-shift, shift)}


class FlowGrid(Workload):
    """Deterministic solves on fine grids, where the birth contraction dominates."""

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        raw = _load(self.root, "macro_raw")
        g_raw = config.parse_grid(raw["grid"] | {"n_cells": 1024})
        m0 = config.parse_measure(_jitter(raw["initial_male"], rng, 0.3), g_raw, "initial_male.")
        f0 = config.parse_measure(_jitter(raw["initial_female"], rng, 0.3), g_raw,
                                  "initial_female.")
        norm = _load(self.root, "macro_normalized")
        g_norm = config.parse_grid(norm["grid"] | {"n_cells": 512})
        fp = _load(self.root, "fixed_point")
        g_fp = config.parse_grid(fp["grid"] | {"n_cells": 2048})
        return {
            "raw": (macro.MacroState(m0, f0), config.parse_rates(raw["rates"]),
                    config.parse_kernel(raw["kernel"]),
                    config.parse_solver({"dt": 0.01, "t_end": 3.0, "sample_stride": 50})),
            "norm": (config.parse_measure(_jitter(norm["initial_male"], rng, 0.5), g_norm,
                                          "initial_male."),
                     config.parse_measure(_jitter(norm["initial_female"], rng, 0.5), g_norm,
                                          "initial_female."),
                     float(norm["A"]), config.parse_kernel(norm["kernel"]),
                     config.parse_solver({"dt": 0.01, "t_end": 3.0, "sample_stride": 50})),
            "fp": (config.parse_kernel(fp["kernel"]),
                   config.parse_measure(_jitter(fp["initial"], rng, 0.3), g_fp, "initial."),
                   float(fp["tol"])),
            "sigma": float(fp["kernel"]["noise"]["sigma"]),
        }

    def run(self, x: dict, op: Ops) -> dict:
        return {"raw": op("integrate", macro.integrate, *x["raw"]),
                "norm": op("integrate_normalized", macro.integrate_normalized, *x["norm"]),
                "fp": op("fixed_point", stability.fixed_point, *x["fp"][:2], tol=x["fp"][2])}

    def check(self, x: dict, out: dict) -> list:
        state0, rates, _, solver = x["raw"]
        traj = out["raw"]
        series = totals.integrate_totals(totals.TotalsState(*state0.masses), rates,
                                         t_end=solver.t_end, dt=solver.dt)
        idx = np.rint(traj.times / solver.dt).astype(int)
        diff = float(np.max(np.abs(traj.masses - np.column_stack([series.M[idx],
                                                                   series.F[idx]]))))
        a = x["norm"][2]
        inv = np.array([a * m.mean() + n.mean() for m, n in zip(out["norm"].mus,
                                                                out["norm"].nus)])
        drift = float(np.max(np.abs(inv - inv[0])))
        target = 2.0 * x["sigma"] ** 2
        var = out["fp"].variance
        return [
            (diff <= 1e-6, f"raw n=1024 masses vs planar system: max diff {diff:.2e}"),
            (drift <= 1e-6, f"normalized n=512: A*mean(mu)+mean(nu) drift {drift:.2e}"),
            (abs(var - target) <= 0.02 * target,
             f"fixed point n=2048: variance {var:.5f} vs 2 sigma^2 = {target}"),
        ]


# (subcommand, shipped config) in the order a user's batch runs them
CLI_CASES = (("totals", "totals"), ("stationary", "stationary"), ("macro", "macro_raw"),
             ("macro", "macro_coupled"), ("macro", "macro_normalized"), ("ibm", "ibm"),
             ("fixed-point", "fixed_point"))


class CliBatch(Workload):
    """The shipped configs through the CLI, one fresh interpreter per run.

    The traced variant calls ``dimorph.cli.main`` in-process instead.
    """

    def __init__(self, root: Path, inprocess: bool):
        super().__init__(root, inprocess)
        self.work = root / ".bench_out" / f"cli-{os.getpid()}"

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        cases = []
        for kind, name in CLI_CASES:
            cfg = _load(self.root, name)
            if name == "totals":
                cfg["initial"] = {"M": rng.uniform(0.5, 1.5), "F": rng.uniform(0.5, 1.5)}
            elif name == "stationary":
                cfg["rates"] = {k: v * rng.uniform(0.9, 1.1) for k, v in cfg["rates"].items()}
            elif name == "ibm":
                cfg["seed"] = int(rng.integers(2**31))
            elif name == "fixed_point":
                cfg["initial"] = _jitter(cfg["initial"], rng, 0.3)
            else:
                for k in ("initial_male", "initial_female"):
                    cfg[k] = _jitter(cfg[k], rng, 0.3)
            path = self.work / f"{name}.json"
            path.write_text(json.dumps(cfg))
            cases.append((kind, name, path, self.work / name))
        return {"cases": cases}

    def run(self, x: dict, op: Ops) -> dict:
        if self.inprocess:
            from dimorph import cli
        codes = {}
        for kind, name, path, out in x["cases"]:
            argv = [kind, "--config", str(path), "--out", str(out)]
            if self.inprocess:
                with contextlib.redirect_stdout(_io.StringIO()):
                    codes[name] = op("cli", cli.main, argv)
            else:
                proc = op("cli", subprocess.run, [sys.executable, "-m", "dimorph", *argv],
                          capture_output=True, timeout=60)
                codes[name] = proc.returncode
        return {"codes": codes}

    def check(self, x: dict, out: dict) -> list:
        checks = []
        for kind, name, path, outdir in x["cases"]:
            code = out["codes"][name]
            checks.append((code == 0, f"{name}: exit code {code}"))
            if code != 0:
                continue
            entries = json.loads((outdir / "manifest.json").read_text())["files"]
            bad = [e["path"] for e in entries
                   if hashlib.sha256((outdir / e["path"]).read_bytes()).hexdigest() != e["sha256"]]
            checks.append((not bad, f"{name}: manifest hashes match ({len(entries)} files)"))
        summary = {name: json.loads((self.work / name / "summary.json").read_text())
                   for name in ("totals", "stationary", "fixed_point")
                   if out["codes"][name] == 0}
        if "totals" in summary:
            s = summary["totals"]
            checks.append((abs(s["final_M"] - 2.0) < 1e-3 and abs(s["final_F"] - 2.0) < 1e-3,
                           f"totals end at ({s['final_M']:.6f}, {s['final_F']:.6f}) ~ (2, 2)"))
        if "stationary" in summary:
            res = summary["stationary"]["residual"]
            checks.append((res is not None and res < 1e-10, f"stationary residual {res}"))
        if "fixed_point" in summary:
            var = summary["fixed_point"]["variance"]
            checks.append((abs(var - 0.5) <= 0.01, f"fixed-point variance {var:.5f} ~ 0.5"))
        return checks

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {"lln-sweep": LlnSweep, "ibm-trait": IbmTrait, "flow-grid": FlowGrid,
             "cli-batch": CliBatch}
