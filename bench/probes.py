"""Layer probes that do not depend on the workload, run in a fresh interpreter.

* The grid-size sweep of the birth contraction: warm
  ``kernels.birth_weights`` time and row-table build at n in SWEEP_N, with
  the table size and per-call flop count computed from the algorithm
  (labelled as computed, not measured).
* The IBM's cost per event at a fixed size, with constant and with
  trait-dependent rates.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

from dimorph import config, ibm, kernels, measures
from workloads import TRAIT_RATES

# warm calls timed per grid size; about 0.1 s of calls each
SWEEP_N = {128: 400, 512: 100, 1024: 40, 2048: 15}


def birth_sweep(root: Path, rng) -> dict:
    spec = config.load_config(root / "configs" / "fixed_point.json")["kernel"]
    out = {}
    for n, reps in SWEEP_N.items():
        grid = measures.TraitGrid(-8.0, 8.0, n)
        kernel = config.parse_kernel(spec)
        wa, wb = (measures.gaussian_measure(grid, rng.uniform(-1, 1), rng.uniform(0.6, 1.4)).weights
                  for _ in range(2))
        t = time.perf_counter()
        kernels.birth_weights(kernel, wa, wb, grid)
        cold = time.perf_counter() - t
        warm = []
        for _ in range(reps):
            t = time.perf_counter()
            kernels.birth_weights(kernel, wa, wb, grid)
            warm.append(time.perf_counter() - t)
        med = statistics.median(warm)
        rows = 2 * n - 1
        out[n] = {
            "us_per_call": 1e6 * med,
            "table_build_s": cold - med,
            # computed: float64 row matrix plus per-row tail (float64) and valid (bool)
            "table_bytes": rows * n * 8 + rows * 9,
            # computed: direct convolution n^2 MACs, row matvec rows*n MACs, tail dot
            "flops": 2 * n * n + 2 * rows * n + 2 * rows,
        }
    return out


def ibm_event_cost(root: Path, rng) -> dict:
    cfg = config.load_config(root / "configs" / "ibm.json")
    grid = config.parse_grid(cfg["grid"])
    kernel = config.parse_kernel(cfg["kernel"], sample_grid=grid)
    out = {}
    for label, rates, t_end in (("const", config.parse_rates(cfg["rates"]), 1.0),
                                ("trait", TRAIT_RATES, 0.3)):
        per_event = []
        for _ in range(3):
            params = ibm.IbmParams(
                grid=grid, rates=rates, kernel=kernel, N=cfg["N"], t_end=t_end,
                sample_times=(t_end,), seed=int(rng.integers(2**31)),
                initial_female=config.sample_traits(cfg["initial_female"], 1000, grid, rng, ""),
                initial_male=config.sample_traits(cfg["initial_male"], 1000, grid, rng, ""))
            t = time.perf_counter()
            traj = ibm.simulate(params)
            per_event.append((time.perf_counter() - t) / traj.n_events)
        out[label] = 1e6 * statistics.median(per_event)
    return out


def layer_probes(root: Path, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    sweep = birth_sweep(root, rng)
    metrics = {}
    for n, row in sweep.items():
        metrics[f"kernels.birth.us_per_call.n{n}"] = row["us_per_call"]
        metrics[f"kernels.table_build_s.n{n}"] = row["table_build_s"]
        metrics[f"kernels.table_bytes.n{n}"] = row["table_bytes"]
        metrics[f"kernels.birth.flops.n{n}"] = row["flops"]
    for label, us in ibm_event_cost(root, rng).items():
        metrics[f"ibm.probe.us_per_event.{label}"] = us
    return metrics
