"""dimorph benchmark: one workload, measured end to end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is used from ``src/``. Each
repetition runs in a fresh single-threaded interpreter (closed loop: one
at a time), on inputs generated from the seed. Repetitions continue until
S seconds have passed. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the ``end_to_end`` metrics of BENCHMARK.json (medians over the
repetitions) for ``--trace 0`` and its ``per_layer`` metrics for
``--trace 1``. The line before it is the full record: every repetition,
the per-layer tables, and the machine and noise record. The record and
the spans of the last traced repetition are also written to
``.bench_out/``. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
WORKER = Path(__file__).resolve().parent / "worker.py"
BLAS_THREADS = "1"
REP_TIMEOUT_S = 170
IMPORT_PROBES = 3
# Times are scaled to a host on which the reference (worker.py --mode
# reference) takes REF_S CPU seconds, about what it took on the 2-vCPU Xeon
# virtual machine the benchmark was written on.
REF_S = 0.4


def _env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONPATH=str(ROOT / "src"))
    env.pop("DIMORPH_OUT", None)
    return env


def _spawn(mode: str, workload: str, seed: int) -> dict:
    """Run one worker to completion and return its JSON result."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
             "--t0", repr(t0), "--mode", mode],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} worker killed after {REP_TIMEOUT_S} s"}
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        res = {}
    if proc.returncode != 0 and "error" not in res:
        res["error"] = f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}"
    return res


def _tally(res: dict) -> tuple[int, int]:
    """(attempted, failed): operations and checks, failed ones and crashes."""
    checks = res.get("checks", [])
    attempted = max(res.get("ops", 0) + len(checks), 1)
    failed = sum(not ok for ok, _ in checks) + ("error" in res)
    return attempted, failed


def _spread(values) -> float | None:
    """Interquartile range over the median; None with fewer than two values."""
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else None


def _loadavg():
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def _repeat(args, budget_s: float, modes: tuple, out: tuple) -> bool:
    """Rounds of one worker per mode, appended to the matching list of out,
    while another round still fits in the budget (at least one round).
    False when a worker failed."""
    start = time.monotonic()
    rounds = 0
    while True:
        for mode, results in zip(modes, out):
            results.append(_spawn(mode, args.workload, args.seed))
            if _tally(results[-1])[1]:
                return False
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed * (rounds + 1) / rounds > budget_s:
            return True


def end_to_end(args, spec: dict, record: dict) -> dict:
    reps, refs = [], []
    record["repetitions"] = reps
    record["reference"] = refs
    # Other tenants of the host slow it down, and every kind of code with it,
    # by up to a third for minutes at a time. Each round also runs the
    # reference twice; scaling by it takes the host's speed out and leaves
    # every change to dimorph in.
    if not _repeat(args, args.seconds, ("plain", "reference", "reference"), (reps, refs, refs)):
        return {}
    scale = REF_S / statistics.median(r["ref_s"] for r in refs)
    samples = {
        "cpu_s": [r["cpu_s"] * scale for r in reps],
        "setup_s": [r["setup_cpu_s"] * scale for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    record["reference_scale"] = scale
    record["unscaled"] = {
        name: statistics.median(r[name] for r in rs) for name, rs in
        (("wall_s", reps), ("cpu_s", reps), ("setup_wall_s", reps),
         ("setup_cpu_s", reps), ("ref_s", refs))}
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        values = samples[name]
        metrics[name] = {"value": statistics.median(values), "unit": m["unit"]}
        spread = _spread(values)
        record["spread"][name] = spread
        record["samples"][name] = len(values)
        if spread is not None and spread > m["bound"]:
            record["warnings"].append(
                f"{name}: spread {spread:.3f} over {len(values)} repetitions "
                f"exceeds its bound {m['bound']}")
    rates = [r["events"] / sum(r["op_seconds"]["simulate"]) for r in reps if r["events"]]
    cli_runs = [s for r in reps for s in r["op_seconds"].get("cli", [])]
    record["workload_metrics"] = {
        "events_per_s": statistics.median(rates) if rates else None,
        "cli_run_s": statistics.median(cli_runs) if cli_runs else None,
    }
    return metrics


def traced(args, spec: dict, record: dict) -> dict:
    start = time.monotonic()
    imports = [_spawn("import", args.workload, args.seed) for _ in range(IMPORT_PROBES)]
    layers = _spawn("layers", args.workload, args.seed)
    base, trace = [], []
    record["repetitions"] = {"import": imports, "layers": layers, "base": base, "traced": trace}
    if any(_tally(r)[1] for r in imports + [layers]) or not _repeat(
            args, args.seconds - (time.monotonic() - start), ("base", "traced"), (base, trace)):
        return {}
    values = {k: statistics.median(r["trace"]["tracked"][k] for r in trace)
              for k in trace[0]["trace"]["tracked"]}
    values.update(layers["probes"])
    values["cli.import_s"] = statistics.median(r["import_s"] for r in imports)
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in trace)
                                  - statistics.median(r["wall_s"] for r in base))
    record["per_layer_record_only"] = {
        k: statistics.median(r["trace"]["record_only"][k] for r in trace)
        if trace[0]["trace"]["record_only"][k] is not None else None
        for k in trace[0]["trace"]["record_only"]}
    record["layers"] = trace[-1]["trace"]["layers"]
    record["spans"] = trace[-1]["trace"]["spans"]
    record["computed_not_measured"] = sorted(
        k for k in values if ".table_bytes." in k or ".flops." in k)
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in values]
    if missing:
        raise KeyError(f"per-layer metrics not produced: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec["per_layer"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind: subprocess.run then kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "dimorph" / "__init__.py").is_file() \
            or not (ROOT / "configs").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print("run from the root of a dimorph checkout (src/dimorph, configs/, "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "warnings": [], "spread": {}, "samples": {},
        "machine": {"nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
                    "commit": _commit(), "loadavg_before": _loadavg()},
    }
    nproc = os.cpu_count() or 1
    # fill bytecode and page caches; users do not pay these on every run
    _spawn("import", args.workload, args.seed)
    metrics = (traced if args.trace else end_to_end)(args, spec, record)
    record["machine"]["loadavg_after"] = _loadavg()
    for when in ("loadavg_before", "loadavg_after"):
        load = record["machine"][when]
        if load and load[0] > 0.75 * nproc:
            record["warnings"].append(f"machine busy: 1-minute load {load[0]} ({when[8:]}) "
                                      f"on {nproc} cores")
    reps = record["repetitions"]
    flat = reps + record["reference"] if isinstance(reps, list) else \
        reps["import"] + [reps["layers"]] + reps["base"] + reps["traced"]
    record["machine"].update(next((r["env"] for r in flat if "env" in r), {}))
    attempted = sum(_tally(r)[0] for r in flat)
    failed = sum(_tally(r)[1] for r in flat)
    record["error_rate"] = failed / attempted
    for w in record["warnings"]:
        print(f"warning: {w}", file=sys.stderr)

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"record": record}))
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
