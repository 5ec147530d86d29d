"""One workload repetition in a fresh interpreter; prints one JSON line.

    python3 bench/worker.py --workload NAME --seed N --t0 T --mode MODE

T is the parent's time.monotonic() just before it started this process,
so set-up time counts interpreter launch. MODE is
``plain`` (end-to-end repetition), ``base`` (the untraced twin of a traced
repetition: for cli-batch, CLI runs in-process), ``traced``, ``import``
(time ``import dimorph.cli`` alone), ``layers`` (the layer probes) or
``reference`` (the host-speed reference, which runs no dimorph code).
Run from the root of a checkout, with ``src`` on PYTHONPATH.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _cpu_s(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _reference_cpu_s() -> float:
    """CPU seconds since exec of a fixed job like a workload's set-up: start
    Python, import numpy and scipy.special, draw and sum random numbers.
    It runs no dimorph code, so no change to dimorph can move it."""
    import numpy as np
    import scipy.special  # noqa: F401
    rng = np.random.default_rng(0)
    total = 0.0
    for _ in range(200):
        total += float(np.cumsum(rng.normal(size=1000))[-1])
    return _cpu_s(resource.RUSAGE_SELF)


def _versions() -> dict:
    # read from package metadata: importing scipy here would add to set-up time
    from importlib.metadata import version
    return {"python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("plain", "base", "traced", "import", "layers",
                             "reference"))
    args = ap.parse_args()
    root = Path.cwd()

    if args.mode == "reference":
        print(json.dumps({"ref_s": _reference_cpu_s()}))
        return 0
    if args.mode == "import":
        t = time.perf_counter()
        import dimorph.cli  # noqa: F401
        print(json.dumps({"import_s": time.perf_counter() - t}))
        return 0

    import dimorph
    src = (root / "src" / "dimorph").resolve()
    if Path(dimorph.__file__).resolve().parent != src:
        print(f"dimorph imported from {dimorph.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.mode == "layers":
        import probes
        print(json.dumps({"probes": probes.layer_probes(root, args.seed), "env": _versions()}))
        return 0

    import workloads
    tracer = None
    if args.mode in ("base", "traced"):
        import dimorph.cli  # noqa: F401  (same imports in base and traced)
    if args.mode == "traced":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    w = workloads.WORKLOADS[args.workload](root, inprocess=args.mode in ("base", "traced"))
    op = workloads.Ops(tracer)
    try:
        inputs = w.setup(args.seed)
        t_ready = time.monotonic()
        # CPU time since exec: interpreter launch, imports and input generation
        setup_cpu = _cpu_s(resource.RUSAGE_SELF)
        children_cpu = _cpu_s(resource.RUSAGE_CHILDREN)
        out = w.run(inputs, op)
        t_done = time.monotonic()
        # the CLI runs of cli-batch are child processes: their CPU time counts
        run_cpu = (_cpu_s(resource.RUSAGE_SELF) - setup_cpu
                   + _cpu_s(resource.RUSAGE_CHILDREN) - children_cpu)
        if tracer is not None:
            tracer.op = -1
        checks = w.check(inputs, out)
    except Exception:
        print(json.dumps({"ops": op.count, "error": traceback.format_exc(),
                          "env": _versions()}))
        return 1
    finally:
        w.close()
    result = dict(
        setup_wall_s=t_ready - args.t0,
        setup_cpu_s=setup_cpu,
        wall_s=t_done - t_ready,
        cpu_s=run_cpu,
        peak_rss_mb=_peak_rss_mb(),
        ops=op.count,
        op_seconds=op.seconds,
        events=sum(t.n_events for t in out.get("trajs", [out.get("traj")]) if t is not None),
        checks=[[bool(ok), msg] for ok, msg in checks],
        env=_versions(),
    )
    if tracer is not None:
        result["trace"] = tracer.summary(t_ready, t_done)
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
