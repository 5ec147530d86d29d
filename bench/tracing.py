"""Span tracing of dimorph's public calls, installed from outside the package.

Every traced name is replaced in each module namespace it is looked up
from (``dimorph.macro.birth_weights`` as well as
``dimorph.kernels.birth_weights``), so nested calls made inside the
package are seen too. A span records name, start, end, parent span and
the operation it belongs to; spans stay in memory until the run ends.

Operation ids: 0 is set-up, 1.. are the workload's operations, -1 is the
harness's own correctness checks (excluded from the layer numbers).
"""

from __future__ import annotations

import functools
import importlib
import json
import time

LAYERS = ("ibm", "kernels", "macro", "stability", "measures", "totals",
          "config", "io", "cli")


def _count_events(tracer, args, out):
    tracer.counts["ibm.events"] += out.n_events
    tracer.counts["ibm.clamped_births"] += out.clamped_births


def _count_iterations(tracer, args, out):
    tracer.counts["stability.fixed_point.iterations"] += out.iterations


def _count_bytes(tracer, args, out):
    tracer.counts["io.bytes_written"] += len(args[1].encode())


# span name -> (modules the name is looked up from, optional result hook)
TARGETS = {
    "ibm.simulate": (("ibm", "cli"), _count_events),
    "kernels.birth_weights": (("kernels", "macro"), None),
    "kernels.birth_operator": (("kernels", "stability"), None),
    "macro.integrate": (("macro", "cli"), None),
    "macro.integrate_normalized": (("macro", "cli"), None),
    "macro.coupled_full_run": (("macro", "cli"), None),
    "stability.fixed_point": (("stability", "cli"), _count_iterations),
    "stability.lln_compare": (("stability", "cli"), None),
    "stability.convergence_report": (("stability",), None),
    "measures.wasserstein1": (("measures", "stability", "cli"), None),
    "totals.integrate_totals": (("totals", "cli"), None),
    "totals.stationary_point": (("totals", "cli", "macro"), None),
    "config.load_config": (("config", "cli"), None),
    "config.parse_grid": (("config", "cli"), None),
    "config.parse_rates": (("config", "cli"), None),
    "config.parse_kernel": (("config", "cli"), None),
    "config.parse_measure": (("config", "cli"), None),
    "config.parse_solver": (("config", "cli"), None),
    "config.sample_traits": (("config", "cli"), None),
    "io.emit_distribution_csv": (("io", "cli"), None),
    "io.write_json": (("io", "cli"), None),
    "io.write_measure_csv": (("io", "cli"), None),
    "io.write_manifest": (("io", "cli"), None),
    "io.atomic_write_text": (("io", "cli"), _count_bytes),
    "cli.main": (("cli",), None),
}


class Tracer:
    """Spans and counts of one traced repetition."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op = 0
        self.counts = {k: 0 for k in ("ibm.events", "ibm.clamped_births",
                                      "stability.fixed_point.iterations",
                                      "io.bytes_written")}

    def _wrap(self, fn, name, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, out)
            return out

        return traced

    def install(self) -> None:
        for name, (modules, hook) in TARGETS.items():
            attr = name.split(".", 1)[1]
            for mod_name in modules:
                mod = importlib.import_module(f"dimorph.{mod_name}")
                setattr(mod, attr, self._wrap(getattr(mod, attr), name, hook))

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)

    def summary(self, t_ready: float, t_done: float) -> dict:
        """Per-layer numbers of the workload's operations (and set-up for config)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent >= 0:
                child[parent] += end - start

        def layer(i):
            return spans[i][0].split(".", 1)[0]

        def nested_in_same(i, key):
            p = spans[i][3]
            while p >= 0:
                if key(p) == key(i):
                    return True
                p = spans[p][3]
            return False

        by_name: dict[str, dict] = {}
        by_layer = {l: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for l in LAYERS}
        rhs_evals = 0
        top_busy = 0.0
        for i, (name, start, end, parent, op) in enumerate(spans):
            if op < 0 or (op == 0 and not name.startswith("config.")):
                continue
            dur = end - start
            lay = by_layer[layer(i)]
            lay["calls"] += 1
            lay["self_s"] += dur - child[i]
            ent = by_name.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            ent["calls"] += 1
            ent["self_s"] += dur - child[i]
            if not nested_in_same(i, lambda j: spans[j][0]):
                ent["busy_s"] += dur
            if not nested_in_same(i, layer):
                lay["busy_s"] += dur
            if parent < 0 and op > 0:
                top_busy += dur
            if name == "kernels.birth_weights" and parent >= 0 and \
                    spans[parent][0] in ("macro.integrate", "macro.integrate_normalized"):
                rhs_evals += 1

        def busy(name):
            return by_name.get(name, {}).get("busy_s", 0.0)

        def calls(name):
            return by_name.get(name, {}).get("calls", 0)

        steps = rhs_evals / 4.0  # every solve here is classic RK4
        solve_s = busy("macro.integrate") + busy("macro.integrate_normalized")
        tracked = {
            "kernels.birth.calls": calls("kernels.birth_weights"),
            "kernels.birth.busy_s": busy("kernels.birth_weights"),
            "macro.integrate.busy_s": busy("macro.integrate"),
            "macro.rhs_evals": rhs_evals,
            "macro.self_s": by_layer["macro"]["self_s"],
            "macro.us_per_step": 1e6 * solve_s / steps if steps else 0.0,
            "measures.wasserstein1.calls": calls("measures.wasserstein1"),
            "measures.wasserstein1.busy_s": busy("measures.wasserstein1"),
            "config.parse_s": by_layer["config"]["busy_s"],
            "trace.top_span_share": top_busy / (t_done - t_ready),
            **self.counts,
        }
        events = self.counts["ibm.events"]
        record_only = {
            "ibm.simulate.busy_s": busy("ibm.simulate"),
            "ibm.us_per_event": 1e6 * busy("ibm.simulate") / events if events else None,
            "macro.integrate_normalized.busy_s": busy("macro.integrate_normalized"),
            "stability.fixed_point.busy_s": busy("stability.fixed_point"),
            "stability.lln_compare.busy_s": busy("stability.lln_compare"),
            "totals.integrate_totals.busy_s": busy("totals.integrate_totals"),
            "totals.stationary_point.busy_s": busy("totals.stationary_point"),
            "io.emit.busy_s": by_layer["io"]["busy_s"],
        }
        return {"tracked": tracked, "record_only": record_only,
                "layers": by_layer, "spans": by_name}
