"""Per-layer tracing of the package's public functions, installed from outside.

``Tracer.install`` replaces each target function at every place its callers
look it up: each ``infoload`` module attribute bound to the same object (for
example ``infoload.market.run_market``, ``infoload.sweep.run_market`` and
``infoload.cli.run_market``).  Layers are named after the modules.

Three kinds of wrapper, chosen by how often a function runs per job:

- SPAN: one span per call (name, start, end, parent span, job index), kept in
  memory and written out at exit;
- TOTAL: for functions called ~10^4 times or more per job, an aggregated call
  count, total time and self time instead of a span per call;
- COUNT: a call count only, for the innermost evaluations.

Self time is a call's duration minus the time its traced children cover, so
the self times of one job add up to the duration of its root ``cli.main``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

SPAN, TOTAL, COUNT = "span", "total", "count"

TARGETS = (
    ("infoload.cli", "main", SPAN),
    ("infoload.cli", "parse_config", SPAN),
    ("infoload.cli", "write_csv", SPAN),
    ("infoload.market", "sample_population", SPAN),
    ("infoload.market", "run_market", SPAN),
    ("infoload.sweep", "sweep_imax", SPAN),
    ("infoload.sweep", "sweep_2d", SPAN),
    ("infoload.agent", "grid_oracle", SPAN),
    ("infoload.kernels", "utility_grid", SPAN),
    ("infoload.agent", "optimize_information", TOTAL),
    ("infoload.agent", "unconstrained_optimum", TOTAL),
    ("infoload.agent", "marginal_utility", COUNT),
)
CURVE_CLASSES = ("ExpSaturating", "Hyperbolic", "PowerCost", "ExpGrowthCost", "ZeroCost")
LAYERS = ("cli", "market", "sweep", "agent", "kernels")
KERNEL_BYTES_PER_POINT = 16  # one float64 read and one written, computed not measured


def _csv_bytes(counts, args, kwargs, result):
    counts["cli.write_csv.bytes"][0] += Path(result).stat().st_size


def _agents(counts, args, kwargs, result):
    counts["market.sample_population.agents"][0] += len(result)


def _reused_root(counts, args, kwargs, result):
    if (args[2] if len(args) > 2 else kwargs.get("precomputed")) is not None:
        counts["agent.optimize_information.reused"][0] += 1


def _grid_points(counts, args, kwargs, result):
    counts["kernels.utility_grid.points"][0] += len(args[0])


MEASURES = {
    "cli.write_csv": _csv_bytes,
    "market.sample_population": _agents,
    "agent.optimize_information": _reused_root,
    "kernels.utility_grid": _grid_points,
}
COUNTERS = ("cli.write_csv.bytes", "market.sample_population.agents",
            "agent.optimize_information.reused", "kernels.utility_grid.points",
            "agent.marginal_utility", "curves.evals")


class Tracer:
    def __init__(self):
        self.job = -1
        self.spans = []  # (job, span_id, parent_id, name, start_ns, end_ns)
        self.kept = 0  # spans before this index belong to finished jobs
        self.totals = {}  # name -> [calls, total_ns, self_ns], zeroed per job
        self.counts = {name: [0] for name in COUNTERS}  # zeroed per job
        self._stack = [[0, None]]  # frames of [child_ns, span_id]; [0] is the root
        self._next_id = 0

    def install(self) -> None:
        for module_name, attr, kind in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            name = f"{module_name.split('.')[-1]}.{attr}"
            if kind == COUNT:
                wrapper = self._counted(name, original)
            else:
                wrapper = self._timed(name, original, kind == SPAN, MEASURES.get(name))
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "infoload" and not mod_name.startswith("infoload."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        curves = importlib.import_module("infoload.curves")
        for cls_name in CURVE_CLASSES:
            cls = getattr(curves, cls_name)
            for method in ("value", "deriv"):
                setattr(cls, method, self._counted("curves.evals", vars(cls)[method]))

    def _counted(self, name, fn):
        cell = self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _timed(self, name, fn, record_span, measure):
        stack, spans, counts = self._stack, self.spans, self.counts
        entry = self.totals[name] = [0, 0, 0]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if record_span:
                self._next_id += 1
                frame = [0, self._next_id]
            else:
                frame = [0, parent[1]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[0] += duration
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if record_span:
                    spans.append((self.job, frame[1], parent[1], name, start, end))
            if measure is not None:
                measure(counts, args, kwargs, result)
            return result
        return wrapper

    def begin_job(self, index: int) -> None:
        """Drop whatever was recorded between jobs (the untimed checks)."""
        self.job = index
        del self.spans[self.kept:]
        for cell in (*self.totals.values(), *self.counts.values()):
            cell[:] = [0] * len(cell)
        del self._stack[1:]
        self._stack[0][0] = 0

    def end_job(self, job_ms: float) -> dict:
        """Per-job layer metrics, self time per layer and its sum over the job."""
        self.kept = len(self.spans)
        metrics = job_metrics(self.totals, {k: v[0] for k, v in self.counts.items()})
        layer_ms = {layer: 0.0 for layer in LAYERS}
        negative = []
        for name, (_, _, self_ns) in self.totals.items():
            layer_ms[name.split(".")[0]] += self_ns / 1e6
            if self_ns < 0:
                negative.append(name)
        return {"job_ms": job_ms, "metrics": metrics, "layer_ms": layer_ms,
                "negative_self": negative}

    def write(self, path: Path) -> None:
        fields = ["job", "span_id", "parent_id", "name", "start_ns", "end_ns"]
        path.write_text(json.dumps({"fields": fields, "spans": self.spans[:self.kept]}))


def job_metrics(totals: dict, counts: dict) -> dict:
    def calls(name):
        return totals[name][0]

    def total_ms(name):
        return totals[name][1] / 1e6

    def self_ms(name):
        return totals[name][2] / 1e6

    optimize_calls = calls("agent.optimize_information")
    solves = calls("agent.unconstrained_optimum")
    points = counts["kernels.utility_grid.points"]
    kernel_ms = total_ms("kernels.utility_grid")
    return {
        "cli.parse_config.ms": total_ms("cli.parse_config"),
        "cli.write_csv.ms": total_ms("cli.write_csv"),
        "cli.write_csv.bytes": counts["cli.write_csv.bytes"],
        "market.sample_population.ms": total_ms("market.sample_population"),
        "market.sample_population.agents": counts["market.sample_population.agents"],
        "market.run_market.calls": calls("market.run_market"),
        "market.run_market.self_ms": self_ms("market.run_market"),
        "sweep.sweep_imax.calls": calls("sweep.sweep_imax"),
        "sweep.sweep_imax.self_ms": self_ms("sweep.sweep_imax"),
        "sweep.sweep_2d.ms": total_ms("sweep.sweep_2d"),
        "agent.optimize_information.calls": optimize_calls,
        "agent.optimize_information.self_ms": self_ms("agent.optimize_information"),
        "agent.root_reuse_ratio": (counts["agent.optimize_information.reused"] / optimize_calls
                                   if optimize_calls else 0.0),
        "agent.unconstrained_optimum.calls": solves,
        "agent.unconstrained_optimum.ms": total_ms("agent.unconstrained_optimum"),
        "agent.root_iters_per_solve": counts["agent.marginal_utility"] / solves if solves else 0.0,
        "agent.grid_oracle.ms": total_ms("agent.grid_oracle"),
        "kernels.utility_grid.calls": calls("kernels.utility_grid"),
        "kernels.utility_grid.points": points,
        "kernels.utility_grid.ms": kernel_ms,
        "kernels.points_per_s": points / (kernel_ms / 1e3) if kernel_ms else 0.0,
        "kernels.bytes_computed": KERNEL_BYTES_PER_POINT * points,
        "curves.evals": counts["curves.evals"],
    }
