"""Outside-in tracing of the chemodisk modules, and the per-layer metrics.

A `Tracer` wraps every public function of every chemodisk module, except
the per-cell formatter in `UNTRACED`, in every module namespace that binds it
(``steady`` imports ``barriers`` functions by name, ``cli`` and ``csvio``
call others through module attributes), and records one span per call: name, start, end and the index of the parent
span.  Spans stay in memory until `write_spans` puts them in a file.  A few
boundaries also record counts (accepted steps, CSV rows and bytes, Newton
iterations) taken from the arguments and the return value.

Nothing under ``src/`` changes: the wrappers are installed for the length of
a ``with tracer.installed():`` block and removed afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("solver", "csvio", "steady", "barriers", "radial", "energy",
          "config", "cli")

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("solver.simulate.calls", "count", "lower"),
    ("solver.simulate.self_s", "s", "lower"),
    ("solver.steps", "count", "lower"),
    ("solver.us_per_step", "us", "lower"),
    ("csvio.write_snapshot.calls", "count", "lower"),
    ("csvio.write_snapshot.self_s", "s", "lower"),
    ("csvio.us_per_row", "us", "lower"),
    ("csvio.bytes_written", "B", "lower"),
    ("csvio.write_trace.self_s", "s", "lower"),
    ("csvio.read_trace.self_s", "s", "lower"),
    ("radial.density_from_mass.self_s", "s", "lower"),
    ("radial.potential_slope_from_mass.self_s", "s", "lower"),
    ("radial.potential_from_slope.self_s", "s", "lower"),
    ("steady.solve_stationary_newton.calls", "count", "lower"),
    ("steady.solve_stationary_newton.self_s", "s", "lower"),
    ("steady.newton_iterations", "count", "lower"),
    ("steady.newton_converged_ratio", "ratio", "higher"),
    ("steady.relax_simulate.calls", "count", "lower"),
    ("steady.relax_simulate.s", "s", "lower"),
    ("steady.uniqueness_sweep.self_s", "s", "lower"),
    ("barriers.find_dominating_super.calls", "count", "lower"),
    ("barriers.find_dominating_super.self_s", "s", "lower"),
    ("barriers.find_dominated_sub.calls", "count", "lower"),
    ("barriers.find_dominated_sub.self_s", "s", "lower"),
    ("barriers.separation_margin.calls", "count", "lower"),
    ("barriers.separation_margin.self_s", "s", "lower"),
    ("energy.audit_decay.self_s", "s", "lower"),
    ("config.parse_config.self_s", "s", "lower"),
) + tuple((f"{layer}.self_s", "s", "lower") for layer in LAYERS) + (
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _count_simulate(counts, args, kwargs, result):
    counts["solver.steps"] += len(result.times) - 1


def _count_snapshot(counts, args, kwargs, result):
    counts["csvio.snapshot_rows"] += len(args[1].values)
    counts["csvio.bytes_written"] += os.path.getsize(args[0])


def _count_written(counts, args, kwargs, result):
    counts["csvio.bytes_written"] += os.path.getsize(args[0])


def _count_newton(counts, args, kwargs, result):
    counts["steady.newton_iterations"] += result.iterations
    counts["steady.newton_converged"] += int(result.converged)


# Public functions left unwrapped: csvio.fmt formats one CSV cell and runs
# about a million times per snapshot-io run, so a span per call would cost
# more than the call and bury csvio.write_snapshot's own time.
UNTRACED = {"csvio.fmt"}

# counts recorded at a boundary, from (arguments, return value)
COUNTERS = {
    "solver.simulate": _count_simulate,
    "csvio.write_snapshot": _count_snapshot,
    "csvio.write_trace": _count_written,
    "csvio.write_rows": _count_written,
    "csvio.write_summary": _count_written,
    "steady.solve_stationary_newton": _count_newton,
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self.runs: list[tuple] = []

    def finish_run(self) -> dict[str, float]:
        """Close the current run: keep its spans, return its layer metrics."""
        run = (self.names, self.starts, self.ends, self.parents, dict(self.counts))
        self.runs.append(run)
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counts = defaultdict(int)
        return layer_metrics(*run)

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap public functions in every namespace binding them; undo on exit."""
        modules = [importlib.import_module("chemodisk")] + [
            importlib.import_module(f"chemodisk.{layer}") for layer in LAYERS]
        wrappers = {}
        for mod in modules[1:]:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__
                        and f"{layer}.{attr}" not in UNTRACED):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        undo = []
        for mod in modules:
            space = vars(mod)
            for attr, obj in list(space.items()):
                if isinstance(obj, dict):  # dispatch tables such as cli._SCENARIOS
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrappers:
                            obj[key] = wrappers[val]
                            undo.append((obj, key, val))
                elif inspect.isfunction(obj) and obj in wrappers:
                    space[attr] = wrappers[obj]
                    undo.append((space, attr, obj))
        try:
            yield self
        finally:
            for space, key, original in reversed(undo):
                space[key] = original

    def write_spans(self, path) -> None:
        """Write the spans of every finished run, once, as CSV."""
        with open(path, "w") as fh:
            fh.write("run,index,name,start_s,end_s,parent\n")
            for run, (names, starts, ends, parents, _) in enumerate(self.runs):
                for i, row in enumerate(zip(names, starts, ends, parents)):
                    name, start, end, parent = row
                    fh.write(f"{run},{i},{name},{start!r},{end!r},{parent}\n")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        cursor = start
        for child in sorted(children.get(idx, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[child], cursor), min(ends[child], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(names, starts, ends, parents, counts) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but trace.overhead_s)."""
    selfs = self_times(starts, ends, parents)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    layer_self = defaultdict(float)
    relax_calls, relax_s = 0, 0.0
    for idx, name in enumerate(names):
        calls[name] += 1
        self_s[name] += selfs[idx]
        layer_self[name.split(".", 1)[0]] += selfs[idx]
        parent = parents[idx]
        if (name == "solver.simulate" and parent >= 0
                and names[parent] == "steady.solve_stationary_newton"):
            relax_calls += 1
            relax_s += ends[idx] - starts[idx]

    newton_calls = calls["steady.solve_stationary_newton"]
    rows = counts.get("csvio.snapshot_rows", 0)
    steps = counts.get("solver.steps", 0)
    out = {}
    for metric, _, _ in PER_LAYER:
        head, _, quantity = metric.rpartition(".")
        if quantity == "calls":
            out[metric] = calls[head]
        elif quantity == "self_s" and head in LAYERS:
            out[metric] = layer_self[head]
        elif quantity == "self_s":
            out[metric] = self_s[head]
    out.update({
        "solver.steps": steps,
        "solver.us_per_step": 1e6 * self_s["solver.simulate"] / steps if steps else 0.0,
        "csvio.us_per_row": 1e6 * self_s["csvio.write_snapshot"] / rows if rows else 0.0,
        "csvio.bytes_written": counts.get("csvio.bytes_written", 0),
        "steady.newton_iterations": counts.get("steady.newton_iterations", 0),
        "steady.newton_converged_ratio": (
            counts.get("steady.newton_converged", 0) / newton_calls
            if newton_calls else 0.0),
        "steady.relax_simulate.calls": relax_calls,
        "steady.relax_simulate.s": relax_s,
        "trace.spans": len(names),
    })
    return out
