"""chemodisk benchmark: one workload, run back to back by one client.

Run from the root of a chemodisk checkout:

    python3 bench/run.py --workload relax-critical --seed 0 --seconds 25 --trace 0

The workload's runs go through the public API in this single-threaded
process, one after another (a closed loop with one client), until
``--seconds`` have passed; at least two runs always complete.  Each run's
outputs are checked, and a failed check is counted, not raised.

``--trace 0`` reports the end-to-end metrics (medians over the runs).
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics of the traced ones; ``trace.overhead_s`` is the traced minus the
untraced median wall time.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Run outputs and
the span file go to ``.bench_out/``.
"""

from __future__ import annotations

import os

# Single-threaded BLAS/OpenMP for this process and every process it starts;
# set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3  # fresh-process set-ups per run; setup_s is their median
LARGEST_N = 4096  # finest grid of any workload

# (name, unit, better) of every end-to-end metric
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("check_pass_ratio", "ratio", "higher"),
    ("accuracy_guard", "rel", "lower"),
)


class Tally:
    """Output checks over all runs of one invocation.

    A check fails when it fails in any run; the ratios are over the distinct
    checks, so they do not depend on how many runs fit in the time.
    """

    def __init__(self, known_defects=frozenset()):
        self.known_defects = frozenset(known_defects)
        self.attempted = Counter()
        self.failed = Counter()

    def record(self, checks: dict) -> bool:
        """Count one run's checks; False if one failed that is not a known defect."""
        clean = True
        for name, passed in checks.items():
            self.attempted[name] += 1
            if not passed:
                self.failed[name] += 1
                clean = clean and name in self.known_defects
        return clean

    def fail_ratio(self) -> float:
        return len(self.failed) / len(self.attempted) if self.attempted else 1.0

    def pass_ratio(self) -> float:
        passed = len(self.attempted) - len(self.failed)
        return passed / len(self.attempted) if self.attempted else 0.0


def environment() -> dict:
    """Machine and library facts that the timings depend on."""
    import numpy
    import scipy

    info = {"nproc": len(os.sched_getaffinity(0)),
            "cpu_model": platform.processor() or "unknown",
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    info["caches"] = caches
    for lib in (numpy, scipy):
        deps = lib.show_config(mode="dicts").get("Build Dependencies", {})
        info[f"{lib.__name__}_openblas"] = deps.get("blas", {}).get("version", "unknown")
    info["threads"] = {var: os.environ[var] for var in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
    array_kb = (LARGEST_N + 1) * 8 / 1000
    l2 = caches.get("L2", "")
    l2_kb = int(l2[:-1]) * 1.024 if l2.endswith("K") else None
    info["working_set"] = (
        f"every per-step array at n <= {LARGEST_N} is at most {array_kb:.1f} kB"
        + (f" and fits in L2 ({l2})" if l2_kb and array_kb < l2_kb else "")
        + "; the solver is call-overhead bound, so it is reported as us/step "
        "and calls; bytes-moved figures would be computed, not measured")
    return info


def measure_setup(doc: dict, env: dict) -> list[float]:
    """Fresh-process set-up times, seconds, as measured inside each child."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), json.dumps(doc)],
            capture_output=True, text=True, env=env, timeout=120, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "chemodisk" / "__init__.py").is_file():
        print(f"error: no chemodisk sources under {src}; run from the root of "
              "a chemodisk checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    doc = wl.document(args.seed)
    out_root = root / ".bench_out"
    out = out_root / wl.name
    out_root.mkdir(exist_ok=True)

    setup = [] if args.trace else measure_setup(doc, child_env)

    tally = Tally(wl.known_defects)
    tracer = tracing.Tracer()
    walls = {False: [], True: []}  # traced? -> wall seconds per run
    layer_runs = []
    fingerprints = []
    outcome = None
    attempted = failed = 0
    start = time.perf_counter()
    # two runs at least: determinism needs a second run of the same seed, and
    # a traced run an untraced partner
    while attempted < 2 or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace) and attempted % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        attempted += 1
        try:
            with tracer.installed() if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    result = wl.run(doc, out)
                finally:
                    wall = time.perf_counter() - t0
                    layers = tracer.finish_run() if traced else None
            walls[traced].append(wall)
            if traced:
                layer_runs.append(layers)
            outcome = wl.evaluate(result, out, doc)
            checks = dict(outcome.checks)
            fp = workloads.fingerprint(out, outcome.steps)
            if fingerprints:
                checks["determinism"] = fp == fingerprints[0]
            if fp not in fingerprints:
                fingerprints.append(fp)
            if not tally.record(checks):
                failed += 1
        except Exception:  # a run that raises is counted, and the loop goes on
            traceback.print_exc()
            failed += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload={wl.name} seed={args.seed} trace={args.trace} "
          f"runs={attempted} closed_loop_clients=1")
    print(f"inputs {json.dumps(doc, sort_keys=True)}")
    print(f"environment {json.dumps(environment(), sort_keys=True)}")
    for name in sorted(tally.attempted):
        note = " (known defect)" if name in wl.known_defects else ""
        print(f"check {name}: {tally.attempted[name] - tally.failed[name]}"
              f"/{tally.attempted[name]} passed{note}")
    print(f"check_fail_ratio = {tally.fail_ratio()!r}")
    print(f"fingerprints {fingerprints}")
    if outcome is not None:
        print(f"accepted_steps {outcome.steps}")
        for name, value in outcome.guards.items():
            print(f"guard {name} = {value!r}")

    if args.trace:
        metrics = {name: statistics.median(run[name] for run in layer_runs)
                   for name, _, _ in tracing.PER_LAYER
                   if name != "trace.overhead_s"} if layer_runs else {}
        print(f"wall_s untraced={walls[False]!r} traced={walls[True]!r}")
        if walls[True] and walls[False]:
            metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                           - statistics.median(walls[False]))
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        tracer.write_spans(out_root / f"{wl.name}-spans.csv")
    else:
        metrics = {
            "wall_s": statistics.median(walls[False]) if walls[False] else None,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "check_pass_ratio": tally.pass_ratio(),
            "accuracy_guard": outcome.guard if outcome is not None else None,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
        print(f"wall_s samples={len(walls[False])} values={walls[False]!r}")
        print(f"setup_s samples={len(setup)} values={setup!r}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    correct = (failed == 0 and len(metrics) == len(units)
               and all(value is not None for value in metrics.values()))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
