"""Tests of the benchmark harness itself.

Run from the repository root:  python3 -m pytest -q bench
"""

import json
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from chemodisk import cli, radial, steady  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 3], b [4, 7] > c [5, 6]
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 7.0, 6.0]
    parents = [-1, 0, 0, 2]
    assert tracing.self_times(starts, ends, parents) == [5.0, 2.0, 2.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    starts = [0.0, 1.0, 2.0]
    ends = [10.0, 4.0, 5.0]
    assert tracing.self_times(starts, ends, [-1, 0, 0]) == [6.0, 3.0, 3.0]


def test_layer_metrics_from_synthetic_spans():
    names = ["steady.solve_stationary_newton", "solver.simulate",
             "solver.simulate", "cli.run_simulation", "solver.simulate"]
    starts = [0.0, 1.0, 3.0, 10.0, 11.0]
    ends = [6.0, 2.0, 5.0, 20.0, 19.0]
    parents = [-1, 0, 0, -1, 3]
    counts = {"solver.steps": 100, "steady.newton_iterations": 7,
              "steady.newton_converged": 1}
    m = tracing.layer_metrics(names, starts, ends, parents, counts)
    assert m["solver.simulate.calls"] == 3
    assert m["solver.simulate.self_s"] == 11.0
    assert m["solver.us_per_step"] == 1e6 * 11.0 / 100
    assert m["steady.relax_simulate.calls"] == 2
    assert m["steady.relax_simulate.s"] == 3.0
    assert m["steady.solve_stationary_newton.self_s"] == 3.0
    assert m["steady.newton_converged_ratio"] == 1.0
    assert m["cli.self_s"] == 2.0
    assert m["trace.spans"] == 5
    assert set(m) == {name for name, _, _ in tracing.PER_LAYER} - {"trace.overhead_s"}


def test_tracer_wraps_every_binding_and_restores_them():
    originals = (radial.density_from_mass, steady.find_dominating_super,
                 cli._SCENARIOS["blowup"])
    tracer = tracing.Tracer()
    grid = radial.Grid.regular(32)
    profile = radial.preset_profile("constant", 4.0, grid)
    with tracer.installed():
        assert steady.find_dominating_super is not originals[1]
        assert cli._SCENARIOS["blowup"] is not originals[2]
        radial.density_from_mass(profile)
    metrics = tracer.finish_run()
    names, _, _, parents, _ = tracer.runs[0]
    assert names == ["radial.density_from_mass", "radial.derivative"]
    assert parents == [-1, 0]
    assert metrics["radial.density_from_mass.self_s"] > 0.0
    assert (radial.density_from_mass, steady.find_dominating_super,
            cli._SCENARIOS["blowup"]) == originals


def test_metric_names_match_pattern_and_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layers == list(tracing.PER_LAYER)
    names = [name for name, _, _ in e2e + layers]
    names += [wl["name"] for wl in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert [wl["name"] for wl in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fail_ratio_counts_every_check_and_spares_known_defects():
    tally = run.Tally(known_defects={"converged"})
    assert tally.record({"converged": False, "sandwiched": True})
    assert not tally.record({"converged": True, "sandwiched": False})
    assert tally.record({"converged": True, "sandwiched": True})
    assert tally.record({"converged": True, "sandwiched": True, "determinism": True})
    assert tally.fail_ratio() == 2 / 3
    assert tally.pass_ratio() == 1 / 3


def test_seed_zero_gives_the_acceptance_inputs():
    docs = {name: wl.document(0) for name, wl in workloads.WORKLOADS.items()}
    assert docs["relax-critical"] == {
        "mass": "8pi", "grid.n": 1024, "grid.gamma": 2, "initial.kind": "pks",
        "initial.lambda": 0.05, "scheme.t_end": 50, "scheme.snapshot_every": 1.0}
    assert docs["blowup-supercritical"] == {
        "mass": "10pi", "initial.kind": "barrier", "initial.a": 0.01,
        "scheme.t_end": 10}
    assert docs["steady-uniqueness"] == {"mass": "8pi", "seed": 0}
    assert docs["snapshot-io"] == {
        "mass": "4pi", "grid.n": 4096, "initial.kind": "pks",
        "initial.lambda": 0.3, "scheme.t_end": 1, "scheme.snapshot_every": 0.02}


def test_other_seeds_perturb_the_initial_parameter_within_bounds():
    factors = [workloads.perturbation(seed) for seed in range(1, 200)]
    assert factors == [workloads.perturbation(seed) for seed in range(1, 200)]
    assert workloads.PERTURB <= 0.10
    assert max(abs(f - 1.0) for f in factors) <= workloads.PERTURB
    assert len(set(factors)) == len(factors)
    doc = workloads.WORKLOADS["blowup-supercritical"].document(7)
    assert np.isclose(doc["initial.a"], 0.01 * workloads.perturbation(7))
    assert workloads.WORKLOADS["steady-uniqueness"].document(7)["seed"] == 7
