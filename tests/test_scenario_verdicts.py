"""Every scenario ends its summary.txt in ``<scenario>=pass|fail``, and the
exit code of ``chemodisk scenario`` follows that last line."""

import numpy as np
import pytest

from chemodisk import cli
from chemodisk.config import parse_config

# the supercritical concentrated run that collapses at t = 0.020, where the
# derivative bound of the first snapshot leaves no room for a barrier fit
COLLAPSING_VERIFY_GLOBAL = ["--set", "mass=10pi", "--set", "initial.kind=barrier",
                            "--set", "initial.a=0.01", "--set", "grid.gamma=3",
                            "--set", "scheme.t_end=1"]


def _set_args(doc):
    """--set options for the entries of a config document."""
    return [arg for key, value in doc.items() for arg in ("--set", f"{key}={value}")]


# a threshold below the initial density: every run stops after one step
THRESHOLD_BELOW_INITIAL = {"mass": "4pi", "scheme.u_blowup_threshold": "1",
                           "scheme.t_end": "1"}

CASES = [
    ("verify-global", ["--set", "mass=8pi", "--set", "grid.n=64",
                       "--set", "initial.kind=pks", "--set", "initial.lambda=0.3",
                       "--set", "scheme.t_end=2"], "pass"),
    ("verify-global", COLLAPSING_VERIFY_GLOBAL, "fail"),
    ("dichotomy", ["--set", "mass=8pi", "--set", "initial.kind=pks",
                   "--set", "initial.lambda=0.2", "--set", "grid.gamma=3",
                   "--set", "grid.n=128"], "pass"),
    ("dichotomy", ["--set", "mass=8pi", "--set", "grid.n=64"], "fail"),
    ("blowup", ["--set", "mass=10pi", "--set", "initial.kind=barrier",
                "--set", "initial.a=0.01"], "pass"),
    ("blowup", ["--set", "mass=4pi", "--set", "scheme.t_end=1"], "fail"),
    ("uniqueness", ["--set", "mass=8pi", "--set", "grid.n=64"], "pass"),
    ("check", ["--set", "mass=4pi"], "pass"),
    ("check", ["--set", "mass=40pi"], "pass"),  # barrier residuals checked up to 8pi
    ("blowup", _set_args(THRESHOLD_BELOW_INITIAL), "fail"),
]

# test ids are name-verdict; the last two cases repeat the name and verdict
# of an earlier one
IDS = [f"{name}-{verdict}" for name, _, verdict in CASES]
IDS[-2] += "-40pi"
IDS[-1] += "-threshold-below-initial-density"


@pytest.mark.parametrize("name,args,verdict", CASES, ids=IDS)
def test_last_summary_line_is_the_verdict_and_sets_the_exit_code(
        tmp_path, capsys, name, args, verdict):
    code = cli.main(["scenario", name, *args, "--out", str(tmp_path)])
    last = (tmp_path / "summary.txt").read_text().splitlines()[-1]
    assert last == f"{name}={verdict}"
    assert code == (0 if verdict == "pass" else 2)
    assert capsys.readouterr().err == ""


def test_verify_global_reports_an_unfittable_snapshot(tmp_path):
    code = cli.main(["scenario", "verify-global", *COLLAPSING_VERIFY_GLOBAL,
                     "--out", str(tmp_path)])
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    assert code == 2
    assert any(line.startswith("barrier_confinement=error: ") for line in lines)
    assert lines[-1] == "verify-global=fail"


def test_blowup_names_a_threshold_below_the_initial_density(tmp_path):
    cli.main(["scenario", "blowup", *_set_args(THRESHOLD_BELOW_INITIAL),
              "--out", str(tmp_path)])
    lines = (tmp_path / "summary.txt").read_text().splitlines()
    assert lines[-2:] == ["initial_below_threshold=False", "blowup=fail"]


def _assert_doubled_run_is_fresh(tmp_path, doc):
    """The scenario's n1024_doubled/ holds the bytes a fresh run writes."""
    assert cli.main(["scenario", "blowup", *_set_args(doc),
                     "--out", str(tmp_path / "s")]) in (0, 2)
    cfg = parse_config(doc)
    threshold = cfg.scheme.u_blowup_threshold or 2e5 * cfg.mass / np.pi
    doubled = cfg.replace(**{"grid.gamma": 3, "grid.n": 1024,
                             "scheme.u_blowup_threshold": 2.0 * threshold})
    cli.run_simulation(doubled, tmp_path / "fresh")
    written = sorted(p.name for p in (tmp_path / "s" / "n1024_doubled").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "fresh").iterdir())
    for name in written:
        assert ((tmp_path / "s" / "n1024_doubled" / name).read_bytes()
                == (tmp_path / "fresh" / name).read_bytes()), name


README_BLOWUP = {"mass": "10pi", "initial.kind": "barrier", "initial.a": "0.01"}


@pytest.mark.parametrize("doc", [
    README_BLOWUP,
    THRESHOLD_BELOW_INITIAL,
], ids=["readme", "threshold-below-initial-density"])
def test_blowup_doubled_run_writes_what_a_fresh_run_writes(tmp_path, doc):
    # the scenario continues its n=1024 run; a fresh run must write the same bytes
    _assert_doubled_run_is_fresh(tmp_path, doc)

