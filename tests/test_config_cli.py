import warnings
from dataclasses import fields

import numpy as np
import pytest

from chemodisk import cli, config, csvio, solver, steady
from chemodisk.config import (ConfigError, ExperimentConfig, parse_config,
                              parse_number)
from chemodisk.radial import EIGHT_PI, Grid, preset_profile


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """The output directory of a short simulate run: 13 trace rows."""
    out = tmp_path_factory.mktemp("run")
    assert cli.main(["simulate", "--set", "mass=4pi", "--set", "grid.n=64",
                     "--set", "scheme.t_end=0.2", "--out", str(out)]) == 0
    return out


def _edit_line(text, idx, edit):
    """`text` with its CRLF-ended line `idx` (0-based) replaced by edit(line)."""
    lines = text.split("\r\n")
    lines[idx] = edit(lines[idx])
    return "\r\n".join(lines)


class TestParseNumber:
    def test_plain_float(self):
        assert parse_number("2.5") == 2.5

    def test_pi_multiples(self):
        assert parse_number("8pi") == 8.0 * np.pi
        assert parse_number("0.5pi") == 0.5 * np.pi
        assert parse_number("pi") == np.pi

    def test_passthrough_numeric(self):
        assert parse_number(3) == 3.0

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_number("eightpi")


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config({"mass": "4pi"})
        assert cfg.mass == pytest.approx(4.0 * np.pi)
        assert cfg.n == 512
        assert cfg.gamma == 1.0
        assert cfg.initial_kind == "constant"

    def test_text_document(self):
        text = """
        # an experiment
        mass = 8pi
        grid.n = 256
        grid.gamma = 2
        initial.kind = pks
        initial.lambda = 0.05
        """
        cfg = parse_config(text)
        assert cfg.mass == pytest.approx(EIGHT_PI)
        assert cfg.n == 256
        assert cfg.initial_params == {"lam": 0.05}

    def test_rejects_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config({"mass": 1.0, "grid.m": 64})

    def test_rejects_missing_mass(self):
        with pytest.raises(ConfigError):
            parse_config({"grid.n": 64})

    def test_rejects_duplicate_text_key(self):
        with pytest.raises(ConfigError):
            parse_config("mass = 1\nmass = 2\n")

    def test_rejects_a_text_line_without_an_equals_sign(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("mass 8pi")
        assert str(exc.value) == "line 1: expected 'key = value', got 'mass 8pi'"

    def test_rejects_a_document_that_is_neither_dict_nor_text(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(["mass"])
        assert str(exc.value) == "config document must be a dict or key=value text"

    def test_rejects_a_cadence_the_run_cannot_land(self):
        # snapshot_every at or below scheme.dt_min cannot be landed: refused
        # as the scheme's before any run
        with pytest.raises(ConfigError) as exc:
            parse_config({"mass": "4pi", "grid.n": "16",
                          "scheme.snapshot_every": "1e-300", "scheme.t_end": "0.001"})
        assert str(exc.value).startswith("scheme: ")
        assert "snapshot_every must exceed dt_min" in str(exc.value)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ConfigError):
            parse_config({"mass": 1.0, "grid.gamma": 5.0})

    def test_rejects_mismatched_preset_params(self):
        with pytest.raises(ConfigError):
            parse_config({"mass": 1.0, "initial.kind": "pks"})
        with pytest.raises(ConfigError):
            parse_config({"mass": 1.0, "initial.kind": "constant",
                          "initial.lambda": 0.5})

    def test_scheme_fields_are_the_scheme_keys(self):
        # every SchemeConfig field is configurable, and nothing else is
        keys = [k.removeprefix("scheme.") for k in config._DEFAULTS
                if k.startswith("scheme.")]
        assert [f.name for f in fields(solver.SchemeConfig)] == keys

    def test_replace_round_trip(self):
        cfg = parse_config({"mass": "4pi", "initial.kind": "pks",
                            "initial.lambda": 0.3})
        out = cfg.replace(**{"grid.n": 128})
        assert out.n == 128
        assert out.mass == cfg.mass
        assert out.initial_params == cfg.initial_params

    def test_objects_materialize(self):
        cfg = parse_config({"mass": "4pi", "grid.n": 64, "grid.gamma": 2})
        grid = cfg.grid()
        assert isinstance(grid, Grid)
        assert grid.n == 64
        assert isinstance(cfg.scheme, solver.SchemeConfig)
        M0 = cfg.initial_profile(grid)
        assert M0.total_mass == pytest.approx(4.0 * np.pi)


@pytest.mark.parametrize("key,value", [
    ("mass", "nan"), ("mass", "inf"),
    ("scheme.t_end", "inf"), ("scheme.t_end", "nan"),
    ("scheme.snapshot_every", "nan"), ("scheme.snapshot_every", "inf"),
    ("scheme.dt0", "inf"), ("scheme.u_blowup_threshold", "nan"),
])
def test_parse_config_rejects_non_finite(key, value):
    doc = {"mass": "4pi", key: value}
    with pytest.raises(ConfigError):
        parse_config(doc)


@pytest.mark.parametrize("doc", [
    {"initial.kind": "pks", "initial.lambda": "nan"},
    {"initial.kind": "pks", "initial.lambda": "inf"},
    {"initial.kind": "barrier", "initial.a": "nan"},
])
def test_parse_config_rejects_non_finite_initial_parameter(doc):
    with pytest.raises(ConfigError):
        parse_config({"mass": "4pi", **doc})


class TestCsvIo:
    def test_float_format_round_trips(self):
        assert float(csvio.fmt(np.pi)) == np.pi
        assert float(csvio.fmt(1.0 / 3.0)) == 1.0 / 3.0

    def test_snapshot_and_trace_files(self, tmp_path):
        grid = Grid.regular(64)
        M = preset_profile("pks", EIGHT_PI, grid, lam=0.5)
        csvio.write_snapshot(tmp_path / "snap.csv", M)
        header = (tmp_path / "snap.csv").read_text().splitlines()[0]
        assert header.split(",") == csvio.SNAPSHOT_HEADER

        cfg = solver.SchemeConfig(t_end=0.5, snapshot_every=0.25)
        trace = solver.simulate(cfg, M)
        csvio.write_trace(tmp_path / "trace.csv", trace)
        data = csvio.read_trace(tmp_path / "trace.csv")
        assert np.array_equal(data["t"], np.asarray(trace.times))
        assert np.array_equal(data["energy"], np.asarray(trace.energy))

    def test_read_trace_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            csvio.read_trace(path)

    @pytest.mark.parametrize("edit, line", [
        (lambda text: text[:len(text) - 70], -1),
        (lambda text: text[:-5], -1),
        (lambda text: _edit_line(text, 3, lambda row: row + ",1"), 4),
        (lambda text: _edit_line(text, 2, lambda row: "x" + row), 3),
        (lambda text: _edit_line(text, 2, lambda row: row[row.index(","):]), 3),
    ], ids=["cut-mid-row", "cut-in-last-cell", "eight-cells", "non-numeric",
            "empty-cell"])
    def test_read_trace_names_the_bad_row(self, small_run, tmp_path, edit, line):
        path = tmp_path / "trace.csv"
        text = edit((small_run / "trace.csv").read_bytes().decode())
        path.write_bytes(text.encode())
        line = text.count("\n") + 1 if line == -1 else line  # the last line
        with pytest.raises(csvio.TraceFormatError, match=f"{path}:{line}:"):
            csvio.read_trace(path)

    @pytest.mark.parametrize("edit, line", [
        (lambda lines: lines[:-1] + [lines[-2], ""], 15),
        (lambda lines: lines[:5] + [lines[3]] + lines[5:], 6),
    ], ids=["last-row-repeated", "earlier-row-inserted"])
    def test_read_trace_names_the_first_row_whose_t_does_not_increase(
            self, small_run, tmp_path, edit, line):
        path = tmp_path / "trace.csv"
        lines = (small_run / "trace.csv").read_bytes().decode().split("\r\n")
        path.write_bytes("\r\n".join(edit(lines)).encode())
        with pytest.raises(csvio.TraceFormatError,
                           match=f"{path}:{line}: t does not increase"):
            csvio.read_trace(path)

    @pytest.mark.parametrize("text", ["", "a,b\r\n1,2\r\n"], ids=["empty", "foreign"])
    def test_read_trace_rejects_a_file_without_its_header(self, tmp_path, text):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        with pytest.raises(csvio.TraceFormatError, match=f"{path}:1:"):
            csvio.read_trace(path)

    def test_read_trace_rejects_a_header_without_rows(self, small_run, tmp_path):
        path = tmp_path / "trace.csv"
        text = (small_run / "trace.csv").read_bytes()
        path.write_bytes(text[:text.index(b"\r\n") + 2])
        with pytest.raises(csvio.TraceFormatError, match="no data rows"):
            csvio.read_trace(path)

    def test_trace_file_holds_the_trace_columns_bitwise(self, tmp_path):
        M = preset_profile("pks", EIGHT_PI, Grid.regular(64), lam=0.5)
        trace = solver.simulate(solver.SchemeConfig(t_end=0.5, snapshot_every=0.25), M)
        csvio.write_trace(tmp_path / "trace.csv", trace)
        data = csvio.read_trace(tmp_path / "trace.csv")
        assert list(data) == list(solver.SimulationTrace.COLUMNS)
        for name, attr in solver.SimulationTrace.COLUMNS.items():
            assert data[name].tobytes() == np.asarray(getattr(trace, attr)).tobytes()

    def test_summary_format(self, tmp_path):
        path = tmp_path / "summary.txt"
        csvio.write_summary(path, {"verdict": "completed", "t_final": 1.0})
        lines = path.read_text().splitlines()
        assert lines[0] == "verdict=completed"
        assert lines[1] == f"t_final={csvio.fmt(1.0)}"


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        assert cli.main(["scenario", "no-such-scenario", "--set", "mass=1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_mass_is_usage_error(self, capsys):
        assert cli.main(["simulate"]) == 1

    def test_an_unknown_command_is_a_usage_error(self, capsys):
        assert cli.main(["foo"]) == 1
        assert ("error: argument command: invalid choice: 'foo'"
                in capsys.readouterr().err)

    def test_simulate_writes_outputs(self, tmp_path):
        code = cli.main([
            "simulate", "--set", "mass=4pi", "--set", "grid.n=64",
            "--set", "scheme.t_end=0.5", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "snap_0.csv").exists()
        text = (tmp_path / "summary.txt").read_text()
        assert "verdict=completed" in text

    def test_config_file_with_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("mass = 4pi\ngrid.n = 64\nscheme.t_end = 0.25\n")
        code = cli.main(["simulate", "--config", str(cfg_file),
                         "--set", "grid.n=32", "--out", str(tmp_path / "out")])
        assert code == 0
        rows = (tmp_path / "out" / "snap_0.csv").read_text().splitlines()
        assert len(rows) == 1 + 33  # header plus nodes of the overridden grid

    def test_set_supplies_a_key_the_config_file_lacks(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("grid.n = 32\nscheme.t_end = 0.25\n")
        code = cli.main(["simulate", "--config", str(cfg_file),
                         "--set", "mass=4pi", "--out", str(tmp_path / "out")])
        assert code == 0
        assert "verdict=completed" in (tmp_path / "out" / "summary.txt").read_text()

    def test_steady_supplies_its_default_mass_to_a_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("grid.n = 64\n")
        code = cli.main(["steady", "--config", str(cfg_file), "--mass", "2pi",
                         "--out", str(tmp_path / "out")])
        assert code == 0

    def test_steady_runs_at_the_config_mass(self, tmp_path):
        code = cli.main(["steady", "--set", "mass=2pi", "--set", "grid.n=64",
                         "--out", str(tmp_path)])
        assert code == 0
        keys = [line.split("=", 1)[0]
                for line in (tmp_path / "summary.txt").read_text().splitlines()]
        assert keys == ["converged_6.28319", "max_distance_6.28319",
                        "sweep_6.28319", "uniqueness"]

    @pytest.mark.parametrize("mass", ["-1", "abc", "inf"])
    def test_steady_rejects_a_bad_mass(self, tmp_path, capsys, mass):
        assert cli.main(["steady", "--mass", mass, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "summary.txt").exists()

    @pytest.mark.parametrize("option,value", [
        ("--nm", "0"), ("--na", "-1"), ("--nxi", "2.5"), ("--na", "x")])
    def test_barrier_rejects_a_bad_count(self, tmp_path, capsys, option, value):
        out = tmp_path / "audit.csv"
        assert cli.main(["barrier", "--out", str(out), option, value]) == 1
        assert capsys.readouterr().err.startswith(f"error: argument {option}: ")
        assert not out.exists()

    def test_barrier_audit_command(self, tmp_path):
        out = tmp_path / "audit.csv"
        code = cli.main(["barrier", "--out", str(out),
                         "--na", "3", "--nm", "2", "--nxi", "5"])
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0].split(",")[:3] == ["a", "m", "xi"]
        assert len(rows) == 1 + 3 * 2 * 5

    def test_sweep_command(self, tmp_path):
        code = cli.main([
            "sweep", "--axis", "grid.n=32,48",
            "--set", "mass=4pi", "--set", "scheme.t_end=0.25",
            "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(rows) == 3
        assert "completed" in rows[1]

    def test_sweep_records_bad_value_as_error_row(self, tmp_path):
        code = cli.main([
            "sweep", "--axis", "grid.gamma=2,9",
            "--set", "mass=4pi", "--set", "scheme.t_end=0.25",
            "--set", "grid.n=32", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()
        assert "gamma" in rows[2]  # the out-of-range value lands in the error column

    @pytest.mark.parametrize("argv,message", [
        (["simulate", "--set", "mass"], "error: --set expects key=value, got 'mass'"),
        (["sweep", "--axis", "grid.n", "--set", "mass=4pi"],
         "error: --axis expects KEY=V1,V2,..."),
    ], ids=["set", "axis"])
    def test_an_option_without_its_equals_sign_is_a_usage_error(self, tmp_path,
                                                                capsys, argv, message):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.splitlines() == [message]

    def test_sweep_over_the_preset_kind(self, tmp_path):
        # a kind is written as text, and pks without its lambda is an error row
        code = cli.main(["sweep", "--axis", "initial.kind=constant,pks",
                         "--set", "mass=4pi", "--set", "grid.n=16",
                         "--set", "scheme.t_end=0.01", "--out", str(tmp_path)])
        assert code == 0
        header, *rows = (tmp_path / "sweep.csv").read_text().splitlines()
        cells = [dict(zip(header.split(","), row.split(",", 6))) for row in rows]
        assert [c["value"] for c in cells] == ["constant", "pks"]
        assert cells[0]["verdict"] == "completed" and cells[0]["error"] == ""
        assert cells[1]["error"] == "initial.lambda: pks preset needs lam > 0"

    def test_simulate_exits_2_at_step_floor(self, tmp_path):
        # a tiny CFL factor on concentrated data drives dt under dt_min
        code = cli.main(["simulate", "--set", "mass=4pi", "--set", "grid.n=32",
                         "--set", "initial.kind=pks", "--set", "initial.lambda=0.3",
                         "--set", "scheme.cfl=1e-3", "--set", "scheme.dt_min=5e-4",
                         "--out", str(tmp_path)])
        assert code == 2
        assert "verdict=step_floor_reached" in (tmp_path / "summary.txt").read_text()

    @pytest.mark.parametrize("cut", [True, False], ids=["cut-mid-row", "foreign-header"])
    def test_energy_audit_refuses_a_malformed_trace(self, small_run, tmp_path,
                                                    capsys, cut):
        # cut after the last row's first cell: 13 values of t, 12 of the rest
        text = (small_run / "trace.csv").read_bytes()
        last = text.rindex(b"\r\n", 0, -2) + 2
        (tmp_path / "trace.csv").write_bytes(
            text[:text.index(b",", last)] if cut else b"a,b\r\n1,2\r\n")
        assert cli.main(["energy-audit", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'trace.csv'}:")
        assert not (tmp_path / "energy_audit.csv").exists()

    def test_energy_audit_refuses_a_repeated_last_row(self, small_run, tmp_path, capsys):
        text = (small_run / "trace.csv").read_bytes()
        last = text.rindex(b"\r\n", 0, -2) + 2
        (tmp_path / "trace.csv").write_bytes(text + text[last:])
        assert cli.main(["energy-audit", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'trace.csv'}:15: t does not increase")
        assert not (tmp_path / "energy_audit.csv").exists()

    def test_energy_audit_refuses_a_run_that_accepted_no_step(self, tmp_path, capsys,
                                                               monkeypatch):
        # every trial is non-finite, so dt falls under dt_min before a step
        # is accepted and trace.csv holds the initial row only
        def fail(self, dt):
            return np.full_like(self._M, np.nan)

        monkeypatch.setattr(solver._Workspace, "advance", fail)
        assert cli.main(["simulate", "--set", "mass=4pi", "--set", "grid.n=32",
                         "--out", str(tmp_path)]) == 2
        assert len(csvio.read_trace(tmp_path / "trace.csv")["t"]) == 1
        assert cli.main(["energy-audit", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'trace.csv'}:")
        assert "at least two rows" in err
        assert not (tmp_path / "energy_audit.csv").exists()

    def test_energy_audit_command(self, tmp_path):
        run_dir = tmp_path / "run"
        assert cli.main(["simulate", "--set", "mass=4pi", "--set", "grid.n=64",
                         "--set", "scheme.t_end=0.5", "--out", str(run_dir)]) == 0
        assert cli.main(["energy-audit", str(run_dir)]) == 0
        rows = (run_dir / "energy_audit.csv").read_text().splitlines()
        assert rows[0].split(",")[0] == "t"
        assert len(rows) > 2

    def test_check_scenario(self, tmp_path, capsys):
        code = cli.main(["scenario", "check", "--set", "mass=4pi",
                         "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert (tmp_path / "check.csv").exists()

    def test_steady_command(self, tmp_path):
        code = cli.main(["steady", "--mass", "2pi", "--set", "grid.n=128",
                         "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "summary.txt").read_text()
        keys = [line.split("=", 1)[0] for line in text.splitlines()]
        assert keys == ["converged_6.28319", "max_distance_6.28319",
                        "sweep_6.28319", "uniqueness"]
        assert "uniqueness=pass" in text
        assert (tmp_path / "newton_6.28319.csv").exists()
        assert (tmp_path / "sweep_6.28319.csv").exists()


@pytest.mark.parametrize("key,value", [
    ("grid.n", 512.7), ("grid.n", "512.7"), ("grid.n", np.float64(64.5)),
    ("seed", 1.9), ("seed", "1.9"), ("seed", -0.5),
    ("grid.n", float("inf")), ("seed", float("nan")),
])
def test_parse_config_rejects_non_integral_integers(key, value):
    with pytest.raises(ConfigError):
        parse_config({"mass": "4pi", key: value})


@pytest.mark.parametrize("key,value,expected", [
    ("grid.n", 512, 512), ("grid.n", 512.0, 512), ("grid.n", "512", 512),
    ("grid.n", np.int64(64), 64), ("grid.n", np.float64(64.0), 64),
    ("seed", 3, 3), ("seed", 3.0, 3), ("seed", " 7 ", 7),
])
def test_parse_config_accepts_integral_integers(key, value, expected):
    cfg = parse_config({"mass": "4pi", key: value})
    got = cfg.n if key == "grid.n" else cfg.seed
    assert got == expected and type(got) is int


@pytest.mark.parametrize("value", [2 ** 20 + 1, 1e8, "100000000", 10 ** 12])
def test_parse_config_rejects_grid_n_above_bound(value):
    with pytest.raises(ConfigError, match="grid.n"):
        parse_config({"mass": "4pi", "grid.n": value})


def test_parse_config_accepts_grid_n_at_bound():
    assert parse_config({"mass": "4pi", "grid.n": 2 ** 20}).n == 2 ** 20


# an unparsable value, a lambda whose square underflows to 0 (0/0 at xi = 0),
# and a mass that overflows the pks closed form
@pytest.mark.parametrize("mass,lam,prefix", [
    ("4pi", "abc", "error: initial.lambda: "),
    ("4pi", "1e-300", "error: initial: "),
    ("1e306", "100", "error: initial: "),
], ids=["unparsable", "lambda-underflow", "mass-overflow"])
def test_garbage_initial_parameter_is_a_usage_error(tmp_path, capsys, mass, lam,
                                                    prefix):
    code = cli.main(["simulate", "--set", f"mass={mass}", "--set", "initial.kind=pks",
                     "--set", f"initial.lambda={lam}", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith(prefix)


# errors about the mass and the preset parameters name the config key
@pytest.mark.parametrize("sets,key", [
    (["mass=-1"], "mass"),
    (["mass=0"], "mass"),
    (["mass=inf"], "mass"),
    (["mass=4pi", "initial.kind=pks"], "initial.lambda"),
    (["mass=4pi", "initial.kind=pks", "initial.lambda=-0.3"], "initial.lambda"),
    (["mass=4pi", "initial.kind=barrier"], "initial.a"),
    (["mass=4pi", "initial.kind=barrier", "initial.a=0"], "initial.a"),
    (["mass=4pi", "initial.kind=pks", "initial.lambda=0.3", "initial.a=1"], "initial.a"),
    (["mass=4pi", "initial.lambda=0.3"], "initial.lambda"),
    (["mass=4pi", "initial.kind=gauss"], "initial.kind"),
], ids=["negative-mass", "zero-mass", "infinite-mass", "pks-without-lambda",
        "negative-lambda", "barrier-without-a", "zero-a", "pks-with-a",
        "constant-with-lambda", "unknown-kind"])
def test_config_error_names_the_key(tmp_path, capsys, sets, key):
    argv = ["simulate", "--out", str(tmp_path)]
    for item in sets:
        argv += ["--set", item]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {key}: ")


# a subnormal m underflows the solver's log floor 1e-14 m/pi to 0, so the
# run would end at the step floor after no step; it is refused as the mass's
@pytest.mark.parametrize("mass", ["5e-324", "1e-320"])
@pytest.mark.parametrize("initial", [[], ["initial.kind=pks", "initial.lambda=0.1"]],
                         ids=["constant", "pks"])
def test_a_subnormal_mass_is_refused_as_the_mass(tmp_path, capsys, mass, initial):
    sets = [f"mass={mass}", *initial]
    with pytest.raises(ConfigError, match=r"^mass: .*2\.2250738585072014e-308"):
        parse_config(dict(item.split("=") for item in sets))
    argv = ["simulate", "--out", str(tmp_path)]
    for item in sets:
        argv += ["--set", item]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error: mass: ")


@pytest.mark.parametrize("initial", [
    [], ["initial.kind=pks", "initial.lambda=0.1"],
    ["initial.kind=barrier", "initial.a=1e-4"],
], ids=["constant", "pks", "barrier"])
def test_the_smallest_normal_mass_runs_without_warning(tmp_path, initial):
    argv = ["simulate", "--out", str(tmp_path)]
    for item in ["mass=2.2250738585072014e-308", "grid.n=16", "grid.gamma=3",
                 "scheme.t_end=0.01", *initial]:
        argv += ["--set", item]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(argv) == 0
    assert "verdict=completed\n" in (tmp_path / "summary.txt").read_text()


def test_a_step_floor_run_reports_no_blowup_time(tmp_path):
    # the step floor is not a blowup: the summary and the sweep's row leave
    # blowup_time empty, where they once held the stop time
    sets = ["mass=4pi", "grid.n=32", "initial.kind=pks", "initial.lambda=0.3",
            "scheme.cfl=1e-3"]
    argv = [arg for item in sets for arg in ("--set", item)]
    assert cli.main(["simulate", *argv, "--set", "scheme.dt_min=5e-4",
                     "--out", str(tmp_path / "run")]) == 2
    lines = (tmp_path / "run" / "summary.txt").read_text().splitlines()
    assert "verdict=step_floor_reached" in lines
    assert "blowup_time=" in lines and "blowup_xi=" in lines
    assert cli.main(["sweep", "--axis", "scheme.dt_min=5e-4", *argv,
                     "--out", str(tmp_path / "sweep")]) == 0
    header, row = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["verdict"] == "step_floor_reached"
    assert cells["blowup_time"] == ""


# a path the command cannot read or write, given as (directory, regular file):
# each ends in an `error:` line, before the run or after it
@pytest.mark.parametrize("argv", [
    lambda d, f: ["simulate", "--set", "mass=4pi", "--config", str(d)],
    lambda d, f: ["energy-audit", str(f)],
    lambda d, f: ["barrier", "--out", str(f / "a.csv")],
    lambda d, f: ["simulate", "--set", "mass=4pi", "--set", "grid.n=16",
                  "--set", "scheme.t_end=0.01", "--out", str(f)],
], ids=["config-is-a-directory", "run-dir-is-a-file", "out-below-a-file",
        "out-is-a-file"])
def test_a_path_that_cannot_be_used_is_an_error_line(tmp_path, capsys, argv):
    regular = tmp_path / "file.txt"
    regular.write_text("")
    assert cli.main(argv(tmp_path, regular)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["simulate"], ["scenario", "verify-global"], ["steady"],
    ["sweep", "--axis", "mass=2pi,4pi"],
], ids=["simulate", "scenario", "steady", "sweep"])
def test_an_unusable_out_is_refused_before_any_run(tmp_path, capsys, monkeypatch, command):
    def never(*args, **kwargs):
        raise AssertionError("a run started before --out was checked")

    monkeypatch.setattr(solver, "simulate", never)
    monkeypatch.setattr(steady, "solve_stationary_newton", never)
    regular = tmp_path / "file.txt"
    regular.write_text("")
    argv = [*command, "--set", "mass=4pi", "--set", "grid.n=16", "--out", str(regular)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
