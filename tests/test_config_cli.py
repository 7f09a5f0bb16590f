import numpy as np
import pytest

from chemodisk import cli, csvio, solver
from chemodisk.config import (ConfigError, ExperimentConfig, parse_config,
                              parse_number)
from chemodisk.radial import EIGHT_PI, Grid, preset_profile


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

    def test_rejects_bad_gamma(self):
        with pytest.raises(ConfigError):
            parse_config({"mass": 1.0, "grid.gamma": 5.0})

    def test_rejects_mismatched_preset_params(self):
        with pytest.raises(ConfigError):
            parse_config({"mass": 1.0, "initial.kind": "pks"})
        with pytest.raises(ConfigError):
            parse_config({"mass": 1.0, "initial.kind": "constant",
                          "initial.lambda": 0.5})

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
        assert isinstance(cfg.scheme(grid), solver.SchemeConfig)
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

        cfg = solver.SchemeConfig(grid=grid, t_end=0.5, snapshot_every=0.25)
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

    def test_simulate_exits_2_at_step_floor(self, tmp_path):
        # a tiny CFL factor on concentrated data drives dt under dt_min
        code = cli.main(["simulate", "--set", "mass=4pi", "--set", "grid.n=32",
                         "--set", "initial.kind=pks", "--set", "initial.lambda=0.3",
                         "--set", "scheme.cfl=1e-3", "--set", "scheme.dt_min=5e-4",
                         "--out", str(tmp_path)])
        assert code == 2
        assert "verdict=step_floor_reached" in (tmp_path / "summary.txt").read_text()

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


def test_garbage_initial_parameter_is_a_usage_error(tmp_path, capsys):
    code = cli.main(["simulate", "--set", "mass=4pi", "--set", "initial.kind=pks",
                     "--set", "initial.lambda=abc", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
