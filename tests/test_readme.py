"""Every command of the README's "Command line" block runs and exits 0, and
its config table gives the parser's defaults."""

import shlex
from pathlib import Path

import numpy as np

from chemodisk import cli, config
from chemodisk.radial import EIGHT_PI
from chemodisk.solver import SchemeConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """The ``chemodisk ...`` lines of the first code block after the
    "## Command line" heading, with ``\\`` continuations joined."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        line = line.strip()
        if line.startswith("chemodisk "):
            commands.append(line)
    return commands


def test_readme_commands_exit_zero(tmp_path, monkeypatch):
    # one test, in README order: energy-audit reads the simulate run's output
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert commands and not any("\\" in c for c in commands)
    failed = [c for c in commands if cli.main(shlex.split(c)[1:]) != 0]
    assert failed == []


def readme_config_table():
    """{key: default cell} of the table under "### Config keys"."""
    section = README.read_text(encoding="utf-8").split("### Config keys", 1)[1]
    rows = {}
    for line in section.split("\n\n", 2)[1].splitlines()[2:]:
        key, default = (cell.strip() for cell in line.strip("|").split("|")[:2])
        rows[key.strip("`")] = default.strip("`")
    return rows


def test_readme_config_defaults_match_the_parser():
    rows = readme_config_table()
    assert set(rows) == set(config._DEFAULTS) | {"mass"}
    assert rows.pop("mass") == "required"
    # the threshold's default depends on m; the README gives it as c·m/π
    coefficient = float(rows.pop("scheme.u_blowup_threshold").split("·")[0])
    assert config._DEFAULTS["scheme.u_blowup_threshold"] is None
    scheme = SchemeConfig()
    for m in (np.pi, EIGHT_PI, 10.0):
        assert scheme.threshold(m) == coefficient * m / np.pi
    for key, cell in rows.items():
        default = config._DEFAULTS[key]
        if default is None:
            assert cell == "unset", key
        elif isinstance(default, str):
            assert cell == default, key
        else:
            assert float(cell) == default, key
