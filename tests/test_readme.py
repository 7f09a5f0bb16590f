"""Every command of the README's "Command line" block runs and exits 0."""

import shlex
from pathlib import Path

from chemodisk import cli

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
