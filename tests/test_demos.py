"""Every demo script runs to completion against the installed library, and every
``gsmult`` line of the README's "Command line" block exits 0."""

import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gsmult.cli import dispatch

from conftest import package_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(script, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=package_env(), timeout=120, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def _readme_commands() -> list[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line[len("gsmult "):] for line in block.splitlines() if line.startswith("gsmult ")]


README_COMMANDS = _readme_commands()


def test_readme_commands_found():
    assert len(README_COMMANDS) >= 12


@pytest.mark.parametrize("command", README_COMMANDS)
def test_readme_command_exits_zero(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert dispatch(shlex.split(command)) == 0, capsys.readouterr().err
