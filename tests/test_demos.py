"""Every demo script runs to completion against the installed library."""

import subprocess
import sys
from pathlib import Path

import pytest

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
