"""Every function the traced benchmark run wraps still exists in gsmult.

``bench/traceboot.py`` looks each ``(module, qualname)`` of its ``TARGETS``
up in the ``gsmult`` package before it runs a job; a deleted or renamed
target would break every ``--trace 1`` run, so the lookup is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACEBOOT = Path(__file__).resolve().parent.parent / "bench" / "traceboot.py"


def _targets():
    spec = importlib.util.spec_from_file_location("traceboot", TRACEBOOT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, qualname", _targets(), ids=lambda v: v)
def test_traced_target_resolves(module, qualname):
    owner = importlib.import_module("gsmult." + module)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
