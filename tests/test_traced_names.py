"""Every function the traced benchmark run wraps still exists in gsmult.

``bench/traceboot.py`` looks each ``(module, qualname)`` of its ``TARGETS``
up in the ``gsmult`` package before it runs a job; a deleted or renamed
target would break every ``--trace 1`` run, so the lookup is checked here.
"""

import importlib

import pytest

from conftest import bench_module


@pytest.mark.parametrize("module, qualname", bench_module("traceboot").TARGETS, ids=lambda v: v)
def test_traced_target_resolves(module, qualname):
    owner = importlib.import_module("gsmult." + module)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
