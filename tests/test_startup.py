"""Start-up contract: what ``import gsmult`` and the CLI load, and the lazy exports.

The numeric submodules are registered in ``sys.modules`` when the package is
imported, but each one's body runs on first use; ``wedge`` commands,
``--help`` and the exact-integer ``table``, ``verify coeffs`` and ``verify
identities`` therefore never import mpmath.  Each start-up check runs in a
fresh interpreter, since this test process has long since loaded everything.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gsmult
from gsmult import _util, precision

ROOT = Path(__file__).resolve().parent.parent
TRACEBOOT = ROOT / "bench" / "traceboot.py"


def _fresh(code: str, cwd: Path):
    """Run ``code`` in a new interpreter with the package on its path; return its stdout as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, cwd=cwd
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["wedge", "classify", "--theta", "1/2", "--s", "1", "--m", "3", "--space", "beurling"],
        ["wedge", "figure", "--m", "3", "--space", "beurling", "--monomial", "--format", "svg", "--out", "b3.svg"],
        ["table", "--m", "4", "--kmax", "40", "--out", "t4.json"],
        ["verify", "coeffs", "--m", "2", "--kmax", "40", "--json", "v2.json"],  # m = 2 runs the Hermite oracle too
        ["verify", "identities", "--m", "3", "--kmax", "40", "--theta", "5/6"],
        ["verify", "identities", "--m", "3", "--kmax", "40", "--theta", "2", "--jmax", "30", "--json", "i.json"],
    ],
    ids=[
        "help",
        "wedge-classify",
        "wedge-figure-svg",
        "table",
        "verify-coeffs",
        "verify-identities-rational",
        "verify-identities-integer",
    ],
)
def test_command_loads_no_mpmath(tmp_path, argv):
    code = (
        "import json, sys\n"
        "from gsmult import cli\n"
        "status = cli.dispatch(%r)\n"
        "print(json.dumps([status, 'mpmath' in sys.modules]))\n" % (argv,)
    )
    assert _fresh(code, tmp_path) == [0, False]


def test_import_of_the_cli_registers_every_traced_module(tmp_path):
    # bench/traceboot.py reads sys.modules["gsmult.<module>"] right after this import
    spec = importlib.util.spec_from_file_location("traceboot", TRACEBOOT)
    traceboot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traceboot)
    modules = sorted({"gsmult." + module for module, _ in traceboot.TARGETS})
    code = (
        "import json, sys\n"
        "import gsmult.cli\n"
        "print(json.dumps([name for name in %r if name not in sys.modules]))\n" % (modules,)
    )
    assert _fresh(code, tmp_path) == []


@pytest.mark.parametrize("name", sorted(gsmult._EXPORTS))
def test_exported_name_is_its_module_object(name):
    namespace = {}
    exec("from gsmult import %s" % name, namespace)
    assert namespace[name] is getattr(gsmult._EXPORTS[name], name)


def test_unknown_attribute_raises_attribute_error():
    assert not hasattr(gsmult, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        gsmult.no_such_name


def test_moved_names_keep_their_old_paths():
    assert gsmult.ParameterError is precision.ParameterError is _util.ParameterError
    assert gsmult.CheckResult is gsmult.identities.CheckResult is _util.CheckResult
