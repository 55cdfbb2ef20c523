"""Start-up contract: what ``import gsmult`` and the CLI load, and the lazy exports.

The numeric submodules are registered in ``sys.modules`` when the package is
imported, but each one's body runs on first use; ``wedge`` commands,
``--help`` and the exact-integer ``table``, ``verify coeffs`` and ``verify
identities`` therefore never import mpmath.  No command loads ``dataclasses``
(nor the ``inspect``, ``ast`` and ``dis`` it pulls in) or ``typing``, and
only a command that writes JSON loads ``json``.  Each start-up check runs in
a fresh interpreter, since this test process has long since loaded
everything.
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


def _fresh(code: str, cwd: Path, *flags: str):
    """Run ``code`` in a new interpreter, given ``flags``, with the package on its path;
    return its stdout as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env, timeout=60, cwd=cwd
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


COMMANDS = {
    "help": ["--help"],
    "wedge-classify": ["wedge", "classify", "--theta", "1/2", "--s", "1", "--m", "3", "--space", "beurling"],
    "wedge-figure-csv": ["wedge", "figure", "--m", "4", "--format", "csv", "--out", "r4.csv"],
    "wedge-figure-svg": [
        "wedge", "figure", "--m", "3", "--space", "beurling", "--monomial", "--format", "svg", "--out", "b3.svg"
    ],
    "table": ["table", "--m", "4", "--kmax", "40", "--out", "t4.json"],
    "verify-coeffs": ["verify", "coeffs", "--m", "2", "--kmax", "40", "--json", "v2.json"],  # m = 2 runs Hermite too
    "verify-identities-rational": ["verify", "identities", "--m", "3", "--kmax", "40", "--theta", "5/6"],
    "verify-identities-integer": [
        "verify", "identities", "--m", "3", "--kmax", "40", "--theta", "2", "--jmax", "30", "--json", "i.json"
    ],
}


def _loaded(argv, cwd: Path, *flags: str):
    """[exit status, sorted names in ``sys.modules``] after ``cli.dispatch(argv)`` in a fresh interpreter
    started with ``flags``; the names are read before the report's own ``json`` is imported."""
    code = (
        "import sys\n"
        "from gsmult import cli\n"
        "status = cli.dispatch(%r)\n"
        "loaded = sorted(sys.modules)\n"
        "import json\n"
        "print(json.dumps([status, loaded]))\n" % (argv,)
    )
    return _fresh(code, cwd, *flags)


@pytest.mark.parametrize(
    "name",
    ["help", "wedge-classify", "wedge-figure-svg", "table", "verify-coeffs", "verify-identities-rational",
     "verify-identities-integer"],
)
def test_command_loads_no_mpmath(tmp_path, name):
    status, loaded = _loaded(COMMANDS[name], tmp_path)
    assert [status, "mpmath" in loaded] == [0, False]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_loads_no_typing(tmp_path, name):
    # -S: no site-packages, so no ``.pth`` file can load typing before the command does
    status, loaded = _loaded(COMMANDS[name], tmp_path, "-S")
    assert [status, "typing" in loaded] == [0, False]


# dataclasses and the modules it imports that nothing else on a command's path needs
_INTROSPECTION = {"dataclasses", "inspect", "ast", "dis"}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_loads_no_dataclasses_and_json_only_to_write_it(tmp_path, name):
    status, loaded = _loaded(COMMANDS[name], tmp_path)
    assert status == 0
    assert _INTROSPECTION.isdisjoint(loaded), sorted(_INTROSPECTION.intersection(loaded))
    if not name.startswith("verify"):  # help, wedge and table write no JSON through the json module
        assert "json" not in loaded


# What ``--help`` may load beyond a bare interpreter: argparse and the modules it
# reads (gettext, locale, textwrap, and shutil, which its help formatter imports
# for the terminal width), the exact numbers ``_util`` reads (fractions, decimal
# and numbers), the package's own modules, and the stdlib modules the package and
# the CLI import (``__future__``, ``importlib.util``, ``pathlib``), each with what
# it imports in turn.
_HELP_BUDGET = (
    "argparse gettext locale textwrap shutil fractions decimal numbers __future__ importlib.util pathlib"
)


def _modules_after(statement: str, cwd: Path) -> set:
    code = "import sys\n%s\nloaded = sorted(sys.modules)\nimport json\nprint(json.dumps(loaded))\n" % statement
    return set(_fresh(code, cwd))


def test_help_loads_only_its_module_budget(tmp_path):
    bare = _modules_after("pass", tmp_path)
    allowed = _modules_after("import " + ", ".join(_HELP_BUDGET.split()), tmp_path)
    assert _INTROSPECTION.isdisjoint(allowed) and "json" not in allowed  # the budget itself loads neither
    status, loaded = _loaded(["--help"], tmp_path)
    extra = {name for name in set(loaded) - bare - allowed if name.split(".")[0] != "gsmult"}
    assert status == 0 and extra == set()


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
