"""The lazy package namespace and what a cold ``lyness certify`` imports.

Import-budget checks run in a fresh interpreter, since the test process has
long since imported every submodule.
"""

import importlib
import subprocess
import sys

import pytest

import lyness


def run_python(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_bare_import_loads_no_submodule():
    out = run_python("import sys, lyness\n"
                     "print(sorted(m for m in sys.modules if m.startswith('lyness.')))")
    assert out == "[]\n"


def test_certify_loads_neither_dynamics_nor_dataclasses():
    # nor csv, which only ``lyness sweep`` imports
    out = run_python(
        "import contextlib, io, sys\n"
        "from lyness import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['certify', '--no-timing'])\n"
        "print(code, *(m in sys.modules for m in"
        " ('lyness.certifier', 'lyness.dynamics', 'dataclasses', 'inspect', 'csv')))")
    assert out == "0 True False False False False\n"


def test_simulate_still_runs_in_a_fresh_interpreter():
    proc = subprocess.run(
        [sys.executable, "-m", "lyness", "simulate", "--p", "20", "--q", "4",
         "--xm1", "1", "--x0", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "verdict: converged" in proc.stdout
    assert "descent: ok" in proc.stdout


@pytest.mark.parametrize("name", sorted(lyness._EXPORTS))
def test_export_is_the_submodule_object(name):
    module = importlib.import_module(f"lyness.{lyness._EXPORTS[name]}")
    assert getattr(lyness, name) is getattr(module, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from lyness import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(lyness.__all__) == sorted(lyness._EXPORTS)


def test_dir_lists_every_export():
    assert set(lyness._EXPORTS) <= set(dir(lyness))
    assert "__version__" in dir(lyness)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'parse_poly'"):
        getattr(lyness, "parse_poly")  # moved to the tests' own parser
    with pytest.raises(ImportError):
        exec("from lyness import no_such_name", {})


def test_submodules_resolve_as_attributes():
    out = run_python("import lyness\n"
                     "print(lyness.dynamics.__name__, lyness.certifier.__name__)")
    assert out == "lyness.dynamics lyness.certifier\n"
