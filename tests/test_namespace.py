"""The package namespace, which holds no public name of its own, the public
names of the submodules, and what a cold ``lyness certify`` imports and
compiles.

Import-budget checks run in a fresh interpreter, since the test process has
long since imported every submodule.
"""

import importlib
import subprocess
import sys
import tokenize
import types
from pathlib import Path

import pytest

import lyness


#: Public name -> the submodule that defines it.  Callers import each name from
#: its submodule (``from lyness.dynamics import simulate``); ``lyness`` binds none.
PUBLIC = {name: module for module, names in (
    ("exactalg", ("Monomial", "Poly", "RationalFn", "mono_text", "substitute")),
    ("model", ("EquilibriumInfo", "ParamsPQ", "SymbolicModel", "build_symbolic_model",
               "equilibrium", "eval_delta", "invariant_value",
               "lyness_invariance_check", "lyness_orbit", "lyness_step")),
    ("certifier", ("CertificateReport", "CertificateSummary", "SubstitutionStep",
                   "certify_q1", "certify_q2q4", "certify_q3", "certify_segments",
                   "landmark_counts", "plane_map", "run_full_certificate",
                   "summary_to_json", "summary_to_text",
                   "verify_delta1_identity")),
    ("dynamics", ("DescentResult", "DescentViolation", "OrbitTrace", "RegionCheck",
                  "RegionCoverage", "StabilityInfo", "SweepRecord", "classify_regions",
                  "descent_along", "g_grid", "grid_to_csv", "lyapunov_descent_check",
                  "local_stability", "random_instances", "simulate",
                  "stability_from_ua", "sweep", "trace_to_csv")),
) for name in names}


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


def test_certify_builds_no_plane_map():
    # the plane maps are built on demand; the certificate run never asks
    out = run_python(
        "import contextlib, io\n"
        "from lyness import certifier, cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['certify', '--no-timing'])\n"
        "print(code, certifier.plane_map.cache_info().currsize)")
    assert out == "0 0\n"


@pytest.mark.parametrize("module", ["cli", "certifier", "exactalg", "model"])
def test_certify_module_stays_below_the_parsers_token_step(module):
    # A cold certify compiles these four modules from source.  CPython 3.11's
    # parser doubles its token array at 4096 tokens, so a module past that
    # size adds about 0.3 MB to a cold certify's peak; comments and blank
    # lines make no parser token
    path = Path(lyness.__file__).with_name(f"{module}.py")
    with path.open("rb") as source:
        count = sum(tok.type not in (tokenize.COMMENT, tokenize.NL)
                    for tok in tokenize.tokenize(source.readline))
    assert count < 4096


def test_simulate_still_runs_in_a_fresh_interpreter():
    proc = subprocess.run(
        [sys.executable, "-m", "lyness", "simulate", "--p", "20", "--q", "4",
         "--xm1", "1", "--x0", "2"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "verdict: converged" in proc.stdout
    assert "descent: ok" in proc.stdout


@pytest.mark.parametrize("name", sorted(PUBLIC))
def test_export_is_the_submodule_object(name):
    module = importlib.import_module(f"lyness.{PUBLIC[name]}")
    obj = vars(module)[name]
    if not isinstance(obj, types.GenericAlias):  # a type alias has no module of its own
        assert obj.__module__ == module.__name__  # defined there, not re-imported
    assert not hasattr(lyness, name)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'parse_poly'"):
        getattr(lyness, "parse_poly")  # moved to the tests' own parser
    # names live in their modules only: lyness.exactalg.Poly, lyness.dynamics.simulate
    with pytest.raises(AttributeError, match="no attribute 'Poly'"):
        getattr(lyness, "Poly")
    for name in ("no_such_name", "simulate"):
        with pytest.raises(ImportError):
            exec(f"from lyness import {name}", {})
