"""The benchmark harness's contract with the package, checked in tier-1.

``bench/`` reads record fields and calls package functions by name, and no
other tier-1 test runs it.  These tests run a piece of each workload against
the sources in this checkout, so that a change to a record the harness
reads fails here before it fails a benchmark run.  They change nothing
under ``bench/`` and write no bytecode there.
"""

import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lyness.dynamics import lyapunov_descent_check
from lyness.model import ParamsPQ

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


@pytest.mark.parametrize("entry", ["roster", "cli"])
def test_child_entry_point_reports_ok(entry):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "child.py", entry], cwd=BENCH, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True


@pytest.mark.parametrize("name", ["sweep", "sign-samples"])
def test_one_workload_operation_passes(name, monkeypatch):
    # every operation of one round, so that a rule change that fails any
    # benchmark operation fails here, and then the traced probe, which for
    # sign-samples checks delta2's value at a fixed point
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name]()
    workload.prepare(3)
    assert workload.round
    for i, op in enumerate(workload.round):
        assert workload.execute(op, None).ok, i
    assert all(outcome.ok for outcome in workload.probe(workloads.Tracer()))


def test_a_descent_result_is_failed_by_replace():
    # the harness's self-test fails the sweep's descent checks this way
    result = lyapunov_descent_check(ParamsPQ(20, 4), (1.0, 2.0), 10)
    failed = dataclasses.replace(result, ok=False)
    assert result.ok and not failed.ok
    assert failed.checked == result.checked == 11 - failed.skipped_near_equilibrium
