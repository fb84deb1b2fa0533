"""Tests for scripts/convergence_sweep.py."""

import csv
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from lyness.model import ParamsPQ, equilibrium

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "convergence_sweep.py"


@pytest.fixture(scope="module")
def sweep_script():
    spec = importlib.util.spec_from_file_location("convergence_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv, message", [
    (["--instances", "0"], "must be at least 1"),
    (["--seeds", "0"], "must be at least 1"),
    (["--instances", "-3", "--csv", "out.csv"], "must be at least 1"),
    (["--max-iters", "-1"], "--max-iters must be nonnegative"),
    (["--tol", "nan"], "--tol must be positive and finite"),
    (["--tol", "0"], "--tol must be positive and finite"),
], ids=["instances-0", "seeds-0", "instances-negative", "max-iters-negative",
        "tol-nan", "tol-0"])
def test_out_of_range_options_are_usage_errors(sweep_script, argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        sweep_script.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_empty_batch_writes_a_header_only_csv(sweep_script, tmp_path):
    out = tmp_path / "sweep.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        assert sweep_script.run(sweep_script.SweepConfig(instances=0), fh)
    assert out.read_text(encoding="utf-8").splitlines() == [",".join(sweep_script.FIELDS)]


def test_an_orbit_converged_at_step_zero_counts_zero_iterations(
        sweep_script, tmp_path, monkeypatch, capsys):
    params = ParamsPQ(20, 4)
    xbar = equilibrium(params).xbar
    monkeypatch.setattr(sweep_script, "random_instances",
                        lambda *args: [(params, (xbar, xbar))])
    out = tmp_path / "sweep.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        assert sweep_script.run(sweep_script.SweepConfig(), fh)
    assert "max iterations: 0 " in capsys.readouterr().out
    with open(out, newline="", encoding="utf-8") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["verdict"], row["iters"]) == ("converged", "0")


def test_unwritable_csv_path_is_a_usage_error_before_the_sweep(tmp_path):
    target = tmp_path / "missing" / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--instances", "1", "--seeds", "1",
         "--csv", str(target)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert f"error: cannot write {target}: No such file or directory" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "orbits:" not in proc.stdout
