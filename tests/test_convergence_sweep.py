"""Tests for ``lyness sweep`` and ``dynamics.sweep``, the one convergence sweep."""

import csv
import math
import random
import subprocess
import sys

import pytest

from lyness import dynamics
from lyness.cli import main
from lyness.model import ParamsPQ, equilibrium

#: The CSV header of ``lyness sweep --csv``, CRLF-terminated like every row.
HEADER = (b"p,q,seed0,seed1,verdict,iters,final,descent_ok,descent_checked,"
          b"spectral_radius\r\n")


@pytest.mark.parametrize("argv, message", [
    (["--instances", "0"], "--instances and --seeds must be at least 1"),
    (["--seeds", "0"], "--instances and --seeds must be at least 1"),
    (["--instances", "-3", "--csv", "out.csv"], "--instances and --seeds must be at least 1"),
    (["--max-iters", "-1"], "--max-iters must be nonnegative"),
    (["--tol", "nan"], "--tol must be positive and finite"),
    (["--tol", "0"], "--tol must be positive and finite"),
], ids=["instances-0", "seeds-0", "instances-negative", "max-iters-negative",
        "tol-nan", "tol-0"])
def test_out_of_range_options_are_usage_errors(argv, message, tmp_path, monkeypatch,
                                               capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", *argv]) == 2
    out, err = capsys.readouterr()
    assert f"error: {message}" in err
    assert "orbits:" not in out
    assert not (tmp_path / "out.csv").exists()


def test_empty_batch_writes_a_header_only_csv(tmp_path, monkeypatch):
    monkeypatch.setattr(dynamics, "random_instances", lambda *args: [])
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--csv", str(out)]) == 0
    assert out.read_bytes() == HEADER


def test_an_orbit_converged_at_step_zero_counts_zero_iterations(
        tmp_path, monkeypatch, capsys):
    params = ParamsPQ(20, 4)
    xbar = equilibrium(params).xbar
    monkeypatch.setattr(dynamics, "random_instances",
                        lambda *args: [(params, (xbar, xbar))])
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--csv", str(out)]) == 0
    assert "max iterations: 0 " in capsys.readouterr().out
    with open(out, newline="", encoding="utf-8") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["verdict"], row["iters"]) == ("converged", "0")


def test_unwritable_csv_path_is_a_usage_error_before_the_sweep(tmp_path):
    target = tmp_path / "missing" / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "lyness", "sweep", "--instances", "1", "--seeds", "1",
         "--csv", str(target)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert f"error: cannot write {target}: No such file or directory" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "orbits:" not in proc.stdout


def test_csv_rows_are_the_records(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--instances", "20", "--seeds", "2", "--rng-seed", "5",
                 "--csv", str(out)]) == 0
    summary, wrote = capsys.readouterr().out.splitlines()
    assert summary.startswith("orbits: 40  converged: 40  descent ok: 40  max iterations: ")
    assert wrote == f"wrote {out}"
    data = out.read_bytes()
    assert data.startswith(HEADER) and data.count(b"\r\n") == 41
    batch = dynamics.random_instances(random.Random(5), 20, 2)
    records = dynamics.sweep(batch, tol=1e-8, max_iters=10**6)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [(float(row["p"]), float(row["q"]), float(row["seed0"]), float(row["seed1"]),
             row["verdict"], int(row["iters"]), float(row["final"]),
             row["descent_ok"], int(row["descent_checked"]),
             float(row["spectral_radius"])) for row in rows] == [
        (r.params.p, r.params.q, r.seed[0], r.seed[1], r.trace.verdict,
         r.trace.iters_to_tol, r.trace.states[-1][2], str(r.descent.ok),
         r.descent.checked, r.stability.spectral_radius) for r in records]


def test_an_orbit_short_of_the_tolerance_fails_the_sweep(capsys):
    assert main(["sweep", "--instances", "2", "--seeds", "1", "--max-iters", "3"]) == 1
    assert capsys.readouterr().out.startswith(
        "orbits: 2  converged: 0  descent ok: 2  max iterations: 3 ")


#: Orbits that end at a state without a view x/q: the float state overflows
#: (the first two) or, at q < 1, only its view does.
OVERFLOWING = [
    (ParamsPQ(1e308, 1e307), (1.0, 1.0)),
    (ParamsPQ(1e300, 1e10), (1.0, 1e300)),
    (ParamsPQ(1e308, 1e-3), (1.0, 1.0)),
    (ParamsPQ(1e300, 1e-10), (1.0, 1.0)),
]


def test_sweep_records_the_three_calls_it_pairs():
    batch = dynamics.random_instances(random.Random(11), 4, 2) + OVERFLOWING
    for max_iters in (10**6, 5):
        records = dynamics.sweep(batch, tol=1e-8, max_iters=max_iters)
        assert [(r.params, r.seed) for r in records] == batch
        for r in records:
            trace = dynamics.simulate(r.params, r.seed, tol=1e-8, max_iters=max_iters,
                                      record_states=False)
            steps = trace.iters_to_tol
            if steps is None:
                steps = dynamics.UNCONVERGED_DESCENT_STEPS
            assert r.trace == trace
            assert r.descent == dynamics.lyapunov_descent_check(r.params, r.seed, steps)
            assert r.stability == dynamics.local_stability(r.params)
            assert r.ok == (trace.converged and r.descent.ok)
    # an orbit stopped by max_iters gets UNCONVERGED_DESCENT_STEPS, and
    # lyapunov_descent_check checks or skips one step more than it is given
    (short,) = dynamics.sweep(batch[:1], tol=1e-8, max_iters=5)
    assert short.trace.iters_to_tol is None
    assert (short.descent.checked + short.descent.skipped_near_equilibrium
            == dynamics.UNCONVERGED_DESCENT_STEPS + 1)


@pytest.mark.parametrize("params, seed, max_iters, last", [
    (ParamsPQ(1e308, 1e307), (1.0, 1.0), 100, 1),
    (ParamsPQ(1e300, 1e10), (1.0, 1e300), 100, 0),
    (ParamsPQ(1e300, 1e-10), (1.0, 1.0), 10, 0),
    (ParamsPQ(1e308, 1e-3), (1.0, 1.0), 1, 0),
], ids=["overflows-at-2", "overflows-at-1", "view-overflows-at-1",
        "view-overflows-within-max-iters-1"])
def test_an_orbit_that_overflows_fails_the_sweep(params, seed, max_iters, last):
    # the descent monitor reads the orbit only up to its last state with a
    # view x/q, whether the state itself overflows or, at q < 1, its view
    (record,) = dynamics.sweep([(params, seed)], tol=1e-8, max_iters=max_iters)
    assert record.trace.verdict == "diverged-nonfinite"
    assert record.trace.states[-1][0] == last
    assert record.descent.checked + record.descent.skipped_near_equilibrium == 0
    assert record.ok is False


def test_an_orbit_whose_view_over_q_overflows_fails_the_sweep():
    # state n = 1 is (1, 5e307): finite, but divided by q = 1e-3 it overflows,
    # so the orbit ends at n = 0 in simulate and in the descent monitor alike
    (record,) = dynamics.sweep([(ParamsPQ(1e308, 1e-3), (1.0, 1.0))], tol=1e-8, max_iters=100)
    assert record.trace.verdict == "diverged-nonfinite"
    assert record.trace.states[-1][0] == 0
    assert record.descent.checked + record.descent.skipped_near_equilibrium == 0
    # no step was checked, so none violated descent; the orbit still fails
    assert record.descent.ok is True
    assert record.ok is False


#: Floats at and between the edges of the float range, 5e-324 to 1.7e308.
_EDGE_FLOATS = (5e-324, 2.2250738585072014e-308, 1e-300, 1e-150, 1e-10, 0.5, 1.0, 2.0,
                1e10, 1e150, 1e300, 1.7e308)


def _edge_float(rng):
    if rng.random() < 0.5:
        return rng.choice(_EDGE_FLOATS)
    return min(max(math.exp(rng.uniform(math.log(5e-324), math.log(1.7e308))), 5e-324),
               1.7e308)


def test_sweep_of_extreme_inputs_returns_records_whose_states_have_views():
    rng = random.Random(25)
    swept = 0
    for _ in range(120):
        q, p = sorted((_edge_float(rng), _edge_float(rng)))
        seed = (_edge_float(rng), _edge_float(rng))
        if not q < p or not all(0 < x / q < math.inf for x in seed):
            continue
        params = ParamsPQ(p, q)
        try:
            equilibrium(params)
        except ValueError:  # the fixed point's view is beyond the float range
            continue
        (record,) = dynamics.sweep([(params, seed)], 1e-8, 10)
        swept += 1
        for _, a, b in record.trace.states:
            assert 0 < a / q < math.inf and 0 < b / q < math.inf
        steps = record.trace.iters_to_tol
        if steps is None:
            steps = dynamics.UNCONVERGED_DESCENT_STEPS
        assert record.descent == dynamics.lyapunov_descent_check(params, seed, steps)
    assert swept > 40
