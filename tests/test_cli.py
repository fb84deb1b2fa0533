"""Tests for the command-line interface (driven in-process through main)."""

import contextlib
import gc
import hashlib
import io
import json
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyness import certifier, cli, dynamics
from lyness.cli import EXIT_CLOSED_PIPE, main

#: SHA-256 of the byte-identical ``lyness certify --no-timing`` output.
CERTIFY_NO_TIMING_SHA256 = "926bb95827b14497c1021668408e620ebf49cbc6ff996c4a81327f74878870ec"


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_full_run(capsys):
    assert main(["certify"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["overallPass"] is True
    assert len(doc["steps"]) == 24
    assert doc["counts"] == {"delta2Numerator": 277, "eq16": 233, "eq17": 371}
    assert "elapsedMs" in doc["steps"][0]


#: Reports of each ``--step`` group; together they are the full roster.
GROUP_STEPS = {
    "identity": {"delta1-identity"},
    "q2q4": {"delta1-numerator-cofactor", "delta1-denominator",
             "q2-line-factor-negated", "q2-line-factor-negated-clearing",
             "q2-parabola-factor-negated", "q2-parabola-factor-negated-clearing",
             "q4-line-factor", "q4-line-factor-clearing",
             "q4-parabola-factor", "q4-parabola-factor-clearing"},
    "q1": {"q1-case-above-diagonal", "q1-case-below-diagonal", "q1-case-diagonal",
           "q1-edge-x0-zero", "q1-edge-y0-zero"},
    "q3": {"q3-mobius-clearing", "q3-case-above-diagonal", "q3-case-below-diagonal",
           "q3-case-diagonal"},
    "segments": {"segment-x-eq-u", "segment-x-eq-u-clearing",
                 "segment-y-eq-u", "segment-y-eq-u-clearing"},
}


def _certify_json(*flags):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["certify", "--no-timing", *flags])
    return code, json.loads(out.getvalue())


@pytest.fixture(scope="module")
def full_run():
    code, doc = _certify_json()
    assert code == 0
    assert sorted(s["step"] for s in doc["steps"]) == sorted(set().union(*GROUP_STEPS.values()))
    return doc


@pytest.mark.parametrize("group", sorted(GROUP_STEPS))
def test_certify_single_groups(group, full_run):
    code, doc = _certify_json("--step", group)
    assert code == 0
    assert doc["overallPass"] is True
    assert doc["counts"] == full_run["counts"]
    expected = [json.dumps(s) for s in full_run["steps"] if s["step"] in GROUP_STEPS[group]]
    assert [json.dumps(s) for s in doc["steps"]] == expected
    assert len(expected) == len(GROUP_STEPS[group])


def test_certify_no_timing_is_byte_identical(capsys):
    assert main(["certify", "--no-timing"]) == 0
    first = capsys.readouterr().out
    assert main(["certify", "--no-timing"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "elapsedMs" not in first
    assert hashlib.sha256(first.encode()).hexdigest() == CERTIFY_NO_TIMING_SHA256


def test_certify_json_file_plus_text_table(tmp_path, capsys):
    target = tmp_path / "certificate.json"
    assert main(["certify", "--json", str(target), "--no-timing"]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "q3-case-above-diagonal" in out
    doc = json.loads(target.read_text())
    assert doc["overallPass"] is True


# ---------------------------------------------------------------------------
# identity
# ---------------------------------------------------------------------------


def test_identity_delta1(capsys):
    assert main(["identity", "--which", "delta1"]) == 0
    out = capsys.readouterr().out
    assert "holds" in out
    assert "cross-difference monomials: 0" in out


def test_identity_delta2_denominator(capsys):
    assert main(["identity", "--which", "delta2-denominator"]) == 0
    out = capsys.readouterr().out
    assert "matches the factored product" in out
    assert "constant 1/1" in out


@pytest.mark.parametrize("displayed", [-certifier.DELTA2_DENOMINATOR,
                                       certifier.DELTA2_DENOMINATOR + 1],
                         ids=["negated", "shifted"])
def test_identity_delta2_denominator_mismatch_fails(displayed, monkeypatch, capsys):
    # a negative constant is no match, and neither is a non-multiple
    monkeypatch.setattr(certifier, "DELTA2_DENOMINATOR", displayed)
    assert main(["identity", "--which", "delta2-denominator"]) == 1
    assert capsys.readouterr().out == "delta2 denominator does NOT match the factored product\n"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


_SHOWCASE = ["simulate", "--p", "20", "--q", "4", "--xm1", "1", "--x0", "2"]


def test_simulate_convergent_instance(capsys):
    code = main(["simulate", "--p", "20", "--q", "4", "--xm1", "1", "--x0", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: converged" in out
    assert "equilibrium: 6.216990566" in out
    assert "descent: ok" in out


def test_simulate_max_iters_exceeded_fails(capsys):
    code = main(["simulate", "--p", "20", "--q", "4", "--xm1", "1", "--x0", "2",
                 "--max-iters", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: max-iters-exceeded" in out
    # the descent line covers the 4 printed states, not a longer rerun
    assert "descent: ok (2 steps checked)" in out


def test_simulate_descent_not_applicable_when_q_at_least_p(capsys):
    code = main(["simulate", "--p", "1", "--q", "2", "--xm1", "1", "--x0", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "descent: not applicable (q >= p)" in out


def test_simulate_exact_mode_runs(capsys):
    code = main(["simulate", "--p", "20", "--q", "4", "--xm1", "1", "--x0", "2",
                 "--exact", "--max-iters", "8"])
    out = capsys.readouterr().out
    assert code == 1  # 8 exact steps cannot reach the default tolerance
    assert "verdict: max-iters-exceeded" in out
    assert "descent: ok (7 steps checked)" in out


def test_simulate_reports_a_descent_violation_and_fails(monkeypatch, capsys):
    violation = dynamics.DescentViolation(3, 2.5, 2.5, 3.0)
    monkeypatch.setattr(dynamics, "descent_along",
                        lambda params, states: dynamics.DescentResult(False, violation, 3, 0, 0))
    assert main(_SHOWCASE) == 1
    out = capsys.readouterr().out
    assert "verdict: converged\n" in out
    assert out.endswith("descent: VIOLATION at n=3: g=2.5 then 2.5, 3\n")


def test_simulate_prints_q_as_the_equilibrium_where_q_equals_p(capsys):
    # xbar = q exactly there, where the root formula gave 1.0099999999999998
    assert main(["simulate", "--p", "1.01", "--q", "1.01", "--xm1", "1", "--x0", "2"]) == 0
    assert capsys.readouterr().out == (
        "verdict: converged\n"
        "equilibrium: 1.01\n"
        "iterations: 60\n"
        "final state: x[n-1]=1.0099999997490339 x[n]=1.0099999991135848\n"
        "descent: not applicable (q >= p)\n")


def test_simulate_writes_csv(tmp_path, capsys):
    target = tmp_path / "trace.csv"
    code = main(["simulate", "--p", "20", "--q", "4", "--xm1", "1", "--x0", "2",
                 "--csv", str(target)])
    capsys.readouterr()
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "n,x_prev,x_curr,g"
    assert len(lines) > 2


@pytest.mark.parametrize("argv, code, csv_sha256, stdout_sha256", [
    # the sweep's stdout carries its elapsed time, so only its file is pinned
    (["sweep"], 0,
     "f43accd015bbe964c03e219b7eb303ecbbbe677c8f48c455b1799cfad737598a", None),
    (_SHOWCASE, 0,
     "b2b41c3bc8ccee984706eab3dc106bf4256a552ce26fe9bbf99594e769f2b556",
     "4e8579749da7b374f3e466eb7eee2a5b9602b90bcbe6fdd74c5e75d5b856def6"),
    ([*_SHOWCASE, "--exact", "--max-iters", "8"], 1,
     "29c8e7f4f150eb17cd309578e29f0003f1ed9d52ba5330f43d4e3e1be7218e10",
     "869c2fc6c081208db8d198b25c90d2ee04270d2d43786154b032b1e59447199c"),
], ids=["sweep", "simulate", "simulate-exact"])
def test_csv_outputs_are_byte_identical(argv, code, csv_sha256, stdout_sha256,
                                        tmp_path, capsys):
    target = tmp_path / "out.csv"
    assert main([*argv, "--csv", str(target)]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(target.read_bytes()).hexdigest() == csv_sha256
    if stdout_sha256 is not None:
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256


@pytest.mark.parametrize("argv", [
    # q < 1: the equilibrium formula must not cancel to 0.0
    ["simulate", "--p", "1e-30", "--q", "1e-300", "--x0", "1", "--xm1", "2",
     "--max-iters", "50"],
    # the seed divided by q underflows
    ["simulate", "--p", "1e-300", "--q", "1e100", "--x0", "1e-250", "--xm1", "1e-250",
     "--max-iters", "3"],
    # the product of the state's coordinates under g underflows
    ["simulate", "--p", "5e-324", "--q", "0.5", "--x0", "5e-324", "--xm1", "5e-324",
     "--tol", "0.5", "--max-iters", "3", "--exact"],
], ids=["xbar-below-q-one", "seed-over-q-underflows", "g-product-underflows"])
def test_simulate_at_extreme_values_ends_without_a_traceback(argv, capsys):
    assert main(argv) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, state", [
    # the seed divided by q = 1e-300 overflows
    (["--p", "1e-300", "--q", "1e-300", "--x0", "1e300", "--xm1", "1e300", "--exact"],
     "n=0 must be positive and finite, also divided by q in floats: got (1e+300, 1e+300)"),
    # a float seed divided by q = 0.5 overflows
    (["--p", "1", "--q", "0.5", "--x0", "1.5e308", "--xm1", "1"],
     "n=0 must be positive and finite, also divided by q in floats: got (1.0, 1.5e+308)"),
    # the seed's x[-1] / q underflows; it is tested before the first exact
    # step, which would leave the float range
    (["--p", "1", "--q", "1e100", "--x0", "1e300", "--xm1", "1e-300", "--exact"],
     "n=0 must be positive and finite, also divided by q in floats: got (1e-300, 1e+300)"),
], ids=["exact-overflow", "float-overflow", "exact-seed-before-the-walk"])
def test_simulate_names_the_state_whose_float_view_over_q_leaves_the_range(
        argv, state, capsys):
    assert main(["simulate", *argv, "--max-iters", "8", "--tol", "1e-300"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: state {state}\n"


@pytest.mark.parametrize("argv", [
    # the exact orbit stays positive, its float view underflows at n = 1
    ["--p", "1e-300", "--q", "1", "--x0", "1e-300", "--xm1", "1e300",
     "--max-iters", "8", "--tol", "1e-300"],
    # the exact state n = 1 is beyond the float range
    ["--p", "1", "--q", "1e100", "--x0", "1e300", "--xm1", "1", "--max-iters", "3"],
    # state n = 1 is (1, 5e307); divided by q = 1e-3 it overflows
    ["--p", "1e308", "--q", "1e-3", "--xm1", "1", "--x0", "1"],
], ids=["exact-view-underflows", "exact-state-overflows", "view-overflows"])
def test_float_and_exact_orbits_end_alike(argv, capsys):
    runs = []
    for mode in ([], ["--exact"]):
        assert main(["simulate", *argv, *mode]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        runs.append(out)
    assert runs[0] == runs[1]
    assert "verdict: diverged-nonfinite\n" in runs[0]
    assert "iterations: 0\n" in runs[0]


def test_simulate_rejects_nonpositive_seed(capsys):
    code = main(["simulate", "--p", "2", "--q", "1", "--xm1", "0", "--x0", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


def test_regions_showcase_point(capsys):
    assert main(["regions", "--p", "20", "--q", "4"]) == 0
    out = capsys.readouterr().out
    assert "flags: (none)" in out
    assert out.count("not satisfied") == 5


def test_regions_small_point(capsys):
    assert main(["regions", "--p", "1", "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert "flags: abcde" in out


def test_regions_decides_d_exactly(capsys):
    # both sides of (d) round to 1e70, yet xbar < q + 1 < (q^2+1)/(q-1)
    assert main(["regions", "--p", "1e-300", "--q", "1e70"]) == 0
    out = capsys.readouterr().out
    assert "flags: abcde" in out
    assert ("(d) equilibrium <= (q^2+1)/(q-1): satisfied [lhs=1e+70 rhs=1e+70]"
            in out)


def test_regions_not_applicable_at_q_one(capsys):
    assert main(["regions", "--p", "2", "--q", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count(": not applicable [") == 2


#: The whole stdout of ``lyness regions``: no region, (b) and (e) with (c)
#: and (d) not applicable, and (a) to (d) on the boundary q = p.
REGIONS_STDOUT = {
    ("20", "4"): """\
flags: (none)
  (a) q >= p: not satisfied [lhs=4 rhs=20]
  (b) 2(q+1) >= p: not satisfied [lhs=10 rhs=20]
  (c) 2(q^3-q^2+q+sqrt(q^4-1)-1)/(q-1)^2 >= p: not satisfied [lhs=14.8819 rhs=20]
  (d) equilibrium <= (q^2+1)/(q-1): not satisfied [lhs=6.21699 rhs=5.66667]
  (e) 4p(q-1)^2 <= 25: not satisfied [lhs=720 rhs=25]
""",
    ("2", "1"): """\
flags: be
  (a) q >= p: not satisfied [lhs=1 rhs=2]
  (b) 2(q+1) >= p: satisfied [lhs=4 rhs=2]
  (c) 2(q^3-q^2+q+sqrt(q^4-1)-1)/(q-1)^2 >= p: not applicable [lhs=nan rhs=2]
  (d) equilibrium <= (q^2+1)/(q-1): not applicable [lhs=1.41421 rhs=nan]
  (e) 4p(q-1)^2 <= 25: satisfied [lhs=0 rhs=25]
""",
    ("3", "3"): """\
flags: abcd
  (a) q >= p: satisfied [lhs=3 rhs=3]
  (b) 2(q+1) >= p: satisfied [lhs=8 rhs=3]
  (c) 2(q^3-q^2+q+sqrt(q^4-1)-1)/(q-1)^2 >= p: satisfied [lhs=14.4721 rhs=3]
  (d) equilibrium <= (q^2+1)/(q-1): satisfied [lhs=3 rhs=5]
  (e) 4p(q-1)^2 <= 25: not satisfied [lhs=48 rhs=25]
""",
}


@pytest.mark.parametrize("p, q", sorted(REGIONS_STDOUT))
def test_regions_stdout_is_byte_identical(p, q, capsys):
    assert main(["regions", "--p", p, "--q", q]) == 0
    assert capsys.readouterr().out == REGIONS_STDOUT[p, q]


# ---------------------------------------------------------------------------
# ggrid
# ---------------------------------------------------------------------------


def test_ggrid_stdout(capsys):
    assert main(["ggrid", "--alpha-tilde", "2", "--window", "1,2,1,2",
                 "--res", "3"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "x,y,g"
    assert len(lines) == 10


def test_ggrid_csv_file(tmp_path, capsys):
    target = tmp_path / "grid.csv"
    assert main(["ggrid", "--alpha-tilde", "2", "--window", "0.5,5,0.5,5",
                 "--res", "21", "--csv", str(target)]) == 0
    out = capsys.readouterr().out
    assert "wrote 441 rows" in out
    lines = target.read_text().strip().split("\n")
    assert len(lines) == 442


def test_ggrid_past_an_underflowing_product(capsys):
    # x*y underflows to 0.0 at (1e-300, 1e-300), g = 3e300 does not overflow
    assert main(["ggrid", "--alpha-tilde", "1e-300", "--window", "1e-300,1,1e-300,1",
                 "--res", "2"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[1] == "1e-300,1e-300,3.0000000000000002e+300"
    assert err == ""


def test_ggrid_invalid_window_is_usage_error(capsys):
    code = main(["ggrid", "--alpha-tilde", "2", "--window", "0,1,0.5,1",
                 "--res", "5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "strictly positive" in err


# ---------------------------------------------------------------------------
# argument errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["simulate", "--p", "1e400", "--q", "1", "--xm1", "1", "--x0", "1"],
    ["regions", "--p", "1e400", "--q", "2"],
    ["simulate", "--p", "2", "--q", "1", "--xm1", "1e-400", "--x0", "1"],
    ["simulate", "--p", "2", "--q", "1e-400", "--xm1", "1", "--x0", "1"],
    ["regions", "--p", "1e-400", "--q", "2"],
    ["simulate", "--p", "1e-400", "--q", "1/2", "--xm1", "1", "--x0", "1"],
    ["simulate", "--p", "20", "--q", "4", "--xm1", "1", "--x0", "2", "--tol", "nan"],
    ["ggrid", "--alpha-tilde", "2", "--window", "0.5,inf,0.5,1", "--res", "5"],
    ["ggrid", "--alpha-tilde", "inf", "--window", "0.5,1,0.5,1", "--res", "5"],
    ["regions", "--p", "1e300", "--q", "1e-300"],
    ["simulate", "--p", "1e300", "--q", "1e-300", "--xm1", "1", "--x0", "1"],
    ["ggrid", "--alpha-tilde", "2", "--window", "1,1e308,1,2", "--res", "3"],
    ["ggrid", "--alpha-tilde", "1e308", "--window", "0.5,1,0.5,1", "--res", "5"],
    ["ggrid", "--alpha-tilde", "1", "--window", "1e-300,1,1e-300,1", "--res", "2"],
], ids=" ".join)
def test_out_of_range_values_are_usage_errors(argv):
    # rationals beyond the float range, a seed, p or q that rounds to 0.0,
    # an equilibrium or a grid value that overflows, and non-finite float
    # options: exit 2 with a message, never a traceback
    proc = subprocess.run([sys.executable, "-m", "lyness", *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["regions", "simulate"])
@pytest.mark.parametrize("p, q", [("1e300", "1e-300")])
def test_an_equilibrium_beyond_the_float_range_names_p_and_q(command, p, q, capsys):
    argv = [command, "--p", p, "--q", q]
    if command == "simulate":
        argv += ["--xm1", "1", "--x0", "1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: the equilibrium at p={float(p):.17g}, q={float(q):.17g} "
                   "is beyond the float range\n")


@pytest.mark.parametrize("argv, shown", [
    (["regions", "--p", "1.7e308", "--q", "2"],
     "(d) equilibrium <= (q^2+1)/(q-1): not satisfied [lhs=1.30384e+154 rhs=5]"),
    (["simulate", "--p", "1.7e308", "--q", "2", "--xm1", "1", "--x0", "1"],
     "equilibrium: 1.3038404810405297e+154"),
    (["simulate", "--p", "1e300", "--q", "1e300", "--xm1", "1", "--x0", "1"],
     "equilibrium: 1.0000000000000001e+300"),
    (["regions", "--p", "1e308", "--q", "1.5"],
     "(e) 4p(q-1)^2 <= 25: not satisfied [lhs=1e+308 rhs=25]"),
], ids=["1.7e308-2-regions", "1.7e308-2-simulate", "1e300-1e300-simulate",
        "1e308-1.5-regions"])
def test_an_equilibrium_past_an_overflowing_square_is_shown(argv, shown, capsys):
    # (q-1)^2 + 4p overflows in floats; the equilibrium does not, nor does
    # region (e)'s left-hand side 4p(q-1)^2
    assert main(argv) in (0, 1)
    out, err = capsys.readouterr()
    assert shown in out
    assert err == ""


@pytest.mark.parametrize("argv", [
    ["regions", "--p", "1.7e308", "--q", "2"],
    ["simulate", "--p", "1.7e308", "--q", "2", "--xm1", "1", "--x0", "1"],
    ["simulate", "--p", "1e300", "--q", "1e300", "--xm1", "1", "--x0", "1"],
    ["regions", "--p", "1e300", "--q", "1e300"],
    ["regions", "--p", "1e300", "--q", "1e100"],
    ["ggrid", "--alpha-tilde", "1", "--window", "1e200,1e201,1e200,1e201", "--res", "2"],
], ids=["regions-1.7e308-2", "simulate-1.7e308-2", "simulate-1e300-1e300",
        "regions-1e300-1e300", "regions-1e300-1e100", "ggrid-1e200-1e201"])
def test_an_overflowing_square_is_no_usage_error(argv):
    # the entry point runs these to the end: exit 0 or 1, nothing on stderr;
    # a square, a power of q or g's numerator overflows, the value shown does not
    proc = subprocess.run([sys.executable, "-m", "lyness", *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode in (0, 1)
    assert proc.stderr == ""


def test_a_region_c_bound_past_an_overflowing_power_is_shown(capsys):
    # q**4 overflows; region (c)'s left-hand side, about 2q, does not
    assert main(["regions", "--p", "1e300", "--q", "1e100"]) == 0
    out, err = capsys.readouterr()
    assert "(c) 2(q^3-q^2+q+sqrt(q^4-1)-1)/(q-1)^2 >= p: not satisfied [lhs=2e+100 " in out
    assert err == ""


def test_bad_rational_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--p", "abc", "--q", "1", "--xm1", "1", "--x0", "1"])
    assert exc.value.code == 2
    assert "not a rational number" in capsys.readouterr().err


@pytest.mark.parametrize("argv, option, value", [
    (["simulate", "--p", "1e400", "--q", "1", "--xm1", "1", "--x0", "1"], "--p", "1e400"),
    (["simulate", "--p", "2", "--q", "2e400", "--xm1", "1", "--x0", "1"], "--q", "2e400"),
    (["simulate", "--p", "2", "--q", "1", "--xm1", "1", "--x0", "1e999"], "--x0", "1e999"),
    (["simulate", "--p", "2", "--q", "1", "--xm1", "3.6e308", "--x0", "1"],
     "--xm1", "3.6e308"),
    (["regions", "--p", "1e400", "--q", "2"], "--p", "1e400"),
    (["regions", "--p", "2", "--q", "1e400"], "--q", "1e400"),
], ids=["simulate-p", "simulate-q", "simulate-x0", "simulate-xm1", "regions-p", "regions-q"])
def test_a_rational_beyond_the_float_range_names_its_option(argv, option, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: argument {option}: beyond the float range: '{value}'\n")


def test_bad_window_shape_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ggrid", "--alpha-tilde", "2", "--window", "1,2,3", "--res", "5"])
    assert exc.value.code == 2


def test_missing_subcommand_is_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lyness", "regions", "--p", "20", "--q", "4"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "flags: (none)" in proc.stdout


# ---------------------------------------------------------------------------
# process entry point
# ---------------------------------------------------------------------------


def test_main_in_process_leaves_the_collector_alone(capsys):
    before = gc.get_freeze_count()
    assert main(["regions", "--p", "20", "--q", "4"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_run_freezes_the_heap_and_exits_with_the_code_of_main(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["lyness", "regions", "--p", "20", "--q", "4"])
    try:
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert exc.value.code == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert "flags: (none)" in capsys.readouterr().out


def test_module_and_console_script_go_through_run(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "run", lambda: calls.append("run"))
    runpy.run_module("lyness", run_name="__main__")
    assert calls == ["run"]
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"lyness": "lyness.cli:run"}


@pytest.mark.parametrize("argv, flag", [
    (["certify", "--no-timing"], "--json"),
    (["simulate", "--p", "20", "--q", "4", "--xm1", "1", "--x0", "2"], "--csv"),
    (["sweep", "--instances", "3", "--seeds", "2"], "--csv"),
], ids=["certify-json", "simulate-csv", "sweep-csv"])
def test_a_process_writes_the_same_file_as_main(argv, flag, tmp_path, capsys):
    # the process exits through run; the file it leaves must be complete
    in_process, child = tmp_path / "main.out", tmp_path / "child.out"
    main([*argv, flag, str(in_process)])
    capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "lyness", *argv, flag, str(child)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert child.read_bytes() == in_process.read_bytes() != b""


def test_closed_stdout_pipe_exits_without_traceback():
    # the reader closes its end before the child writes anything, as
    # `lyness certify --no-timing | head -1` does once head has its line
    with subprocess.Popen(
            [sys.executable, "-m", "lyness", "certify", "--no-timing"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert code == EXIT_CLOSED_PIPE == 141
    assert b"Traceback" not in err
    assert b"BrokenPipeError" not in err


#: Writes fail on it with ENOSPC, as on a full disk.
DEV_FULL = Path("/dev/full")

#: Each command's option that names an output file, last.
_WRITERS = {
    "certify-json": ["certify", "--step", "identity", "--json"],
    "simulate-csv": ["simulate", "--p", "20", "--q", "4", "--xm1", "1", "--x0", "2", "--csv"],
    "ggrid-csv": ["ggrid", "--alpha-tilde", "2", "--window", "1,2,1,2", "--res", "3", "--csv"],
    "sweep-csv": ["sweep", "--instances", "1", "--seeds", "1", "--csv"],
}


@pytest.mark.parametrize("argv, target", [
    *(pytest.param(argv, "missing", id=name) for name, argv in _WRITERS.items()),
    *(pytest.param(argv, "full", id=f"{name}-dev-full") for name, argv in _WRITERS.items()),
    pytest.param(["certify", "--step", "identity", "--no-timing"], "stdout",
                 id="stdout-dev-full"),
])
def test_unwritable_output_path_is_a_usage_error(argv, target, tmp_path):
    # a missing directory fails the open, /dev/full the first write; either
    # way nothing reaches stdout and the one line on stderr names the path
    if target == "missing":
        path, reason = tmp_path / "missing" / "out", "No such file or directory"
    elif DEV_FULL.exists():
        path, reason = DEV_FULL, "No space left on device"
    else:
        pytest.skip("no /dev/full here")
    cmd = [sys.executable, "-m", "lyness", *argv]
    if target == "stdout":
        with DEV_FULL.open("w") as full:
            proc = subprocess.run(cmd, stdout=full, stderr=subprocess.PIPE, text=True,
                                  timeout=120)
        path = "stdout"
    else:
        proc = subprocess.run([*cmd, str(path)], capture_output=True, text=True,
                              timeout=120)
        assert proc.stdout == ""
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"error: cannot write {path}: {reason}\n"
    if target == "missing":
        assert not path.parent.exists()


# ---------------------------------------------------------------------------
# fuzzing
# ---------------------------------------------------------------------------

#: Option values at and past the edges of the float range, as typed.
_EDGE_VALUES = st.sampled_from((
    "0", "-1", "-0.5", "0.5", "1", "2", "4", "20",
    "5e-324", "2.2250738585072014e-308", "1e-300", "1e300", "1.7e308",
    "1e-400", "1e400", "nan", "inf", "-inf",
    "123456789012345678901234567890123/7", "7/123456789012345678901234567890123",
    "98765432109876543210/98765432109876543211",
))

#: Command lines of the four numeric commands, every count and size capped.
_ARGVS = st.one_of(
    st.builds(lambda p, q, x0, xm1, tol, iters, exact: [
        "simulate", "--p", p, "--q", q, "--x0", x0, "--xm1", xm1, "--tol", tol,
        "--max-iters", str(iters), *(["--exact"] if exact else [])],
        _EDGE_VALUES, _EDGE_VALUES, _EDGE_VALUES, _EDGE_VALUES, _EDGE_VALUES,
        st.integers(-1, 12), st.booleans()),
    st.builds(lambda p, q: ["regions", "--p", p, "--q", q], _EDGE_VALUES, _EDGE_VALUES),
    st.builds(lambda alpha, window, res: [
        "ggrid", "--alpha-tilde", alpha, "--window", ",".join(window), "--res", str(res)],
        _EDGE_VALUES, st.lists(_EDGE_VALUES, min_size=4, max_size=4), st.integers(-1, 4)),
    st.builds(lambda instances, seeds, tol, iters: [
        "sweep", "--instances", str(instances), "--seeds", str(seeds), "--tol", tol,
        "--max-iters", str(iters)],
        st.integers(-1, 2), st.integers(-1, 2), _EDGE_VALUES, st.integers(-1, 50)),
)


@settings(max_examples=300, deadline=None)
@given(_ARGVS)
def test_any_numeric_command_line_ends_with_an_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the value
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        if argv[0] == "simulate":  # a usage error names no state past the seed
            assert re.search(r"state n=[1-9]", err.getvalue()) is None
