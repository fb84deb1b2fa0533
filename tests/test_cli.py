"""Tests for the command-line interface (driven in-process through main)."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest

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


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


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


def test_simulate_writes_csv(tmp_path, capsys):
    target = tmp_path / "trace.csv"
    code = main(["simulate", "--p", "20", "--q", "4", "--xm1", "1", "--x0", "2",
                 "--csv", str(target)])
    capsys.readouterr()
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert lines[0] == "n,x_prev,x_curr,g"
    assert len(lines) > 2


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


def test_regions_not_applicable_at_q_one(capsys):
    assert main(["regions", "--p", "2", "--q", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count(": not applicable [") == 2


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
    ["regions", "--p", "1.7e308", "--q", "2"],
    ["simulate", "--p", "1.7e308", "--q", "2", "--xm1", "1", "--x0", "1"],
    ["regions", "--p", "1e300", "--q", "1e300"],
    ["simulate", "--p", "1e300", "--q", "1e300", "--xm1", "1", "--x0", "1"],
    ["ggrid", "--alpha-tilde", "2", "--window", "1,1e308,1,2", "--res", "3"],
    ["ggrid", "--alpha-tilde", "1e308", "--window", "0.5,1,0.5,1", "--res", "5"],
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
@pytest.mark.parametrize("p, q", [("1.7e308", "2"), ("1e300", "1e300")])
def test_an_equilibrium_beyond_the_float_range_names_p_and_q(command, p, q, capsys):
    argv = [command, "--p", p, "--q", q]
    if command == "simulate":
        argv += ["--xm1", "1", "--x0", "1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: the equilibrium at p={float(p):.17g}, q={float(q):.17g} "
                   "is beyond the float range\n")


def test_bad_rational_is_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--p", "abc", "--q", "1", "--xm1", "1", "--x0", "1"])
    assert exc.value.code == 2
    assert "not a rational number" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [
    ["certify", "--step", "identity", "--json"],
    ["simulate", "--p", "20", "--q", "4", "--xm1", "1", "--x0", "2", "--csv"],
    ["ggrid", "--alpha-tilde", "2", "--window", "1,2,1,2", "--res", "3", "--csv"],
], ids=["certify-json", "simulate-csv", "ggrid-csv"])
def test_unwritable_output_path_is_a_usage_error(argv, tmp_path):
    target = tmp_path / "missing" / "out"
    proc = subprocess.run([sys.executable, "-m", "lyness", *argv, str(target)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == f"error: cannot write {target}: No such file or directory\n"
    assert not target.parent.exists()
