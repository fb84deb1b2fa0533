#!/usr/bin/env python3
"""Self-test of the benchmark; run from the checkout root:

    python3 bench/selftest.py

Runs every workload briefly, untraced and traced, and checks that each
metric of BENCHMARK.json is printed with its unit.  Then it feeds a tampered
certificate, a corrupted cross-check value and a failed descent check
through the real loop and checks that every affected operation is counted
as failed.  Last, it checks that the benchmark refuses to run without the
package sources.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "bench" / "run.py"
sys.path.insert(0, str(ROOT / "src"))

import run
import workloads

real_run_child = workloads.run_child
real_descent = workloads.lyapunov_descent_check
real_drop = workloads.reference_drop


def last_json(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    return result


def check_metrics(workload: str, trace: int, spec: dict) -> None:
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                           "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    listed = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    assert len(want) == len(listed), "a metric is listed twice"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, (workload, trace, set(got) ^ set(want))
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)
        assert f"{name} " in proc.stdout, name
    print(f"ok  {workload} --trace {trace}: {len(got)} metrics, "
          f"{result['attempted']} attempted")


def failures_under(patch, workload: str) -> dict:
    out = io.StringIO()
    with patch, contextlib.redirect_stdout(out):
        run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2"])
    result = last_json(out.getvalue())
    assert not result["correct"], result
    assert result["failed"] == result["attempted"] >= 1, result
    return result


def tampered_child(args):
    out, code, wall, cpu = real_run_child(args)
    return out.replace(b'"overallPass": true', b'"overallPass": false'), code, wall, cpu


def failed_descent(params, seed, steps, **kw):
    return replace(real_descent(params, seed, steps, **kw), ok=False)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_metrics(workload, trace, spec)

    assert workloads.check_certificate(*real_run_child(workloads.CERTIFY_ARGS)[:2])
    res = failures_under(mock.patch.object(workloads, "run_child", tampered_child), "certify")
    print(f"ok  tampered certificate output: {res['failed']} of {res['attempted']} failed")
    res = failures_under(mock.patch.object(
        workloads, "reference_drop", lambda k, point: real_drop(k, point) + 1), "sign-samples")
    print(f"ok  corrupted cross-check value: {res['failed']} of {res['attempted']} failed")
    res = failures_under(mock.patch.object(
        workloads, "lyapunov_descent_check", failed_descent), "sweep")
    print(f"ok  failed descent check: {res['failed']} of {res['attempted']} failed")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok  without the sources the benchmark exits with code "
          f"{proc.returncode} and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
