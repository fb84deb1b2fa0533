"""Inputs, operations and correctness checks of the three benchmark workloads.

After ``prepare(seed)`` each workload holds ``round``, the list of
operations that the benchmark runs over and over.  ``execute`` runs one
operation, times it, and checks its output outside the timed region.
``layer_metrics`` turns the spans of a traced run into per-layer metrics.
Which public call each span wraps, and why each workload exists, is set out
in README.md next to this file.
"""
from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from lyness.dynamics import (
    local_stability,
    lyapunov_descent_check,
    random_instances,
    simulate,
)
from lyness.model import build_symbolic_model, equilibrium, eval_delta

from tracing import Tracer, span

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().with_name("child.py")
CHILD_TIMEOUT_S = 60


@dataclass
class Outcome:
    wall: float
    cpu: float
    ok: bool


def child_env() -> dict:
    """Environment of every child: the checkout's own sources, serial default."""
    env = {k: v for k, v in os.environ.items() if k != "LYNESS_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list[str]) -> tuple[bytes, int, float, float]:
    """Run ``sys.executable args`` from the checkout root.

    Returns (stdout, exit code, wall s, user+sys CPU s).  The CPU time is the
    growth of RUSAGE_CHILDREN, which is exact because one child runs at a
    time.  A child that overruns its timeout is killed and reported with
    exit code -1.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, check=False)
        out, code = proc.stdout, proc.returncode
    except subprocess.TimeoutExpired:
        out, code = b"", -1
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return out, code, wall, cpu


def run_traced_child(args: list[str], tracer: Tracer, name: str) -> Outcome:
    """Run a ``child.py`` entry point and adopt the spans it prints."""
    with tracer.span(name) as rec:
        out, code, wall, cpu = run_child([str(CHILD), *args])
    try:
        report = json.loads(out)
    except ValueError:
        return Outcome(wall, cpu, False)
    tracer.adopt(report["spans"], rec["id"])
    rec["counts"].update(report["counts"])
    return Outcome(wall, cpu, code == 0 and report["ok"])


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- certify ---------------------------------------------------------------------

CERTIFY_ARGS = ["-m", "lyness", "certify", "--no-timing"]
#: SHA-256 of the byte-identical ``certify --no-timing`` output.
CERTIFY_SHA256 = "926bb95827b14497c1021668408e620ebf49cbc6ff996c4a81327f74878870ec"
CERTIFY_STEPS = 24
CERTIFY_COUNTS = {"delta2Numerator": 277, "eq16": 233, "eq17": 371}

ROSTER_SPANS = ("identity", "q2q4", "q1", "q3", "segments", "landmark_counts",
                "serialize", "negative_control")


def check_certificate(stdout: bytes, returncode: int) -> bool:
    if returncode != 0 or hashlib.sha256(stdout).hexdigest() != CERTIFY_SHA256:
        return False
    try:
        doc = json.loads(stdout)
    except ValueError:
        return False
    return (doc.get("overallPass") is True
            and len(doc.get("steps", ())) == CERTIFY_STEPS
            and doc.get("counts") == CERTIFY_COUNTS)


class Certify:
    """Cold ``python -m lyness certify --no-timing`` child processes.

    The certificate takes no input, so the seed changes nothing.  Traced, an
    operation is a child that imports lyness and calls ``cli.main`` in
    process; each traced round adds a child that replays the roster through
    its public functions (``child.py roster``).
    """

    name = "certify"
    rss_of = resource.RUSAGE_CHILDREN

    def prepare(self, seed: int) -> None:
        self.round = [None]

    def execute(self, op, tracer: Tracer | None) -> Outcome:
        if tracer is None:
            out, code, wall, cpu = run_child(CERTIFY_ARGS)
            return Outcome(wall, cpu, check_certificate(out, code))
        return run_traced_child(["cli"], tracer, "certify.child")

    def probe(self, tracer: Tracer) -> list[Outcome]:
        return [run_traced_child(["roster"], tracer, "certify.roster")]

    def layer_metrics(self, tracer: Tracer) -> dict:
        m = {"lyness.import.s": (tracer.median("lyness.import"), "s"),
             "cli.main.s": (tracer.median("cli.main"), "s"),
             "model.build_symbolic_model.s":
                 (tracer.median("model.build_symbolic_model"), "s")}
        for name in ROSTER_SPANS:
            m[f"certifier.{name}.s"] = (tracer.median(f"certifier.{name}"), "s")
        for name in ("mul", "substitute", "min_coefficient"):
            m[f"exactalg.{name}.s"] = (tracer.median(f"exactalg.{name}"), "s")
        counts = tracer.named("certify.roster")[0]["counts"]
        for key in sorted(counts):
            unit = "ms" if key.endswith(".ms") else "bits" if key.endswith("bits") else "count"
            m[key] = (tracer.median_count("certify.roster", key), unit)
        return m


# -- sweep -----------------------------------------------------------------------

SWEEP_TOL = 1e-8
SWEEP_MAX_ITERS = 10**6
#: Default seed of scripts/convergence_sweep.py; fixes the reference ladder.
SWEEP_REFERENCE_SEED = 74
SWEEP_POOL = (1000, 3)
SWEEP_ROUND = 40


def predicted_steps(params, seed) -> float:
    """Steps to reach the tolerance, from the linear contraction rate.

    The orbit's cost is close to proportional to this (the descent check
    walks every step), which lets the sweep give every seed the same load.
    """
    rho = local_stability(params).spectral_radius
    xbar = equilibrium(params).xbar
    dist = max(abs(seed[0] - xbar), abs(seed[1] - xbar), SWEEP_TOL)
    return max(1.0, math.log(dist / SWEEP_TOL) / -math.log(rho))


def sweep_round(seed: int) -> list:
    """SWEEP_ROUND orbits of the script's generator, matched to a fixed ladder.

    Orbit cost is heavy-tailed (a few slowly contracting instances take
    hundreds of times the median), so 300 plain draws cost anywhere from 6 s
    to 12 s depending on the seed.  Instead the ladder holds the quantiles
    (i + 1/2)/SWEEP_ROUND of predicted length under the reference seed, and
    each rung takes the seed's orbit of nearest predicted length from a pool
    of 1000 instances x 3 seeds.  Inputs change with the seed; the amount of
    work per round does not.
    """
    ref = sorted(predicted_steps(p, s) for p, s in
                 random_instances(random.Random(SWEEP_REFERENCE_SEED), *SWEEP_POOL))
    ladder = [ref[int((i + 0.5) * len(ref) / SWEEP_ROUND)] for i in range(SWEEP_ROUND)]
    pool = random_instances(random.Random(seed), *SWEEP_POOL)
    keyed = sorted((math.log(predicted_steps(p, s)), i) for i, (p, s) in enumerate(pool))
    logs = [k for k, _ in keyed]
    used: set[int] = set()
    chosen = []
    for target in map(math.log, ladder):
        lo = hi = bisect.bisect_left(logs, target)
        lo -= 1
        while lo in used:
            lo -= 1
        while hi in used:
            hi += 1
        if lo < 0 or (hi < len(logs) and logs[hi] - target < target - logs[lo]):
            lo = hi
        used.add(lo)
        chosen.append(pool[keyed[lo][1]])
    random.Random(seed).shuffle(chosen)
    return chosen


class Sweep:
    """The convergence-and-descent sweep of scripts/convergence_sweep.py.

    One operation is one orbit: ``simulate`` to tolerance, then
    ``lyapunov_descent_check`` over the same number of steps, then
    ``local_stability``.  A round is the seed's matched orbit set.
    """

    name = "sweep"
    rss_of = resource.RUSAGE_SELF

    def prepare(self, seed: int) -> None:
        self.round = sweep_round(seed)

    def execute(self, orbit, tracer: Tracer | None) -> Outcome:
        params, seed = orbit
        start, cpu = time.perf_counter(), time.process_time()
        with span(tracer, "dynamics.simulate") as rec:
            trace = simulate(params, seed, tol=SWEEP_TOL, max_iters=SWEEP_MAX_ITERS,
                             record_states=False)
        steps = trace.iters_to_tol if trace.iters_to_tol is not None else 500
        rec["counts"]["steps"] = steps
        with span(tracer, "dynamics.descent") as rec:
            descent = lyapunov_descent_check(params, seed, steps)
        rec["counts"].update(checked=descent.checked,
                             skipped=descent.skipped_near_equilibrium)
        with span(tracer, "dynamics.local_stability"):
            local_stability(params)
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        return Outcome(wall, cpu, trace.converged and descent.ok)

    def probe(self, tracer: Tracer) -> list[Outcome]:
        return []

    def layer_metrics(self, tracer: Tracer) -> dict:
        per = "sweep.round"
        simulate_s = tracer.median_total("dynamics.simulate", per)
        steps = tracer.median_total("dynamics.simulate", per, "steps")
        return {
            "dynamics.simulate.s": (simulate_s, "s"),
            "dynamics.simulate.steps": (steps, "count"),
            "dynamics.simulate.steps_per_s": (steps / simulate_s, "1/s"),
            "dynamics.descent.s": (tracer.median_total("dynamics.descent", per), "s"),
            "dynamics.descent.checked":
                (tracer.median_total("dynamics.descent", per, "checked"), "count"),
            "dynamics.descent.skipped":
                (tracer.median_total("dynamics.descent", per, "skipped"), "count"),
            "dynamics.local_stability.s":
                (tracer.median_total("dynamics.local_stability", per), "s"),
        }


# -- sign-samples ----------------------------------------------------------------

SIGN_ROUND = 250
#: A fixed rational point for timing RationalFn.evaluate of delta2 alone.
EVALUATE_POINT = {"x": Fraction(7, 3), "y": Fraction(5, 2),
                  "u": Fraction(17, 4), "A": Fraction(9, 5)}


def sign_samples(seed: int):
    """Criterion 06's five-mode generator of exact tuples (x, y, u, A).

    Yields ((x, y, u, A), which), ``which`` listing the drops the tuple's
    quadrant claims positive: 1 on the mixed quadrants, 2 on the matched
    ones, both on the segments x = u and y = u.
    """
    rng = random.Random(seed)
    made = 0
    while True:
        u = 1 + Fraction(rng.randint(1, 40), rng.randint(1, 8))
        a = Fraction(rng.randint(1, 40), rng.randint(1, 8))
        mode = made % 5

        def below():
            return u * Fraction(rng.randint(1, 20), 21)

        def at_least():
            return u + Fraction(rng.randint(0, 30), rng.randint(1, 6))

        if mode == 0:
            x, y = at_least(), at_least()
        elif mode == 1:
            x, y = below(), at_least()
        elif mode == 2:
            x, y = below(), below()
        elif mode == 3:
            x, y = at_least(), below()
        else:
            x, y = (u, at_least()) if rng.random() < 0.5 else (below(), u)
        if (x, y) == (u, u):
            continue
        which = []
        if (x <= u <= y) or (y <= u <= x):
            which.append(1)
        if (x >= u and y >= u) or (x <= u and y <= u):
            which.append(2)
        made += 1
        yield (x, y, u, a), tuple(which)


def reference_drop(k: int, point) -> Fraction:
    """g(x, y) - g(T^k(x, y)) in plain Fraction arithmetic, without exactalg."""
    x, y, u, a = point

    def g(s, t):
        return (1 + s) * (1 + t) * (u * u - u + s + t) / (s * t)

    s, t = x, y
    for _ in range(k):
        s, t = t, (u * u + (a - 1) * u + t) / (a + s)
    return g(x, y) - g(s, t)


class SignSamples:
    """Exact sign samples: ``eval_delta`` on criterion 06's tuples.

    Every value is recomputed by ``reference_drop`` outside the timed call; a
    sample fails if the two differ or the drop is not positive.
    """

    name = "sign-samples"
    rss_of = resource.RUSAGE_SELF

    def prepare(self, seed: int) -> None:
        build_symbolic_model()
        self.round = list(itertools.islice(sign_samples(seed), SIGN_ROUND))

    def execute(self, sample, tracer: Tracer | None) -> Outcome:
        point, which = sample
        start, cpu = time.perf_counter(), time.process_time()
        values = []
        for k in which:
            with span(tracer, f"model.eval_delta{k}"):
                values.append(eval_delta(k, point))
        wall, cpu = time.perf_counter() - start, time.process_time() - cpu
        ok = all(v > 0 and v == reference_drop(k, point)
                 for k, v in zip(which, values))
        return Outcome(wall, cpu, ok)

    def probe(self, tracer: Tracer) -> list[Outcome]:
        delta2 = build_symbolic_model().delta2
        expected = reference_drop(2, tuple(EVALUATE_POINT[n] for n in "xyuA"))
        ok = True
        for _ in range(5):
            with tracer.span("exactalg.evaluate"):
                value = delta2.evaluate(EVALUATE_POINT)
            ok = ok and value == expected
        return [Outcome(0.0, 0.0, ok)]

    def layer_metrics(self, tracer: Tracer) -> dict:
        return {
            "model.eval_delta1.s": (tracer.median("model.eval_delta1"), "s"),
            "model.eval_delta2.s": (tracer.median("model.eval_delta2"), "s"),
            "exactalg.evaluate.s": (tracer.median("exactalg.evaluate"), "s"),
        }


WORKLOADS = {w.name: w for w in (Certify, Sweep, SignSamples)}
