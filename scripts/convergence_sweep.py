#!/usr/bin/env python3
"""Batch convergence and descent sweep over random (p, q) instances with q < p.

Usage:
    python scripts/convergence_sweep.py [--instances 100] [--seeds 3] [--csv sweep.csv]

Each orbit is simulated until both components are within tolerance of the
equilibrium; the invariant-descent monitor then replays the same orbit and
checks min(g[n+1], g[n+2]) < g[n] + 1e-12 off the equilibrium.
"""
import argparse
import csv
import math
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from lyness.dynamics import (
    local_stability,
    lyapunov_descent_check,
    random_instances,
    simulate,
)


@dataclass(frozen=True)
class SweepConfig:
    instances: int = 100
    seeds_per_instance: int = 3
    rng_seed: int = 74
    tol: float = 1e-8
    max_iters: int = 10**6
    param_range: tuple[float, float] = (1e-2, 1e3)
    seed_range: tuple[float, float] = (1e-2, 1e2)


#: The CSV columns, one row per orbit.
FIELDS = ("p", "q", "seed0", "seed1", "verdict", "iters", "final",
          "descent_ok", "descent_checked", "spectral_radius")


def run(config: SweepConfig, csv_file: TextIO | None = None) -> bool:
    """Run the sweep, print its summary and, given ``csv_file``, write one
    CSV row per orbit to it; True when every orbit passed."""
    rng = random.Random(config.rng_seed)
    batch = random_instances(rng, config.instances, config.seeds_per_instance,
                             config.param_range, config.seed_range)
    rows = []
    t0 = time.perf_counter()
    worst_iters = 0
    failures = 0
    for params, seed in batch:
        trace = simulate(params, seed, tol=config.tol,
                         max_iters=config.max_iters, record_states=False)
        steps = trace.iters_to_tol if trace.iters_to_tol is not None else 500
        descent = lyapunov_descent_check(params, seed, steps)
        radius = local_stability(params).spectral_radius
        ok = trace.converged and descent.ok
        failures += not ok
        worst_iters = max(worst_iters, config.max_iters if trace.iters_to_tol is None
                          else trace.iters_to_tol)
        rows.append({
            "p": params.p, "q": params.q,
            "seed0": seed[0], "seed1": seed[1],
            "verdict": trace.verdict,
            "iters": trace.iters_to_tol,
            "final": trace.states[-1][2],
            "descent_ok": descent.ok,
            "descent_checked": descent.checked,
            "spectral_radius": radius,
        })
    elapsed = time.perf_counter() - t0
    print(f"orbits: {len(rows)}  converged: {sum(r['verdict'] == 'converged' for r in rows)}"
          f"  descent ok: {sum(r['descent_ok'] for r in rows)}"
          f"  max iterations: {worst_iters}  elapsed: {elapsed:.2f}s")
    if csv_file is not None:
        writer = csv.DictWriter(csv_file, fieldnames=FIELDS)
        writer.writeheader()
        writer.writerows(rows)
        print(f"wrote {csv_file.name}")
    return failures == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instances", type=int, default=SweepConfig.instances)
    parser.add_argument("--seeds", type=int, default=SweepConfig.seeds_per_instance)
    parser.add_argument("--rng-seed", type=int, default=SweepConfig.rng_seed)
    parser.add_argument("--tol", type=float, default=SweepConfig.tol)
    parser.add_argument("--max-iters", type=int, default=SweepConfig.max_iters)
    parser.add_argument("--csv", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.instances < 1 or args.seeds < 1:
        parser.error("--instances and --seeds must be at least 1")
    if args.max_iters < 0:
        parser.error("--max-iters must be nonnegative")
    if not (args.tol > 0 and math.isfinite(args.tol)):
        parser.error("--tol must be positive and finite")
    config = SweepConfig(instances=args.instances,
                         seeds_per_instance=args.seeds,
                         rng_seed=args.rng_seed,
                         tol=args.tol,
                         max_iters=args.max_iters)
    if args.csv is None:
        return 0 if run(config) else 1
    # Opened before the sweep, so that a path that cannot be written is a
    # usage error up front and not a traceback after the whole run.
    try:
        csv_file = open(args.csv, "w", newline="", encoding="utf-8")
    except OSError as exc:
        parser.error(f"cannot write {args.csv}: {exc.strerror or exc}")
    with csv_file:
        return 0 if run(config, csv_file) else 1


if __name__ == "__main__":
    sys.exit(main())
