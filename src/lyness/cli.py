"""Command-line interface: certificates, identities, simulation, sweeps,
regions, grids.

Exit codes are the machine contract: 0 success, 1 verification failure
(a failed certificate step, a failed identity, or a non-converging /
descent-violating orbit, in a sweep any one of them), 2 usage or validation
error, an output path that cannot be opened included, 141 when the reader
of stdout goes away early, as in ``lyness certify | head -1`` (128 +
SIGPIPE, what a shell reports for a tool that SIGPIPE ended; no traceback
is printed).  Data outputs are
deterministic; JSON certificate reports carry wall-clock timings unless
``--no-timing`` is given, which makes reruns byte-identical.

`dynamics` is imported by the four commands that use it, and `csv` by
``sweep``, so that ``lyness certify`` loads neither.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

from . import certifier
from .model import ParamsPQ, build_symbolic_model

#: Exit code when stdout is closed before the output is written.
EXIT_CLOSED_PIPE = 141


def _rational(text: str) -> Fraction:
    """Accept integer, a/b, and decimal literals; decimals convert exactly."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _window(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"window must be xmin,xmax,ymin,ymax, got {text!r}")
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"window components must be numbers: {text!r}") from exc
    return vals


def _open_output(path: str, newline: str | None = None):
    """Open an output file for writing; a path that cannot be opened is a
    usage error, not a traceback."""
    try:
        return open(path, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _cmd_certify(args) -> int:
    summary = certifier.run_full_certificate(
        certifier.GROUPS if args.step is None else (args.step,))
    payload = certifier.summary_to_json(summary, include_timing=not args.no_timing)
    if args.json is not None:
        with _open_output(args.json) as fh:
            fh.write(payload + "\n")
        print(certifier.summary_to_text(summary))
    else:
        print(payload)
    return 0 if summary.overall_pass else 1


def _cmd_identity(args) -> int:
    if args.which == "delta1":
        report = certifier.verify_delta1_identity()
        print(f"delta1 closed form identity: {'holds' if report.passed else 'FAILS'} "
              f"(cross-difference monomials: {report.output_count})")
        return 0 if report.passed else 1
    built = build_symbolic_model().delta2.den
    displayed = certifier.delta2_denominator()
    const = certifier.proportionality_constant(built, displayed)
    if const is not None and const > 0:
        print(f"delta2 denominator matches the factored product "
              f"(constant {const.numerator}/{const.denominator})")
        return 0
    print("delta2 denominator does NOT match the factored product")
    return 1


def _cmd_simulate(args) -> int:
    from . import dynamics
    params = ParamsPQ(args.p, args.q)
    mode = "exact" if args.exact else "float"
    trace = dynamics.simulate(params, (args.xm1, args.x0), mode=mode, tol=args.tol,
                              max_iters=args.max_iters)
    info_xbar = dynamics.equilibrium(params).xbar
    n, xp, xc = trace.states[-1]
    print(f"verdict: {trace.verdict}")
    print(f"equilibrium: {info_xbar:.17g}")
    print(f"iterations: {trace.iters_to_tol if trace.iters_to_tol is not None else n}")
    print(f"final state: x[n-1]={xp:.17g} x[n]={xc:.17g}")
    ok = trace.converged
    if params.q < params.p:
        descent = dynamics.descent_along(params, trace.states)
        if descent.violation is None:
            print(f"descent: ok ({descent.checked} steps checked)")
        else:
            v = descent.violation
            print(f"descent: VIOLATION at n={v.index}: "
                  f"g={v.g_n:.17g} then {v.g_next:.17g}, {v.g_next2:.17g}")
            ok = False
    else:
        print("descent: not applicable (q >= p)")
    if args.csv is not None:
        with _open_output(args.csv) as fh:
            dynamics.trace_to_csv(trace, fh)
    return 0 if ok else 1


#: The columns of ``lyness sweep --csv``, one row per orbit.
SWEEP_FIELDS = ("p", "q", "seed0", "seed1", "verdict", "iters", "final",
                "descent_ok", "descent_checked", "spectral_radius")


def _cmd_sweep(args) -> int:
    if args.instances < 1 or args.seeds < 1:
        raise ValueError("--instances and --seeds must be at least 1")
    if args.max_iters < 0:
        raise ValueError("--max-iters must be nonnegative")
    if not (args.tol > 0 and math.isfinite(args.tol)):
        raise ValueError("--tol must be positive and finite")
    import csv
    import random
    import time
    from contextlib import nullcontext

    from . import dynamics
    # Opened before the sweep, so that a path that cannot be written is a
    # usage error up front and not one after the whole run.
    out = nullcontext() if args.csv is None else _open_output(args.csv, newline="")
    with out as fh:
        batch = dynamics.random_instances(random.Random(args.rng_seed),
                                          args.instances, args.seeds)
        t0 = time.perf_counter()
        records = dynamics.sweep(batch, args.tol, args.max_iters)
        elapsed = time.perf_counter() - t0
        worst = max((args.max_iters if r.trace.iters_to_tol is None
                     else r.trace.iters_to_tol for r in records), default=0)
        print(f"orbits: {len(records)}"
              f"  converged: {sum(r.trace.converged for r in records)}"
              f"  descent ok: {sum(r.descent.ok for r in records)}"
              f"  max iterations: {worst}  elapsed: {elapsed:.2f}s")
        if fh is not None:
            writer = csv.writer(fh)
            writer.writerow(SWEEP_FIELDS)
            writer.writerows(
                (r.params.p, r.params.q, r.seed[0], r.seed[1], r.trace.verdict,
                 r.trace.iters_to_tol, r.trace.states[-1][2], r.descent.ok,
                 r.descent.checked, r.stability.spectral_radius) for r in records)
            print(f"wrote {args.csv}")
    return 0 if all(r.ok for r in records) else 1


def _cmd_regions(args) -> int:
    from . import dynamics
    coverage = dynamics.classify_regions(ParamsPQ(args.p, args.q))
    print("flags:", "".join(sorted(coverage.flags)) or "(none)")
    for check in coverage.checks:
        status = ("satisfied" if check.satisfied else "not satisfied") \
            if check.applicable else "not applicable"
        print(f"  ({check.flag}) {check.description}: {status} "
              f"[lhs={check.lhs:.6g} rhs={check.rhs:.6g}]")
    return 0


def _cmd_ggrid(args) -> int:
    from . import dynamics
    rows = dynamics.g_grid(args.alpha_tilde, args.window, args.res)
    if args.csv is not None:
        with _open_output(args.csv) as fh:
            dynamics.grid_to_csv(rows, fh)
        print(f"wrote {len(rows)} rows to {args.csv}")
    else:
        dynamics.grid_to_csv(rows, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyness",
        description="Exact certificates and orbit tooling for "
                    "x[n+1] = (p + q*x[n]) / (1 + x[n-1]).")
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", help="run positivity certificates")
    cert.add_argument("--step", choices=sorted(certifier.GROUPS),
                      help="run a single certificate group instead of all")
    cert.add_argument("--json", metavar="PATH", help="write the JSON summary to PATH")
    cert.add_argument("--no-timing", action="store_true",
                      help="omit elapsedMs for byte-identical reruns")
    cert.set_defaults(func=_cmd_certify)

    ident = sub.add_parser("identity", help="check symbolic closed-form identities")
    ident.add_argument("--which", required=True,
                       choices=("delta1", "delta2-denominator"))
    ident.set_defaults(func=_cmd_identity)

    sim = sub.add_parser("simulate", help="iterate the recurrence from a seed")
    sim.add_argument("--p", type=_rational, required=True)
    sim.add_argument("--q", type=_rational, required=True)
    sim.add_argument("--x0", type=_rational, required=True, help="x[0]")
    sim.add_argument("--xm1", type=_rational, required=True, help="x[-1]")
    sim.add_argument("--tol", type=float, default=1e-9)
    sim.add_argument("--max-iters", type=int, default=10**6)
    sim.add_argument("--exact", action="store_true",
                     help="iterate with exact rational arithmetic")
    sim.add_argument("--csv", metavar="PATH", help="write the trace as CSV")
    sim.set_defaults(func=_cmd_simulate)

    swp = sub.add_parser("sweep", help="convergence and descent over random "
                                       "(p, q) with q < p")
    swp.add_argument("--instances", type=int, default=100,
                     help="(p, q) pairs, log-uniform on [0.01, 1000]")
    swp.add_argument("--seeds", type=int, default=3, help="seeds per pair")
    swp.add_argument("--rng-seed", type=int, default=74)
    swp.add_argument("--tol", type=float, default=1e-8)
    swp.add_argument("--max-iters", type=int, default=10**6)
    swp.add_argument("--csv", metavar="PATH", help="write one row per orbit")
    swp.set_defaults(func=_cmd_sweep)

    reg = sub.add_parser("regions", help="classify (p, q) against settled regions")
    reg.add_argument("--p", type=_rational, required=True)
    reg.add_argument("--q", type=_rational, required=True)
    reg.set_defaults(func=_cmd_regions)

    grid = sub.add_parser("ggrid", help="tabulate the invariant function g")
    grid.add_argument("--alpha-tilde", type=float, required=True)
    grid.add_argument("--window", type=_window, required=True,
                      metavar="XMIN,XMAX,YMIN,YMAX")
    grid.add_argument("--res", type=int, required=True)
    grid.add_argument("--csv", metavar="PATH")
    grid.set_defaults(func=_cmd_ggrid)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit does not
        # raise a second time on the closed pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_PIPE
    except (ValueError, OverflowError) as exc:
        # OverflowError: a rational argument beyond the float range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
