"""Command-line interface: certificates, identities, simulation, sweeps,
regions, grids.

Exit codes are the machine contract: 0 success, 1 verification failure
(a failed certificate step, a failed identity, or a non-converging /
descent-violating orbit, in a sweep any one of them), 2 when the
arguments, the seed or an output path cannot be used (an output file or
stdout that cannot be written included), 141 when the reader of stdout
goes away early, as in ``lyness certify | head -1`` (128 + SIGPIPE, what
a shell reports for a tool that SIGPIPE ended).  No
exit prints a traceback, and exit 2 leaves stdout empty: every output file
is written and closed before the first byte goes to stdout.  Data outputs
are deterministic; JSON certificate reports carry wall-clock timings unless
``--no-timing`` is given, which makes reruns byte-identical.

`dynamics` is imported by the four commands that use it, and `csv` by
``sweep``, so that ``lyness certify`` loads neither.

`run` is the process entry point of ``python -m lyness`` and of the
``lyness`` console script; `main` is the in-process API, which tests and
embedding code call.  `run` ends the process through ``sys.exit`` after
``gc.freeze()``, so the collection at interpreter shutdown does not walk
the objects the run built; atexit handlers and the flush of the standard
streams still run.
"""
from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from typing import NoReturn

from . import certifier
from .model import ParamsPQ, build_symbolic_model, equilibrium

#: Exit code when stdout is closed before the output is written.
EXIT_CLOSED_PIPE = 141


def _rational(text: str) -> Fraction:
    """Accept integer, a/b, and decimal literals; decimals convert exactly."""
    try:
        value = Fraction(text)
        float(value)  # every command that takes one uses its float view too
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc
    except OverflowError as exc:
        raise argparse.ArgumentTypeError(f"beyond the float range: {text!r}") from exc
    return value


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


@contextmanager
def _open_output(path: str, newline: str | None = None):
    """Open an output file for writing, closed on leaving the block; an
    `OSError` opening, writing or closing it carries ``path`` for `main`."""
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
    except OSError as exc:
        exc.filename = path
        raise


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
    displayed = certifier.DELTA2_DENOMINATOR
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
    trace = dynamics.simulate(params, (args.xm1, args.x0), exact=args.exact, tol=args.tol,
                              max_iters=args.max_iters)
    descent = dynamics.descent_along(params, trace.states) if params.q < params.p else None
    if args.csv is not None:
        with _open_output(args.csv) as fh:
            dynamics.trace_to_csv(params, trace, fh)
    n, xp, xc = trace.states[-1]
    print(f"verdict: {trace.verdict}")
    print(f"equilibrium: {equilibrium(params).xbar:.17g}")
    print(f"iterations: {n}")
    print(f"final state: x[n-1]={xp:.17g} x[n]={xc:.17g}")
    if descent is None:
        print("descent: not applicable (q >= p)")
    elif descent.violation is None:
        print(f"descent: ok ({descent.checked} steps checked)")
    else:
        v = descent.violation
        print(f"descent: VIOLATION at n={v.index}: "
              f"g={v.g_n:.17g} then {v.g_next:.17g}, {v.g_next2:.17g}")
    return 0 if trace.converged and (descent is None or descent.violation is None) else 1


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
        if fh is not None:
            writer = csv.writer(fh)
            writer.writerow(SWEEP_FIELDS)
            writer.writerows(
                (r.params.p, r.params.q, r.seed[0], r.seed[1], r.trace.verdict,
                 r.trace.iters_to_tol, r.trace.states[-1][2], r.descent.ok,
                 r.descent.checked, r.stability.spectral_radius) for r in records)
    worst = max((args.max_iters if r.trace.iters_to_tol is None
                 else r.trace.iters_to_tol for r in records), default=0)
    print(f"orbits: {len(records)}"
          f"  converged: {sum(r.trace.converged for r in records)}"
          f"  descent ok: {sum(r.descent.ok for r in records)}"
          f"  max iterations: {worst}  elapsed: {elapsed:.2f}s")
    if args.csv is not None:
        print(f"wrote {args.csv}")
    return 0 if all(r.ok for r in records) else 1


def _cmd_regions(args) -> int:
    from . import dynamics
    coverage = dynamics.classify_regions(ParamsPQ(args.p, args.q))
    print("flags:", "".join(sorted(coverage.flags)) or "(none)")
    for check in coverage.checks:
        status = ("not applicable" if check.satisfied is None
                  else "satisfied" if check.satisfied else "not satisfied")
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
    except OSError as exc:
        # A closed pipe, or an output file (named by `_open_output`) or
        # stdout that cannot be written, as on a full disk.
        if exc.filename is None:
            # Point stdout at devnull so the flush at interpreter exit does
            # not fail a second time on what is left in its buffer.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            return EXIT_CLOSED_PIPE
        print(f"error: cannot write {exc.filename or 'stdout'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        # OverflowError: a rational argument beyond the float range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def run() -> NoReturn:
    """Run `main` on ``sys.argv`` and exit the process with its code.

    ``gc.freeze()`` moves every live object to the collector's permanent
    generation, which the shutdown collection skips; the objects die with
    the process.  In-process callers use `main`, which leaves the
    collector as it found it.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
