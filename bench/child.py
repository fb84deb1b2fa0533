"""Child-process entry points of the benchmark; each runs in a fresh interpreter.

    child.py setup <workload> <seed>   import lyness and prepare the workload
    child.py cli                       traced in-process ``cli.main certify``
    child.py roster                    traced certificate roster, in order

``cli`` and ``roster`` print one JSON object: ``ok``, the spans they
recorded and exact ``counts``.  Run with PYTHONPATH pointing at src/.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys

from tracing import Tracer

#: Reports whose elapsedMs the program fixes at 0.0 (the substitution that
#: produced them is timed on the numerator's report); a constant measures
#: nothing.
UNTIMED_STEPS = frozenset({
    "q2-line-factor-negated-clearing", "q2-parabola-factor-negated-clearing",
    "q4-line-factor-clearing", "q4-parabola-factor-clearing"})


def cli(t: Tracer) -> tuple[bool, dict]:
    with t.span("lyness.import"):
        from lyness import cli as lyness_cli
    from workloads import check_certificate
    out = io.StringIO()
    with t.span("cli.main"), contextlib.redirect_stdout(out):
        code = lyness_cli.main(["certify", "--no-timing"])
    return check_certificate(out.getvalue().encode(), code), {}


def roster(t: Tracer) -> tuple[bool, dict]:
    """The roster of ``run_full_certificate``, one public call per span, then
    the negative control and the exactalg kernels on the built model."""
    from lyness import certifier, exactalg, model
    from workloads import CERTIFY_COUNTS, CERTIFY_SHA256

    model.build_symbolic_model.cache_clear()
    with t.span("model.build_symbolic_model"):
        sym = model.build_symbolic_model()
    reports = []
    for name, fn in (("identity", lambda: [certifier.verify_delta1_identity()]),
                     ("q2q4", certifier.certify_q2q4),
                     ("q1", certifier.certify_q1),
                     ("q3", certifier.certify_q3),
                     ("segments", certifier.certify_segments)):
        with t.span(f"certifier.{name}"):
            reports.extend(fn())
    reports.sort(key=lambda r: r.step)
    with t.span("certifier.landmark_counts"):
        counts = certifier.landmark_counts()
    summary = certifier.CertificateSummary(
        overall_pass=all(r.passed for r in reports),
        reports=tuple(reports), counts=counts)
    with t.span("certifier.serialize"):
        text = certifier.summary_to_json(summary, include_timing=False)
    ok = (hashlib.sha256((text + "\n").encode()).hexdigest() == CERTIFY_SHA256
          and dict(counts) == CERTIFY_COUNTS)
    with t.span("certifier.negative_control"):
        control = certifier.certify_q1(1 - exactalg.Poly.var("t"))
    ok = ok and any(not r.passed for r in control)

    num = sym.delta2.num
    with t.span("exactalg.mul"):
        square = num * num
    step = certifier.q3_steps()[0]
    with t.span("exactalg.substitute"):
        rf = step.expr
        for stage in step.stages:
            rf = exactalg.substitute(rf, stage)
    with t.span("exactalg.min_coefficient"):
        least, _ = rf.num.min_coefficient()
    ok = ok and step.name == "q3-case-above-diagonal" and least > 0
    out = {f"certifier.step.{r.step}.ms": r.elapsed_ms for r in reports
           if r.step not in UNTIMED_STEPS}
    out.update({
        "exactalg.mul.term_products": num.monomial_count() ** 2,
        "exactalg.mul.terms_out": square.monomial_count(),
        "exactalg.substitute.terms_in": step.expr.num.monomial_count(),
        "exactalg.substitute.terms_out": rf.num.monomial_count(),
        "exactalg.max_coeff_bits": max(
            max(c.numerator.bit_length(), c.denominator.bit_length())
            for c in rf.num.terms.values()),
    })
    return ok, out


def setup(workload: str, seed: str) -> None:
    from workloads import WORKLOADS  # imports lyness
    WORKLOADS[workload]().prepare(int(seed))


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        setup(*argv[1:])
        return 0
    t = Tracer()
    ok, counts = {"cli": cli, "roster": roster}[argv[0]](t)
    print(json.dumps({"ok": ok, "spans": t.spans, "counts": counts}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
