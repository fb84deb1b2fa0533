"""Exact positivity certificates for the Lyapunov descent of the planar map.

The invariant function g strictly decreases along orbits of the map T away
from the fixed point (u, u): one application of T lowers g on the two
quadrants where the coordinates straddle u, and two applications lower it on
the remaining two quadrants and on the open segments joining them to the
axes.  Each of those sign claims reduces, after an explicit change of
variables with strictly positive parameters, to a polynomial all of whose
expanded coefficients are positive.  This module performs the reductions
with exact rational arithmetic and turns each one into a machine-checkable
report: the substitutions applied, the monomial counts before and after,
the minimum coefficient together with a monomial attaining it, and a
pass/fail verdict with a concrete witness monomial on failure.

Report names follow the plane geometry: ``q1`` .. ``q4`` are the closed
quadrants around the fixed point (``q1``: both coordinates >= u, ``q2``:
x <= u <= y, ``q3``: both <= u, ``q4``: y <= u <= x), and ``segment-x-eq-u``
/ ``segment-y-eq-u`` are the open segments between the fixed point and the
axes.  Steps whose name ends in ``-clearing`` certify the positivity of a
denominator that was cleared while substituting.
"""
from __future__ import annotations

import json
import os
import time
from collections.abc import Callable, Mapping
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .exactalg import Monomial, Poly, RationalFn, mono_text, substitute
from .model import build_symbolic_model

_X = Poly.var("x")
_Y = Poly.var("y")
_U = Poly.var("u")
_A = Poly.var("A")
_T = Poly.var("t")
_K = Poly.var("k")
_X0 = Poly.var("x0")
_Y0 = Poly.var("y0")
_W = Poly.var("w")
_V = Poly.var("v")

#: Default normalization of the equilibrium coordinate: u = 1 + t with t > 0
#: encodes the standing assumption u > 1.
U_POSITIVE = 1 + _T

#: Strictness note attached to human-readable output.  All-positive expanded
#: coefficients certify only non-negativity in general; strict positivity at
#: interior points holds because every substituted parameter is strictly
#: positive there and each expansion contains at least one monomial that does
#: not vanish.  The pipeline records this as a standing assumption instead of
#: re-deriving it per step.
STRICTNESS_ASSUMPTION = (
    "strictness: all-positive coefficients imply strict positivity at interior "
    "points because all substituted parameters are strictly positive there "
    "(standing assumption, not re-proved per step)"
)


def line_factor() -> Poly:
    """Factor of the one-step difference numerator vanishing on a line."""
    return _U - _U * _U + _U * _X - _Y


def parabola_factor() -> Poly:
    """Factor of the one-step difference numerator vanishing on a parabola."""
    return _U - _A * _U - _U * _U + _A * _X + _X * _X - _Y


def shifted_pole() -> Poly:
    """The factor (A-1)u + u^2 + y, positive whenever u > 1 and y > 0."""
    return _A * _U + _U * _U - _U + _Y


def delta1_closed_form() -> RationalFn:
    """Factored closed form of the one-step difference g - g(T(x, y))."""
    num = _A * (1 + _Y) * line_factor() * parabola_factor()
    den = _X * (_A + _X) * _Y * shifted_pole()
    return RationalFn(num, den)


def delta1_denominator() -> Poly:
    """Denominator of the factored one-step difference."""
    return _X * (_A + _X) * _Y * shifted_pole()


def delta2_denominator() -> Poly:
    """Denominator of the two-step difference g - g(T(T(x, y)))."""
    pole2 = (
        -_U + _A * _A * _U + _U * _U + _A * _U * _U
        - _U * _X + _A * _U * _X + _U * _U * _X + _Y
    )
    return _X * (_A + _X) * _Y * (_A + _Y) * shifted_pole() * pole2


@dataclass(frozen=True)
class SubstitutionStep:
    """One positivity claim: ``expr`` under ``context`` then ``stages``.

    ``context`` lists substitutions already applied while building ``expr``
    (kept for reporting and for mapping parameter points back to the plane);
    ``stages`` are applied by the runner, in order, each stage
    simultaneously.  ``delta_index`` records which Lyapunov difference the
    enclosing region claim concerns (1, 2, or None for bookkeeping steps).
    """

    name: str
    region: str
    expr: RationalFn
    context: tuple[Mapping[str, object], ...] = ()
    stages: tuple[Mapping[str, object], ...] = ()
    require_integer: bool = False
    delta_index: int | None = None


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of one certificate step.

    ``witness`` is the graded-lex-smallest monomial attaining
    ``min_coefficient``; on a failing step it is the concrete counterexample
    to all-positivity.  ``expansion`` keeps the expanded polynomial for
    auditing (witness lookup); it is not serialized.
    """

    step: str
    region: str
    bindings: tuple[tuple[str, str], ...]
    input_count: int
    output_count: int
    min_coefficient: Fraction | None
    witness: Monomial | None
    all_positive: bool
    all_integer: bool
    elapsed_ms: float
    require_integer: bool = False
    expansion: Poly | None = field(default=None, repr=False, compare=False)

    @property
    def passed(self) -> bool:
        if self.require_integer and not self.all_integer:
            return False
        return self.all_positive


@dataclass(frozen=True)
class CertificateSummary:
    """Aggregate of a full certificate run."""

    overall_pass: bool
    reports: tuple[CertificateReport, ...]
    counts: Mapping[str, int]

    def report(self, step: str) -> CertificateReport:
        for r in self.reports:
            if r.step == step:
                return r
        raise KeyError(f"no report named {step!r}")


def _binding_text(image: object) -> str:
    if isinstance(image, RationalFn):
        if image.den == Poly.const(1):
            return image.num.to_text()
        return f"({image.num.to_text()})/({image.den.to_text()})"
    if isinstance(image, Poly):
        return image.to_text()
    return str(Fraction(image))


def _bindings_of(step: SubstitutionStep) -> tuple[tuple[str, str], ...]:
    out: list[tuple[str, str]] = []
    for stage in (*step.context, *step.stages):
        for name, image in stage.items():
            out.append((name, _binding_text(image)))
    return tuple(out)


def _poly_report(name: str, region: str, bindings: tuple[tuple[str, str], ...],
                 input_count: int, expansion: Poly, elapsed_ms: float,
                 require_integer: bool = False) -> CertificateReport:
    if expansion.is_zero:
        raise ValueError(f"step {name!r} expanded to the zero polynomial")
    coeff, mono = expansion.min_coefficient()
    return CertificateReport(
        step=name,
        region=region,
        bindings=bindings,
        input_count=input_count,
        output_count=expansion.monomial_count(),
        min_coefficient=coeff,
        witness=mono,
        all_positive=coeff > 0,
        all_integer=expansion.is_integral,
        elapsed_ms=elapsed_ms,
        require_integer=require_integer,
        expansion=expansion,
    )


def _expand(step: SubstitutionStep) -> RationalFn:
    """Apply the step's stages, in order, to its expression."""
    rf = step.expr
    for stage in step.stages:
        rf = substitute(rf, stage)
    return rf


def _run_step(step: SubstitutionStep,
              expanded: Callable[[], RationalFn] | None = None) -> list[CertificateReport]:
    """Expand the step and report on numerator and clearing factor.

    ``expanded`` supplies an expansion computed elsewhere (see
    `certify_q1`); by default the step's stages are applied here.
    """
    start = time.perf_counter()
    rf = _expand(step) if expanded is None else expanded()
    elapsed = (time.perf_counter() - start) * 1000.0
    bindings = _bindings_of(step)
    reports = [
        _poly_report(step.name, step.region, bindings,
                     step.expr.num.monomial_count(), rf.num, elapsed,
                     step.require_integer)
    ]
    if rf.den != Poly.const(1):
        reports.append(_poly_report(
            f"{step.name}-clearing",
            "denominator cleared during the substitution; must be positive",
            bindings, rf.den.monomial_count(), rf.den, 0.0))
    return reports


def map_to_plane(step: SubstitutionStep,
                 assignment: Mapping[str, object]) -> dict[str, Fraction]:
    """Map an assignment of a step's parameters to a plane point.

    Pushes the coordinate functions x, y, u, A through the step's context
    and stages and evaluates at ``assignment`` (which must bind every
    remaining parameter, including A).  Returns {"x": .., "y": .., "u": ..,
    "A": ..} as exact rationals.
    """
    images = {n: RationalFn(Poly.var(n)) for n in ("x", "y", "u", "A")}
    for stage in (*step.context, *step.stages):
        images = {n: substitute(rf, stage) for n, rf in images.items()}
    return {n: rf.evaluate(assignment) for n, rf in images.items()}


# -- step rosters ---------------------------------------------------------------


def verify_delta1_identity(closed_form: RationalFn | None = None) -> CertificateReport:
    """Check that the composed one-step difference equals its factored form.

    The check is exact: the cross-difference num_l*den_r - num_r*den_l must
    expand to the zero polynomial.  A nonzero cross-difference fails the
    report and its graded-lex-smallest monomial is recorded as the witness
    (``closed_form`` lets callers probe that failure path with a mutated
    right-hand side).
    """
    start = time.perf_counter()
    lhs = build_symbolic_model().delta1
    rhs = delta1_closed_form() if closed_form is None else closed_form
    cross = lhs.num * rhs.den - rhs.num * lhs.den
    elapsed = (time.perf_counter() - start) * 1000.0
    holds = cross.is_zero
    coeff, mono = (None, None) if holds else cross.min_coefficient()
    return CertificateReport(
        step="delta1-identity",
        region="all admissible points; exact equality of two closed forms "
               "of the one-step difference",
        bindings=(),
        input_count=lhs.num.monomial_count(),
        output_count=cross.monomial_count(),
        min_coefficient=coeff,
        witness=mono,
        all_positive=holds,
        all_integer=cross.is_integral,
        elapsed_ms=elapsed,
        expansion=cross,
    )


def q2q4_steps() -> tuple[SubstitutionStep, ...]:
    """Steps certifying the one-step difference on q2 and q4.

    The difference factors as A(1+y) * F_line * F_parabola over a positive
    denominator; on q2 both factors are <= 0 and on q4 both are >= 0, so the
    product is nonnegative and vanishes only at the fixed point.  Quadrant
    interiors are parameterized by a positive Moebius coordinate on the
    bounded side and a nonnegative shift on the unbounded side, which also
    covers the y = u edge of q2 and the x = u edge of q4.
    """
    f1, f2 = line_factor(), parabola_factor()
    q2_stage = {"x": RationalFn(_U * _W, _W + 1), "y": _U + _Y0}
    q4_stage = {"x": _U + _X0, "y": RationalFn(_U * _V, _V + 1)}
    u_stage = {"u": U_POSITIVE}
    return (
        SubstitutionStep(
            name="delta1-numerator-cofactor",
            region="all x, y > 0: cofactor A(1+y) multiplying the two "
                   "sign-carrying factors",
            expr=RationalFn(_A * (1 + _Y)),
            stages=(u_stage,),
        ),
        SubstitutionStep(
            name="delta1-denominator",
            region="all x, y > 0 and u > 1: denominator of the factored "
                   "one-step difference",
            expr=RationalFn(delta1_denominator()),
            stages=(u_stage,),
        ),
        SubstitutionStep(
            name="q2-line-factor-negated",
            region="q2 with x < u (0 < x < u via w > 0, y = u + y0 with "
                   "y0 >= 0): the line factor is negative there",
            expr=RationalFn(-f1),
            stages=(q2_stage, u_stage),
            delta_index=1,
        ),
        SubstitutionStep(
            name="q2-parabola-factor-negated",
            region="q2 with x < u: the parabola factor is negative there",
            expr=RationalFn(-f2),
            stages=(q2_stage, u_stage),
            delta_index=1,
        ),
        SubstitutionStep(
            name="q4-line-factor",
            region="q4 with y < u (x = u + x0 with x0 >= 0, 0 < y < u via "
                   "v > 0): the line factor is positive there",
            expr=RationalFn(f1),
            stages=(q4_stage, u_stage),
            delta_index=1,
        ),
        SubstitutionStep(
            name="q4-parabola-factor",
            region="q4 with y < u: the parabola factor is positive there",
            expr=RationalFn(f2),
            stages=(q4_stage, u_stage),
            delta_index=1,
        ),
    )


def certify_q2q4() -> list[CertificateReport]:
    """Certify that the one-step difference is positive on q2 and q4."""
    reports: list[CertificateReport] = []
    for step in q2q4_steps():
        reports.extend(_run_step(step))
    return reports


@lru_cache(maxsize=1)
def shifted_numerator() -> Poly:
    """Two-step difference numerator in corner coordinates x0 = x - u, y0 = y - u."""
    num = build_symbolic_model().delta2.num
    return substitute(num, {"x": _X0 + _U, "y": _Y0 + _U}).num


_Q1_SHIFT: tuple[Mapping[str, object], ...] = (
    {"x": _X0 + _U, "y": _Y0 + _U},
)


def q1_steps(u_image: RationalFn | Poly | None = None) -> tuple[SubstitutionStep, ...]:
    """Steps certifying the two-step difference on q1 (x0, y0 >= 0).

    The quadrant splits along its diagonal; each part, and each boundary
    half-line, expands to a polynomial with all-positive integer
    coefficients.  ``u_image`` overrides the default binding u -> 1 + t;
    passing 1 - t violates the standing assumption u > 1 and serves as a
    negative control.
    """
    u_stage = {"u": U_POSITIVE if u_image is None else u_image}
    expr = RationalFn(shifted_numerator())
    return (
        SubstitutionStep(
            name="q1-case-above-diagonal",
            region="q1 with y >= x: x0 >= 0, y0 = x0 + k with k >= 0",
            expr=expr,
            context=_Q1_SHIFT,
            stages=({"y0": _X0 + _K}, u_stage),
            require_integer=True,
            delta_index=2,
        ),
        SubstitutionStep(
            name="q1-case-below-diagonal",
            region="q1 with x >= y: y0 >= 0, x0 = y0 + k with k >= 0",
            expr=expr,
            context=_Q1_SHIFT,
            stages=({"x0": _Y0 + _K}, u_stage),
            require_integer=True,
            delta_index=2,
        ),
        SubstitutionStep(
            name="q1-case-diagonal",
            region="q1 diagonal y = x: y0 = x0 with x0 >= 0",
            expr=expr,
            context=_Q1_SHIFT,
            stages=({"y0": _X0}, u_stage),
            require_integer=True,
            delta_index=2,
        ),
        SubstitutionStep(
            name="q1-edge-x0-zero",
            region="q1 boundary half-line x = u, y >= u",
            expr=expr,
            context=_Q1_SHIFT,
            stages=({"x0": 0}, u_stage),
            require_integer=True,
            delta_index=2,
        ),
        SubstitutionStep(
            name="q1-edge-y0-zero",
            region="q1 boundary half-line y = u, x >= u",
            expr=expr,
            context=_Q1_SHIFT,
            stages=({"y0": 0}, u_stage),
            require_integer=True,
            delta_index=2,
        ),
    )


@lru_cache(maxsize=1)
def _eq17_sector() -> RationalFn:
    """The q1-case-above-diagonal expansion under the default u = 1 + t.

    It is also the ``eq17`` landmark of `landmark_counts`, so both share
    this one expansion.
    """
    return _expand(q1_steps()[0])


def certify_q1(u_image: RationalFn | Poly | None = None) -> list[CertificateReport]:
    """Certify that the two-step difference is positive on q1."""
    reports: list[CertificateReport] = []
    for step in q1_steps(u_image):
        shared = u_image is None and step.name == "q1-case-above-diagonal"
        reports.extend(_run_step(step, _eq17_sector if shared else None))
    return reports


_Q3_MOBIUS: Mapping[str, object] = {
    "x": RationalFn(_U * _W, _W + 1),
    "y": RationalFn(_U * _V, _V + 1),
}


@lru_cache(maxsize=1)
def _q3_transformed() -> RationalFn:
    """Two-step difference numerator pushed through the q3 interior chart.

    The chart (w, v) -> (u*w/(w+1), u*v/(v+1)) is one-to-one from the open
    positive quadrant onto the interior of q3; the returned denominator is
    the cleared chart factor (w+1)^a (v+1)^b.
    """
    num = build_symbolic_model().delta2.num
    return substitute(num, _Q3_MOBIUS)


def q3_steps() -> tuple[SubstitutionStep, ...]:
    """Steps certifying the two-step difference on the interior of q3.

    Subcases split along the diagonal of the chart coordinates (w, v), which
    corresponds to the diagonal y = x of the plane.
    """
    expr = RationalFn(_q3_transformed().num)
    u_stage = {"u": U_POSITIVE}
    context = (_Q3_MOBIUS,)
    return (
        SubstitutionStep(
            name="q3-case-above-diagonal",
            region="q3 interior with y >= x: v = w + k with k >= 0",
            expr=expr,
            context=context,
            stages=({"v": _W + _K}, u_stage),
            delta_index=2,
        ),
        SubstitutionStep(
            name="q3-case-below-diagonal",
            region="q3 interior with x >= y: w = v + k with k >= 0",
            expr=expr,
            context=context,
            stages=({"w": _V + _K}, u_stage),
            delta_index=2,
        ),
        SubstitutionStep(
            name="q3-case-diagonal",
            region="q3 interior diagonal y = x: v = w",
            expr=expr,
            context=context,
            stages=({"v": _W}, u_stage),
            delta_index=2,
        ),
    )


def certify_q3() -> list[CertificateReport]:
    """Certify that the two-step difference is positive inside q3."""
    start = time.perf_counter()
    chart = _q3_transformed()
    elapsed = (time.perf_counter() - start) * 1000.0
    bindings = tuple((n, _binding_text(img)) for n, img in _Q3_MOBIUS.items())
    reports = [_poly_report(
        "q3-mobius-clearing",
        "chart denominator (w+1)^a (v+1)^b cleared while mapping onto the "
        "interior of q3; must be positive",
        bindings, chart.den.monomial_count(), chart.den, elapsed)]
    for step in q3_steps():
        reports.extend(_run_step(step))
    return reports


_SEGMENT_CHARTS: Mapping[str, Mapping[str, object]] = {
    "segment-x-eq-u": {"x": _U, "y": RationalFn(_U * _V, _V + 1)},
    "segment-y-eq-u": {"y": _U, "x": RationalFn(_U * _W, _W + 1)},
}


@lru_cache(maxsize=None)
def _segment_transformed(name: str) -> RationalFn:
    """Two-step difference numerator restricted to one open segment.

    The returned denominator is the cleared chart factor; the restriction is
    shared by the segment's clearing report and its step.
    """
    return substitute(build_symbolic_model().delta2.num, _SEGMENT_CHARTS[name])


def segment_steps() -> tuple[SubstitutionStep, ...]:
    """Steps certifying the two-step difference on the open segments.

    The segments run from the fixed point toward the axes along x = u and
    y = u; the coordinate strictly between 0 and u is parameterized by the
    same Moebius chart as q3.
    """
    u_stage = {"u": U_POSITIVE}
    regions = {"segment-x-eq-u": "open segment x = u, 0 < y < u (v > 0)",
               "segment-y-eq-u": "open segment y = u, 0 < x < u (w > 0)"}
    return tuple(
        SubstitutionStep(
            name=name,
            region=region,
            expr=RationalFn(_segment_transformed(name).num),
            context=(_SEGMENT_CHARTS[name],),
            stages=(u_stage,),
            delta_index=2,
        )
        for name, region in regions.items())


def certify_segments() -> list[CertificateReport]:
    """Certify the two-step difference on both open segments."""
    reports: list[CertificateReport] = []
    for name, chart in _SEGMENT_CHARTS.items():
        start = time.perf_counter()
        rf = _segment_transformed(name)
        elapsed = (time.perf_counter() - start) * 1000.0
        bindings = tuple((n, _binding_text(img)) for n, img in chart.items())
        reports.append(_poly_report(
            f"{name}-clearing",
            "chart denominator cleared while restricting to the segment; "
            "must be positive",
            bindings, rf.den.monomial_count(), rf.den, elapsed))
    for step in segment_steps():
        reports.extend(_run_step(step))
    return reports


# -- aggregation ------------------------------------------------------------------


def proportionality_constant(a: Poly, b: Poly) -> Fraction | None:
    """Return c with a == c * b, or None when no such constant exists."""
    if b.is_zero:
        return Fraction(0) if a.is_zero else None
    _, mono = b.min_coefficient()
    c = a.coefficient(mono) / b.coefficient(mono)
    return c if a == b * c else None


@lru_cache(maxsize=1)
def landmark_counts() -> dict:
    """Monomial counts of the three landmark expansions, as golden anchors.

    ``delta2Numerator`` counts the canonical two-step difference numerator,
    ``eq16`` its corner shift, and ``eq17`` the first diagonal sector
    expansion of the shift (keys follow the published report schema).
    """
    return {
        "delta2Numerator": build_symbolic_model().delta2.num.monomial_count(),
        "eq16": shifted_numerator().monomial_count(),
        "eq17": _eq17_sector().num.monomial_count(),
    }


def _thread_count(threads: int | None) -> int:
    if threads is not None:
        return max(1, threads)
    raw = os.environ.get("LYNESS_THREADS", "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError as exc:
            raise ValueError(f"LYNESS_THREADS must be an integer, got {raw!r}") from exc
    return 1


def run_full_certificate(threads: int | None = None) -> CertificateSummary:
    """Run every certificate group and aggregate into one summary.

    Groups are independent once the symbolic model is built and may run on
    worker threads (``threads`` argument, else the LYNESS_THREADS
    environment variable); reports are merged by sorting on step name, so
    the output does not depend on scheduling.  Counts record the monomial
    sizes of the three landmark expansions: the two-step difference
    numerator, its corner shift, and the first diagonal sector expansion.
    """
    build_symbolic_model()
    groups = (certify_q2q4, certify_q1, certify_q3, certify_segments)
    reports: list[CertificateReport] = [verify_delta1_identity()]
    n = _thread_count(threads)
    if n > 1:
        with ThreadPoolExecutor(max_workers=n) as pool:
            for part in pool.map(lambda fn: fn(), groups):
                reports.extend(part)
    else:
        for fn in groups:
            reports.extend(fn())
    reports.sort(key=lambda r: r.step)
    return CertificateSummary(
        overall_pass=all(r.passed for r in reports),
        reports=tuple(reports),
        counts=landmark_counts(),
    )


# -- serialization ----------------------------------------------------------------


def report_to_dict(report: CertificateReport, include_timing: bool = True) -> dict:
    """Render one report as a JSON-ready mapping (schema-stable key order)."""
    out = {
        "step": report.step,
        "region": report.region,
        "bindings": {name: text for name, text in report.bindings},
        "inputCount": report.input_count,
        "outputCount": report.output_count,
        "minCoefficient": None if report.min_coefficient is None else
            f"{report.min_coefficient.numerator}/{report.min_coefficient.denominator}",
        "witness": None if report.witness is None else mono_text(report.witness),
        "allPositive": report.all_positive,
        "allInteger": report.all_integer,
    }
    if include_timing:
        out["elapsedMs"] = round(report.elapsed_ms, 3)
    return out


def summary_to_dict(summary: CertificateSummary, include_timing: bool = True) -> dict:
    return {
        "overallPass": summary.overall_pass,
        "steps": [report_to_dict(r, include_timing) for r in summary.reports],
        "counts": dict(summary.counts),
    }


def summary_to_json(summary: CertificateSummary, include_timing: bool = True) -> str:
    return json.dumps(summary_to_dict(summary, include_timing), indent=2)


def summary_to_text(summary: CertificateSummary) -> str:
    """Human-readable table of a certificate run."""
    lines = []
    for r in summary.reports:
        coeff = "-" if r.min_coefficient is None else str(r.min_coefficient)
        verdict = "pass" if r.passed else "FAIL"
        lines.append(f"{verdict}  {r.step:32s} terms {r.input_count:4d} -> "
                     f"{r.output_count:4d}  min coeff {coeff}")
    lines.append(f"counts: {dict(summary.counts)}")
    lines.append(STRICTNESS_ASSUMPTION)
    lines.append("overall: " + ("PASS" if summary.overall_pass else "FAIL"))
    return "\n".join(lines)
