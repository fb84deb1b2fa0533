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

Every substitution step is a row of one table, `CHARTS`: a chart pushes
its expression (by default the two-step difference numerator) through its
bindings once and splits the image into steps.  The one-step claims on q2
and q4 are rows holding the factors of the closed form, each split by its
quadrant map; the two-step claims on q1, q3 and the segments are rows that
map x and y onto one region and split it along the diagonal.  The table
yields both the reports and each report's plane map: `certify_charts`
runs one group of rows under one image of u (u = 1 + t by default;
u = 1 - t is the negative control) in one pass per chart that substitutes
u once, and caches the group's reports; `plane_map` reads one split
step's row on demand and gives x, y, u and A in the report's variables.
`GROUPS` names every certificate group, the exact ``delta1-identity``
check and the groups of `CHARTS`; `run_full_certificate` runs any
selection of them.  Every report, the identity's included, comes from one
builder, which reads the count, the minimum coefficient and its witness
off the expansion; the identity keeps its own verdict, since it holds
only when its cross-difference is the zero polynomial.
"""
from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from functools import lru_cache, partial
from types import MappingProxyType
from typing import NamedTuple

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

#: Moebius coordinates: u*w/(w+1) sweeps 0 < x < u as w runs over w > 0,
#: and u*v/(v+1) does the same for y.
_MOBIUS_W = RationalFn(_U * _W, _W + 1)
_MOBIUS_V = RationalFn(_U * _V, _V + 1)

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


#: The hand-factored closed forms, built once at import.  The one-step
#: difference g - g(T(x, y)) is DELTA1_COFACTOR * LINE_FACTOR *
#: PARABOLA_FACTOR / DELTA1_DENOMINATOR; the q2q4 rows of `CHARTS` certify
#: these very factors, and `verify_delta1_identity` checks their product
#: against the composed model.  The line and parabola factors vanish at the
#: fixed point; _SHIFTED_POLE = (A-1)u + u^2 + y is positive whenever u > 1
#: and y > 0.  DELTA2_DENOMINATOR, the factored denominator of
#: g - g(T(T(x, y))), is read only by ``lyness identity``, yet it is built
#: here too: that costs 0.17 ms (2-core Xeon VM), and every closed form is
#: then held one way.
DELTA1_COFACTOR = _A * (1 + _Y)
LINE_FACTOR = _U - _U * _U + _U * _X - _Y
PARABOLA_FACTOR = _U - _A * _U - _U * _U + _A * _X + _X * _X - _Y
_SHIFTED_POLE = _A * _U + _U * _U - _U + _Y
DELTA1_DENOMINATOR = _X * (_A + _X) * _Y * _SHIFTED_POLE
DELTA1_CLOSED_FORM = RationalFn(DELTA1_COFACTOR * LINE_FACTOR * PARABOLA_FACTOR,
                                DELTA1_DENOMINATOR)
DELTA2_DENOMINATOR = (_X * (_A + _X) * _Y * (_A + _Y) * _SHIFTED_POLE
                      * (-_U + _A * _A * _U + _U * _U + _A * _U * _U
                         - _U * _X + _A * _U * _X + _U * _U * _X + _Y))


class CertificateReport(NamedTuple):
    """Outcome of one certificate step.

    ``witness`` is the graded-lex-smallest monomial attaining
    ``min_coefficient``; on a failing step it is the concrete counterexample
    to all-positivity.  Both are None when the expansion is zero.
    ``passed`` holds when every coefficient is positive, so a zero
    expansion passes; ``delta1-identity`` overrides it and passes only when
    its cross-difference is zero.
    ``expansion`` keeps the expanded polynomial for auditing (witness
    lookup); it is neither serialized nor shown by ``repr``.
    """

    step: str
    region: str
    bindings: tuple[tuple[str, str], ...]
    input_count: int
    output_count: int
    min_coefficient: int | None
    witness: Monomial | None
    passed: bool
    elapsed_ms: float
    expansion: Poly

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self) if name != "expansion")
        return f"CertificateReport({fields})"


class CertificateSummary(NamedTuple):
    """Aggregate of a full certificate run."""

    overall_pass: bool  # all reports passed; a field while bench/ passes it by keyword
    reports: tuple[CertificateReport, ...]
    counts: Mapping[str, int]


def _bindings_of(*stages: Mapping[str, object]) -> tuple[tuple[str, str], ...]:
    return tuple((name, str(image)) for stage in stages for name, image in stage.items())


def _poly_report(name: str, region: str, bindings: tuple[tuple[str, str], ...],
                 input_count: int, expansion: Poly, elapsed_ms: float) -> CertificateReport:
    coeff, mono = (None, None) if expansion.is_zero else expansion.min_coefficient()
    return CertificateReport(
        step=name,
        region=region,
        bindings=bindings,
        input_count=input_count,
        output_count=expansion.monomial_count(),
        min_coefficient=coeff,
        witness=mono,
        passed=coeff is None or coeff > 0,
        elapsed_ms=elapsed_ms,
        expansion=expansion,
    )


# -- step rosters ---------------------------------------------------------------


def verify_delta1_identity() -> CertificateReport:
    """Check that the composed one-step difference equals its factored form.

    The check is exact: the cross-difference num_l*den_r - num_r*den_l must
    expand to the zero polynomial.  A nonzero cross-difference fails the
    report whatever the signs of its coefficients, and the report records
    its minimum coefficient and witness as any other report does.
    """
    start = time.perf_counter()
    lhs = build_symbolic_model().delta1
    rhs = DELTA1_CLOSED_FORM
    cross = lhs.num * rhs.den - rhs.num * lhs.den
    elapsed = (time.perf_counter() - start) * 1000.0
    return _poly_report(
        "delta1-identity",
        "all admissible points; exact equality of two closed forms "
        "of the one-step difference",
        (), lhs.num.monomial_count(), cross, elapsed)._replace(passed=cross.is_zero)


class Chart(NamedTuple):
    """One row of the step table: an expression, a chart, and its splits.

    ``expr`` is the polynomial the row certifies; None stands for the
    two-step difference numerator of the symbolic model.  ``bindings`` maps
    x and y onto chart coordinates (none for the one-step rows); ``expr`` is
    pushed through them once, and the denominator cleared on the way is
    certified by the report ``clearing`` names (``(step name, region)``;
    None when nothing is cleared).  Each split ``(step name, split stage,
    region)`` becomes one step that applies the split stage (none when
    empty), whose images may contain u, and then u = 1 + t; a split
    expansion with a denominator adds a ``<step name>-clearing`` report for
    it.
    """

    bindings: Mapping[str, object]
    splits: tuple[tuple[str, Mapping[str, object], str], ...]
    clearing: tuple[str, str] | None = None
    expr: Poly | None = None


_Q2_MAP = {"x": _MOBIUS_W, "y": _U + _Y0}
_Q4_MAP = {"x": _U + _X0, "y": _MOBIUS_V}

_SEGMENT_CLEARING = ("chart denominator cleared while restricting to the "
                     "segment; must be positive")

#: Every substitution step, by certificate group in run order.  The q2q4
#: rows certify the factors of the one-step difference A(1+y) * F_line *
#: F_parabola over a positive denominator: on q2 both factors are <= 0 and
#: on q4 both are >= 0, so the product is nonnegative and vanishes only at
#: the fixed point.  Each quadrant map takes a positive Moebius coordinate
#: on the bounded side and a nonnegative shift on the unbounded side, which
#: also covers the y = u edge of q2 and the x = u edge of q4.  The two-step
#: rows shift q1 to its corner and split it along its diagonal and its two
#: boundary half-lines; q3 and the coordinate strictly between 0 and u on
#: each open segment use the Moebius chart, whose diagonal v = w is the
#: plane's diagonal y = x.
CHARTS: Mapping[str, tuple[Chart, ...]] = {
    "q2q4": (
        Chart({}, (("delta1-numerator-cofactor", {},
                    "all x, y > 0: cofactor A(1+y) multiplying the two "
                    "sign-carrying factors"),),
              expr=DELTA1_COFACTOR),
        Chart({}, (("delta1-denominator", {},
                    "all x, y > 0 and u > 1: denominator of the factored "
                    "one-step difference"),),
              expr=DELTA1_DENOMINATOR),
        Chart({}, (("q2-line-factor-negated", _Q2_MAP,
                    "q2 with x < u (0 < x < u via w > 0, y = u + y0 with "
                    "y0 >= 0): the line factor is negative there"),),
              expr=-LINE_FACTOR),
        Chart({}, (("q2-parabola-factor-negated", _Q2_MAP,
                    "q2 with x < u: the parabola factor is negative there"),),
              expr=-PARABOLA_FACTOR),
        Chart({}, (("q4-line-factor", _Q4_MAP,
                    "q4 with y < u (x = u + x0 with x0 >= 0, 0 < y < u via "
                    "v > 0): the line factor is positive there"),),
              expr=LINE_FACTOR),
        Chart({}, (("q4-parabola-factor", _Q4_MAP,
                    "q4 with y < u: the parabola factor is positive there"),),
              expr=PARABOLA_FACTOR),
    ),
    "q1": (Chart(
        bindings={"x": _X0 + _U, "y": _Y0 + _U},
        splits=(
            ("q1-case-above-diagonal", {"y0": _X0 + _K},
             "q1 with y >= x: x0 >= 0, y0 = x0 + k with k >= 0"),
            ("q1-case-below-diagonal", {"x0": _Y0 + _K},
             "q1 with x >= y: y0 >= 0, x0 = y0 + k with k >= 0"),
            ("q1-case-diagonal", {"y0": _X0},
             "q1 diagonal y = x: y0 = x0 with x0 >= 0"),
            ("q1-edge-x0-zero", {"x0": 0}, "q1 boundary half-line x = u, y >= u"),
            ("q1-edge-y0-zero", {"y0": 0}, "q1 boundary half-line y = u, x >= u"),
        )),),
    "q3": (Chart(
        bindings={"x": _MOBIUS_W, "y": _MOBIUS_V},
        splits=(
            ("q3-case-above-diagonal", {"v": _W + _K},
             "q3 interior with y >= x: v = w + k with k >= 0"),
            ("q3-case-below-diagonal", {"w": _V + _K},
             "q3 interior with x >= y: w = v + k with k >= 0"),
            ("q3-case-diagonal", {"v": _W}, "q3 interior diagonal y = x: v = w"),
        ),
        clearing=("q3-mobius-clearing",
                  "chart denominator (w+1)^a (v+1)^b cleared while mapping "
                  "onto the interior of q3; must be positive")),),
    "segments": (
        Chart(bindings={"x": _U, "y": _MOBIUS_V},
              splits=(("segment-x-eq-u", {}, "open segment x = u, 0 < y < u (v > 0)"),),
              clearing=("segment-x-eq-u-clearing", _SEGMENT_CLEARING)),
        Chart(bindings={"y": _U, "x": _MOBIUS_W},
              splits=(("segment-y-eq-u", {}, "open segment y = u, 0 < x < u (w > 0)"),),
              clearing=("segment-y-eq-u-clearing", _SEGMENT_CLEARING)),
    ),
}


def _chart_image(chart: Chart) -> RationalFn:
    """The expression of ``chart`` pushed through its bindings.

    The returned denominator is the cleared chart factor, e.g.
    (w+1)^a (v+1)^b for the Moebius chart of q3.
    """
    expr = build_symbolic_model().delta2.num if chart.expr is None else chart.expr
    return substitute(expr, chart.bindings)


@lru_cache(maxsize=None)
def certify_charts(group: str, u_image: Poly, /) -> tuple[CertificateReport, ...]:
    """Certify every chart of ``group`` (a key of `CHARTS`) under u = ``u_image``.

    One pass per chart: the chart image, then u over its numerator, then
    each split with u substituted in the split's images.  The chart yields
    its clearing report, if it names one, timed over the chart image.  Each
    split yields its report, timed over its expansion (the first split's
    also over the u pass, and over the chart image where no clearing
    report took it), and a ``-clearing`` report (0 ms) when the expansion
    has a denominator.  Cached by the two positional arguments: a
    repeated call returns the first run's reports, timings included.
    """
    u_stage = {"u": u_image}
    reports: list[CertificateReport] = []
    for chart in CHARTS[group]:
        start = time.perf_counter()
        image = _chart_image(chart)
        if chart.clearing is not None:
            elapsed = (time.perf_counter() - start) * 1000.0
            name, region = chart.clearing
            reports.append(_poly_report(name, region, _bindings_of(chart.bindings),
                                        image.den.monomial_count(), image.den, elapsed))
            start = time.perf_counter()
        # u first, then each split with u in its images: applying the
        # split before u, or binding the split and u in one call, measured
        # slower, though a stage that binds nothing used is a full copy
        image_u = substitute(image.num, u_stage)
        for name, split, region in chart.splits:
            rf = substitute(image_u, {n: substitute(v, u_stage) for n, v in split.items()})
            elapsed = (time.perf_counter() - start) * 1000.0
            if rf.num.is_zero:
                raise ValueError(f"step {name!r} expanded to the zero polynomial")
            bindings = _bindings_of(chart.bindings, split, u_stage)
            reports.append(_poly_report(name, region, bindings,
                                        image.num.monomial_count(), rf.num, elapsed))
            if not rf.is_polynomial:
                reports.append(_poly_report(
                    f"{name}-clearing",
                    "denominator cleared during the substitution; must be positive",
                    bindings, rf.den.monomial_count(), rf.den, 0.0))
            start = time.perf_counter()
    return tuple(reports)


@lru_cache(maxsize=None)
def plane_map(step: str) -> Mapping[str, RationalFn]:
    """The plane coordinates x, y, u and A of split step ``step``'s variables.

    Composes the three stages of the step's `CHARTS` row: the chart
    bindings, the split, and u = 1 + t.  Evaluating the map at an
    assignment of the report's variables gives the plane point it stands
    for.  Raises KeyError for a name that is not a split step.  Cached per
    name and built only on demand: `certify_charts` never calls it.
    """
    for chart in (chart for charts in CHARTS.values() for chart in charts):
        for name, split, _ in chart.splits:
            if name == step:
                images = {n: RationalFn(Poly.var(n)) for n in ("x", "y", "u", "A")}
                for stage in (chart.bindings, split, {"u": U_POSITIVE}):
                    images = {n: substitute(rf, stage) for n, rf in images.items()}
                return MappingProxyType(images)
    raise KeyError(f"no split step named {step!r}")


class SubstitutionStep(NamedTuple):
    """One split step as the benchmark expands it: ``expr`` under ``stages``."""

    name: str
    expr: RationalFn
    stages: tuple[Mapping[str, object], ...]


def q3_steps() -> tuple[SubstitutionStep, ...]:
    """The split steps of the q3 chart: its image numerator, then split and u.

    Only the benchmark (``bench/child.py``) reads these; this builder and
    `SubstitutionStep` go once it moves to the reports (ROADMAP item 7).
    """
    (chart,) = CHARTS["q3"]
    expr = RationalFn(_chart_image(chart).num)
    return tuple(SubstitutionStep(name, expr, (split, {"u": U_POSITIVE}))
                 for name, split, _ in chart.splits)


def certify_q2q4() -> tuple[CertificateReport, ...]:
    """Certify that the one-step difference is positive on q2 and q4 (cached)."""
    return certify_charts("q2q4", U_POSITIVE)


def certify_q1(u_image: Poly = U_POSITIVE) -> tuple[CertificateReport, ...]:
    """Certify that the two-step difference is positive on q1 (x0, y0 >= 0).

    Passing ``u_image`` = 1 - t violates the standing assumption u > 1 and
    serves as a negative control.  Cached per u image, as `certify_charts`.
    """
    return certify_charts("q1", u_image)


def certify_q3() -> tuple[CertificateReport, ...]:
    """Certify that the two-step difference is positive inside q3 (cached)."""
    return certify_charts("q3", U_POSITIVE)


def certify_segments() -> tuple[CertificateReport, ...]:
    """Certify the two-step difference on both open segments (cached)."""
    return certify_charts("segments", U_POSITIVE)


# -- aggregation ------------------------------------------------------------------


def proportionality_constant(a: Poly, b: Poly) -> Fraction | None:
    """Return c with a == c * b, or None when no such constant exists."""
    if b.is_zero:
        return Fraction(0) if a.is_zero else None
    _, mono = b.min_coefficient()
    c = Fraction(a.coefficient(mono), b.coefficient(mono))
    return c if a * c.denominator == b * c.numerator else None


def landmark_counts() -> dict[str, int]:
    """Monomial counts of the three landmark expansions, as golden anchors.

    ``delta2Numerator`` counts the canonical two-step difference numerator,
    ``eq16`` its corner shift (the q1 chart image), and ``eq17`` the first
    diagonal sector expansion of the shift (keys follow the published report
    schema).  The last two are the input and output counts of the
    ``q1-case-above-diagonal`` report of the cached q1 group.
    """
    above = next(r for r in certify_charts("q1", U_POSITIVE)
                 if r.step == "q1-case-above-diagonal")
    return {
        "delta2Numerator": build_symbolic_model().delta2.num.monomial_count(),
        "eq16": above.input_count,
        "eq17": above.output_count,
    }


#: Certificate groups by name, in run order; ``lyness certify --step`` picks one.
GROUPS: Mapping[str, Callable[[], tuple[CertificateReport, ...]]] = {
    "identity": lambda: (verify_delta1_identity(),),
    **{group: partial(certify_charts, group, U_POSITIVE) for group in CHARTS},
}


def run_full_certificate(groups: Iterable[str] = tuple(GROUPS)) -> CertificateSummary:
    """Run the named certificate groups (all by default) into one summary.

    Reports are sorted by step name.  Counts record the monomial sizes of
    the three landmark expansions: the two-step difference numerator, its
    corner shift, and the first diagonal sector expansion.
    """
    build_symbolic_model()  # outside the delta1-identity report's timer
    reports = sorted((r for name in groups for r in GROUPS[name]()),
                     key=lambda r: r.step)
    return CertificateSummary(
        overall_pass=all(r.passed for r in reports),
        reports=tuple(reports),
        counts=landmark_counts(),
    )


# -- serialization ----------------------------------------------------------------


def summary_to_json(summary: CertificateSummary, include_timing: bool = True) -> str:
    """Render a certificate run as JSON, with a schema-stable key order."""
    steps = []
    for r in summary.reports:
        step = {
            "step": r.step,
            "region": r.region,
            "bindings": dict(r.bindings),
            "inputCount": r.input_count,
            "outputCount": r.output_count,
            "minCoefficient": None if r.min_coefficient is None else f"{r.min_coefficient}/1",
            "witness": None if r.witness is None else mono_text(r.witness),
            "allPositive": r.passed,
            "allInteger": True,  # by construction: every expansion is a `Poly` over the integers
        }
        if include_timing:
            step["elapsedMs"] = round(r.elapsed_ms, 3)
        steps.append(step)
    return json.dumps({"overallPass": summary.overall_pass, "steps": steps,
                       "counts": dict(summary.counts)}, indent=2)


def summary_to_text(summary: CertificateSummary) -> str:
    """Human-readable table of a certificate run; the step column is as wide
    as the longest step name, so every row's ``terms`` lines up."""
    lines = []
    width = max((len(r.step) for r in summary.reports), default=0)
    for r in summary.reports:
        coeff = "-" if r.min_coefficient is None else str(r.min_coefficient)
        verdict = "pass" if r.passed else "FAIL"
        lines.append(f"{verdict}  {r.step:{width}s} terms {r.input_count:4d} -> "
                     f"{r.output_count:4d}  min coeff {coeff}")
    lines.append(f"counts: {dict(summary.counts)}")
    lines.append(STRICTNESS_ASSUMPTION)
    lines.append("overall: " + ("PASS" if summary.overall_pass else "FAIL"))
    return "\n".join(lines)
