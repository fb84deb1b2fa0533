"""Tests for the positivity-certificate pipeline."""

import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from lyness import certifier
from lyness.certifier import (
    DELTA1_CLOSED_FORM,
    DELTA1_DENOMINATOR,
    DELTA2_DENOMINATOR,
    LINE_FACTOR,
    PARABOLA_FACTOR,
    STRICTNESS_ASSUMPTION,
    U_POSITIVE,
    certify_q1,
    certify_q2q4,
    certify_q3,
    certify_segments,
    landmark_counts,
    plane_map,
    proportionality_constant,
    run_full_certificate,
    summary_to_json,
    summary_to_text,
    verify_delta1_identity,
)
from lyness.exactalg import Poly, RationalFn, mono_text, substitute, var_id
from lyness.model import build_symbolic_model, eval_delta


def mono(**exps):
    """Build a monomial key from variable-name keyword exponents."""
    return tuple(sorted((var_id(n), e) for n, e in exps.items()))


# the full roster is deliberately frozen: a disappearing or renamed step is a
# regression even if everything still passes
EXPECTED_ROSTER = {
    "delta1-denominator": (10, 1),
    "delta1-identity": (0, None),
    "delta1-numerator-cofactor": (2, 1),
    "q1-case-above-diagonal": (371, 1),
    "q1-case-below-diagonal": (379, 1),
    "q1-case-diagonal": (94, 2),
    "q1-edge-x0-zero": (65, 1),
    "q1-edge-y0-zero": (67, 1),
    "q2-line-factor-negated": (5, 1),
    "q2-line-factor-negated-clearing": (2, 1),
    "q2-parabola-factor-negated": (13, 1),
    "q2-parabola-factor-negated-clearing": (3, 1),
    "q3-case-above-diagonal": (1261, 1),
    "q3-case-below-diagonal": (1137, 1),
    "q3-case-diagonal": (284, 1),
    "q3-mobius-clearing": (30, 1),
    "q4-line-factor": (6, 1),
    "q4-line-factor-clearing": (2, 1),
    "q4-parabola-factor": (10, 1),
    "q4-parabola-factor-clearing": (2, 1),
    "segment-x-eq-u": (156, 1),
    "segment-x-eq-u-clearing": (6, 1),
    "segment-y-eq-u": (119, 1),
    "segment-y-eq-u-clearing": (5, 1),
}


@pytest.fixture(scope="module")
def summary():
    return run_full_certificate()


# ---------------------------------------------------------------------------
# full run
# ---------------------------------------------------------------------------


def test_full_certificate_passes(summary):
    assert summary.overall_pass
    assert len(summary.reports) >= 12
    assert all(r.passed for r in summary.reports)


def test_full_certificate_roster_frozen(summary):
    got = {r.step: (r.output_count, r.min_coefficient) for r in summary.reports}
    assert got == EXPECTED_ROSTER


def test_chart_rows_name_every_substitution_report():
    # one table: GROUPS is read from CHARTS, and the rows' splits, clearings
    # and the clearings of rational split expansions are the whole roster
    # apart from the exact delta1 identity
    assert set(certifier.GROUPS) == {"identity", *certifier.CHARTS}
    names = {"delta1-identity"}
    for charts in certifier.CHARTS.values():
        for chart in charts:
            expr = build_symbolic_model().delta2.num if chart.expr is None else chart.expr
            image = substitute(expr, chart.bindings).num
            for name, split, _ in chart.splits:
                names.add(name)
                if not substitute(substitute(image, split), {"u": U_POSITIVE}).is_polynomial:
                    names.add(f"{name}-clearing")
        names |= {chart.clearing[0] for chart in charts if chart.clearing is not None}
    assert names == set(EXPECTED_ROSTER)


def test_reports_sorted_by_step_name(summary):
    names = [r.step for r in summary.reports]
    assert names == sorted(names)


def test_landmark_counts(summary):
    assert dict(summary.counts) == {"delta2Numerator": 277, "eq16": 233, "eq17": 371}
    assert landmark_counts() == summary.counts


def test_cached_groups_and_landmarks_substitute_nothing(monkeypatch):
    # one cache: after a cold full run, the landmarks and a second call of
    # every group reuse the first run's reports without one substitution
    calls = []

    def counting_substitute(*args):
        calls.append(args)
        return substitute(*args)

    monkeypatch.setattr(certifier, "substitute", counting_substitute)
    certifier.certify_charts.cache_clear()
    first = run_full_certificate()
    assert calls
    calls.clear()
    assert landmark_counts() == first.counts
    for name, group in certifier.GROUPS.items():
        reports = group()
        if name != "identity":
            assert all(any(r is f for f in first.reports) for r in reports), name
    assert calls == []


def test_sector_expansions_are_integer(summary):
    for r in summary.reports:
        assert all(c.denominator == 1 for c in r.expansion.terms.values())


def test_report_lookup(summary):
    # step names are unique, so a report is looked up by its name
    reports = {r.step: r for r in summary.reports}
    assert len(reports) == len(summary.reports)
    assert reports["q1-case-diagonal"].output_count == 94


# ---------------------------------------------------------------------------
# landmark coefficient anchors
# ---------------------------------------------------------------------------


def test_delta2_numerator_coefficient_anchors():
    num = build_symbolic_model().delta2.num
    assert num.monomial_count() == 277
    assert num.coefficient(mono(A=2, u=3)) == -1
    assert num.coefficient(mono(A=3, u=3)) == 1
    assert num.coefficient(mono(A=4, u=3)) == 1
    assert num.coefficient(mono(A=5, u=3)) == -1
    assert num.coefficient(mono(A=2, u=1, x=2, y=4)) == 2
    assert num.coefficient(mono(A=1, u=1, x=3, y=4)) == 1
    assert num.coefficient(mono(A=1, y=5)) == 1


def test_corner_shift_coefficient_anchors():
    (chart,) = certifier.CHARTS["q1"]
    image = substitute(build_symbolic_model().delta2.num, chart.bindings)
    assert image.is_polynomial  # the corner shift clears no denominator
    shift = image.num
    assert shift.monomial_count() == 233
    assert shift.coefficient(mono(A=1, u=4, x0=2)) == 1
    assert shift.coefficient(mono(A=1, u=5, x0=2)) == 1
    assert shift.coefficient(mono(A=1, u=6, x0=2)) == 2
    assert shift.coefficient(mono(A=1, u=7, x0=2)) == 2
    assert shift.coefficient(mono(A=1, u=3, x0=3)) == 2
    # the shift is still sign-mixed; positivity only appears per sector
    assert shift.coefficient(mono(A=1, u=4, x0=3)) == -1
    assert shift.min_coefficient()[0] < 0


def test_sector_expansion_coefficient_anchors(summary):
    (sector,) = (r.expansion for r in summary.reports if r.step == "q1-case-above-diagonal")
    assert sector.monomial_count() == 371
    assert sector.coefficient(mono(A=1, k=2)) == 2
    assert sector.coefficient(mono(A=2, k=2)) == 8
    assert sector.coefficient(mono(A=1, t=1, x0=7)) == 2
    assert sector.min_coefficient()[0] == 1


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


def test_delta1_identity_holds():
    report = verify_delta1_identity()
    assert report.passed
    assert report.output_count == 0
    assert report.witness is None
    assert report.min_coefficient is None


def test_delta1_identity_detects_mutation(monkeypatch):
    cf = DELTA1_CLOSED_FORM
    x, y, u, A = (Poly.var(n) for n in ("x", "y", "u", "A"))
    bad = RationalFn(cf.num + x ** 3 * y ** 3 * u ** 2 * A ** 2, cf.den)
    monkeypatch.setattr(certifier, "DELTA1_CLOSED_FORM", bad)
    report = verify_delta1_identity()
    assert not report.passed
    assert report.output_count == 8
    assert report.min_coefficient == -1
    assert mono_text(report.witness) == "A^3*u^2*x^4*y^6"
    # the witness really attains the reported coefficient
    assert report.expansion.coefficient(report.witness) == report.min_coefficient


def test_delta1_identity_fails_on_an_all_positive_cross_difference(monkeypatch):
    # the identity holds only when the cross-difference vanishes: here it is
    # x, nonzero with every coefficient positive, so the positivity rule of
    # the other reports would pass it
    x = Poly.var("x")
    model = build_symbolic_model()._replace(delta1=RationalFn(x + 1))
    monkeypatch.setattr(certifier, "build_symbolic_model", lambda: model)
    monkeypatch.setattr(certifier, "DELTA1_CLOSED_FORM", RationalFn(1))
    report = verify_delta1_identity()
    assert not report.passed
    assert report.output_count == 1
    assert report.min_coefficient == 1
    assert mono_text(report.witness) == "x"


def test_a_split_that_expands_to_zero_is_refused(monkeypatch):
    monkeypatch.setitem(certifier.CHARTS, "zero-test",
                        (certifier.Chart({}, (("zero-step", {}, "r"),), expr=Poly()),))
    with pytest.raises(ValueError, match="'zero-step'"):
        certifier.certify_charts("zero-test", U_POSITIVE)


def test_a_chart_image_without_a_clearing_is_charged_to_the_first_split(monkeypatch):
    # the q1 chart names no clearing report: the time of its image goes
    # into its first split's report instead of to no report
    clock = [0.0]
    image = certifier._chart_image

    def slow_image(chart):
        if chart is certifier.CHARTS["q1"][0]:
            clock[0] += 1.0
        return image(chart)

    monkeypatch.setattr(certifier, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    monkeypatch.setattr(certifier, "_chart_image", slow_image)
    reports = certifier.certify_charts.__wrapped__("q1", U_POSITIVE)
    assert sum(r.elapsed_ms for r in reports) >= 1000.0


def test_factored_delta1_parts():
    # structural sanity of the factored form's pieces
    assert LINE_FACTOR.monomial_count() == 4
    assert PARABOLA_FACTOR.monomial_count() == 6
    assert DELTA1_DENOMINATOR.monomial_count() == 8
    model = build_symbolic_model()
    assert model.delta1 == DELTA1_CLOSED_FORM
    # the q2q4 rows certify the very factors of the closed form
    rows = {chart.splits[0][0]: chart.expr for chart in certifier.CHARTS["q2q4"]}
    assert (rows["delta1-numerator-cofactor"] * rows["q4-line-factor"]
            * rows["q4-parabola-factor"] == DELTA1_CLOSED_FORM.num)
    assert rows["q2-line-factor-negated"] == -rows["q4-line-factor"]
    assert rows["q2-parabola-factor-negated"] == -rows["q4-parabola-factor"]
    assert rows["delta1-denominator"] == DELTA1_CLOSED_FORM.den


def test_delta2_denominator_is_displayed_product():
    model = build_symbolic_model()
    assert proportionality_constant(model.delta2.den, DELTA2_DENOMINATOR) == 1


def test_delta2_denominator_is_positive_where_eval_delta_is_defined():
    # eval_delta(2, .) divides by delta2's denominator, the displayed
    # product above, at x, y, A > 0 and u > 1; under u = 1 + t its
    # coefficients are all positive, so it never vanishes there (no roster
    # step proves this, unlike delta1-denominator)
    den = build_symbolic_model().delta2.den
    assert den.monomial_count() == 67
    shifted = substitute(den, {"u": U_POSITIVE})
    assert shifted.is_polynomial
    assert shifted.num.monomial_count() == 94
    assert shifted.num.min_coefficient()[0] == 1


def test_proportionality_constant():
    x = Poly.var("x")
    assert proportionality_constant(2 * x + 2, x + 1) == 2
    assert proportionality_constant(x - 1, 2 * x - 2) == Fraction(1, 2)
    assert proportionality_constant(x, x + 1) is None
    assert proportionality_constant(Poly(), Poly()) == 0
    assert proportionality_constant(x, Poly()) is None


# ---------------------------------------------------------------------------
# negative control: u below 1 must break positivity, with a valid witness
# ---------------------------------------------------------------------------

NEGATIVE_CONTROL = {
    "q1-case-above-diagonal": (-727, "A^2*k*t^3*x0^2"),
    "q1-case-below-diagonal": (-794, "A^2*k*t^3*y0^2"),
    "q1-case-diagonal": (-507, "A^2*t^3*x0^3"),
    "q1-edge-x0-zero": (-190, "A^2*t^3*y0^2"),
    "q1-edge-y0-zero": (-215, "A^2*t^3*x0^2"),
}


def test_negative_control_fails_with_witness():
    reports = certify_q1(u_image=1 - Poly.var("t"))
    assert len(reports) == 5
    for r in reports:
        expected_coeff, expected_witness = NEGATIVE_CONTROL[r.step]
        assert not r.passed
        assert r.min_coefficient == expected_coeff
        assert mono_text(r.witness) == expected_witness
        assert r.expansion.coefficient(r.witness) == r.min_coefficient
        assert r.min_coefficient < 0


# ---------------------------------------------------------------------------
# soundness: parameter points map into the claimed region with the claimed sign
# ---------------------------------------------------------------------------

# free parameters remaining in each step's chart (the variables of its
# plane_map); every step claiming a delta sign is listed
STEP_PARAMS = {
    "q2-line-factor-negated": ("w", "y0", "t", "A"),
    "q2-parabola-factor-negated": ("w", "y0", "t", "A"),
    "q4-line-factor": ("x0", "v", "t", "A"),
    "q4-parabola-factor": ("x0", "v", "t", "A"),
    "q1-case-above-diagonal": ("x0", "k", "t", "A"),
    "q1-case-below-diagonal": ("y0", "k", "t", "A"),
    "q1-case-diagonal": ("x0", "t", "A"),
    "q1-edge-x0-zero": ("y0", "t", "A"),
    "q1-edge-y0-zero": ("x0", "t", "A"),
    "q3-case-above-diagonal": ("w", "k", "t", "A"),
    "q3-case-below-diagonal": ("v", "k", "t", "A"),
    "q3-case-diagonal": ("w", "t", "A"),
    "segment-x-eq-u": ("v", "t", "A"),
    "segment-y-eq-u": ("w", "t", "A"),
}


# the Lyapunov difference whose sign each step claims: delta1 on the q2/q4
# factor steps, delta2 on the rest
STEP_DELTA = {step: 1 if step.startswith(("q2", "q4")) else 2 for step in STEP_PARAMS}


def _split_steps():
    """The name of every split step, in `CHARTS` order."""
    return [name for charts in certifier.CHARTS.values()
            for chart in charts for name, _, _ in chart.splits]


def _delta_steps():
    """(step name, delta index) of every split step but the two delta1 rows,
    which claim no region."""
    return [(name, STEP_DELTA.get(name)) for name in _split_steps()
            if not name.startswith("delta1-")]


def _to_plane(step, assignment):
    """The plane point {x, y, u, A} of ``assignment`` under ``step``'s chart."""
    return {n: rf.evaluate(assignment) for n, rf in plane_map(step).items()}


def _region_contains(step_name, x, y, u):
    if step_name.startswith("q2"):
        return 0 < x < u and y >= u
    if step_name.startswith("q4"):
        return x >= u and 0 < y < u
    if step_name == "q1-case-above-diagonal":
        return x >= u and y >= x
    if step_name == "q1-case-below-diagonal":
        return y >= u and x >= y
    if step_name == "q1-case-diagonal":
        return x == y >= u
    if step_name == "q1-edge-x0-zero":
        return x == u and y >= u
    if step_name == "q1-edge-y0-zero":
        return y == u and x >= u
    if step_name == "q3-case-above-diagonal":
        return 0 < x < u and x <= y < u
    if step_name == "q3-case-below-diagonal":
        return 0 < y < u and y <= x < u
    if step_name == "q3-case-diagonal":
        return 0 < x == y < u
    if step_name == "segment-x-eq-u":
        return x == u and 0 < y < u
    if step_name == "segment-y-eq-u":
        return y == u and 0 < x < u
    raise AssertionError(f"unexpected step {step_name}")


def test_soundness_samples_land_in_region_with_positive_delta():
    rng = random.Random(977)
    steps = _delta_steps()
    assert {name for name, _ in steps} == set(STEP_PARAMS)
    for step, delta_index in steps:
        names = STEP_PARAMS[step]
        for _ in range(100):
            assignment = {n: Fraction(rng.randint(1, 60), rng.randint(1, 12))
                          for n in names}
            pt = _to_plane(step, assignment)
            x, y, u, a = pt["x"], pt["y"], pt["u"], pt["A"]
            assert u > 1 and a > 0
            assert _region_contains(step, x, y, u)
            value = eval_delta(delta_index, (x, y, u, a))
            assert value > 0


#: The exact signs of x - u, y - u and y - x on each split step's image:
#: "+" is >= 0 on the closed chart and > 0 inside it, "0" identically zero.
STEP_SIGN_CELLS = {
    "q2-line-factor-negated": "-++",
    "q2-parabola-factor-negated": "-++",
    "q4-line-factor": "+--",
    "q4-parabola-factor": "+--",
    "q1-case-above-diagonal": "+++",
    "q1-case-below-diagonal": "++-",
    "q1-case-diagonal": "++0",
    "q1-edge-x0-zero": "0++",
    "q1-edge-y0-zero": "+0-",
    "q3-case-above-diagonal": "--+",
    "q3-case-below-diagonal": "---",
    "q3-case-diagonal": "--0",
    "segment-x-eq-u": "0--",
    "segment-y-eq-u": "-0+",
}


def _sign_cell(rf):
    """The sign of ``rf``: "0" when it is zero, "+" or "-" when every
    numerator coefficient has that sign over an all-positive denominator,
    and "?" otherwise."""
    if rf.num.is_zero:
        return "0"
    coeffs = rf.num.terms.values()
    if all(c > 0 for c in rf.den.terms.values()):
        if all(c > 0 for c in coeffs):
            return "+"
        if all(c < 0 for c in coeffs):
            return "-"
    return "?"


def test_split_step_images_lie_in_their_sign_cells():
    # the exact form of the region check that the soundness test samples:
    # every chart variable is >= 0 and t > 0, so a difference whose
    # coefficients share one sign over a positive denominator has that sign
    assert list(STEP_SIGN_CELLS) == [name for name, _ in _delta_steps()]
    for step, cell in STEP_SIGN_CELLS.items():
        m = plane_map(step)
        diffs = (m["x"] - m["u"], m["y"] - m["u"], m["y"] - m["x"])
        assert "".join(map(_sign_cell, diffs)) == cell, step


def test_chart_midpoint_reference():
    pt = _to_plane("q3-case-diagonal", {"w": Fraction(1), "t": Fraction(1), "A": Fraction(1)})
    assert pt == {"x": Fraction(1), "y": Fraction(1), "u": Fraction(2), "A": Fraction(1)}
    assert eval_delta(2, (Fraction(1), Fraction(1), Fraction(2), Fraction(1))) == Fraction(471, 260)


def test_plane_map_names_only_split_steps():
    # a clearing report or the delta1 identity stands for no plane point
    for name in ("q3-mobius-clearing", "q2-line-factor-negated-clearing", "delta1-identity"):
        with pytest.raises(KeyError, match=name):
            plane_map(name)
    # one cached, read-only map per step
    assert plane_map("q1-case-diagonal") is plane_map("q1-case-diagonal")
    with pytest.raises(TypeError):
        plane_map("q1-case-diagonal")["x"] = None


# ---------------------------------------------------------------------------
# coverage: every admissible point off the fixed point lies in some chart
# ---------------------------------------------------------------------------


def _covering_assignments(x, y, u):
    """Inverse parameterizations: (step name, assignment) for charts containing
    (x, y); the t, A components are appended by the caller."""
    out = []
    if x >= u and y >= x:
        out.append(("q1-case-above-diagonal", {"x0": x - u, "k": y - x}))
    if y >= u and x >= y:
        out.append(("q1-case-below-diagonal", {"y0": y - u, "k": x - y}))
    if x == y >= u:
        out.append(("q1-case-diagonal", {"x0": x - u}))
    if x == u and y >= u:
        out.append(("q1-edge-x0-zero", {"y0": y - u}))
    if y == u and x >= u:
        out.append(("q1-edge-y0-zero", {"x0": x - u}))
    if 0 < x < u and y >= u:
        w = x / (u - x)
        out.append(("q2-line-factor-negated", {"w": w, "y0": y - u}))
        out.append(("q2-parabola-factor-negated", {"w": w, "y0": y - u}))
    if x >= u and 0 < y < u:
        v = y / (u - y)
        out.append(("q4-line-factor", {"x0": x - u, "v": v}))
        out.append(("q4-parabola-factor", {"x0": x - u, "v": v}))
    if 0 < x < u and 0 < y < u:
        w, v = x / (u - x), y / (u - y)
        if y >= x:
            out.append(("q3-case-above-diagonal", {"w": w, "k": v - w}))
        if x >= y:
            out.append(("q3-case-below-diagonal", {"v": v, "k": w - v}))
        if x == y:
            out.append(("q3-case-diagonal", {"w": w}))
    if x == u and 0 < y < u:
        out.append(("segment-x-eq-u", {"v": y / (u - y)}))
    if y == u and 0 < x < u:
        out.append(("segment-y-eq-u", {"w": x / (u - x)}))
    return out


def test_charts_cover_the_open_quadrant():
    rng = random.Random(355)
    a = Fraction(3, 4)
    t = Fraction(1, 2)  # u = 3/2

    def sample(region):
        u = Fraction(3, 2)
        lo = Fraction(1, 100)
        inner = lambda: lo + Fraction(rng.randint(0, 137), 100)  # (0, u) after clamp
        below = lambda: min(u - lo, inner())
        above = lambda: u + Fraction(rng.randint(0, 300), 100)
        if region == "q1":
            return above(), above()
        if region == "q2":
            return below(), above()
        if region == "q3":
            return below(), below()
        if region == "q4":
            return above(), below()
        if region == "seg-x":
            return u, below()
        if region == "seg-y":
            return below(), u
        if region == "diag-out":
            z = above()
            return z, z
        if region == "diag-in":
            z = below()
            return z, z
        raise AssertionError(region)

    u = Fraction(3, 2)
    for region in ("q1", "q2", "q3", "q4", "seg-x", "seg-y", "diag-out", "diag-in"):
        for _ in range(125):
            x, y = sample(region)
            if (x, y) == (u, u):
                continue
            found = _covering_assignments(x, y, u)
            assert found, f"uncovered point {(x, y)} in {region}"
            for name, assignment in found:
                full = dict(assignment)
                full["t"] = t
                full["A"] = a
                pt = _to_plane(name, full)
                # the inverse really inverts: the chart reproduces the point
                assert (pt["x"], pt["y"], pt["u"], pt["A"]) == (x, y, u, a)


# ---------------------------------------------------------------------------
# identity: every expansion is its expression in chart coordinates
# ---------------------------------------------------------------------------

_Q1_SPLITS = ("q1-case-above-diagonal", "q1-case-below-diagonal", "q1-case-diagonal",
              "q1-edge-x0-zero", "q1-edge-y0-zero")
_Q3_SPLITS = ("q3-case-above-diagonal", "q3-case-below-diagonal", "q3-case-diagonal")

# each substitution step of the default roster: the polynomial in x, y, u, A
# it certifies (None for the two-step difference numerator), the plane
# coordinates its chart maps by a Moebius coordinate, and the report that
# certifies the denominator cleared on the way (None when nothing is)
IDENTITY_CASES = {
    "delta1-numerator-cofactor": (Poly.var("A") * (1 + Poly.var("y")), "", None),
    "delta1-denominator": (DELTA1_DENOMINATOR, "", None),
    "q2-line-factor-negated": (-LINE_FACTOR, "x", "q2-line-factor-negated-clearing"),
    "q2-parabola-factor-negated": (-PARABOLA_FACTOR, "x",
                                   "q2-parabola-factor-negated-clearing"),
    "q4-line-factor": (LINE_FACTOR, "y", "q4-line-factor-clearing"),
    "q4-parabola-factor": (PARABOLA_FACTOR, "y", "q4-parabola-factor-clearing"),
    **{name: (None, "", None) for name in _Q1_SPLITS},
    **{name: (None, "xy", "q3-mobius-clearing") for name in _Q3_SPLITS},
    "segment-x-eq-u": (None, "y", "segment-x-eq-u-clearing"),
    "segment-y-eq-u": (None, "x", "segment-y-eq-u-clearing"),
}


def test_expansions_are_their_expressions_times_the_cleared_denominator(summary):
    # E(params) == expr(x, y, u, A) * D(params) at 3 random points per step,
    # D the cleared chart denominator: x = u*w/(w+1) clears w + 1 = u/(u - x)
    # once per degree of expr in x (y and v alike).  A wrong expansion of
    # degree d passes a point with probability at most d/2^30 (Schwartz-Zippel).
    rng = random.Random(2008)
    delta2_num = build_symbolic_model().delta2.num
    steps = _split_steps()
    assert set(steps) == set(IDENTITY_CASES)
    reports = {r.step: r for r in summary.reports}
    checked = set()
    for step in steps:
        expr, mobius, clearing = IDENTITY_CASES[step]
        expr = delta2_num if expr is None else expr
        for _ in range(3):
            params = {n: Fraction(rng.randint(1, 2**30), rng.randint(1, 2**30))
                      for n in STEP_PARAMS.get(step, ("x", "y", "t", "A"))}
            plane = _to_plane(step, params)
            u = plane["u"]
            cleared, chart = Fraction(1), {}
            for coord, name in (("x", "w"), ("y", "v")):
                if coord in mobius:
                    degree = max(dict(m).get(var_id(coord), 0) for m in expr.terms)
                    cleared *= (u / (u - plane[coord])) ** degree
                    chart[name] = plane[coord] / (u - plane[coord])
            expansion = reports[step].expansion
            assert (RationalFn(expansion).evaluate(params)
                    == RationalFn(expr).evaluate(plane) * cleared), step
            if clearing is not None:
                denominator = RationalFn(reports[clearing].expansion)
                assert denominator.evaluate({**params, **chart}) == cleared, clearing
        checked |= {step, clearing}
    assert checked - {None} == set(reports) - {"delta1-identity"}


# ---------------------------------------------------------------------------
# determinism and serialization
# ---------------------------------------------------------------------------


def test_runs_are_byte_identical_without_timing(summary):
    # rerun cold: the reports of every chart group are cached
    for value in vars(certifier).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    again = run_full_certificate()
    base = summary_to_json(summary, include_timing=False)
    assert summary_to_json(again, include_timing=False) == base


def test_json_schema(summary):
    doc = json.loads(summary_to_json(summary, include_timing=False))
    assert set(doc) == {"overallPass", "steps", "counts"}
    assert doc["overallPass"] is True
    assert doc["counts"] == {"delta2Numerator": 277, "eq16": 233, "eq17": 371}
    assert len(doc["steps"]) == len(summary.reports)
    first = doc["steps"][0]
    assert list(first) == ["step", "region", "bindings", "inputCount",
                           "outputCount", "minCoefficient", "witness",
                           "allPositive", "allInteger"]
    for entry in doc["steps"]:
        assert entry["allPositive"] is True
        num, den = entry["minCoefficient"].split("/") if entry["minCoefficient"] else (None, None)
        if entry["minCoefficient"] is not None:
            assert den == "1"
    timed = json.loads(summary_to_json(summary, include_timing=True))
    assert list(timed["steps"][0])[-1] == "elapsedMs"


def test_min_coefficient_serialized_as_exact_ratio(summary):
    doc = json.loads(summary_to_json(summary, include_timing=False))
    diag = next(s for s in doc["steps"] if s["step"] == "q1-case-diagonal")
    assert diag["minCoefficient"] == "2/1"
    ident = next(s for s in doc["steps"] if s["step"] == "delta1-identity")
    assert ident["minCoefficient"] is None
    assert ident["witness"] is None
    assert all(type(r.min_coefficient) is int
               for r in summary.reports if r.min_coefficient is not None)


def test_text_summary_mentions_strictness(summary):
    text = summary_to_text(summary)
    assert STRICTNESS_ASSUMPTION in text
    assert text.endswith("overall: PASS")
    assert text.count("\npass") + text.count("pass ") >= len(summary.reports) - 1
    # every report row's terms column starts at one offset, past the longest
    # step name
    rows = text.splitlines()[:len(summary.reports)]
    offsets = {row.index(" terms ") for row in rows}
    assert len(offsets) == 1
    assert offsets.pop() >= len("pass  ") + max(len(r.step) for r in summary.reports)


def test_group_runners_match_full_run(summary):
    partial = [verify_delta1_identity()]
    for fn in (certify_q2q4, certify_q1, certify_q3, certify_segments):
        partial.extend(fn())
    partial.sort(key=lambda r: r.step)
    assert [r.step for r in partial] == [r.step for r in summary.reports]
    assert all(r.passed for r in partial)
