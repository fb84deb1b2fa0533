"""Tests for the positivity-certificate pipeline."""

import json
import random
from fractions import Fraction

import pytest

from lyness import certifier
from lyness.certifier import (
    STRICTNESS_ASSUMPTION,
    certify_q1,
    certify_q2q4,
    certify_q3,
    certify_segments,
    chart_steps,
    delta1_closed_form,
    delta1_denominator,
    delta2_denominator,
    landmark_counts,
    line_factor,
    map_to_plane,
    parabola_factor,
    proportionality_constant,
    q3_steps,
    run_full_certificate,
    summary_to_dict,
    summary_to_json,
    summary_to_text,
    verify_delta1_identity,
)
from lyness.exactalg import Poly, RationalFn, mono_text, var_id
from lyness.model import build_symbolic_model, eval_delta


def mono(**exps):
    """Build a monomial key from variable-name keyword exponents."""
    return tuple(sorted((var_id(n), e) for n, e in exps.items()))


# the full roster is deliberately frozen: a disappearing or renamed step is a
# regression even if everything still passes
EXPECTED_ROSTER = {
    "delta1-denominator": (10, Fraction(1)),
    "delta1-identity": (0, None),
    "delta1-numerator-cofactor": (2, Fraction(1)),
    "q1-case-above-diagonal": (371, Fraction(1)),
    "q1-case-below-diagonal": (379, Fraction(1)),
    "q1-case-diagonal": (94, Fraction(2)),
    "q1-edge-x0-zero": (65, Fraction(1)),
    "q1-edge-y0-zero": (67, Fraction(1)),
    "q2-line-factor-negated": (5, Fraction(1)),
    "q2-line-factor-negated-clearing": (2, Fraction(1)),
    "q2-parabola-factor-negated": (13, Fraction(1)),
    "q2-parabola-factor-negated-clearing": (3, Fraction(1)),
    "q3-case-above-diagonal": (1261, Fraction(1)),
    "q3-case-below-diagonal": (1137, Fraction(1)),
    "q3-case-diagonal": (284, Fraction(1)),
    "q3-mobius-clearing": (30, Fraction(1)),
    "q4-line-factor": (6, Fraction(1)),
    "q4-line-factor-clearing": (2, Fraction(1)),
    "q4-parabola-factor": (10, Fraction(1)),
    "q4-parabola-factor-clearing": (2, Fraction(1)),
    "segment-x-eq-u": (156, Fraction(1)),
    "segment-x-eq-u-clearing": (6, Fraction(1)),
    "segment-y-eq-u": (119, Fraction(1)),
    "segment-y-eq-u-clearing": (5, Fraction(1)),
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
    for group, charts in certifier.CHARTS.items():
        for index, chart in enumerate(charts):
            if chart.clearing is not None:
                names.add(chart.clearing[0])
            for split, (name, _, _) in enumerate(chart.splits):
                names.add(name)
                if not certifier._split_expansion(group, index, split).is_polynomial:
                    names.add(f"{name}-clearing")
    assert names == set(EXPECTED_ROSTER)


def test_reports_sorted_by_step_name(summary):
    names = [r.step for r in summary.reports]
    assert names == sorted(names)


def test_landmark_counts(summary):
    assert dict(summary.counts) == {"delta2Numerator": 277, "eq16": 233, "eq17": 371}
    assert landmark_counts() == summary.counts


def test_sector_expansions_are_integer(summary):
    for r in summary.reports:
        if r.step.startswith("q1-"):
            assert r.require_integer and r.all_integer
        assert r.all_integer  # in fact every emitted expansion is integer


def test_report_lookup(summary):
    assert summary.report("q1-case-diagonal").output_count == 94
    with pytest.raises(KeyError):
        summary.report("no-such-step")


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
    shift = certifier._chart_image("q1", 0).num
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
    sector = summary.report("q1-case-above-diagonal").expansion
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


def test_delta1_identity_detects_mutation():
    cf = delta1_closed_form()
    x, y, u, A = (Poly.var(n) for n in ("x", "y", "u", "A"))
    bad = RationalFn(cf.num + x ** 3 * y ** 3 * u ** 2 * A ** 2, cf.den)
    report = verify_delta1_identity(bad)
    assert not report.passed
    assert report.output_count == 8
    assert report.min_coefficient == -1
    assert mono_text(report.witness) == "A^3*u^2*x^4*y^6"
    # the witness really attains the reported coefficient
    assert report.expansion.coefficient(report.witness) == report.min_coefficient


def test_factored_delta1_parts():
    # structural sanity of the factored form's pieces
    assert line_factor().monomial_count() == 4
    assert parabola_factor().monomial_count() == 6
    assert delta1_denominator().monomial_count() == 8
    model = build_symbolic_model()
    assert model.delta1 == delta1_closed_form()


def test_delta2_denominator_is_displayed_product():
    model = build_symbolic_model()
    assert proportionality_constant(model.delta2.den, delta2_denominator()) == 1


def test_proportionality_constant():
    x = Poly.var("x")
    assert proportionality_constant(2 * x + 2, x + 1) == 2
    assert proportionality_constant(x, x + 1) is None
    assert proportionality_constant(Poly.zero(), Poly.zero()) == 0
    assert proportionality_constant(x, Poly.zero()) is None


# ---------------------------------------------------------------------------
# negative control: u below 1 must break positivity, with a valid witness
# ---------------------------------------------------------------------------

NEGATIVE_CONTROL = {
    "q1-case-above-diagonal": (Fraction(-727), "A^2*k*t^3*x0^2"),
    "q1-case-below-diagonal": (Fraction(-794), "A^2*k*t^3*y0^2"),
    "q1-case-diagonal": (Fraction(-507), "A^2*t^3*x0^3"),
    "q1-edge-x0-zero": (Fraction(-190), "A^2*t^3*y0^2"),
    "q1-edge-y0-zero": (Fraction(-215), "A^2*t^3*x0^2"),
}


def test_negative_control_fails_with_witness():
    reports = certify_q1(u_image=1 - Poly.var("t"))
    assert len(reports) == 5
    for r in reports:
        expected_coeff, expected_witness = NEGATIVE_CONTROL[r.step]
        assert not r.passed
        assert not r.all_positive
        assert r.min_coefficient == expected_coeff
        assert mono_text(r.witness) == expected_witness
        assert r.expansion.coefficient(r.witness) == r.min_coefficient
        assert r.min_coefficient < 0


# ---------------------------------------------------------------------------
# soundness: parameter points map into the claimed region with the claimed sign
# ---------------------------------------------------------------------------

# free parameters remaining in each step's chart (assignment keys for
# map_to_plane); every step claiming a delta sign is listed
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


def _delta_steps():
    steps = (*chart_steps("q2q4"), *chart_steps("q1"), *q3_steps(), *chart_steps("segments"))
    return [s for s in steps if s.delta_index is not None]


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
    assert {s.name for s in steps} == set(STEP_PARAMS)
    for step in steps:
        names = STEP_PARAMS[step.name]
        for _ in range(100):
            assignment = {n: Fraction(rng.randint(1, 60), rng.randint(1, 12))
                          for n in names}
            pt = map_to_plane(step, assignment)
            x, y, u, a = pt["x"], pt["y"], pt["u"], pt["A"]
            assert u > 1 and a > 0
            assert _region_contains(step.name, x, y, u)
            value = eval_delta(step.delta_index, (x, y, u, a))
            assert value > 0


def test_chart_midpoint_reference():
    diag = next(s for s in q3_steps() if s.name == "q3-case-diagonal")
    pt = map_to_plane(diag, {"w": Fraction(1), "t": Fraction(1), "A": Fraction(1)})
    assert pt == {"x": Fraction(1), "y": Fraction(1), "u": Fraction(2), "A": Fraction(1)}
    assert eval_delta(2, (Fraction(1), Fraction(1), Fraction(2), Fraction(1))) == Fraction(471, 260)


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
    steps = {s.name: s for s in _delta_steps()}
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
                pt = map_to_plane(steps[name], full)
                # the inverse really inverts: the chart reproduces the point
                assert (pt["x"], pt["y"], pt["u"], pt["A"]) == (x, y, u, a)


# ---------------------------------------------------------------------------
# determinism and serialization
# ---------------------------------------------------------------------------


def test_runs_are_byte_identical_without_timing(summary):
    # rerun cold: the chart images and split expansions are cached
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
    doc = summary_to_dict(summary, include_timing=False)
    diag = next(s for s in doc["steps"] if s["step"] == "q1-case-diagonal")
    assert diag["minCoefficient"] == "2/1"
    ident = next(s for s in doc["steps"] if s["step"] == "delta1-identity")
    assert ident["minCoefficient"] is None
    assert ident["witness"] is None
    assert all(type(r.min_coefficient) is Fraction
               for r in summary.reports if r.min_coefficient is not None)


def test_text_summary_mentions_strictness(summary):
    text = summary_to_text(summary)
    assert STRICTNESS_ASSUMPTION in text
    assert text.endswith("overall: PASS")
    assert text.count("\npass") + text.count("pass ") >= len(summary.reports) - 1


def test_group_runners_match_full_run(summary):
    partial = [verify_delta1_identity()]
    for fn in (certify_q2q4, certify_q1, certify_q3, certify_segments):
        partial.extend(fn())
    partial.sort(key=lambda r: r.step)
    assert [r.step for r in partial] == [r.step for r in summary.reports]
    assert all(r.passed for r in partial)
