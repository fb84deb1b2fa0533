"""The immutable records of `model`, `certifier` and `dynamics`, and the
chart reports checked against the stages of their `CHARTS` rows.

The records are `typing.NamedTuple`s, read-only and equal to the plain
tuple of their fields; the one exception, `dynamics.DescentResult`, is a
frozen dataclass while the benchmark calls ``dataclasses.replace`` on it.
These tests pin that the fields of both kinds are read-only, and how a
parameter record validates and compares.
"""

from fractions import Fraction

import pytest

from lyness import certifier
from lyness.certifier import CHARTS, U_POSITIVE
from lyness.dynamics import (DescentViolation, classify_regions, local_stability,
                             lyapunov_descent_check, simulate, sweep)
from lyness.exactalg import Poly, RationalFn, substitute
from lyness.model import EquilibriumInfo, ParamsPQ, build_symbolic_model

RECORDS = {
    "ParamsPQ": (lambda: ParamsPQ(20, 4), "p"),
    "EquilibriumInfo": (lambda: EquilibriumInfo(5.0, 1.25), "xbar"),
    "SymbolicModel": (build_symbolic_model, "delta2"),
    "SubstitutionStep": (lambda: certifier.q3_steps()[0], "stages"),
    "CertificateReport": (certifier.verify_delta1_identity, "passed"),
    "CertificateSummary": (lambda: certifier.run_full_certificate(("identity",)),
                           "overall_pass"),
    "Chart": (lambda: CHARTS["q1"][0], "splits"),
    "OrbitTrace": (lambda: simulate(ParamsPQ(20, 4), (1.0, 2.0)), "verdict"),
    "DescentViolation": (lambda: DescentViolation(3, 2.0, 2.5, 2.0), "index"),
    "DescentResult": (lambda: lyapunov_descent_check(ParamsPQ(20, 4), (1.0, 2.0), 5), "ok"),
    "RegionCheck": (lambda: classify_regions(ParamsPQ(20, 4)).checks[0], "satisfied"),
    "RegionCoverage": (lambda: classify_regions(ParamsPQ(20, 4)), "checks"),
    "StabilityInfo": (lambda: local_stability(ParamsPQ(20, 4)), "spectral_radius"),
    "SweepRecord": (lambda: sweep([(ParamsPQ(20, 4), (1.0, 2.0))], 1e-8, 100)[0], "descent"),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_are_read_only(name):
    make, field = RECORDS[name]
    record = make()
    assert type(record).__name__ == name
    with pytest.raises(AttributeError):
        setattr(record, field, None)


@pytest.mark.parametrize("make", [
    lambda: ParamsPQ(-1, 2),
    lambda: ParamsPQ(p=1, q=0),
], ids=["pq-p", "pq-q-keyword"])
def test_parameter_records_reject_nonpositive_values(make):
    with pytest.raises(ValueError, match="must be positive"):
        make()


def test_parameter_records_equal_the_plain_tuple():
    # like every NamedTuple record, (p, q) compares and hashes as its tuple
    pq = ParamsPQ(2, 3)
    for a, b in ((pq, (2, 3)), ((2, 3), pq)):
        assert a == b and not a != b
    assert hash(pq) == hash((2, 3)) == hash(ParamsPQ(2, 3))
    assert ParamsPQ(Fraction(4, 2), 3) == pq


def test_report_repr_leaves_out_the_expansion():
    report = certifier.certify_segments()[1]
    text = repr(report)
    assert text.startswith(f"CertificateReport(step={report.step!r}, ")
    assert "expansion" not in text
    assert report.expansion.to_text() not in text
    assert report.expansion.monomial_count() > 1


def expand(expr, *stages) -> RationalFn:
    """Reference expansion: apply ``stages``, in order, to ``expr``."""
    rf = expr
    for stage in stages:
        rf = substitute(rf, stage)
    return rf


@pytest.mark.parametrize("group, u_image", [
    *((group, U_POSITIVE) for group in sorted(CHARTS)),
    ("q1", 1 - Poly.var("t")),
], ids=[*sorted(CHARTS), "q1-negative-control"])
def test_cached_split_expansions_equal_the_step_stages(group, u_image):
    # certify_charts substitutes u once per chart and then each split with
    # u in its images; the reference pushes the row's expression through its
    # bindings, then applies the split, then u, to that image's numerator,
    # and its denominator is the split's clearing report
    reports = {r.step: r for r in certifier.certify_charts(group, u_image)}
    checked = set()
    for chart in CHARTS[group]:
        expr = build_symbolic_model().delta2.num if chart.expr is None else chart.expr
        image = expand(expr, chart.bindings)
        for name, split, _ in chart.splits:
            expanded = expand(image.num, split, {"u": u_image})
            assert reports[name].expansion == expanded.num, name
            checked.add(name)
            if not expanded.is_polynomial:
                clearing = f"{name}-clearing"
                assert reports[clearing].expansion == expanded.den, clearing
                checked.add(clearing)
        if chart.clearing is not None:
            name = chart.clearing[0]
            assert reports[name].expansion == image.den, name
            checked.add(name)
    assert checked == set(reports)
