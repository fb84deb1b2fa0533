"""The immutable records of `model` and `certifier`, and the chart caches.

The records are `typing.NamedTuple`s; these tests pin the behaviour they
keep from the frozen dataclasses they replaced.
"""

from fractions import Fraction

import pytest

from lyness import certifier
from lyness.certifier import CHARTS, _chart_steps, _expand, _split_expansion
from lyness.model import (
    EquilibriumInfo,
    ParamsPQ,
    build_symbolic_model,
    quad,
)

RECORDS = {
    "ParamsPQ": (lambda: ParamsPQ(20, 4), "p"),
    "EquilibriumInfo": (lambda: EquilibriumInfo(5.0, 1.25, 0.3125), "xbar"),
    "QuadValue": (lambda: quad(1, 1, 2), "b"),
    "SymbolicModel": (build_symbolic_model, "delta2"),
    "SubstitutionStep": (lambda: certifier.chart_steps("q2q4")[0], "stages"),
    "CertificateReport": (certifier.verify_delta1_identity, "all_positive"),
    "CertificateSummary": (lambda: certifier.run_full_certificate(("identity",)),
                           "overall_pass"),
    "Chart": (lambda: CHARTS["q1"][0], "splits"),
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


@pytest.mark.parametrize("other", [quad(1, 1, 2), quad(2, 0, 0), 0, (1, 1, 2)],
                         ids=["surd", "rational", "int", "tuple"])
def test_quad_values_are_not_ordered(other):
    # tuple order on (a, b, d) would say 2 < 1 + sqrt(2) is False and
    # 1 + sqrt(2) < 2 + 0*sqrt(0) is True by the first field alone
    value = quad(1, 1, 2)
    for compare in (lambda a, b: a < b, lambda a, b: a <= b,
                    lambda a, b: a > b, lambda a, b: a >= b):
        with pytest.raises(TypeError):
            compare(value, other)
        with pytest.raises(TypeError):
            compare(other, value)


def test_parameter_records_compare_their_type():
    pq = ParamsPQ(2, 3)
    for a, b in ((pq, (2, 3)), ((2, 3), pq)):
        assert not a == b
        assert a != b
    assert pq == ParamsPQ(2, 3) and not pq != ParamsPQ(2, 3)
    assert ParamsPQ(Fraction(4, 2), 3) == pq
    assert hash(pq) == hash(ParamsPQ(2, 3))
    # a mapping keyed by parameters keeps (p, q) and a plain pair apart
    keyed = {pq: "pq", (2, 3): "pair"}
    assert len(keyed) == 2
    assert keyed[ParamsPQ(2, 3)] == "pq" and keyed[(2, 3)] == "pair"


def test_quad_value_arithmetic_is_not_tuple_arithmetic():
    root2 = quad(0, 1, 2)
    assert root2 + 1 == quad(1, 1, 2)
    assert 1 + root2 == quad(1, 1, 2)
    assert 2 * root2 == quad(0, 2, 2)
    assert root2 * root2 == quad(2, 0, 0)


def test_report_repr_leaves_out_the_expansion():
    report = certifier.certify_segments()[1]
    text = repr(report)
    assert text.startswith(f"CertificateReport(step={report.step!r}, ")
    assert "expansion" not in text
    assert report.expansion.to_text() not in text
    assert report.expansion.monomial_count() > 1


@pytest.mark.parametrize("group", sorted(CHARTS))
def test_cached_split_expansions_equal_the_step_stages(group):
    # the cache substitutes u = 1 + t once per chart and applies each split
    # to that; the step's own stages apply the split first
    for index, chart in enumerate(CHARTS[group]):
        steps = _chart_steps(group, index)
        assert len(steps) == len(chart.splits)
        for split, step in enumerate(steps):
            cached = _split_expansion(group, index, split)
            expanded = _expand(step)
            assert (cached.num, cached.den) == (expanded.num, expanded.den), step.name
