"""Tests for the model layer: parameters, equilibria, symbolic objects."""

import decimal
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyness.certifier import DELTA1_CLOSED_FORM, DELTA2_DENOMINATOR, proportionality_constant
from lyness.exactalg import Poly, RationalFn, substitute
from lyness.model import (
    ParamsPQ,
    build_symbolic_model,
    equilibrium,
    eval_delta,
    invariant_value,
    lyness_invariance_check,
    lyness_orbit,
    lyness_step,
)


# independent direct-formula oracle, kept deliberately separate from the
# symbolic construction it checks
def g_direct(x, y, u):
    return (1 + x) * (1 + y) * (u * u - u + x + y) / (x * y)


def step_direct(x, y, u, a):
    return (y, (u * u + (a - 1) * u + y) / (a + x))


def delta_direct(which, x, y, u, a):
    cx, cy = x, y
    for _ in range(which):
        cx, cy = step_direct(cx, cy, u, a)
    return g_direct(x, y, u) - g_direct(cx, cy, u)


# ---------------------------------------------------------------------------
# parameters and equilibria
# ---------------------------------------------------------------------------


def test_parameter_validation():
    with pytest.raises(ValueError):
        ParamsPQ(-1, 2)
    with pytest.raises(ValueError):
        ParamsPQ(1, 0)


def test_equilibrium_reference_point():
    info = equilibrium(ParamsPQ(20, 4))
    expected = 0.5 * (3.0 + math.sqrt(89.0))
    assert abs(info.xbar - expected) < 1e-12
    assert abs(info.xbar - 6.216990566028302) < 1e-12
    assert abs(info.ybar - info.xbar / 4.0) < 1e-15
    assert abs(info.alpha_tilde - (info.ybar ** 2 - info.ybar)) < 1e-12


@pytest.mark.parametrize("p, q", [(1e300, 1e-300)], ids=["y-bar"])
def test_equilibrium_beyond_the_float_range_is_a_value_error(p, q):
    with pytest.raises(ValueError, match=re.escape(f"p={p:.17g}, q={q:.17g} is beyond")):
        equilibrium(ParamsPQ(p, q))


@pytest.mark.parametrize("p, q", [(1.7e308, 2.0), (1e300, 1e300), (1.7e308, 0.5),
                                  (1.7976931348623157e308, 1.7976931348623157e308)],
                         ids=["x-bar", "square", "below-q-one", "largest"])
def test_equilibrium_past_an_overflowing_square_is_finite(p, q):
    # (q-1)^2 + 4p overflows in floats, yet xbar is near max(q, sqrt(p))
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        d = Decimal(q) - 1
        root = float((d + (d * d + 4 * Decimal(p)).sqrt()) / 2)
    info = equilibrium(ParamsPQ(p, q))
    assert abs(info.xbar - root) <= 2 * math.ulp(root)
    assert info.ybar == info.xbar / q


@pytest.mark.parametrize("p", [1e-20, 1e-10, 1e-3, 0.3])
def test_equilibrium_below_q_one_does_not_cancel(p):
    # the larger root of x^2 - (q-1)x - p, at 40 digits; (q-1 + sqrt(...))/2
    # in floats cancels, to 0.0 at p = 1e-20
    q = 0.5
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        d = Decimal(q) - 1
        root = float((d + (d * d + 4 * Decimal(p)).sqrt()) / 2)
    assert abs(equilibrium(ParamsPQ(p, q)).xbar - root) <= 2 * math.ulp(root)


def test_equilibrium_solves_fixed_point_equation():
    rng = random.Random(7)
    for _ in range(100):
        p = rng.uniform(0.01, 100.0)
        q = rng.uniform(0.01, 100.0)
        info = equilibrium(ParamsPQ(p, q))
        residual = info.xbar * (1 + info.xbar) - p - q * info.xbar
        assert abs(residual) <= 1e-9 * max(1.0, info.xbar ** 2)


def test_transformed_equilibrium_exceeds_one_iff_q_below_p():
    # ybar = xbar/q > 1 iff xbar > q; xbar is the larger root of
    # f(x) = x^2 - (q-1)x - p and the other root is negative (their product
    # is -p), so for q > 0 that holds iff f(q) < 0
    def crosses(p, q):
        return q * q - (q - 1) * q - p < 0

    rng = random.Random(31)
    for _ in range(200):
        p = Fraction(rng.randint(1, 300), rng.randint(1, 30))
        q = Fraction(rng.randint(1, 300), rng.randint(1, 30))
        assert crosses(p, q) == (q < p)
        if abs(p - q) > Fraction(1, 1000) * max(p, q):
            assert (equilibrium(ParamsPQ(p, q)).ybar > 1) == (q < p)
    # boundary: p = q gives ybar exactly 1
    q = Fraction(5)
    assert q * q - (q - 1) * q - q == 0
    assert not crosses(q, q)
    assert equilibrium(ParamsPQ(5, 5)).ybar == 1


def test_float_fixed_point_is_at_least_one_where_q_below_p():
    # xbar / q rounds to 0.9999999999999998 on this pair, though q < p
    info = equilibrium(ParamsPQ(1.0909512981708756e16, 1.0909512981708754e16))
    assert info.ybar == 1.0
    assert info.alpha_tilde == 0.0
    # p a few ulps to 1e-12 relative above q, over a wide range of q
    rng = random.Random(16)
    for _ in range(2000):
        q = math.exp(rng.uniform(math.log(1e-3), math.log(1e17)))
        p = q * (1 + rng.choice([2.0**-52, 2.0**-51, 1e-15, 1e-12]) * rng.uniform(1, 4))
        if q < p:
            assert equilibrium(ParamsPQ(p, q)).ybar >= 1, (p, q)


def test_float_fixed_point_is_one_where_q_equals_p():
    # (xbar - q)(xbar + 1) = p - q = 0, so ybar = 1 exactly, though the
    # float xbar / q strays from 1 on some q
    rng = random.Random(3)
    strays = 0
    for _ in range(2000):
        q = math.exp(rng.uniform(math.log(1e-3), math.log(1e6)))
        info = equilibrium(ParamsPQ(q, q))
        assert (info.ybar, info.alpha_tilde) == (1.0, 0.0), q
        strays += info.xbar / q != 1
    assert strays


# ---------------------------------------------------------------------------
# symbolic model
# ---------------------------------------------------------------------------


def test_invariant_reference_value():
    model = build_symbolic_model()
    v = model.invariant.evaluate({"x": Fraction(1), "y": Fraction(1), "u": Fraction(2)})
    assert v == 16
    assert invariant_value(Fraction(2), Fraction(1), Fraction(1)) == 16


def test_step_map_reference_value():
    model = build_symbolic_model()
    point = {"x": Fraction(1), "y": Fraction(3), "u": Fraction(2), "A": Fraction(1)}
    assert model.step_map[0].evaluate(point) == 3
    assert model.step_map[1].evaluate(point) == Fraction(7, 2)


def test_step_map_fixes_equilibrium():
    # exactly, for every u and A; then at two sample points
    model = build_symbolic_model()
    u_var = Poly.var("u")
    for image in model.step_map:
        assert substitute(image, {"x": u_var, "y": u_var}) == u_var
    for u, a in ((Fraction(3, 2), Fraction(2)), (Fraction(5), Fraction(1, 3))):
        point = {"x": u, "y": u, "u": u, "A": a}
        assert model.step_map[0].evaluate(point) == u
        assert model.step_map[1].evaluate(point) == u


def test_step_map_is_equation_E_in_scaled_coordinates():
    # (E): x[n+1] = (p + q x[n]) / (1 + x[n-1]), with x[n-1] = x/A,
    # x[n] = y/A, p = (u^2 + (A-1)u)/A^2 and q = 1/A
    x, y, u, a = (Poly.var(name) for name in ("x", "y", "u", "A"))
    p = RationalFn(u * u + (a - 1) * u, a * a)
    q = RationalFn(1, a)
    x_prev, x_cur = RationalFn(x, a), RationalFn(y, a)
    divisor = x_prev + 1
    x_next = (p + q * x_cur) * RationalFn(divisor.den, divisor.num)
    step_map = build_symbolic_model().step_map
    assert step_map[0] == y
    assert step_map[1] == x_next * a


def test_lyness_map_conserves_the_invariant():
    # at A = 0 the map is the Lyness map, and g - g o T vanishes identically
    assert substitute(build_symbolic_model().delta1, {"A": 0}).num.is_zero


def test_shifted_invariant_is_the_monitors_quadratic_plus_cubic():
    # descent_along's G = g - g(u, u) = N / (x y), multiplied through by u x y
    x, y, u = (Poly.var(name) for name in ("x", "y", "u"))
    g = build_symbolic_model().invariant
    shifted = g - substitute(g, {"x": u, "y": u})
    s, t, k = x - u, y - u, 1 + u
    u_times_n = k * (u * (s * s + t * t) - s * t) + u * s * t * (s + t)
    assert shifted * (u * x * y) == u_times_n


def test_eval_delta_reference_values():
    one = Fraction(1)
    assert eval_delta(1, (one, Fraction(3), Fraction(2), one)) == Fraction(10, 7)
    assert eval_delta(1, (Fraction(3), one, Fraction(2), one)) == Fraction(7, 10)
    assert eval_delta(1, (Fraction(3), Fraction(6), Fraction(2), one)) == Fraction(-7, 180)
    assert eval_delta(2, (Fraction(3), Fraction(3), Fraction(2), one)) == Fraction(9265, 23184)
    assert eval_delta(2, (one, one, Fraction(2), one)) == Fraction(471, 260)


def test_eval_delta_vanishes_at_equilibrium():
    for u, a in ((Fraction(3, 2), Fraction(2)), (Fraction(7, 3), Fraction(1, 2))):
        assert eval_delta(1, (u, u, u, a)) == 0
        assert eval_delta(2, (u, u, u, a)) == 0


def test_eval_delta_validation():
    good = (Fraction(1), Fraction(1), Fraction(2), Fraction(1))
    with pytest.raises(ValueError, match="which"):
        eval_delta(3, good)
    with pytest.raises(ValueError, match="positive"):
        eval_delta(1, (Fraction(0), Fraction(1), Fraction(2), Fraction(1)))
    with pytest.raises(ValueError, match="exceed 1"):
        eval_delta(1, (Fraction(1), Fraction(1), Fraction(1), Fraction(1)))


def test_eval_delta_matches_direct_formula():
    rng = random.Random(20260814)
    for _ in range(500):
        x = Fraction(rng.randint(1, 100), rng.randint(1, 10))
        y = Fraction(rng.randint(1, 100), rng.randint(1, 10))
        u = 1 + Fraction(rng.randint(1, 50), rng.randint(1, 10))
        a = Fraction(rng.randint(1, 50), rng.randint(1, 10))
        which = 1 + (rng.random() < 0.5)
        assert eval_delta(which, (x, y, u, a)) == delta_direct(which, x, y, u, a)


def test_delta1_matches_closed_form():
    model = build_symbolic_model()
    assert model.delta1 == DELTA1_CLOSED_FORM


def test_delta2_denominator_matches_displayed_product():
    model = build_symbolic_model()
    built = model.delta2.den
    displayed = DELTA2_DENOMINATOR
    assert proportionality_constant(built, displayed) == 1
    assert built == displayed


# ---------------------------------------------------------------------------
# Lyness recurrence (benchmark integrable case)
# ---------------------------------------------------------------------------


def test_lyness_period_five():
    orbit = lyness_orbit(Fraction(1), (Fraction(1), Fraction(1)), 12)
    assert orbit[:7] == [1, 1, 2, 3, 2, 1, 1]
    for k in range(len(orbit) - 5):
        assert orbit[k + 5] == orbit[k]


def test_lyness_step_and_equilibrium():
    assert lyness_step(Fraction(2), Fraction(1), Fraction(1)) == 3
    assert invariant_value(Fraction(2), Fraction(2), Fraction(2)) == Fraction(27, 2)


def test_lyness_constant_orbit_at_equilibrium():
    orbit = lyness_orbit(Fraction(2), (Fraction(2), Fraction(2)), 20)
    assert all(z == 2 for z in orbit)


def test_lyness_invariance_sampled():
    rng = random.Random(42)
    for alpha_tilde in (Fraction(1), Fraction(2), Fraction(7, 3)):
        for _ in range(10):
            seed = (Fraction(rng.randint(1, 20), rng.randint(1, 6)),
                    Fraction(rng.randint(1, 20), rng.randint(1, 6)))
            assert lyness_invariance_check(alpha_tilde, seed, 50)


def test_lyness_invariance_rejects_bad_seed():
    with pytest.raises(ValueError, match="positive"):
        lyness_invariance_check(Fraction(1), (Fraction(0), Fraction(1)), 5)


def test_lyness_invariance_fails_on_a_nonpositive_iterate():
    # z[1] = (-1/5 + 1/10) / (1/10) = -1
    assert not lyness_invariance_check(Fraction(-1, 5), (Fraction(1, 10), Fraction(1, 10)), 5)


def test_lyness_invariance_fails_on_a_wrong_recurrence(monkeypatch):
    # the checker's negative control: a step off by one does not conserve g
    monkeypatch.setattr("lyness.model.lyness_step",
                        lambda a, z_prev, z_curr: lyness_step(a, z_prev, z_curr) + 1)
    assert not lyness_invariance_check(Fraction(1), (Fraction(1), Fraction(2)), 5)


def test_invariant_rejects_nonpositive_coordinates():
    with pytest.raises(ZeroDivisionError):
        invariant_value(Fraction(1), Fraction(0), Fraction(1))


def test_invariant_past_an_underflowing_product_is_infinite():
    # x*y underflows to 0.0 and g = 1e400 or -3e400 overflows, with its sign
    assert invariant_value(1.0, 1e-200, 1e-200) == math.inf
    assert invariant_value(-3.0, 1e-200, 1e-200) == -math.inf
    # x*y and the numerator overflow, g = 2e200 does not
    assert invariant_value(1.0, 1e200, 1e200) == 2e200
    # x*y is subnormal, g is not: g is the exact value rounded once
    exact = invariant_value(Fraction(1e-30), Fraction(1e-161), Fraction(3e-162))
    assert invariant_value(1e-30, 1e-161, 3e-162) == float(exact) == 3.3333333333333337e+292


def test_invariant_past_a_product_underflowing_to_zero_is_the_exact_value_rounded():
    # x*y underflows to 0.0, g does not: g is the exact value rounded once
    exact = invariant_value(Fraction(1e-300), Fraction(1e-300), Fraction(1e-300))
    assert invariant_value(1e-300, 1e-300, 1e-300) == float(exact) == 3e300
    # g is 0 where alpha~ + x + y is: the g column of an exact simulate at p = 5e-324
    assert invariant_value(-2e-323, 1e-323, 1e-323) == 0.0
    assert invariant_value(Fraction(-2e-323), Fraction(1e-323), Fraction(1e-323)) == 0


_SEED_FRACTIONS = st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=12)
_ALPHAS = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(_ALPHAS, _SEED_FRACTIONS, _SEED_FRACTIONS)
def test_lyness_invariance_property(alpha_tilde, z0, z1):
    assert lyness_invariance_check(alpha_tilde, (z0, z1), 30)
