"""Tests for the model layer: parameters, equilibria, symbolic objects."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lyness.certifier import delta1_closed_form, delta2_denominator, proportionality_constant
from lyness.model import (
    ParamsPQ,
    QuadValue,
    build_symbolic_model,
    equilibrium,
    equilibrium_exact,
    equilibrium_residual,
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


def quad_sign(z: QuadValue) -> int:
    """Exact sign of a + b*sqrt(d)."""
    if z.b == 0:
        return (z.a > 0) - (z.a < 0)
    if z.a >= 0 and z.b > 0:
        return 1
    if z.a <= 0 and z.b < 0:
        return -1
    lhs = z.a * z.a
    rhs = z.b * z.b * z.d
    if z.a > 0:  # b < 0
        return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
    return -1 if lhs > rhs else (1 if lhs < rhs else 0)


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


@pytest.mark.parametrize("p, q", [(1.7e308, 2.0), (1e300, 1e300), (1e300, 1e-300)],
                         ids=["x-bar", "square", "y-bar"])
def test_equilibrium_beyond_the_float_range_is_a_value_error(p, q):
    with pytest.raises(ValueError, match=re.escape(f"p={p:.17g}, q={q:.17g} is beyond")):
        equilibrium(ParamsPQ(p, q))


def test_equilibrium_solves_fixed_point_equation():
    rng = random.Random(7)
    for _ in range(100):
        p = rng.uniform(0.01, 100.0)
        q = rng.uniform(0.01, 100.0)
        info = equilibrium(ParamsPQ(p, q))
        residual = info.xbar * (1 + info.xbar) - p - q * info.xbar
        assert abs(residual) <= 1e-9 * max(1.0, info.xbar ** 2)


def test_equilibrium_exact_collapses_on_perfect_square():
    # p = q makes the discriminant (q+1)^2, so everything is rational and
    # the transformed equilibrium sits exactly at 1
    for q in (Fraction(2), Fraction(7, 2), Fraction(1, 3)):
        xbar, ybar, alpha_tilde = equilibrium_exact(q, q)
        assert xbar.is_rational and xbar.a == q
        assert ybar.is_rational and ybar.a == 1
        assert alpha_tilde.is_rational and alpha_tilde.a == 0


def test_equilibrium_residual_is_exactly_zero():
    rng = random.Random(23)
    for _ in range(50):
        p = Fraction(rng.randint(1, 500), rng.randint(1, 50))
        q = Fraction(rng.randint(1, 500), rng.randint(1, 50))
        res = equilibrium_residual(p, q)
        assert res.a == 0 and res.b == 0


def test_transformed_equilibrium_exceeds_one_iff_q_below_p():
    rng = random.Random(31)
    for _ in range(200):
        p = Fraction(rng.randint(1, 300), rng.randint(1, 30))
        q = Fraction(rng.randint(1, 300), rng.randint(1, 30))
        _, ybar, _ = equilibrium_exact(p, q)
        assert (quad_sign(ybar - 1) > 0) == (q < p)
    # boundary: p = q gives ybar exactly 1
    _, ybar, _ = equilibrium_exact(Fraction(5), Fraction(5))
    assert quad_sign(ybar - 1) == 0


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
    model = build_symbolic_model()
    for u, a in ((Fraction(3, 2), Fraction(2)), (Fraction(5), Fraction(1, 3))):
        point = {"x": u, "y": u, "u": u, "A": a}
        assert model.step_map[0].evaluate(point) == u
        assert model.step_map[1].evaluate(point) == u


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
    assert model.delta1 == delta1_closed_form()


def test_delta2_denominator_matches_displayed_product():
    model = build_symbolic_model()
    built = model.delta2.den
    displayed = delta2_denominator()
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


def test_invariant_rejects_nonpositive_coordinates():
    with pytest.raises(ZeroDivisionError):
        invariant_value(Fraction(1), Fraction(0), Fraction(1))


_SEED_FRACTIONS = st.fractions(min_value=Fraction(1, 8), max_value=8, max_denominator=12)
_ALPHAS = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(_ALPHAS, _SEED_FRACTIONS, _SEED_FRACTIONS)
def test_lyness_invariance_property(alpha_tilde, z0, z1):
    assert lyness_invariance_check(alpha_tilde, (z0, z1), 30)
