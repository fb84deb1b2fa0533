"""Tests for the exact sparse-polynomial engine."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lyness import exactalg
from lyness.certifier import proportionality_constant
from lyness.exactalg import (
    FIELD_BITS,
    VARIABLES,
    Poly,
    RationalFn,
    mono_text,
    substitute,
    var_id,
)

from polytext import grlex_key, parse_poly

x = Poly.var("x")
y = Poly.var("y")
u = Poly.var("u")
A = Poly.var("A")
t = Poly.var("t")
w = Poly.var("w")
v = Poly.var("v")


# ---------------------------------------------------------------------------
# arithmetic examples
# ---------------------------------------------------------------------------


def test_square_of_binomial():
    assert ((1 + t) ** 2).to_text() == "1 + 2*t + t^2"


def test_cube_of_binomial():
    assert ((1 + t) ** 3).to_text() == "1 + 3*t + 3*t^2 + t^3"


def test_difference_of_squares():
    assert (x - y) * (x + y) == x * x - y * y


def test_add_zero_is_identity():
    f = 3 * x * y - 2 * u ** 3
    assert f + Poly() == f
    assert f + 0 == f
    assert 0 + f == f


def test_power_zero_is_one():
    assert x ** 0 == Poly.const(1)
    assert (x + y) ** 0 == Poly.const(1)


def test_square_of_sum():
    lhs = (x + y) ** 2
    rhs = x ** 2 + 2 * x * y + y ** 2
    assert lhs == rhs
    assert lhs.monomial_count() == 3


@pytest.mark.parametrize("build", [
    lambda c: Poly.const(c),
    lambda c: Poly({(): c}),
    lambda c: c * x,
    lambda c: x * c,
    lambda c: x + c,
    lambda c: c - x,
    lambda c: RationalFn(c),
    lambda c: RationalFn(x, c),
    lambda c: RationalFn(x) * c,
    lambda c: substitute(x * y, {"x": c}),
], ids=["const", "mapping", "rmul", "mul", "add", "rsub", "rf-num",
        "rf-den", "rf-mul", "binding"])
def test_non_integral_coefficients_are_rejected(build):
    # only an int is a coefficient: an integral Fraction, a float and a
    # numeric string are refused as well
    for value in (Fraction(1, 2), Fraction(2), 2.0, "3"):
        with pytest.raises(TypeError):
            build(value)


def test_float_operands_are_refused():
    f = RationalFn(x, y)
    for op in (lambda: x - 1.5, lambda: 1.5 - x,
               lambda: f + 1.5, lambda: f - 1.5, lambda: f * 1.5):
        with pytest.raises(TypeError):
            op()
    assert (f == 1.5) is False
    for n in (-1, 1.5):
        with pytest.raises(ValueError, match="nonnegative integers"):
            x ** n
    with pytest.raises(TypeError, match="substitution target"):
        substitute(1.5, {})


def test_repr_and_str_show_the_canonical_text():
    p = 2 * x * y - 1
    for value, text in ((p, "-1 + 2*x*y"), (RationalFn(p), "-1 + 2*x*y"),
                        (RationalFn(p, x + 1), "(-1 + 2*x*y)/(1 + x)")):
        assert value.to_text() == str(value) == text
        assert repr(value) == f"{type(value).__name__}({text!r})"


def test_equality_with_a_non_integral_scalar_is_false():
    assert (x == Fraction(1, 2)) is False
    assert (Poly.const(1) == Fraction(1, 2)) is False
    assert (Poly.const(2) == Fraction(4, 2)) is False
    assert (Poly.const(2) == 2) is True
    assert (Poly() == 0) is True


def test_hash_agrees_with_equality_on_constants():
    # a constant equals its int, so it hashes as that int; zero hashes as 0
    for c in (1, -1, 2, 10**30):
        assert hash(Poly.const(c)) == hash(c)
    assert hash(Poly()) == hash(Poly.const(0)) == hash(0)
    assert len({2, Poly.const(2)}) == 1
    assert len({0, Poly()}) == 1
    assert {Poly.const(2): "two"}[2] == "two"
    assert hash(x * y + 1) == hash(1 + y * x)


def test_negation_and_subtraction():
    f = x * y - x * y
    assert f == Poly()
    assert f.monomial_count() == 0
    assert (-(x * y)).to_text() == "-x*y"


# ---------------------------------------------------------------------------
# serialization and parsing
# ---------------------------------------------------------------------------


def test_serialization_is_ascending_grlex():
    f = 1 + x + x ** 2
    assert f.to_text() == "1 + x + x^2"


def test_same_degree_orders_by_exponent_vector():
    # within one total degree the dense exponent vector is compared
    # ascending, so y (later slot) prints before x
    assert (x + y).to_text() == "y + x"


def test_parse_round_trip():
    f = -7 - 2 * x + 3 * x * y ** 2
    assert parse_poly(f.to_text()) == f


def test_parse_examples():
    assert parse_poly("0") == Poly()
    assert parse_poly("x^2 - 2*x + 1") == (x - 1) ** 2
    assert parse_poly("-2*u*A") == -2 * u * A


def test_serialization_independent_of_construction_order():
    f = x ** 2 + 3 * y + u * A
    g = u * A + x ** 2 + 3 * y
    assert f.to_text() == g.to_text()


def test_mono_text_alphabetical():
    f = 2 * u ** 3 * A ** 2
    _, mono = f.min_coefficient()
    assert mono_text(mono) == "A^2*u^3"


# ---------------------------------------------------------------------------
# min_coefficient
# ---------------------------------------------------------------------------


def test_min_coefficient_simple():
    f = 2 * A * Poly.var("k") ** 2 + 8 * A ** 2 * Poly.var("k") ** 2
    c, mono = f.min_coefficient()
    assert c == 2
    assert mono_text(mono) == "A*k^2"


def test_min_coefficient_negative_term():
    f = x ** 2 - 5 * x * y + 3 * y ** 2
    c, mono = f.min_coefficient()
    assert c == -5
    assert mono_text(mono) == "x*y"


def test_min_coefficient_of_zero_raises():
    with pytest.raises(ValueError, match="empty polynomial"):
        Poly().min_coefficient()


def test_min_coefficient_tie_takes_first_in_order():
    f = 4 * x + 4 * y  # tie: the grlex-smaller monomial (y) wins
    c, mono = f.min_coefficient()
    assert c == 4
    assert mono_text(mono) == "y"


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------


def test_substitute_shift():
    f = x ** 2 + y
    out = substitute(f, {"x": x + 1})
    assert out.den == Poly.const(1)
    assert out.num == x ** 2 + 2 * x + 1 + y


def test_substitute_mobius_clears_denominator():
    f = x + 1
    image = RationalFn(u * w, w + 1)
    out = substitute(f, {"x": image})
    # single clearing pass: (u*w + (w+1)) / (w+1)
    assert out.den == w + 1
    assert out.num == u * w + w + 1


def test_substitute_simultaneous():
    f = x * y
    out = substitute(f, {"x": y, "y": x})
    assert out.den == Poly.const(1)
    assert out.num == x * y


def test_substitute_rational_target():
    target = RationalFn(x + y, x)
    out = substitute(target, {"x": u + 1})
    assert out == RationalFn(u + 1 + y, u + 1)


def test_substitute_exponents_wider_than_a_byte():
    f = x ** 300 * y + x ** 257
    out = substitute(f, {"x": RationalFn(u, u + 1)})
    assert out.den == (u + 1) ** 300
    assert out.num == u ** 300 * y + u ** 257 * (u + 1) ** 43


def test_substitute_vanishing_denominator_raises():
    target = RationalFn(Poly.const(1), x - y)
    with pytest.raises(ZeroDivisionError, match="denominator vanishes identically"):
        substitute(target, {"x": y})


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


def test_rf_eq_cross_multiplied():
    a = RationalFn(x ** 2 - y ** 2, x - y)
    b = RationalFn((x + y) * u, u)
    assert a == b
    assert a != RationalFn(x + y + 1, Poly.const(1))


def test_rf_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFn(x, Poly())


def test_evaluate_poly():
    f = x ** 2 + 3 * y
    assert RationalFn(f).evaluate({"x": Fraction(2), "y": Fraction(1, 3)}) == 5


def test_evaluate_is_exact_on_ints_and_fractions_only():
    f = RationalFn(x ** 2 + 3 * y - 7)
    for point in ({"x": 2, "y": -5}, {"x": Fraction(1, 2), "y": Fraction(-2, 3)},
                  {"x": 3, "y": Fraction(5, 4), "u": 9}):  # u unused: ignored
        value = f.evaluate(point)
        assert type(value) is Fraction
        assert value == _ref_value(f.num.terms, point)
    assert type(RationalFn(Poly.const(3)).evaluate({})) is Fraction
    with pytest.raises(TypeError):
        f.evaluate({"x": 0.5, "y": 2})
    with pytest.raises(KeyError) as missing:
        f.evaluate({"x": 1})
    assert missing.value.args == ("y",)
    with pytest.raises(ValueError, match="unknown variable"):
        f.evaluate({"x": 1, "y": 2, "z": 3})


def test_evaluate_rational():
    r = RationalFn(x + 1, y)
    assert r.evaluate({"x": Fraction(3), "y": Fraction(2)}) == 2


# ---------------------------------------------------------------------------
# hypothesis: ring axioms
# ---------------------------------------------------------------------------

_COEFFS = st.integers(-5, 5)
_NAMES = ("x", "y", "u", "A")


def _mk_poly(term_map):
    total = Poly()
    for exps, coeff in term_map.items():
        term = Poly.const(coeff)
        for name, e in zip(_NAMES, exps):
            if e:
                term = term * Poly.var(name) ** e
        total = total + term
    return total


_EXPS = st.tuples(*(st.integers(0, 3) for _ in _NAMES))
polys = st.dictionaries(_EXPS, _COEFFS, max_size=5).map(_mk_poly)


@settings(max_examples=200)
@given(polys, polys, polys)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + Poly() == f
    assert f * Poly.const(1) == f
    assert f - f == Poly()


@settings(max_examples=200)
@given(polys)
def test_canonical_idempotent(f):
    assert parse_poly(f.to_text()) == f
    assert f.to_text() == parse_poly(f.to_text()).to_text()


# ---------------------------------------------------------------------------
# hypothesis: substitution is a homomorphism
# ---------------------------------------------------------------------------

_IMG_EXPS = st.tuples(st.integers(0, 2), st.integers(0, 2))


def _mk_image(term_map):
    total = Poly()
    for (e1, e2), coeff in term_map.items():
        term = Poly.const(coeff)
        if e1:
            term = term * u ** e1
        if e2:
            term = term * t ** e2
        total = total + term
    return total


images = st.dictionaries(_IMG_EXPS, _COEFFS, max_size=3).map(_mk_image)


@settings(max_examples=100)
@given(polys, polys, images, images)
def test_substitution_homomorphism(f, g, img_x, img_y):
    bindings = {"x": img_x, "y": img_y}
    prod = substitute(f * g, bindings)
    fact = substitute(f, bindings) * substitute(g, bindings)
    assert prod == fact
    total = substitute(f + g, bindings)
    parts = substitute(f, bindings) + substitute(g, bindings)
    assert total == parts


_POINTS = st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=8)


@settings(max_examples=100)
@given(polys, images, _POINTS, _POINTS, _POINTS, _POINTS)
def test_substitution_evaluation_compatible(f, img_x, pu, pt, py, pa):
    point = {"u": pu, "t": pt, "y": py, "A": pa}
    out = substitute(f, {"x": img_x})
    image_value = _ref_value(img_x.terms, point)
    direct = _ref_value(f.terms, {"x": image_value, **point})
    assert out.evaluate(point) == direct


def test_substitution_evaluation_compatible_rational_image():
    f = x ** 2 + x * y + 1
    image = RationalFn(u * w, w + 1)
    out = substitute(f, {"x": image})
    point = {"u": Fraction(3), "w": Fraction(2), "y": Fraction(5, 7)}
    image_value = _ref_value(image.num.terms, point) / _ref_value(image.den.terms, point)
    direct = _ref_value(f.terms, {"x": image_value, "y": point["y"]})
    assert out.evaluate(point) == direct


# ---------------------------------------------------------------------------
# hypothesis: the integer kernel against a plain dict-of-int reference
# ---------------------------------------------------------------------------
#
# The reference keeps every coefficient as an int in a plain dict and
# multiplies monomials through exponent dicts, sharing no code with Poly.


def _ref_mono(exps):
    return tuple((var_id(name), e) for name, e in zip(_NAMES, exps) if e)


def _ref_mono_mul(a, b):
    exps = dict(a)
    for vid, e in b:
        exps[vid] = exps.get(vid, 0) + e
    return tuple(sorted(exps.items()))


def _ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = _ref_mono_mul(ma, mb)
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _ref_pow(a, n):
    out = {(): 1}
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_value(ref, point):
    total = Fraction(0)
    for m, c in ref.items():
        term = c
        for vid, e in m:
            term *= point[VARIABLES[vid]] ** e
        total += term
    return total


def _ref_substitute(num, den, bindings):
    """The documented clearing: each term times prod num^e * den^(emax - e)."""
    images = {var_id(name): pair for name, pair in bindings.items()}
    emax = {vid: 0 for vid in images}
    for ref in (num, den):
        for m in ref:
            for vid, e in m:
                if vid in emax:
                    emax[vid] = max(emax[vid], e)
    images = {vid: pair for vid, pair in images.items() if emax[vid]}

    def image_of(ref):
        out = {}
        for m, c in ref.items():
            exps = dict(m)
            piece = {tuple((v, e) for v, e in m if v not in images): c}
            for vid, (img_num, img_den) in images.items():
                e = exps.get(vid, 0)
                piece = _ref_mul(piece, _ref_pow(img_num, e))
                piece = _ref_mul(piece, _ref_pow(img_den, emax[vid] - e))
            out = _ref_add(out, piece)
        return out

    return image_of(num), image_of(den)


_NONZERO = _COEFFS.filter(bool)
_REF = st.dictionaries(_EXPS.map(_ref_mono), _NONZERO, max_size=4)
_REF_IMAGE = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)).map(
        lambda ut: tuple(pair for pair in ((var_id("u"), ut[0]), (var_id("t"), ut[1]))
                         if pair[1])),
    _NONZERO, max_size=3)
#: A constant image n/d, zero included, as a pair of reference maps.
_CONST_IMAGE = st.tuples(_COEFFS, _NONZERO).map(
    lambda nd: ({(): nd[0]} if nd[0] else {}, {(): nd[1]}))
#: A binding's image as a (numerator, denominator) pair: a rational function
#: of u and t, or a constant, whose power rows are ints.
_BINDING = st.tuples(_REF_IMAGE, _REF_IMAGE.filter(bool)) | _CONST_IMAGE
_EXACT = st.fractions(min_value=Fraction(-7, 2), max_value=4, max_denominator=9)


def _assert_matches(p, ref):
    assert dict(p.terms) == ref
    assert all(type(c) is int for c in p.terms.values())
    # the stored form is canonical: equal to the same terms built afresh
    assert p == Poly(ref)


@settings(max_examples=150)
@given(_REF, _REF, st.integers(0, 3), _NONZERO)
def test_kernel_arithmetic_matches_reference(a, b, n, scalar):
    pa, pb = Poly(a), Poly(b)
    _assert_matches(pa, a)
    _assert_matches(pa + pb, _ref_add(a, b))
    _assert_matches(pa - pb, _ref_add(a, {m: -c for m, c in b.items()}))
    _assert_matches(pa * pb, _ref_mul(a, b))
    for m, c in b.items():
        # a one-term operand, on either side, goes through the general loop
        _assert_matches(pa * Poly({m: c}), _ref_mul(a, {m: c}))
        _assert_matches(Poly({m: c}) * pa, _ref_mul({m: c}, a))
    _assert_matches(pa ** n, _ref_pow(a, n))
    _assert_matches(pa * scalar, {m: c * scalar for m, c in a.items()})


_U, _T, _TU = ((var_id("u"), 1),), ((var_id("t"), 1),), ((var_id("u"), 1), (var_id("t"), 1))


@settings(max_examples=100)
@given(_REF, _REF.filter(bool), _BINDING, _BINDING, _BINDING)
# terms that agree on x and y but not on A have the same rows of x and y,
# each multiplied by a different row of A's polynomial image
@example({_ref_mono((1, 2, 0, 0)): 3, _ref_mono((1, 2, 1, 1)): -2,
          _ref_mono((1, 2, 2, 3)): 1, _ref_mono((1, 0, 0, 2)): 4},
         {_ref_mono((1, 2, 0, 1)): 1, _ref_mono((0, 0, 1, 0)): -1},
         ({_U: 1, (): 1}, {_T: 2, (): -1}), ({_T: 1}, {_U: 1, _T: 1}),
         ({_TU: 1, (): 2}, {_U: 1, (): 1}))
# a constant level before polynomial ones: terms that agree on x have the
# same int row of x as their scale and differ on y, then on A
@example({_ref_mono((2, 0, 0, 0)): 3, _ref_mono((2, 1, 0, 1)): -2,
          _ref_mono((2, 2, 1, 1)): 1, _ref_mono((0, 1, 0, 2)): 4},
         {_ref_mono((2, 0, 0, 1)): 1, _ref_mono((0, 0, 1, 0)): -1},
         ({(): -5}, {(): 3}), ({_U: 1, (): 1}, {_T: 2, (): -1}),
         ({_TU: 1, (): 2}, {_U: 1, (): 1}))
# a constant level after a polynomial one: terms that agree on x and y
# have the same row of x and scale from y, and differ on A, whose image 0/3
# drops the terms carrying A and leaves its clearing power on the others;
# the first term carries A and the second is A-free
@example({_ref_mono((1, 2, 1, 1)): -2, _ref_mono((1, 2, 0, 0)): 3,
          _ref_mono((1, 2, 2, 3)): 1, _ref_mono((0, 2, 0, 2)): 4},
         {_ref_mono((0, 2, 0, 1)): 1, _ref_mono((0, 0, 1, 0)): -1},
         ({_U: 1, (): 1}, {_T: 2, (): -1}), ({(): -7}, {(): 2}), ({}, {(): 3}))
# a target free of x, y and A: no binding is used, so each is a level of
# exponent 0 and the result is the target itself
@example({_ref_mono((0, 0, 2, 0)): 3, _ref_mono((0, 0, 1, 0)): -1, (): 2},
         {_ref_mono((0, 0, 1, 0)): 1, (): 1},
         ({_U: 1, (): 1}, {_T: 2, (): -1}), ({(): -5}, {(): 3}),
         ({_TU: 1, (): 2}, {_U: 1, (): 1}))
# a target free of A only: A's unused rational binding sits beside the
# used ones and changes nothing
@example({_ref_mono((1, 2, 0, 0)): 3, _ref_mono((0, 1, 1, 0)): -2, (): 1},
         {_ref_mono((1, 0, 0, 0)): 1, _ref_mono((0, 0, 1, 0)): -1},
         ({_U: 1, (): 1}, {_T: 2, (): -1}), ({_T: 1}, {_U: 1, _T: 1}),
         ({_TU: 1, (): 2}, {_U: 1, (): 1}))
# polynomial images, each over the denominator 1, for all three bindings:
# each row is multiplied by powers of 1
@example({_ref_mono((2, 1, 0, 1)): 3, _ref_mono((0, 2, 1, 2)): -2,
          _ref_mono((1, 0, 0, 0)): 1},
         {_ref_mono((0, 1, 0, 1)): 1, _ref_mono((2, 0, 0, 0)): -1, (): 4},
         ({_U: 1, _T: -1}, {(): 1}), ({_TU: 2, (): 1}, {(): 1}),
         ({_T: 1, (): 3}, {(): 1}))
def test_kernel_substitute_matches_reference(num, den, x_image, y_image, a_image):
    bindings = {"x": x_image, "y": y_image, "A": a_image}
    ref_num, ref_den = _ref_substitute(num, den, bindings)
    if not ref_den:
        with pytest.raises(ZeroDivisionError):
            substitute(RationalFn(Poly(num), Poly(den)),
                       {name: RationalFn(Poly(n), Poly(d))
                        for name, (n, d) in bindings.items()})
        return
    out = substitute(RationalFn(Poly(num), Poly(den)),
                     {name: RationalFn(Poly(n), Poly(d)) for name, (n, d) in bindings.items()})
    _assert_matches(out.num, ref_num)
    _assert_matches(out.den, ref_den)
    # products are formed row by row in binding order, and any order gives
    # the same result
    backward = substitute(RationalFn(Poly(num), Poly(den)),
                          {name: RationalFn(Poly(n), Poly(d))
                           for name, (n, d) in reversed(bindings.items())})
    _assert_matches(backward.num, ref_num)
    _assert_matches(backward.den, ref_den)


def _free_of_x(ref):
    return {m: c for m, c in ref.items() if all(vid != var_id("x") for vid, _ in m)}


@settings(max_examples=100)
@given(_REF, _REF.filter(bool))
def test_substitute_zero_binding_keeps_the_free_terms(num, den):
    # as in the q1-edge-x0-zero report: x = 0 drops every term carrying x
    # and keeps the others unchanged, with no clearing factor
    target = RationalFn(Poly(num), Poly(den))
    if not _free_of_x(den):
        with pytest.raises(ZeroDivisionError):
            substitute(target, {"x": 0})
        return
    out = substitute(target, {"x": 0})
    _assert_matches(out.num, _free_of_x(num))
    _assert_matches(out.den, _free_of_x(den))


def test_substitute_zero_binding_example():
    x0, y0, k = (Poly.var(name) for name in ("x0", "y0", "k"))
    out = substitute(x0 ** 2 * y0 + 3 * x0 * k + y0 ** 2 - k, {"x0": 0})
    assert (out.num, out.den) == (y0 ** 2 - k, Poly.const(1))


@settings(max_examples=150)
@given(_REF, _REF, _EXACT, _EXACT, _EXACT, _EXACT)
def test_kernel_exact_evaluate_matches_reference(a, b, px, py, pu, pa):
    point = {"x": px, "y": py, "u": pu, "A": pa}
    value = RationalFn(Poly(a)).evaluate(point)
    assert type(value) is Fraction
    assert value == _ref_value(a, point)
    den_value = _ref_value(b, point)
    if not b:
        return
    rf = RationalFn(Poly(a), Poly(b))
    if den_value == 0:
        with pytest.raises(ZeroDivisionError):
            rf.evaluate(point)
        return
    exact = rf.evaluate(point)
    assert type(exact) is Fraction
    assert exact == _ref_value(a, point) / den_value


@settings(max_examples=100)
@given(_REF.filter(bool))
def test_kernel_accessors_return_ints(ref):
    p = Poly(ref)
    least, mono = p.min_coefficient()
    assert type(least) is int
    assert least == min(ref.values())
    for m in (mono, ((var_id("v"), 9),)):
        assert type(p.coefficient(m)) is int
        assert p.coefficient(m) == ref.get(m, 0)
    const = proportionality_constant(2 * p, p)
    assert type(const) is Fraction
    assert const == Fraction(2)


def test_integral_polynomials_keep_int_coefficients():
    p = (1 + t) ** 4 * (u - 2 * x)
    assert all(type(c) is int for c in p._terms.values())
    assert all(type(c) is int for c in (3 * p)._terms.values())


# ---------------------------------------------------------------------------
# packed monomial keys
# ---------------------------------------------------------------------------


def test_constructor_canonicalizes_monomials():
    assert Poly({((var_id("x"), 0),): 1}) == Poly.const(1)
    assert Poly({((var_id("x"), 0),): 1}).to_text() == "1"
    assert Poly({((var_id("y"), 1), (var_id("x"), 1)): 1}) == x * y
    assert Poly({((var_id("y"), 2), (var_id("u"), 0), (var_id("x"), 1)): 3}) == 3 * x * y ** 2
    # keys naming one monomial in two orders add up
    xy, yx = ((var_id("x"), 1), (var_id("y"), 1)), ((var_id("y"), 1), (var_id("x"), 1))
    assert Poly({xy: 2, yx: 3}) == 5 * x * y


@pytest.mark.parametrize("mono, message", [
    (((len(VARIABLES), 1),), "unknown variable id"),
    (((-1, 1),), "unknown variable id"),
    ((("x", 1),), "unknown variable id"),
    (((0, 1), (0, 2)), "repeated"),
    (((1, 0), (1, 1)), "repeated"),
    (((0, -1),), "exponent of x"),
    (((0, 1.0),), "exponent of x"),
    (((0, Fraction(1)),), "exponent of x"),
    (((0, True),), "exponent of x"),
    (((0, 2 ** FIELD_BITS),), "exponent of x"),
    (((0, 2 ** (FIELD_BITS - 1)), (1, 2 ** (FIELD_BITS - 1))), "degree"),
], ids=["id-past-table", "id-negative", "id-name", "id-repeated",
        "id-repeated-zero", "exponent-negative", "exponent-float",
        "exponent-fraction", "exponent-bool", "exponent-too-large",
        "degree-too-large"])
def test_constructor_rejects_malformed_monomials(mono, message):
    with pytest.raises(ValueError, match=message):
        Poly({mono: 1})
    with pytest.raises(ValueError, match=message):
        x.coefficient(mono)


def test_accessors_speak_tuple_monomials():
    p = 3 * x ** 2 * y - 5 * A * t + 7
    assert dict(p.terms) == {((0, 2), (1, 1)): 3, ((3, 1), (4, 1)): -5, (): 7}
    assert p.coefficient(((1, 1), (0, 2))) == 3
    assert p.coefficient(((3, 1), (4, 1))) == -5
    assert p.coefficient(()) == 7
    assert p.coefficient(((0, 1),)) == 0
    assert p.min_coefficient() == (-5, ((3, 1), (4, 1)))


def _degree(p):
    """Total degree of a nonzero polynomial, read from its terms."""
    return max(sum(e for _, e in m) for m in p.terms)


@pytest.fixture
def no_key_past_the_limit(monkeypatch):
    """Fails a test if any term product forms a key of total degree
    ``2**FIELD_BITS`` or more: each degree check must come first."""
    product = exactalg._term_product

    def checked(a, b):
        out = product(a, b)
        assert all(m < exactalg._KEY_LIMIT for m in out)
        return out

    monkeypatch.setattr(exactalg, "_term_product", checked)


def test_product_degree_limit(no_key_past_the_limit):
    half = Poly({((0, 2 ** (FIELD_BITS - 1)),): 1})
    below = Poly({((1, 2 ** (FIELD_BITS - 1) - 1),): 1})
    top = half * below
    assert _degree(top) == 2 ** FIELD_BITS - 1
    assert dict(top.terms) == {((0, 2 ** (FIELD_BITS - 1)), (1, 2 ** (FIELD_BITS - 1) - 1)): 1}
    with pytest.raises(ValueError, match="product degree"):
        half * half
    with pytest.raises(ValueError, match="product degree"):
        top * x
    # the check comes before any term product, whichever side has one term
    with pytest.raises(ValueError, match="product degree"):
        (top + 1) * x
    with pytest.raises(ValueError, match="product degree"):
        x * (top + 1)
    with pytest.raises(ValueError, match="product degree"):
        half ** 2
    # a zero operand gives zero, whatever the other's degree
    for other in (half, top, Poly()):
        assert (Poly() * other).is_zero and (other * Poly()).is_zero


def test_substitute_degree_limit(no_key_past_the_limit):
    top = 2 ** FIELD_BITS - 1
    high = Poly({((var_id("y"), top - 1),): 1})
    assert _degree(substitute(x * high, {"x": u}).num) == top
    # a term's image would reach the limit
    with pytest.raises(ValueError, match="product degree"):
        substitute(x * high, {"x": u ** 2})
    # so would the clearing power of the image denominator on an x-free term
    with pytest.raises(ValueError, match="product degree"):
        substitute(RationalFn(high, x), {"x": RationalFn(u, u ** 2 + 1)})
    # and a power row of the image itself
    with pytest.raises(ValueError, match="product degree"):
        substitute(x ** 2, {"x": Poly({((var_id("y"), 2 ** (FIELD_BITS - 1)),): 1})})


def _images(high_y):
    """Bindings of x and y whose numerators have degrees 2**15 and
    ``high_y``, each image several terms, so rows take the full loop."""
    half = 2 ** (FIELD_BITS - 1)
    return {"x": ({_ref_mono((0, 0, half, 0)): 1, _T: -2}, {(): 1}),
            "y": ({_ref_mono((0, 0, 0, high_y)): 3, _U: 1}, {_T: 1, (): 1})}


def test_substitute_bound_product_degree_limit(no_key_past_the_limit):
    # each row is below the limit, and a term with no kept part multiplies
    # them to exactly the limit
    num, den = {_ref_mono((1, 1, 0, 0)): 1}, {(): 1}
    bindings = _images(2 ** (FIELD_BITS - 1))
    with pytest.raises(ValueError, match="product degree"):
        substitute(RationalFn(Poly(num), Poly(den)),
                   {name: RationalFn(Poly(n), Poly(d)) for name, (n, d) in bindings.items()})
    # one below the limit goes through and matches the reference
    bindings = _images(2 ** (FIELD_BITS - 1) - 1)
    out = substitute(RationalFn(Poly(num), Poly(den)),
                     {name: RationalFn(Poly(n), Poly(d)) for name, (n, d) in bindings.items()})
    ref_num, ref_den = _ref_substitute(num, den, bindings)
    assert _degree(out.num) == 2 ** FIELD_BITS - 1
    _assert_matches(out.num, ref_num)
    _assert_matches(out.den, ref_den)


def test_zero_binding_on_a_high_degree_target(no_key_past_the_limit):
    # x = 0 leaves the rows past x^0 empty: neither they nor a product with
    # them is refused, whatever the degrees alongside
    half, top = 2 ** (FIELD_BITS - 1), 2 ** FIELD_BITS - 1
    high_x = Poly({((var_id("x"), top),): 1})
    assert substitute(high_x + y, {"x": 0}) == y
    target = (Poly({((var_id("x"), 1), (var_id("y"), half)): 5})
              + Poly({((var_id("y"), half), (var_id("t"), half - 1)): 1}))
    out = substitute(target, {"x": 0, "y": u})
    assert (out.num, out.den) == (Poly({((var_id("u"), half), (var_id("t"), half - 1)): 1}),
                                  Poly.const(1))
    # a zero over a high-degree denominator: the empty row for x^1 is not
    # refused, though a row of x^1's nominal degree would reach the limit
    # with y's
    clearing = Poly({((var_id("u"), 2 * half - 2),): 1})
    target = Poly({((var_id("x"), 1), (var_id("y"), half + 1)): 1}) + x ** 2 + t
    out = substitute(target, {"x": RationalFn(0, Poly({((var_id("u"), half - 1),): 1})),
                              "y": u})
    assert (out.num, out.den) == (t * clearing, clearing)


@settings(max_examples=100)
@given(_BINDING, st.integers(0, 4))
@example(({(): -5}, {(): 3}), 3)
@example(({}, {(): 3}), 2)
def test_power_rows_report_their_degrees(image, emax):
    num, den = image
    rows, degrees = exactalg._power_rows(RationalFn(Poly(num), Poly(den)), emax)
    assert len(rows) == len(degrees) == emax + 1
    constant = num.keys() <= {()} and den.keys() <= {()}
    for e, (row, degree) in enumerate(zip(rows, degrees)):
        if constant:
            # a constant image's rows are the ints n^e * d^(emax-e)
            assert type(row) is int
            assert row == num.get((), 0) ** e * den[()] ** (emax - e)
        if not row:
            # only a zero numerator empties a row, and its degree is far
            # below zero, so no product with it is refused
            assert not num and degree < -exactalg._LIMIT
        else:
            assert (0 if constant else max(row) >> exactalg._DEG_SHIFT) == degree


_LARGE = st.integers(1, 2 ** FIELD_BITS - 1)
_TUPLE_MONOS = st.dictionaries(
    st.integers(0, len(VARIABLES) - 1), st.integers(1, 3) | _LARGE, max_size=4,
).filter(lambda exps: sum(exps.values()) < 2 ** FIELD_BITS).flatmap(
    lambda exps: st.permutations(sorted(exps.items())).map(tuple))


@settings(max_examples=300)
@given(_TUPLE_MONOS, _TUPLE_MONOS)
def test_packed_order_is_grlex_order(a, b):
    ka, kb = exactalg._pack(a), exactalg._pack(b)
    assert (ka < kb) == (grlex_key(a) < grlex_key(b))
    assert (ka == kb) == (grlex_key(a) == grlex_key(b))
    assert exactalg._unpack(ka) == tuple(sorted(a))
    if grlex_key(a)[0] + grlex_key(b)[0] < 2 ** FIELD_BITS:
        assert exactalg._unpack(ka + kb) == _ref_mono_mul(a, b)
