"""Recurrence model: parameter changes, equilibria, and the symbolic invariant.

The recurrence x[n+1] = (p + q*x[n]) / (1 + x[n-1]) is studied through the
substitution p = alpha/A^2, q = 1/A, x = q*y, which turns it into
y[n+1] = (alpha + y[n]) / (A + y[n-1]).  Writing u for the positive equilibrium
of the transformed equation gives alpha = u^2 + (A-1)*u, and the limiting case
A = 0 is the Lyness equation z[n+1] = (alpha~ + z[n]) / z[n-1] with
alpha~ = u^2 - u, whose orbits preserve

    g(x, y) = (1 + x)(1 + y)(alpha~ + x + y) / (x*y).

`build_symbolic_model` constructs g with alpha~ = u^2 - u baked in, the planar
step map (x, y) -> (y, (u^2 + (A-1)u + y)/(A + x)), and the exact drops of g
after one and after two applications of the map.  Those two rational functions
are the objects the certificate pipeline proves positive on the four closed
quadrants around (u, u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .exactalg import Poly, RationalFn, substitute

Number = Union[int, float, Fraction]


@dataclass(frozen=True)
class ParamsPQ:
    """Parameters of the recurrence x[n+1] = (p + q*x[n]) / (1 + x[n-1])."""

    p: Number
    q: Number

    def __post_init__(self):
        if not (self.p > 0 and self.q > 0):
            raise ValueError("parameters p and q must be positive")


@dataclass(frozen=True)
class ParamsAlphaA:
    """Parameters (alpha, A) of the transformed recurrence
    y[n+1] = (alpha + y[n]) / (A + y[n-1])."""

    alpha: Number
    cap_a: Number

    def __post_init__(self):
        if not (self.alpha > 0 and self.cap_a > 0):
            raise ValueError("parameters alpha and A must be positive")


@dataclass(frozen=True)
class EquilibriumInfo:
    """Float view of the equilibrium in original and transformed coordinates."""

    xbar: float
    ybar: float
    alpha_tilde: float


def to_alpha_A(params: ParamsPQ) -> ParamsAlphaA:
    """Parameter change A = 1/q, alpha = p/q^2 (exact on rational input)."""
    q = params.q
    if isinstance(params.p, float) or isinstance(q, float):
        return ParamsAlphaA(float(params.p) / float(q) ** 2, 1.0 / float(q))
    q = Fraction(q)
    return ParamsAlphaA(Fraction(params.p) / q ** 2, 1 / q)


def from_alpha_A(params: ParamsAlphaA) -> ParamsPQ:
    """Inverse parameter change q = 1/A, p = alpha/A^2."""
    a = params.cap_a
    if isinstance(params.alpha, float) or isinstance(a, float):
        return ParamsPQ(float(params.alpha) / float(a) ** 2, 1.0 / float(a))
    a = Fraction(a)
    return ParamsPQ(Fraction(params.alpha) / a ** 2, 1 / a)


def equilibrium(params: ParamsPQ) -> EquilibriumInfo:
    """Positive equilibrium xbar = (q - 1 + sqrt((q-1)^2 + 4p)) / 2, plus its
    transformed value ybar = xbar/q and alpha~ = ybar^2 - ybar.  Raises
    ValueError when p or q rounds to 0.0 as a float."""
    p = float(params.p)
    q = float(params.q)
    for name, value in (("p", p), ("q", q)):
        if value == 0.0:
            raise ValueError(f"parameter {name} is too small for float arithmetic")
    xbar = 0.5 * (q - 1.0 + math.sqrt((q - 1.0) ** 2 + 4.0 * p))
    ybar = xbar / q
    return EquilibriumInfo(xbar, ybar, ybar * ybar - ybar)


def alpha_of_u(u: Number, cap_a: Number) -> Number:
    """alpha = u^2 + (A - 1)*u: the alpha for which u is the equilibrium."""
    return u * u + (cap_a - 1) * u


# -- exact quadratic values ---------------------------------------------------


@dataclass(frozen=True)
class QuadValue:
    """Exact value a + b*sqrt(d) with rational a, b and integer d >= 0.

    Construct through `quad`, which collapses perfect-square radicands so that
    equality is well defined.  Arithmetic requires matching radicands.
    """

    a: Fraction
    b: Fraction
    d: int

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def __add__(self, other: "QuadValue | int | Fraction") -> "QuadValue":
        other = _as_quad(other, self.d)
        _check_compatible(self, other)
        d = self.d if self.b else other.d
        return quad(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self) -> "QuadValue":
        return QuadValue(-self.a, -self.b, self.d)

    def __sub__(self, other: "QuadValue | int | Fraction") -> "QuadValue":
        return self + (-_as_quad(other, self.d))

    def __rsub__(self, other: "QuadValue | int | Fraction") -> "QuadValue":
        return _as_quad(other, self.d) + (-self)

    def __mul__(self, other: "QuadValue | int | Fraction") -> "QuadValue":
        other = _as_quad(other, self.d)
        _check_compatible(self, other)
        d = self.d if self.b else other.d
        return quad(self.a * other.a + self.b * other.b * d,
                    self.a * other.b + self.b * other.a, d)

    __rmul__ = __mul__

    def __truediv__(self, scalar: "int | Fraction") -> "QuadValue":
        s = Fraction(scalar)
        return QuadValue(self.a / s, self.b / s, self.d)

    def to_float(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)


def quad(a: Number, b: Number, d: int) -> QuadValue:
    """Normalized a + b*sqrt(d): perfect squares and b == 0 collapse to
    rational values (d = 0)."""
    a, b = Fraction(a), Fraction(b)
    if d < 0:
        raise ValueError("radicand must be nonnegative")
    if b == 0 or d == 0:
        return QuadValue(a, Fraction(0), 0)
    root = math.isqrt(d)
    if root * root == d:
        return QuadValue(a + b * root, Fraction(0), 0)
    return QuadValue(a, b, d)


def _as_quad(value, d: int) -> QuadValue:
    if isinstance(value, QuadValue):
        return value
    return QuadValue(Fraction(value), Fraction(0), 0)


def _check_compatible(lhs: QuadValue, rhs: QuadValue):
    if lhs.b and rhs.b and lhs.d != rhs.d:
        raise ValueError("incompatible radicands")


def equilibrium_exact(p: Fraction, q: Fraction) -> tuple[QuadValue, QuadValue, QuadValue]:
    """Exact (xbar, ybar, alpha~) as quadratic values over sqrt of the
    discriminant (q-1)^2 + 4p.  Rational whenever the discriminant is a
    perfect square."""
    p, q = Fraction(p), Fraction(q)
    if not (p > 0 and q > 0):
        raise ValueError("parameters p and q must be positive")
    disc = (q - 1) ** 2 + 4 * p
    # sqrt(m/n) = sqrt(m*n)/n with integer radicand m*n
    m, n = disc.numerator, disc.denominator
    root = quad(0, Fraction(1, n), m * n)
    xbar = (root + (q - 1)) / 2
    ybar = xbar / q
    alpha_tilde = ybar * ybar - ybar
    return xbar, ybar, alpha_tilde


def equilibrium_residual(p: Fraction, q: Fraction) -> QuadValue:
    """Exact residual xbar*(1 + xbar) - p - q*xbar; zero when xbar solves the
    fixed-point equation."""
    xbar, _, _ = equilibrium_exact(p, q)
    return xbar * (xbar + 1) - Fraction(p) - Fraction(q) * xbar


# -- symbolic model -----------------------------------------------------------


@dataclass(frozen=True)
class SymbolicModel:
    """Symbolic invariant, step map, and its one- and two-step drops.

    Fields
    ------
    invariant : g(x, y) with alpha~ = u^2 - u baked in (variables x, y, u).
    step_map  : pair (x-image, y-image) of the planar map
                (x, y) -> (y, (u^2 + (A-1)u + y) / (A + x)).
    delta1    : g - g o T, the drop of g after one map application.
    delta2    : g - g o T o T, the drop after two applications.
    """

    invariant: RationalFn
    step_map: tuple[RationalFn, RationalFn]
    delta1: RationalFn
    delta2: RationalFn


@lru_cache(maxsize=1)
def build_symbolic_model() -> SymbolicModel:
    """Construct the symbolic objects once; results are shared and immutable."""
    x, y, u, A = (Poly.var(n) for n in ("x", "y", "u", "A"))
    g = RationalFn((1 + x) * (1 + y) * (u * u - u + x + y), x * y)
    t1 = RationalFn(y)
    t2 = RationalFn(u * u + A * u - u + y, A + x)
    step = {"x": t1, "y": t2}
    # the equilibrium (u, u) must be fixed by the map
    if substitute(t2, {"x": RationalFn(u), "y": RationalFn(u)}) != u:
        raise AssertionError("step map does not fix (u, u)")
    g_t = substitute(g, step)
    g_tt = substitute(g_t, step)
    return SymbolicModel(invariant=g,
                         step_map=(t1, t2),
                         delta1=g - g_t,
                         delta2=g - g_tt)


def eval_delta(which: int,
               point: tuple[Fraction, Fraction, Fraction, Fraction]) -> Fraction:
    """Exact value of delta1 (which=1) or delta2 (which=2) at (x, y, u, A).

    Requires x, y, A > 0 and u > 1, the standing assumptions of the descent
    lemmas.
    """
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    x, y, u, a = point
    if not (x > 0 and y > 0 and a > 0):
        raise ValueError("x, y and A must be positive")
    if not u > 1:
        raise ValueError("u must exceed 1")
    model = build_symbolic_model()
    rf = model.delta1 if which == 1 else model.delta2
    return rf.evaluate({"x": Fraction(x), "y": Fraction(y),
                        "u": Fraction(u), "A": Fraction(a)})


# -- Lyness equation ----------------------------------------------------------


def invariant_value(alpha_tilde: Number, x: Number, y: Number) -> Number:
    """g(x, y) = (1+x)(1+y)(alpha~ + x + y)/(x*y); exact on exact input."""
    if not (x > 0 and y > 0):
        raise ZeroDivisionError("invariant requires positive coordinates")
    return (1 + x) * (1 + y) * (alpha_tilde + x + y) / (x * y)


def lyness_step(alpha_tilde: Number, z_prev: Number, z_curr: Number) -> Number:
    """One step of z[n+1] = (alpha~ + z[n]) / z[n-1]."""
    return (alpha_tilde + z_curr) / z_prev


def lyness_orbit(alpha_tilde: Number, seed: tuple[Number, Number], steps: int) -> list[Number]:
    """Orbit [z[-1], z[0], ..., z[steps]] of the Lyness recurrence."""
    z_prev, z_curr = seed
    orbit = [z_prev, z_curr]
    for _ in range(steps):
        z_prev, z_curr = z_curr, lyness_step(alpha_tilde, z_prev, z_curr)
        orbit.append(z_curr)
    return orbit


def lyness_equilibrium(alpha_tilde: float) -> float:
    """Positive fixed point z of z^2 = alpha~ + z."""
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * float(alpha_tilde)))


def lyness_invariance_check(alpha_tilde: Fraction,
                            seed: tuple[Fraction, Fraction],
                            steps: int) -> bool:
    """Exact check that g is constant along a Lyness orbit.

    Iterates with Fraction arithmetic; every iterate must stay positive and
    every consecutive pair must give exactly the same invariant value.
    """
    alpha_tilde = Fraction(alpha_tilde)
    z_prev, z_curr = Fraction(seed[0]), Fraction(seed[1])
    if not (z_prev > 0 and z_curr > 0):
        raise ValueError("seed must be positive")
    reference = invariant_value(alpha_tilde, z_prev, z_curr)
    for _ in range(steps):
        z_prev, z_curr = z_curr, lyness_step(alpha_tilde, z_prev, z_curr)
        if z_curr <= 0:
            return False
        if invariant_value(alpha_tilde, z_prev, z_curr) != reference:
            return False
    return True
