"""Recurrence model: equilibria and the symbolic invariant.

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
import sys
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Union

from .exactalg import Poly, RationalFn, substitute

Number = Union[int, float, Fraction]

#: The smallest positive normal float; `invariant_value` runs per orbit step.
_MIN_NORMAL = sys.float_info.min


# The records below are `typing.NamedTuple`s: immutable, and far cheaper to
# define at import time than frozen dataclasses.  A record that validates its
# fields does so in ``__new__`` on a NamedTuple base, which NamedTuple itself
# does not allow to override.  The parameter record also compares its type,
# so that (p, q) never equals a plain tuple or another record.  A value
# the fields determine is a property (``alpha_tilde`` here, ``iters_to_tol``
# and ``flags`` in `dynamics`), not a field.  `dynamics` keeps dataclasses:
# the benchmark calls ``dataclasses.replace`` on a `DescentResult`.


class _ParamsPQ(NamedTuple):
    p: Number
    q: Number


class ParamsPQ(_ParamsPQ):
    """Parameters of the recurrence x[n+1] = (p + q*x[n]) / (1 + x[n-1])."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not ParamsPQ.__eq__(self, other)

    def __new__(cls, p: Number, q: Number):
        if not (p > 0 and q > 0):
            raise ValueError("parameters p and q must be positive")
        return super().__new__(cls, p, q)


class EquilibriumInfo(NamedTuple):
    """Float view of the equilibrium in original and transformed coordinates."""

    xbar: float
    ybar: float

    @property
    def alpha_tilde(self) -> float:
        return self.ybar * self.ybar - self.ybar


def equilibrium(params: ParamsPQ) -> EquilibriumInfo:
    """Positive equilibrium xbar = (q - 1 + sqrt((q-1)^2 + 4p)) / 2, plus its
    transformed value ybar = xbar/q and alpha~ = ybar^2 - ybar.  At q < 1
    xbar is computed as 2p / (sqrt((q-1)^2 + 4p) - (q-1)), which does not
    cancel.  Where (q-1)^2 + 4p overflows, the root is hypot(q-1, 2 sqrt(p))
    and xbar = (q-1)/2 + root/2, which neither overflows nor cancels there.
    Where q = p exactly, ybar is 1.0, so alpha~ is 0.0.  Where q < p, so
    that ybar exceeds 1, a ybar rounded below 1 is taken as
    1 + (p - q)/(xbar + 1)/q instead, which is at least 1: ybar >= 1 there.
    Raises ValueError when p or q rounds to 0.0 as a float, and when ybar
    overflows the float range."""
    p = float(params.p)
    q = float(params.q)
    for name, value in (("p", p), ("q", q)):
        if value == 0.0:
            raise ValueError(f"parameter {name} is too small for float arithmetic")
    d = q - 1.0
    square = d * d + 4.0 * p
    if square == math.inf:  # d*d or 4p overflows; at d < 0 the root dwarfs -d < 1
        xbar = 0.5 * d + 0.5 * math.hypot(d, 2.0 * math.sqrt(p))
    else:
        root = math.sqrt(square)
        xbar = 0.5 * (d + root) if d >= 0 else 2.0 * p / (root - d)
    # from (xbar - q)(xbar + 1) = p - q: ybar = 1 exactly at q = p
    ybar = xbar / q
    if params.q == params.p:
        ybar = 1.0
    elif params.q < params.p and ybar < 1:
        ybar = 1 + (p - q) / (xbar + 1) / q
    if not math.isfinite(ybar):
        raise ValueError(f"the equilibrium at p={p:.17g}, q={q:.17g} "
                         "is beyond the float range")
    return EquilibriumInfo(xbar, ybar)


# -- symbolic model -----------------------------------------------------------


class SymbolicModel(NamedTuple):
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
    """g(x, y) = (1+x)(1+y)(alpha~ + x + y)/(x*y); exact on exact input.
    Where a float x*y is below the normal range, 0.0 included, the numerator
    is divided by the larger coordinate, then the smaller, so g keeps the
    precision x*y lacks.  Where the numerator overflows (as it does wherever
    x*y does), g is (1 + 1/x)(1 + 1/y)(alpha~ + x + y)."""
    if not (x > 0 and y > 0):
        raise ZeroDivisionError("invariant requires positive coordinates")
    num = (1 + x) * (1 + y) * (alpha_tilde + x + y)
    if not abs(num) < math.inf:
        return (1 + 1 / x) * (1 + 1 / y) * (alpha_tilde + x + y)
    xy = x * y
    if xy < _MIN_NORMAL:
        return num / max(x, y) / min(x, y)
    return num / xy


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
