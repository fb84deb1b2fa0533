"""Sparse multivariate polynomials and rational functions over exact rationals,
computed on Python integers.

A polynomial is a finite map from monomials to nonzero `int` coefficients
plus one positive `int` denominator shared by every term (the content factor
``1/den``): the coefficient of monomial ``m`` is ``terms[m] / den``.  The pair
is kept canonical, with ``den`` the least common denominator (so gcd(den,
coefficients) == 1), which makes equality a plain comparison.  Every
polynomial of the certificate roster is integral (``den == 1``), so its
products, sums, powers and substitutions run on ints alone.  `Fraction`
appears in two places only: the public accessors (`Poly.terms`,
`Poly.coefficient`, `Poly.min_coefficient`) return `Fraction` values, and a
polynomial with non-integral coefficients carries ``den > 1``.

Each monomial is stored as one packed Python `int`.  Every variable of the
fixed global table (see `VARIABLES`) owns one `FIELD_BITS`-bit exponent
field, ``x`` (id 0) highest and the last variable lowest, and the field
above them all holds the total degree.  A monomial product is then one int
addition, graded-lexicographic order (total degree, then the exponent vector
read in table order) is plain int order, and `substitute` splits a key into
its bound and kept parts with one mask.  This holds while every exponent
and total degree stays below ``2**FIELD_BITS``: the constructor rejects
larger ones, and `Poly.__mul__` raises `ValueError` before a product would
reach that degree.  The fixed table keeps keys comparable across every
object in the package without table-merging bookkeeping.

The public surface keeps the tuple form.  A `Monomial` is a tuple of
``(variable_id, exponent)`` pairs sorted by variable id, every exponent
positive; the empty tuple is the constant monomial.  Tuples are packed where
they enter (`Poly(...)`, which accepts pairs in any order and drops zero
exponents, and `Poly.coefficient`) and unpacked only where keys leave the
kernel: `Poly.terms`, the `Poly.min_coefficient` witness, `Poly.to_text`,
and `Poly.evaluate`, which decodes each polynomial's keys once and keeps
them.

Rational functions are unreduced pairs numerator/denominator.  No gcd or
factorization is ever computed: equality is decided by cross-multiplication,
and substitution clears binding denominators in a single common-denominator
pass so that composed maps stay in the expected normalized shape.

`substitute` builds each output polynomial in one pass over the target's
terms, on ints alone: every term product is one key addition and one
multiply-add into a single int accumulator, canonicalised once at the end.
`Poly.__mul__` and the power rows of `substitute` share one term-product
loop.

Everything here is immutable after construction and safe to share; the only
state filled in later is that cache of decoded keys, derived from the terms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Union

#: Fixed global variable order; grlex comparisons read exponents in this order.
VARIABLES: tuple[str, ...] = ("x", "y", "u", "A", "t", "k", "x0", "y0", "w", "v")

_VAR_ID: dict[str, int] = {name: i for i, name in enumerate(VARIABLES)}

Monomial = tuple[tuple[int, int], ...]

_ZERO = Fraction(0)

Scalar = Union[int, Fraction]

#: Width of each packed exponent field; every exponent and every total
#: degree stays below ``2**FIELD_BITS``.
FIELD_BITS = 16
_LIMIT = 1 << FIELD_BITS
_FIELD_MASK = _LIMIT - 1
#: Bit offset of each variable's exponent field, indexed by variable id.
_SHIFTS: tuple[int, ...] = tuple(FIELD_BITS * (len(VARIABLES) - 1 - vid)
                                 for vid in range(len(VARIABLES)))
#: Bit offset of the total-degree field, above every exponent field.
_DEG_SHIFT = FIELD_BITS * len(VARIABLES)
#: Smallest packed key whose total degree reaches ``2**FIELD_BITS``.
_KEY_LIMIT = _LIMIT << _DEG_SHIFT


def var_id(name: str) -> int:
    """Index of a variable in the global table; unknown names are rejected."""
    try:
        return _VAR_ID[name]
    except KeyError:
        raise ValueError(f"unknown variable: {name!r}") from None


def grlex_key(m: Monomial) -> tuple[int, tuple[int, ...]]:
    """Graded-lexicographic sort key: total degree, then the dense exponent
    vector read in the global variable order."""
    vec = [0] * len(VARIABLES)
    for vid, e in m:
        vec[vid] = e
    return (sum(vec), tuple(vec))


def mono_text(m: Monomial) -> str:
    """Canonical text of a monomial, e.g. ``A*k^2``; the constant is ``1``.

    Factors are listed alphabetically by variable name (display convention
    only; ordering comparisons always use `grlex_key`).
    """
    if not m:
        return "1"
    parts = []
    for vid, e in sorted(m, key=lambda pair: VARIABLES[pair[0]]):
        name = VARIABLES[vid]
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _pack(mono: Monomial) -> int:
    """Packed key of a tuple monomial.

    Pairs may come in any order and zero exponents are dropped.  An unknown
    or repeated variable id, an exponent that is not an int, is negative or
    does not fit its field, and a total degree of ``2**FIELD_BITS`` or more
    raise ValueError.
    """
    key = degree = 0
    seen = set()
    for vid, e in mono:
        if type(vid) is not int or not 0 <= vid < len(VARIABLES):
            raise ValueError(f"unknown variable id in monomial: {vid!r}")
        if vid in seen:
            raise ValueError(f"variable {VARIABLES[vid]} repeated in monomial")
        seen.add(vid)
        if type(e) is not int or not 0 <= e < _LIMIT:
            raise ValueError(f"exponent of {VARIABLES[vid]} must be an int "
                             f"in [0, 2**{FIELD_BITS}), got {e!r}")
        key |= e << _SHIFTS[vid]
        degree += e
    if degree >= _LIMIT:
        raise ValueError(f"monomial degree {degree} is not below 2**{FIELD_BITS}")
    return key | degree << _DEG_SHIFT


def _unpack(key: int) -> Monomial:
    """Tuple monomial of a packed key."""
    return tuple((vid, e) for vid, shift in enumerate(_SHIFTS)
                 if (e := (key >> shift) & _FIELD_MASK))


class Poly:
    """Immutable sparse multivariate polynomial with exact rational
    coefficients, stored as ints over one common denominator."""

    __slots__ = ("_terms", "_den", "_decoded")

    def __init__(self, terms: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] | None = None):
        acc: dict[int, Fraction] = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for mono, coeff in items:
                key = _pack(mono)
                acc[key] = acc.get(key, _ZERO) + Fraction(coeff)
        den = math.lcm(*(c.denominator for c in acc.values()))
        self._terms = {m: c.numerator * (den // c.denominator)
                       for m, c in acc.items() if c}
        self._den = den
        self._decoded = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, value: Scalar) -> "Poly":
        c = Fraction(value)
        return _make({0: c.numerator}, c.denominator) if c else cls()

    @classmethod
    def var(cls, name: str) -> "Poly":
        return _make({1 << _DEG_SHIFT | 1 << _SHIFTS[var_id(name)]: 1}, 1)

    # -- inspection --------------------------------------------------------

    def _tuple_items(self) -> tuple[tuple[Monomial, int], ...]:
        """(tuple monomial, int coefficient) pairs, decoded once per polynomial."""
        if self._decoded is None:
            self._decoded = tuple((_unpack(k), c) for k, c in self._terms.items())
        return self._decoded

    @property
    def terms(self) -> Mapping[Monomial, Fraction]:
        """Read-only map from each monomial to its `Fraction` coefficient."""
        den = self._den
        return MappingProxyType({m: Fraction(c, den) for m, c in self._tuple_items()})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_one(self) -> bool:
        """True for the constant polynomial 1."""
        return self._den == 1 and self._terms == {0: 1}

    @property
    def is_integral(self) -> bool:
        """True when every coefficient is an integer."""
        return self._den == 1

    def monomial_count(self) -> int:
        return len(self._terms)

    def coefficient(self, mono: Monomial) -> Fraction:
        return Fraction(self._terms.get(_pack(mono), 0), self._den)

    def degree(self) -> int:
        """Total degree; the zero polynomial reports -1."""
        if not self._terms:
            return -1
        return max(self._terms) >> _DEG_SHIFT

    def degree_in(self, name: str) -> int:
        """Largest exponent of one variable (0 when absent)."""
        return _max_exponent((self,), var_id(name))

    def variables(self) -> tuple[str, ...]:
        """Names of the variables that actually occur, in table order."""
        return tuple(name for vid, name in enumerate(VARIABLES)
                     if _max_exponent((self,), vid))

    def min_coefficient(self) -> tuple[Fraction, Monomial]:
        """Smallest coefficient and its grlex-smallest attaining monomial."""
        if not self._terms:
            raise ValueError("empty polynomial")
        best = min(self._terms.values())
        key = min(m for m, c in self._terms.items() if c == best)
        return Fraction(best, self._den), _unpack(key)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        den = math.lcm(self._den, other._den)
        acc = {}
        get = acc.get
        for p in (self, other):
            scale = den // p._den
            for m, c in p._terms.items():
                acc[m] = get(m, 0) + c * scale
        return _make({m: c for m, c in acc.items() if c}, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _make({m: -c for m, c in self._terms.items()}, self._den)

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "Poly | Scalar") -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            n = other.numerator
            if not n:
                return Poly()
            return _make({m: c * n for m, c in self._terms.items()},
                         self._den * other.denominator)
        if not isinstance(other, Poly):
            return NotImplemented
        return _make(_term_product(self._terms, other._terms),
                     self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial exponents must be nonnegative integers")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((frozenset(self._terms.items()), self._den))

    # -- evaluation / serialization -----------------------------------------

    def evaluate(self, point: Mapping[str, object]):
        """Evaluate at a point mapping variable names to numbers.

        Exact when the point is exact (Fraction/int); float points give float
        results.  Missing variables raise KeyError.
        """
        powers: dict[int, list] = {}
        total = _ZERO
        for m, c in self._tuple_items():
            v = c
            for vid, e in m:
                cache = powers.get(vid)
                if cache is None:
                    cache = [1, point[VARIABLES[vid]]]
                    powers[vid] = cache
                while len(cache) <= e:
                    cache.append(cache[-1] * cache[1])
                v = v * cache[e]
            total = total + v
        return total / self._den if self._den != 1 else total

    def to_text(self) -> str:
        """Canonical serialization: grlex term order, explicit signs."""
        if not self._terms:
            return "0"
        den = self._den
        pieces: list[str] = []
        for i, (key, n) in enumerate(sorted(self._terms.items())):
            c = n if den == 1 else Fraction(n, den)
            mag = -c if c < 0 else c
            if not key:
                body = str(mag)
            elif mag == 1:
                body = mono_text(_unpack(key))
            else:
                body = f"{mag}*{mono_text(_unpack(key))}"
            if i == 0:
                pieces.append(f"-{body}" if c < 0 else body)
            else:
                pieces.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(pieces)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Poly({self.to_text()!r})"


def _make(terms: dict[int, int], den: int) -> Poly:
    """Poly from packed keys with nonzero int coefficients over a positive
    denominator, reduced to the canonical (least) denominator."""
    if den != 1:
        g = math.gcd(den, *terms.values())
        if g != 1:
            den //= g
            terms = {m: c // g for m, c in terms.items()}
    p = Poly.__new__(Poly)
    p._terms = terms
    p._den = den
    p._decoded = None
    return p


def _term_product(a, b):
    """Packed terms of the product of two term maps, zero coefficients dropped.

    Raises ValueError before forming a key whose total degree would reach
    ``2**FIELD_BITS``; below that degree no field carries into the next, so
    a key sum is the monomial product.
    """
    if not a or not b:
        return {}
    if (max(a) >> _DEG_SHIFT) + (max(b) >> _DEG_SHIFT) >= _LIMIT:
        raise ValueError(f"product degree is not below 2**{FIELD_BITS}")
    out = {}
    get = out.get
    b_items = b.items()
    for ma, ca in a.items():
        for mb, cb in b_items:
            m = ma + mb
            out[m] = get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def _as_poly(value) -> "Poly":
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    return NotImplemented


def _max_exponent(polys: Iterable[Poly], vid: int) -> int:
    """Largest exponent of variable ``vid`` across ``polys`` (0 when absent)."""
    shift = _SHIFTS[vid]
    return max(((key >> shift) & _FIELD_MASK for p in polys for key in p._terms),
               default=0)


class RationalFn:
    """Unreduced quotient of two polynomials; denominator never identically 0.

    Equality is mathematical (cross-multiplied), so instances are unhashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly | Scalar, den: Poly | Scalar | None = None):
        n = _as_poly(num)
        d = Poly.const(1) if den is None else _as_poly(den)
        if n is NotImplemented or d is NotImplemented:
            raise TypeError("numerator and denominator must be Poly or exact scalars")
        if d.is_zero:
            raise ZeroDivisionError("denominator vanishes identically")
        self.num = n
        self.den = d

    @classmethod
    def const(cls, value: Scalar) -> "RationalFn":
        return cls(Poly.const(value))

    @classmethod
    def var(cls, name: str) -> "RationalFn":
        return cls(Poly.var(name))

    @property
    def is_polynomial(self) -> bool:
        return self.den.is_one

    def __add__(self, other: "RationalFn | Poly | Scalar") -> "RationalFn":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFn(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RationalFn":
        return RationalFn(-self.num, self.den)

    def __sub__(self, other: "RationalFn | Poly | Scalar") -> "RationalFn":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFn(self.num * other.den - other.num * self.den,
                          self.den * other.den)

    def __rsub__(self, other: "RationalFn | Poly | Scalar") -> "RationalFn":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: "RationalFn | Poly | Scalar") -> "RationalFn":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFn(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalFn | Poly | Scalar") -> "RationalFn":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFn(self.num * other.den, self.den * other.num)

    def __eq__(self, other: object) -> bool:
        rhs = _as_rf(other)
        if rhs is NotImplemented:
            return NotImplemented
        return (self.num * rhs.den - rhs.num * self.den).is_zero

    __hash__ = None  # type: ignore[assignment]

    def evaluate(self, point: Mapping[str, object]):
        den_value = self.den.evaluate(point)
        if den_value == 0:
            raise ZeroDivisionError("denominator zero at evaluation point")
        return self.num.evaluate(point) / den_value

    def to_text(self) -> str:
        if self.is_polynomial:
            return self.num.to_text()
        return f"({self.num.to_text()})/({self.den.to_text()})"

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"RationalFn({self.to_text()!r})"


def _as_rf(value) -> "RationalFn":
    if isinstance(value, RationalFn):
        return value
    if isinstance(value, Poly):
        return RationalFn(value)
    if isinstance(value, (int, Fraction)):
        return RationalFn(Poly.const(value))
    return NotImplemented


# -- operations over the engine ---------------------------------------------


def _power_rows(image, emax):
    """Rows ``num^e * den^(emax-e)`` of one binding, e = 0..emax, as packed
    term maps over one common int denominator, returned with it.

    With n and d the content denominators of the image's numerator and
    denominator, the image equals ``(num*n*d) / (den*n*d)``, whose halves
    have int coefficients; row e over ``(n*d)^emax`` is formed from those.
    A constant-one denominator contributes no powers.
    """
    n, d = image.num._den, image.den._den
    num = {m: c * d for m, c in image.num._terms.items()}
    den = {m: c * n for m, c in image.den._terms.items()}
    rows = [{0: 1}]
    for _ in range(emax):
        rows.append(_term_product(rows[-1], num))
    if den != {0: 1}:
        den_pow = {0: 1}
        for e in range(emax - 1, -1, -1):
            den_pow = _term_product(den_pow, den)
            rows[e] = _term_product(rows[e], den_pow)
    return rows, (n * d) ** emax


def substitute(target: RationalFn | Poly,
               bindings: Mapping[str, RationalFn | Poly | Scalar]) -> RationalFn:
    """Simultaneously substitute rational functions for variables.

    Binding denominators are cleared once, with a per-variable power equal to
    the larger of the variable's degrees in the target's numerator and
    denominator; the shared clearing factor then cancels between the two, so
    composing maps does not pile up redundant denominator factors.  Bound
    variables absent from the target are ignored; unbound variables pass
    through.  Raises ZeroDivisionError when the substituted denominator is
    identically zero, and ValueError before forming a monomial whose total
    degree would reach ``2**FIELD_BITS``.

    Each output polynomial is built in one pass over the target's terms.
    A term's bound part is ``key & mask``; the product of the bound
    variables' power rows for that part (`_power_rows`) is formed once per
    call, shared by numerator and denominator, and kept as ``(key offset,
    int coefficient)`` pairs, so each term product is one key addition into
    a single int accumulator.  The accumulator is canonicalised once, over
    the target's content denominator times the rows' common denominators.
    """
    rf = _as_rf(target)
    if rf is NotImplemented:
        raise TypeError("substitution target must be a Poly or RationalFn")
    images: dict[int, RationalFn] = {}
    for name, image in bindings.items():
        coerced = _as_rf(image)
        if coerced is NotImplemented:
            raise TypeError(f"binding for {name!r} must be a Poly, RationalFn or exact scalar")
        images[var_id(name)] = coerced
    rows = {}
    scale = 1
    mask = 0
    for vid, image in images.items():
        emax = _max_exponent((rf.num, rf.den), vid)
        if emax:
            rows[vid], row_den = _power_rows(image, emax)
            scale *= row_den
            mask |= _FIELD_MASK << _SHIFTS[vid]
    if not rows:
        return rf
    products = {}

    def product_of(fields):
        # ``fields`` holds the bound exponent fields; with their degree added
        # it is the packed bound monomial, which each offset subtracts so
        # that ``key + offset`` is the kept monomial times the product's.
        degree = 0
        prod = None
        for vid, row_list in rows.items():
            e = (fields >> _SHIFTS[vid]) & _FIELD_MASK
            degree += e
            prod = row_list[e] if prod is None else _term_product(prod, row_list[e])
        bound = fields | degree << _DEG_SHIFT
        pairs = tuple((m - bound, c) for m, c in prod.items())
        return pairs, max(prod, default=bound) - bound

    def image_of(poly):
        acc = {}
        get = acc.get
        for key, coeff in poly._terms.items():
            fields = key & mask
            group = products.get(fields)
            if group is None:
                group = products[fields] = product_of(fields)
            pairs, top = group
            if key + top >= _KEY_LIMIT:
                raise ValueError(f"product degree is not below 2**{FIELD_BITS}")
            for offset, c in pairs:
                m = key + offset
                acc[m] = get(m, 0) + coeff * c
        return _make({m: c for m, c in acc.items() if c}, poly._den * scale)

    num = image_of(rf.num)
    den = image_of(rf.den)
    if den.is_zero:
        raise ZeroDivisionError("denominator vanishes identically")
    return RationalFn(num, den)
