"""Sparse multivariate polynomials over the integers and rational functions
over them, computed on Python integers.

A polynomial is a finite map from monomials to nonzero `int` coefficients,
so equality is a plain comparison and products, sums, powers and
substitutions run on ints alone.  Rational functions lose no generality,
since Q(x) is the field of fractions of Z[x], and every polynomial of the
certificate roster is integral anyway.  A coefficient goes in and comes
out as a plain `int`: `Poly(...)`, `Poly.const`, a scalar `RationalFn`
and a scalar `substitute` binding raise TypeError on anything else (a
`Fraction`, integral or not, a float, a str), and ``+``, ``-``, ``*`` and
``==`` return NotImplemented for it.  `Poly.terms`, `Poly.coefficient`
and `Poly.min_coefficient` return ints.

Each monomial is stored as one packed Python `int`.  Every variable of the
fixed global table (see `VARIABLES`) owns one `FIELD_BITS`-bit exponent
field, ``x`` (id 0) highest and the last variable lowest, and the field
above them all holds the total degree.  A monomial product is then one int
addition, graded-lexicographic order (total degree, then the exponent vector
read in table order) is plain int order, and `substitute` splits a key into
its bound and kept parts with one mask.  This holds while every exponent
and total degree stays below ``2**FIELD_BITS``: the constructor rejects
larger ones, and a product that would reach that degree raises `ValueError`
before any of its keys is formed.  Total degree adds exactly over the
integers, so that limit is decided from exact degrees, not by scanning
products: once per `Poly` product, from its operands' leading keys; once
per binding's power rows in `substitute`; and once per bound-part product
there, from the sum of its rows' degrees (with one comparison per target
term for the kept part).  The term-product loop itself does only
arithmetic.  The fixed table keeps keys comparable across every object in
the package without table-merging bookkeeping.

The public surface keeps the tuple form.  A `Monomial` is a tuple of
``(variable_id, exponent)`` pairs sorted by variable id, every exponent
positive; the empty tuple is the constant monomial.  Tuples are packed where
they enter (`Poly(...)`, which accepts pairs in any order and drops zero
exponents, and `Poly.coefficient`) and unpacked only where keys leave the
kernel: `Poly.terms`, the `Poly.min_coefficient` witness and
`Poly.to_text`.

Rational functions are unreduced pairs numerator/denominator with sum,
difference and product only, each by another rational function, a `Poly` or
an int on the right: no quotient, negation or reflected operator.
No gcd or factorization is ever computed: equality is decided by
cross-multiplication, and substitution clears binding denominators in a
single common-denominator pass so that composed maps stay in the expected
normalized shape.

`substitute` builds each output polynomial in one pass over the target's
terms, on ints alone: every term product is one key addition and one
multiply-add into a single int accumulator, zeros dropped once at the end.
Within a call, terms with the same bound part share the product of that
part's power rows, formed once.  `Poly.__mul__`, the power rows and these
products share one term-product loop.  Exact evaluation is substitution by
constants: `RationalFn.evaluate` binds each coordinate ``n/d`` as a
constant rational function.  A constant binding's power rows are plain
ints ``n**e * d**(emax-e)``, so its part of a bound-part product is one int
scale, not a term map; with every variable bound to a constant no term map
is multiplied at all, the clearing leaves two int constants, and one
`Fraction` is formed at the end.

Everything here is immutable after construction and safe to share; nothing
is filled in later.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

#: Fixed global variable order; grlex comparisons read exponents in this order.
VARIABLES: tuple[str, ...] = ("x", "y", "u", "A", "t", "k", "x0", "y0", "w", "v")

_VAR_ID: dict[str, int] = {name: i for i, name in enumerate(VARIABLES)}

Monomial = tuple[tuple[int, int], ...]

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


def mono_text(m: Monomial) -> str:
    """Canonical text of a monomial, e.g. ``A*k^2``; the constant is ``1``.

    Factors are listed alphabetically by variable name (display convention
    only; ordering comparisons always use the packed key order).
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


def _integer(value: int) -> int:
    """``value`` itself when it is an int; anything else raises TypeError."""
    if type(value) is not int:
        raise TypeError(f"polynomial coefficients must be ints, got {value!r}")
    return value


class Poly:
    """Immutable sparse multivariate polynomial with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        acc: dict[int, int] = {}
        if terms:
            for mono, coeff in terms.items():
                key = _pack(mono)
                acc[key] = acc.get(key, 0) + _integer(coeff)
        self._terms = {m: c for m, c in acc.items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value: int) -> "Poly":
        c = _integer(value)
        return _make({0: c}) if c else cls()

    @classmethod
    def var(cls, name: str) -> "Poly":
        return _make({1 << _DEG_SHIFT | 1 << _SHIFTS[var_id(name)]: 1})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, int]:
        """Read-only map from each monomial to its int coefficient."""
        return MappingProxyType({_unpack(k): c for k, c in self._terms.items()})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def monomial_count(self) -> int:
        return len(self._terms)

    def coefficient(self, mono: Monomial) -> int:
        return self._terms.get(_pack(mono), 0)

    def min_coefficient(self) -> tuple[int, Monomial]:
        """Smallest coefficient and its grlex-smallest attaining monomial."""
        if not self._terms:
            raise ValueError("empty polynomial")
        best = min(self._terms.values())
        key = min(m for m, c in self._terms.items() if c == best)
        return best, _unpack(key)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly | int") -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self._terms)
        get = acc.get
        for m, c in other._terms.items():
            acc[m] = get(m, 0) + c
        return _make({m: c for m, c in acc.items() if c})

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _make({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Poly | int") -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "Poly | int") -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: "Poly | int") -> "Poly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        # A leading key's top field is its polynomial's total degree, and
        # total degree adds exactly over the integers.
        if a and b and (max(a) >> _DEG_SHIFT) + (max(b) >> _DEG_SHIFT) >= _LIMIT:
            raise ValueError(f"product degree is not below 2**{FIELD_BITS}")
        return _make(_term_product(a, b))

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
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        """A constant hashes as its int, since ``==`` equates the two."""
        terms = self._terms
        if len(terms) <= 1 and terms.keys() <= {0}:
            return hash(terms.get(0, 0))
        return hash(frozenset(terms.items()))

    # -- serialization -----------------------------------------------------

    def to_text(self) -> str:
        """Canonical serialization: grlex term order, explicit signs."""
        if not self._terms:
            return "0"
        pieces: list[str] = []
        for i, (key, c) in enumerate(sorted(self._terms.items())):
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


def _make(terms: dict[int, int]) -> Poly:
    """Poly from packed keys with nonzero int coefficients."""
    p = Poly.__new__(Poly)
    p._terms = terms
    return p


def _term_product(a, b):
    """Packed terms of the product of two term maps, zero coefficients dropped.

    Arithmetic only: the caller has decided that the product's total degree
    stays below ``2**FIELD_BITS``, so no field carries into the next and a
    key sum is the monomial product.  Every pair of terms is added into one
    accumulator, whatever the operands' sizes.  An empty operand gives an
    empty map.
    """
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
    if type(value) is int:
        return Poly.const(value)
    return NotImplemented


class RationalFn:
    """Unreduced quotient of two polynomials; denominator never identically 0.

    Equality is mathematical (cross-multiplied), so instances are unhashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly | int, den: Poly | int | None = None):
        n = _as_poly(num)
        d = Poly.const(1) if den is None else _as_poly(den)
        if n is NotImplemented or d is NotImplemented:
            raise TypeError("numerator and denominator must be Poly or int")
        if d.is_zero:
            raise ZeroDivisionError("denominator vanishes identically")
        self.num = n
        self.den = d

    @property
    def is_polynomial(self) -> bool:
        return self.den == 1

    def __add__(self, other: "RationalFn | Poly | int") -> "RationalFn":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFn(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    def __sub__(self, other: "RationalFn | Poly | int") -> "RationalFn":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFn(self.num * other.den - other.num * self.den,
                          self.den * other.den)

    def __mul__(self, other: "RationalFn | Poly | int") -> "RationalFn":
        other = _as_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFn(self.num * other.num, self.den * other.den)

    def __eq__(self, other: object) -> bool:
        rhs = _as_rf(other)
        if rhs is NotImplemented:
            return NotImplemented
        return (self.num * rhs.den - rhs.num * self.den).is_zero

    __hash__ = None  # type: ignore[assignment]

    def evaluate(self, point: Mapping[str, int | Fraction]) -> Fraction:
        """Exact value at a point mapping variable names to ints or Fractions.

        This is `substitute` with each coordinate ``n/d`` bound as the
        constant ``RationalFn(n, d)``: the clearing leaves an int numerator
        and denominator, divided once.  A coordinate of any other type (a
        float included) raises TypeError, a variable of the function that
        the point lacks raises KeyError naming it, a name outside
        `VARIABLES` raises ValueError, and a zero denominator at the point
        raises ZeroDivisionError.  Variables the function lacks are ignored.
        """
        used = 0
        for p in (self.num, self.den):
            for key in p._terms:
                used |= key
        for name, shift in zip(VARIABLES, _SHIFTS):
            if used >> shift & _FIELD_MASK and name not in point:
                raise KeyError(name)
        bindings = {}
        for name, value in point.items():
            if not isinstance(value, (int, Fraction)):
                raise TypeError(f"evaluation point coordinates must be ints or "
                                f"Fractions, got {value!r}")
            bindings[name] = RationalFn(value.numerator, value.denominator)
        rf = substitute(self, bindings)
        return Fraction(rf.num._terms.get(0, 0), rf.den._terms[0])

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
    poly = _as_poly(value)
    return poly if poly is NotImplemented else RationalFn(poly)


# -- operations over the engine ---------------------------------------------


def _power_rows(image, emax):
    """Rows ``num^e * den^(emax-e)`` of one binding, e = 0..emax, and the
    total degree of each, ``e*dn + (emax-e)*dd``.  A row is a packed term
    map, or, when the image is a constant ``n/d`` (both halves' keys within
    ``{0}``), the plain int ``n**e * d**(emax-e)``.

    The limit is decided here once: ValueError when ``emax * max(dn, dd)``
    reaches ``2**FIELD_BITS``, and below that no row or power on the way to
    one reaches it.  A zero numerator's degree, minus infinity, is taken as
    ``-_KEY_LIMIT``: a row or product with it sums far below zero, so it is
    never refused, as its terms are none.  A constant-one denominator
    contributes no powers.
    """
    num, den = image.num._terms, image.den._terms
    dn = max(num) >> _DEG_SHIFT if num else -_KEY_LIMIT
    dd = max(den) >> _DEG_SHIFT
    if emax * max(dn, dd) >= _LIMIT:
        raise ValueError(f"product degree is not below 2**{FIELD_BITS}")
    degrees = [e * dn + (emax - e) * dd for e in range(emax + 1)]
    if num.keys() <= {0} and den.keys() <= {0}:
        n, d = num.get(0, 0), den[0]
        return [n ** e * d ** (emax - e) for e in range(emax + 1)], degrees
    rows = [{0: 1}]
    for _ in range(emax):
        rows.append(_term_product(rows[-1], num))
    if den != {0: 1}:
        den_pow = {0: 1}
        for e in range(emax - 1, -1, -1):
            den_pow = _term_product(den_pow, den)
            rows[e] = _term_product(rows[e], den_pow)
    return rows, degrees


def substitute(target: RationalFn | Poly,
               bindings: Mapping[str, RationalFn | Poly | int]) -> RationalFn:
    """Simultaneously substitute rational functions for variables.

    Binding denominators are cleared once, with a per-variable power equal to
    the larger of the variable's degrees in the target's numerator and
    denominator; the shared clearing factor then cancels between the two, so
    composing maps does not pile up redundant denominator factors.  Bound
    variables absent from the target are ignored; unbound variables pass
    through.  Raises ZeroDivisionError when the substituted denominator is
    identically zero, and ValueError before forming a monomial whose total
    degree would reach ``2**FIELD_BITS``: `_power_rows` decides that once for
    each binding's rows, each bound-part product once from the sum of its
    rows' degrees, and each term once from its kept part's degree.

    Each output polynomial is built in one pass over the target's terms.
    A term's bound part is ``key & mask``; the product of the bound
    variables' power rows for that part (`_power_rows`) is formed once per
    call, row by row in binding order, shared by numerator and denominator,
    and kept as ``(key offset, int coefficient)`` pairs, so each term
    product is one key addition into a single int accumulator.  A constant
    binding's rows are ints, so they multiply an int scale carried beside
    the term map, and a bound part whose rows are all ints is one pair.
    """
    rf = _as_rf(target)
    if rf is NotImplemented:
        raise TypeError("substitution target must be a Poly or RationalFn")
    images: dict[int, RationalFn] = {}
    for name, image in bindings.items():
        coerced = _as_rf(image)
        if coerced is NotImplemented:
            raise TypeError(f"binding for {name!r} must be a Poly, RationalFn or int")
        images[var_id(name)] = coerced
    # One level per bound variable the target uses, in binding order: its
    # field's shift, and its power rows and their degrees.
    levels = []
    mask = 0
    for vid, image in images.items():
        shift = _SHIFTS[vid]
        field = _FIELD_MASK << shift
        emax = max(max(map(field.__and__, p._terms), default=0)
                   for p in (rf.num, rf.den)) >> shift
        if emax:
            mask |= field
            levels.append((shift, *_power_rows(image, emax)))
    if not levels:
        return rf
    products = {}

    def product_of(fields):
        # The product of the bound part's rows, formed along the levels.  Its
        # degree is the sum of the rows' degrees, so the limit is decided
        # before each multiplication.
        prod, scale, bound, degree = None, 1, 0, 0
        for shift, rows, degrees in levels:
            e = (fields >> shift) & _FIELD_MASK
            degree += degrees[e]
            if degree >= _LIMIT:
                raise ValueError(f"product degree is not below 2**{FIELD_BITS}")
            row = rows[e]
            # A constant binding's row is an int: it multiplies the scale.
            if type(row) is int:
                scale *= row
            else:
                prod = row if prod is None else _term_product(prod, row)
            bound += e << shift | e << _DEG_SHIFT
        # Each offset subtracts the bound monomial, so that ``key + offset``
        # is the kept monomial times the product's; ``key + top`` has the
        # degree of the largest such key.
        if prod is None:
            pairs = [(-bound, scale)]
        else:
            pairs = [(m - bound, c * scale) for m, c in prod.items()]
        return pairs, (degree - (bound >> _DEG_SHIFT)) << _DEG_SHIFT

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
        return _make({m: c for m, c in acc.items() if c})

    num = image_of(rf.num)
    den = image_of(rf.den)
    if den.is_zero:
        raise ZeroDivisionError("denominator vanishes identically")
    return RationalFn(num, den)
