"""Polynomial text parser for the tests, the inverse of `Poly.to_text`,
and the reference graded-lexicographic order.

The package prints polynomials but never reads them back; the round-trip
tests in test_exactalg.py use this parser to check that the printed form
is canonical and loses nothing.  The package orders monomials by their
packed keys alone; `grlex_key` is the order those keys must agree with.
"""
from __future__ import annotations

import re

from lyness.exactalg import VARIABLES, Monomial, Poly

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()]))"
)


def grlex_key(m: Monomial) -> tuple[int, tuple[int, ...]]:
    """Graded-lexicographic sort key: total degree, then the dense exponent
    vector read in the global variable order."""
    vec = [0] * len(VARIABLES)
    for vid, e in m:
        vec[vid] = e
    return (sum(vec), tuple(vec))


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            rest = text[pos:].strip()
            if not rest:
                break
            raise ValueError(f"cannot tokenize polynomial text near {rest[:20]!r}")
        if m.lastgroup == "int":
            tokens.append(("int", m.group("int")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


def parse_poly(text: str) -> Poly:
    """Parse polynomial text: identifiers, ``^`` powers, optional ``*``
    (juxtaposition), parentheses and integer literals."""
    tokens = _tokenize(text)
    pos = 0

    def peek() -> tuple[str, str] | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> tuple[str, str]:
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_atom() -> Poly:
        tok = peek()
        if tok is None:
            raise ValueError("unexpected end of polynomial text")
        kind, value = take()
        if kind == "int":
            return Poly.const(int(value))
        if kind == "name":
            return Poly.var(value)
        if value == "(":
            inner = parse_expr()
            closing = peek()
            if closing is None or closing[1] != ")":
                raise ValueError("unbalanced parenthesis in polynomial text")
            take()
            return inner
        raise ValueError(f"unexpected token {value!r} in polynomial text")

    def parse_factor() -> Poly:
        base = parse_atom()
        tok = peek()
        if tok is not None and tok == ("op", "^"):
            take()
            exp_tok = peek()
            if exp_tok is None or exp_tok[0] != "int":
                raise ValueError("exponent must be a nonnegative integer")
            take()
            base = base ** int(exp_tok[1])
        return base

    def parse_term() -> Poly:
        result = parse_factor()
        while True:
            tok = peek()
            if tok is None:
                break
            kind, value = tok
            if tok == ("op", "*"):
                take()
                result = result * parse_factor()
            elif kind in ("int", "name") or value == "(":
                result = result * parse_factor()
            else:
                break
        return result

    def parse_expr() -> Poly:
        tok = peek()
        sign = 1
        if tok is not None and tok[0] == "op" and tok[1] in "+-":
            take()
            if tok[1] == "-":
                sign = -1
        total = parse_term() * sign
        while True:
            tok = peek()
            if tok is None or tok[0] != "op" or tok[1] not in "+-":
                break
            take()
            term = parse_term()
            total = total + (term if tok[1] == "+" else -term)
        return total

    result = parse_expr()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in polynomial text: {tokens[pos:]}")
    return result
