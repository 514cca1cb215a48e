"""Parser for the canonical expression text used across the package.

Grammar (whitespace-insensitive between tokens):

    expr    :=  term (('+' | '-') term)*
    term    :=  [rational '*'] factor ('*' factor)*  |  rational
    rational:=  int ['/' int]
    factor  :=  name ['^' int]
    name    :=  'x' | 'u' | 'y' | 'px' | 'py' | 'k1' | 'k2' | 'k3'

A leading '-' on the first term is allowed.  Exponents are signed integers
but only u may carry a negative one; y is sugar for u^3 and therefore only
accepts non-negative exponents.  render() output of ring and phasepoly
parses back to an equal value.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .phasepoly import PhasePoly, Term
from .ring import accumulate

_TOKEN = re.compile(r"\s*(px|py|k1|k2|k3|x|u|y|\d+|\^|\*|/|\+|-)")

_PARAMS = ("k1", "k2", "k3")
_PHASE = {"x": "ex", "u": "eu", "y": "eu", "px": "epx", "py": "epy"}


class ParseError(ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, text: str, pos: int, reason: str):
        self.text = text
        self.pos = pos
        self.reason = reason
        super().__init__(f"{reason} at position {pos}: {text[pos:pos + 12]!r}")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str | None:
        m = _TOKEN.match(self.text, self.pos)
        return m.group(1) if m else None

    def next(self) -> str:
        m = _TOKEN.match(self.text, self.pos)
        if not m:
            raise ParseError(self.text, self.pos, "unexpected character")
        self.pos = m.end()
        return m.group(1)

    def at_end(self) -> bool:
        if self.peek() is not None:
            return False
        return not self.text[self.pos:].strip()

    def error(self, reason: str) -> ParseError:
        return ParseError(self.text, self.pos, reason)


def _parse_int(tok: _Tokens, *, signed: bool) -> int:
    sign = 1
    if signed and tok.peek() == "-":
        tok.next()
        sign = -1
    t = tok.peek()
    if t is None or not t.isdigit():
        raise tok.error("expected integer")
    tok.next()
    return sign * int(t)


def _parse_rational(tok: _Tokens) -> Fraction:
    num = _parse_int(tok, signed=False)
    if tok.peek() == "/":
        tok.next()
        den = _parse_int(tok, signed=False)
        if den == 0:
            raise tok.error("zero denominator")
        return Fraction(num, den)
    return Fraction(num)


def _parse_term(tok: _Tokens) -> tuple[Term, Fraction]:
    coeff = Fraction(1)
    exponents = {"ex": 0, "eu": 0, "epx": 0, "epy": 0}
    params = {"k1": 0, "k2": 0, "k3": 0}

    t = tok.peek()
    if t is None:
        raise tok.error("expected term")
    saw_factor = False
    if t.isdigit():
        coeff = _parse_rational(tok)
        saw_factor = True
        if tok.peek() == "*":
            tok.next()
            saw_factor = False
        elif tok.peek() in _PARAMS or tok.peek() in _PHASE:
            raise tok.error("missing '*' after numeric coefficient")

    while not saw_factor or tok.peek() == "*":
        if saw_factor:
            tok.next()  # consume '*'
        name = tok.peek()
        if name is None or (name not in _PARAMS and name not in _PHASE):
            raise tok.error("expected variable or parameter name")
        tok.next()
        exponent = 1
        if tok.peek() == "^":
            tok.next()
            exponent = _parse_int(tok, signed=True)
        if exponent < 0 and name != "u":
            raise tok.error(f"negative exponent only allowed on u, not {name}")
        if name in params:
            params[name] += exponent
        else:
            scale = 3 if name == "y" else 1
            exponents[_PHASE[name]] += scale * exponent
        saw_factor = True

    return Term(**exponents, **params), coeff


def _signed_terms(tok: _Tokens):
    """(Term, signed coefficient) for each term of the expression, in order."""
    op = tok.peek()
    if op in ("+", "-"):
        tok.next()
    while True:
        key, coeff = _parse_term(tok)
        yield key, -coeff if op == "-" else coeff
        if tok.at_end():
            return
        op = tok.peek()
        if op not in ("+", "-"):
            raise tok.error("expected '+' or '-' between terms")
        tok.next()


def parse_expression(text: str) -> PhasePoly:
    """Parse canonical expression text into an exact PhasePoly.

    Terms are summed into one dict as they are read, in a single pass.
    """
    return PhasePoly(accumulate({}, _signed_terms(_Tokens(text))))
