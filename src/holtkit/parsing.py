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

The names, and the Term slot each one fills, come from phasepoly.SLOTS.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .phasepoly import SLOTS, PhasePoly, Term
from .ring import accumulate

# longest names first: an alternation takes the first alternative that matches
_NAMES = "|".join(sorted(SLOTS, key=len, reverse=True))
_TOKEN = re.compile(rf"\s*({_NAMES}|\d+|[-+*/^])")


class ParseError(ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, text: str, pos: int, reason: str):
        self.text = text
        self.pos = pos
        self.reason = reason
        super().__init__(f"{reason} at position {pos}: {text[pos:pos + 12]!r}")


def _tokenize(text: str) -> tuple[list[str], list[int]]:
    """The tokens of text, closed by "" where matching stops, and their starts.

    A token starts where the whitespace before it starts, which is the end
    of the token before it: the position an error at that token reports.
    Two lists rather than one of pairs: CPython keeps up to 2000 freed
    2-tuples on a free list, which would hold a long text's pairs after the
    parse has returned.
    """
    tokens, starts, pos = [], [], 0
    while m := _TOKEN.match(text, pos):
        tokens.append(m[1])
        starts.append(pos)
        pos = m.end()
    tokens.append("")
    starts.append(pos)
    return tokens, starts


def parse_expression(text: str) -> PhasePoly:
    """Parse canonical expression text into an exact PhasePoly."""
    tokens, starts = _tokenize(text)
    op = tokens[0]
    i = 1 if op in ("+", "-") else 0  # index of the next unread token

    def error(reason: str) -> ParseError:
        return ParseError(text, starts[i], reason)

    def integer() -> int:
        nonlocal i
        tok = tokens[i]
        if not tok.isdigit():
            raise error("expected integer")
        i += 1
        return int(tok)

    pairs = []
    while True:
        if not tokens[i]:
            raise error("expected term")
        coeff = Fraction(1)
        exponents = [0] * len(Term._fields)
        more = True  # whether a factor must follow
        if tokens[i].isdigit():
            coeff = Fraction(integer())
            if tokens[i] == "/":
                i += 1
                den = integer()
                if den == 0:
                    raise error("zero denominator")
                coeff /= den
            more = tokens[i] == "*"
            if not more and tokens[i] in SLOTS:
                raise error("missing '*' after numeric coefficient")
            i += more
        while more:
            name = tokens[i]
            if name not in SLOTS:
                raise error("expected variable or parameter name")
            i += 1
            exponent = 1
            if tokens[i] == "^":
                i += 1
                negative = tokens[i] == "-"
                i += negative
                exponent = -integer() if negative else integer()
            if exponent < 0 and name != "u":
                raise error(f"negative exponent only allowed on u, not {name}")
            slot, scale = SLOTS[name]
            exponents[slot] += scale * exponent
            more = tokens[i] == "*"
            i += more
        pairs.append((Term(*exponents), -coeff if op == "-" else coeff))

        op = tokens[i]
        if not op and not text[starts[i]:].strip():
            return PhasePoly._wrap(accumulate({}, pairs))
        if op not in ("+", "-"):
            raise error("expected '+' or '-' between terms")
        i += 1
