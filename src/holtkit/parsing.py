"""Parser for the canonical expression text used across the package.

Grammar (whitespace-insensitive between tokens):

    expr    :=  term (('+' | '-') term)*
    term    :=  [rational '*'] factor ('*' factor)*  |  rational
    rational:=  int ['/' int]
    factor  :=  name ['^' int]
    name    :=  'x' | 'u' | 'y' | 'px' | 'py' | 'k1' | 'k2' | 'k3'

A leading '-' on the first term is allowed.  Exponents are signed integers
but only u may carry a negative one; y is sugar for u^3 and therefore only
accepts non-negative exponents.  PhasePoly.render() output parses back to
an equal value.

Two readers share the work.  Canonical text, the form render() writes and
the catalog stores, is read with string methods alone: terms joined by
" + " and " - ", a '-' only before the first term, no other whitespace,
ASCII digits, and only u carrying a '-' exponent.  Every other text goes
to the token walker, which reads the whole grammar and writes every
ParseError; the reader gives up on any text it does not take, so an error
and its position always come from the walker.

The reader takes each factor ("x^007", "y^2", "u^-0") through one
FactorTable from factor text to (slot, exponent in the slot), filled on
first use with the rule below and bounded by FACTOR_TABLE_BOUND entries; a
factor that does not read is never stored.  Real texts repeat few factor
texts many times, so nearly every factor is one lookup.  No whole text,
term or row is kept.

The names, and the exponent slot each one fills, come from phasepoly.SLOTS.
"""

from __future__ import annotations

import re

from .phasepoly import SLOTS, FactorTable, PhasePoly, Term

# longest names first: an alternation takes the first alternative that
# matches.  A character that starts no symbol reads as the token "".
_NAMES = "|".join(sorted(SLOTS, key=len, reverse=True))
_TOKEN = re.compile(rf"\s*(?:({_NAMES}|\d+|[-+*/^])|\S)")


def _read_factor(factor: str) -> tuple[int, int] | None:
    """(slot, scale * exponent) of one canonical factor, or None: a name
    of SLOTS, then '^' and digits, a '-' before them only on u.  Its caller
    reads only ASCII text, so isdigit() means 0-9; int() raises ValueError past
    sys.get_int_max_str_digits()."""
    name, caret, power = factor.partition("^")
    if name not in SLOTS:
        return None
    e = 1
    if caret:
        minus = name == "u" and power[:1] == "-"
        if not power[minus:].isdigit():
            return None
        e = int(power)
    slot, scale = SLOTS[name]
    return slot, scale * e


_FACTORS = FactorTable(_read_factor)


class ParseError(ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, text: str, pos: int, reason: str):
        self.text = text
        self.pos = pos
        self.reason = reason
        super().__init__(f"{reason} at position {pos}: {text[pos:pos + 12]!r}")


def parse_expression(text: str) -> PhasePoly:
    """Parse expression text into an exact PhasePoly."""
    rows = _read_canonical(text)
    return PhasePoly._from_rows(_walk(text) if rows is None else rows)


def _read_canonical(text: str) -> list[tuple[tuple, int, int]] | None:
    """The (exponent tuple, numerator, denominator) rows of canonical text,
    or None for any text that is not canonical, which _walk then reads."""
    if not text.isascii():  # so isdigit() means 0-9
        return None
    rows = []
    negative = text[:1] == "-"
    sign = -1 if negative else 1
    try:  # int() refuses digits beyond sys.get_int_max_str_digits()
        for chunk in text[negative:].split(" - "):
            for term in chunk.split(" + "):
                factors = term.split("*")
                num, slash, den = factors[0].partition("/")
                n = d = 1
                if num.isdigit():
                    if slash and not den.isdigit():
                        return None
                    n, d = int(num), int(den) if slash else 1
                    if not d:
                        return None
                    del factors[0]
                exponents = [0] * len(Term._fields)
                for factor in factors:
                    read = _FACTORS[factor]
                    if read is None:
                        return None
                    slot, e = read
                    exponents[slot] += e
                rows.append((tuple(exponents), sign * n, d))
                sign = 1
            sign = -1
    except ValueError:
        return None
    return rows


def _walk(text: str) -> list[tuple[tuple, int, int]]:
    """The (exponent tuple, numerator, denominator) rows of any expression
    text, read token by token; raises ParseError at the first token that
    breaks the grammar, placed where the match that made it starts (the
    closing "" where the last match ends)."""
    matches = list(_TOKEN.finditer(text))
    tokens = [m[1] or "" for m in matches] + [""]  # "" at the end, and for a stray character
    starts = [m.start() for m in matches] + [matches[-1].end() if matches else 0]
    op = tokens[0]
    i = 1 if op in ("+", "-") else 0  # index of the next unread token

    def error(reason: str) -> ParseError:
        if not tokens[i] and i + 1 < len(tokens):  # a character that starts no symbol
            pos = starts[i + 1] - 1  # the end of its match, less its one character
            return ParseError(text, pos, f"unexpected character {text[pos]!r}")
        return ParseError(text, starts[i], reason)

    def integer() -> int:
        nonlocal i
        tok = tokens[i]
        if not tok.isdigit():
            raise error("expected integer")
        try:
            value = int(tok)
        except ValueError:  # beyond sys.get_int_max_str_digits()
            raise error(f"integer of {len(tok)} digits is too long") from None
        i += 1
        return value

    rows = []
    while True:
        if not tokens[i]:
            raise error("expected term")
        num, den = 1, 1
        exponents = [0] * len(Term._fields)
        more = True  # whether a factor must follow
        if tokens[i].isdigit():
            num = integer()
            if tokens[i] == "/":
                i += 1
                den = integer()
                if den == 0:  # an error in what was read, named before what follows
                    raise ParseError(text, starts[i], "zero denominator")
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
            if exponent < 0 and name != "u":  # as for a zero denominator
                reason = f"negative exponent only allowed on u, not {name}"
                raise ParseError(text, starts[i], reason)
            slot, scale = SLOTS[name]
            exponents[slot] += scale * exponent
            more = tokens[i] == "*"
            i += more
        rows.append((tuple(exponents), -num if op == "-" else num, den))

        op = tokens[i]
        if not op and i + 1 == len(tokens):  # read to the end of the text
            return rows
        if op not in ("+", "-"):
            raise error("expected '+' or '-' between terms")
        i += 1
