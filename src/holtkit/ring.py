"""Exact coefficient ring: rationals and sparse polynomials in k1, k2, k3.

Coefficients are arbitrary-precision rationals throughout; high-order
bracket expansions overflow 64-bit integers, so fixed-width arithmetic is
never used.

SparsePoly holds what ParamPoly and phasepoly.PhasePoly share: a dict from
an exponent tuple to a nonzero Fraction (the layout of SymPy's PolyElement),
with one accumulate helper and one power routine behind every operation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add
from typing import Hashable, Iterable, Mapping, Union

# fractions.Fraction already guarantees lowest terms, positive denominator,
# and 0/1 for zero, which is exactly the coefficient contract we need.
Rational = Fraction

Triple = tuple[int, int, int]
Scalar = Union[int, Fraction]


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def accumulate(out: dict, pairs: Iterable[tuple[Hashable, Scalar]]) -> dict:
    """Add each (key, coeff) into out, dropping keys whose sum cancels; returns out.

    Coefficients are Fractions, or ints inside a product's pair loop.
    """
    for key, coeff in pairs:
        if key in out:
            acc = out[key] + coeff
            if acc:
                out[key] = acc
            else:
                del out[key]
        elif coeff:
            out[key] = coeff
    return out


def substitute_terms(terms: Mapping[tuple, Fraction], first: int,
                     values: tuple[Scalar | None, ...]) -> dict[tuple, Fraction]:
    """Put exact values into the exponent slots first, first + 1, ... of every key.

    A None value leaves its slot symbolic; a substituted slot becomes 0.
    Keys of the result are plain tuples.
    """
    subs = [(first + i, _frac(v)) for i, v in enumerate(values) if v is not None]

    def substituted():
        for key, coeff in terms.items():
            key = list(key)
            for i, v in subs:
                coeff *= v ** key[i]
                key[i] = 0
            yield tuple(key), coeff

    return accumulate({}, substituted())


def _scaled(terms: Mapping[tuple, Fraction]) -> tuple[int, list[tuple[tuple, int]]]:
    """(d, [(key, c * d)]) with d the least common denominator of the terms."""
    den = reduce(lcm, (c.denominator for c in terms.values()), 1)
    return den, [(k, c.numerator * (den // c.denominator)) for k, c in terms.items()]


class SparsePoly:
    """Immutable sparse polynomial: `terms` maps exponent tuples to nonzero Fractions.

    The zero polynomial is the empty mapping and equality is term-set
    equality.  Subclasses define _coerce (which operands they accept) and
    render, and override _rekey when their keys are not plain tuples.
    """

    __slots__ = ("terms",)

    @classmethod
    def _wrap(cls, terms: dict):
        """Trusted constructor: keys valid, every value a nonzero Fraction."""
        poly = object.__new__(cls)
        poly.terms = terms
        return poly

    @classmethod
    def _rekey(cls, terms: dict):
        return cls._wrap(terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    __hash__ = None  # mutable mapping inside; identity by term set only

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap(accumulate(dict(self.terms), o.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._wrap({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap(accumulate(dict(self.terms),
                                     ((k, -c) for k, c in o.terms.items())))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # integer numerators over one denominator per operand: the pair loop
        # runs on ints, and each result term is reduced to lowest terms once
        da, left = _scaled(self.terms)
        db, right = _scaled(o.terms)
        sums = accumulate({}, (((*map(add, a, b),), na * nb)
                               for a, na in left for b, nb in right))
        den = da * db
        return self._rekey({k: Fraction(n, den) for k, n in sums.items()})

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        """Repeated squaring; x**0 is the constant 1."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result, base = None, self
        while exponent:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return self._coerce(1) if result is None else result

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()!r})"


class ParamPoly(SparsePoly):
    """Sparse polynomial in the coupling parameters k1, k2, k3.

    Terms map an exponent triple (e1, e2, e3) to a nonzero Rational.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[Triple, Scalar] | None = None):
        normalized: dict[Triple, Fraction] = {}
        if terms:
            for triple, coeff in terms.items():
                e1, e2, e3 = triple
                if e1 < 0 or e2 < 0 or e3 < 0:
                    raise ValueError(f"negative parameter exponent in {triple}")
                c = _frac(coeff)
                if c:
                    normalized[(e1, e2, e3)] = c
        self.terms = normalized

    @classmethod
    def const(cls, value: Scalar) -> "ParamPoly":
        return cls({(0, 0, 0): _frac(value)})

    @classmethod
    def gen(cls, index: int) -> "ParamPoly":
        """The generator k1, k2, or k3 (index 1, 2, 3)."""
        if index not in (1, 2, 3):
            raise ValueError("parameter index must be 1, 2, or 3")
        triple = tuple(1 if i == index else 0 for i in (1, 2, 3))
        return cls({triple: Fraction(1)})

    def _coerce(self, other) -> "ParamPoly | None":
        if isinstance(other, ParamPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return ParamPoly.const(other)
        return None

    def evaluate(self, k1: Scalar, k2: Scalar, k3: Scalar) -> Fraction:
        """Exact substitution of rational parameter values."""
        k1, k2, k3 = _frac(k1), _frac(k2), _frac(k3)
        total = Fraction(0)
        for (e1, e2, e3), coeff in self.terms.items():
            total += coeff * k1**e1 * k2**e2 * k3**e3
        return total

    def substitute(self, k1: Scalar | None = None, k2: Scalar | None = None,
                   k3: Scalar | None = None) -> "ParamPoly":
        """Substitute the given parameters exactly, leave the rest symbolic."""
        return self._wrap(substitute_terms(self.terms, 0, (k1, k2, k3)))

    def float_at(self, k1: float, k2: float, k3: float) -> float:
        """Double-precision value of the polynomial at float parameters."""
        total = 0.0
        for (e1, e2, e3), coeff in self.terms.items():
            total += float(coeff) * k1**e1 * k2**e2 * k3**e3
        return total

    def render(self) -> str:
        """Canonical text: k1 terms before k2 before k3, constants last."""
        if not self.terms:
            return "0"
        return _join_signed([_term_text(self.terms[triple], triple)
                             for triple in sorted(self.terms, reverse=True)])


K1 = ParamPoly.gen(1)
K2 = ParamPoly.gen(2)
K3 = ParamPoly.gen(3)
ONE = ParamPoly.const(1)
ZERO = ParamPoly()

_PARAM_NAMES = ("k1", "k2", "k3")


def _term_text(coeff: Fraction, triple: Triple,
               extra_factors: tuple[tuple[str, int], ...] = ()) -> tuple[str, str]:
    """(sign, body) for one rendered term; body follows the expression grammar."""
    factors = []
    for name, e in tuple(zip(_PARAM_NAMES, triple)) + extra_factors:
        if e == 0:
            continue
        factors.append(name if e == 1 else f"{name}^{e}")
    magnitude = abs(coeff)
    if not factors or magnitude != 1:
        factors.insert(0, str(magnitude))
    return ("-" if coeff < 0 else "+", "*".join(factors))


def _join_signed(pieces: list[tuple[str, str]]) -> str:
    sign, body = pieces[0]
    text = body if sign == "+" else "-" + body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text
