"""Exact coefficient ring: rationals and the sparse-polynomial kernel.

Coefficients are arbitrary-precision rationals throughout; high-order
bracket expansions overflow 64-bit integers, so fixed-width arithmetic is
never used.

SparsePoly is the arithmetic of phasepoly.PhasePoly: a dict from an
exponent tuple to a nonzero Fraction (the layout of SymPy's PolyElement),
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


# read only by the TARGETS of bench/tracing.py; ROADMAP item 3 retires it
class ParamPoly(SparsePoly):
    pass
