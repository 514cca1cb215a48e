"""The exact integer kernel of phasepoly.PhasePoly's arithmetic.

Coefficients are arbitrary-precision rationals throughout; high-order
bracket expansions overflow 64-bit integers, so fixed-width arithmetic is
never used.

A polynomial is stored as the kernel reads it: one positive integer
denominator and a dict from an exponent tuple to a nonzero integer
numerator (the layout of SymPy's PolyElement, over one denominator).  Sums
go through one accumulate helper.  Every product goes through one
sum-of-products kernel, sum_of_products: a plain product is one (sign, a,
b) triple, a Poisson bracket or a vector field applied to a polynomial is
four.  The kernel takes each operand as it is stored, and phasepoly takes
derivatives on those integers.  The kernel accumulates all pairs of all
products into one integer dict over one common denominator, which the
caller reduces with one gcd.  Small products (at most _PACK_RATIO pairs
per operand term, such as a monomial times a polynomial) add exponent
tuples; larger ones add exponents packed into one integer per term
(Kronecker substitution), with a slot width taken from the operands'
exponent range so that every result decodes exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add, mul
from typing import Collection, Hashable, Iterable, Union

Scalar = Union[int, Fraction]


def accumulate(out: dict, pairs: Iterable[tuple[Hashable, Scalar]]) -> dict:
    """Add each (key, coeff) into out, dropping keys whose sum cancels; returns out."""
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


# one operand of the kernel: (d, [(key, n)]), the terms n / d with integer n
Scaled = tuple[int, Collection[tuple[tuple, int]]]


# the products of one kernel call, as _tuple_products and _packed_products
# read them: (sign, denominator, left terms, right terms), every term an
# integer numerator over that denominator
Products = list[tuple[int, int, Collection[tuple[tuple, int]], Collection[tuple[tuple, int]]]]


# pairs per operand term above which the products add packed keys: packing
# an operand term and decoding a result term each cost about what packing
# saves on two or three pairs, so packing pays only when the products merge
# many pairs into few terms, as a bracket of two large polynomials does; in
# the paper suite and the ladder workload the crossover lies between 2 and 6
_PACK_RATIO = 4


def _tuple_products(scaled: Products, den: int) -> dict[tuple, int]:
    """Accumulate the scaled products over the common denominator den on
    exponent-tuple keys."""
    sums: dict[tuple, int] = {}
    get = sums.get
    for sign, d, left, right in scaled:
        factor = sign * (den // d)
        for ka, na in left:
            na *= factor
            for kb, nb in right:
                key = (*map(add, ka, kb),)
                sums[key] = get(key, 0) + na * nb
    return sums


def _packed_products(scaled: Products, den: int) -> dict[tuple, int]:
    """Accumulate the scaled products over the common denominator den on
    packed integer keys, then decode the surviving keys into exponent tuples.

    Every operand exponent e lies in [lo, hi], over all slots and operands,
    and packs as (e - lo) << (s * i) in slot i, so slot i of a product holds
    a_i + b_i - 2 * lo, between 0 and 2 * (hi - lo) < 2^s: the packing is
    exact, and adding two packed operand keys adds their exponents.
    """
    exponents = [k for _, _, *sides in scaled for side in sides for k, _ in side]
    lo, hi = min(map(min, exponents)), max(map(max, exponents))
    bits = (2 * (hi - lo)).bit_length()
    shifts = [bits * i for i in range(len(exponents[0]))]
    weights = [1 << t for t in shifts]
    base = lo * sum(weights)
    sums: dict[int, int] = {}
    get = sums.get
    for sign, d, left, right in scaled:
        factor = sign * (den // d)
        right = [(sum(map(mul, k, weights)) - base, n) for k, n in right]
        for k, na in left:
            ka = sum(map(mul, k, weights)) - base
            na *= factor
            for kb, nb in right:
                key = ka + kb
                sums[key] = get(key, 0) + na * nb
    keys = [k for k, n in sums.items() if n]
    mask, offset = (1 << bits) - 1, 2 * lo
    slots = [[((k >> t) & mask) + offset for k in keys] for t in shifts]
    return dict(zip(zip(*slots), [sums[k] for k in keys]))


def sum_of_products(triples: Iterable[tuple[int, Scaled, Scaled]]
                    ) -> tuple[int, dict[tuple, int]]:
    """The sum of sign * a * b over (sign, a, b) triples, exactly, as
    (den, {exponent tuple: integer numerator over den}).

    Each operand is integer numerators over a denominator, as a PhasePoly
    stores its terms, and every pair of every product accumulates into one
    integer dict over one common denominator.  A term that cancels reads 0
    or is left out.  Exponents are added as packed integer keys when the
    products have more than _PACK_RATIO pairs per operand term, as tuples
    otherwise.
    """
    scaled, den, excess = [], 1, 0  # excess: pairs - _PACK_RATIO * operand terms
    for sign, (da, left), (db, right) in triples:
        if left and right:
            scaled.append((sign, da * db, left, right))
            den = lcm(den, da * db)
            excess += len(left) * len(right) - _PACK_RATIO * (len(left) + len(right))
    return den, (_packed_products if excess > 0 else _tuple_products)(scaled, den)


# read only by the TARGETS of bench/tracing.py; ROADMAP item 1 retires it
class ParamPoly:
    def __mul__(self, other):
        return NotImplemented

    __rmul__ = __add__ = __radd__ = __mul__
