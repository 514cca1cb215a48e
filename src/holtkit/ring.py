"""The exact integer kernel of phasepoly.PhasePoly's arithmetic.

Coefficients are arbitrary-precision rationals throughout; high-order
bracket expansions overflow 64-bit integers, so fixed-width arithmetic is
never used.

A polynomial is stored as the kernel reads it: one positive integer
denominator and a dict from a key, the tuple of a PhasePoly's seven
exponents (x, u, px, py, k1, k2, k3), to a nonzero integer numerator (the
layout of SymPy's PolyElement, over one denominator).  Sums go through one
accumulate helper.  Every product goes through one sum-of-products kernel,
sum_of_products: a plain product is one (sign, a, b) triple, a Poisson
bracket or a vector field applied to a polynomial is four, and one
component of a commutator of vector fields is eight.  A factor is an
operand as it is stored and the direction of a derivative that the kernel
takes in the key layout it adds.  All pairs of all products accumulate
into one integer dict over one common denominator, with no cancelled term,
which the caller stores as it is, reduced by the gcd.  Small products (at
most _PACK_RATIO pairs per operand term, such as a monomial times a
polynomial) add the seven exponents of two keys one by one; larger ones
pack each operand once into one integer per term (Kronecker substitution),
in slots that hold every exponent of the operands and their derivatives.
"""

from __future__ import annotations

from itertools import chain
from math import lcm
from operator import mul
from typing import TYPE_CHECKING, Collection, Hashable, Iterable, Optional, Union

if TYPE_CHECKING:
    from fractions import Fraction

# an exact rational; "Fraction" is a forward reference, so that importing
# the package does not load the fractions module (see phasepoly._exact)
Scalar = Union[int, "Fraction"]


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

# a call's products as the layouts read them: (sign, d, left, direction, right, direction)
Products = list[tuple[int, int, Collection, Optional[tuple], Collection, Optional[tuple]]]


# pairs per operand term above which the products add packed keys: packing
# an operand term or decoding a result term costs what packing saves on a
# few pairs.  Against the unpacked tuple loop (Python 3.11.7), the ladder's
# brackets {K3_4^a, K2_3^b} run faster packed from 20 x 15 terms (0.9x the
# tuple time) to 105 x 35 (0.6x), about even at 105 x 5 (1.0x) and slower
# at 6 x 15 (1.45x); random brackets of 20 x 5 and 15 x 6 terms, whose
# pairs merge less, run 1.7-1.8x slower packed, random sparse 20 x 20
# products 2.3x.  Any ratio from 4 to 10 gives the ladder's kernel the same
# time to within 1%
_PACK_RATIO = 4


def _scaled(terms: Iterable[tuple[tuple, int]], slot: int) -> list:
    """The terms with a nonzero exponent in the slot, each numerator times
    that exponent, on their own keys: a derivative before its key shift."""
    return [(k, n * k[slot]) for k, n in terms if k[slot]]


def _tuple_products(products: Products, den: int) -> dict[tuple, int]:
    """Accumulate the products over the common denominator den on
    exponent-tuple keys, leaving out the sums that cancel.

    Keys are unpacked into their seven exponents, which adds a pair's keys
    in about 80 ns against 350 ns for a map over them (Python 3.11.7).  A
    derivative keeps its factor's keys (see _scaled), and each left term's
    phase exponents (slots 0-3) take the product's key shift, minus the
    scale in each differentiated slot, once.
    """
    sums: dict[tuple, int] = {}
    get = sums.get
    for sign, d, a, va, b, vb in products:
        factor = sign * (den // d)
        shift = [0] * 4
        if va:
            a = _scaled(a, va[0])
            shift[va[0]] -= va[1]
        if vb:
            b = _scaled(b, vb[0])
            shift[vb[0]] -= vb[1]
        s0, s1, s2, s3 = shift
        for (a0, a1, a2, a3, a4, a5, a6), na in a:
            na *= factor
            a0 += s0
            a1 += s1
            a2 += s2
            a3 += s3
            for (b0, b1, b2, b3, b4, b5, b6), nb in b:
                key = (a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4, a5 + b5, a6 + b6)
                sums[key] = get(key, 0) + na * nb
    return {k: n for k, n in sums.items() if n}


def _pack(terms: Iterable, weights: list[int], base: int) -> list[tuple[int, int]]:
    return [(sum(map(mul, k, weights)) - base, n) for k, n in terms]


def _packed_products(products: Products, den: int) -> dict[tuple, int]:
    """Accumulate the products over the common denominator den on packed
    integer keys, then decode the surviving keys into exponent tuples.

    Each operand is packed once.  Every exponent e of an operand or of a
    derivative (one slot lower by at most the call's largest scale) lies in
    [lo, hi] and packs as (e - lo) << (s * i) in slot i, so slot i of a
    product holds a_i + b_i - 2 * lo, between 0 and 2 * (hi - lo) < 2^s: the
    packing is exact, adding two keys adds their exponents, and a
    derivative along slot i subtracts scale << (s * i) from a key.
    """
    operands = {id(t): t for _, _, a, _, b, _ in products for t in (a, b)}
    exponents = [k for terms in operands.values() for k, _ in terms]
    drop = max((v[1] for _, _, _, va, _, vb in products for v in (va, vb) if v), default=0)
    lo, hi = min(chain.from_iterable(exponents)) - drop, max(chain.from_iterable(exponents))
    bits = (2 * (hi - lo)).bit_length()
    shifts = [bits * i for i in range(len(exponents[0]))]
    weights = [1 << t for t in shifts]
    base = lo * sum(weights)
    packed = {i: _pack(terms, weights, base) for i, terms in operands.items()}

    def keyed(terms, direction):  # the terms on packed keys, differentiated
        if not direction:
            return packed[id(terms)]
        slot, step = direction[0], direction[1] * weights[direction[0]]
        return [(p - step, n * k[slot])
                for (p, _), (k, n) in zip(packed[id(terms)], terms) if k[slot]]

    sums: dict[int, int] = {}
    get = sums.get
    for sign, d, a, va, b, vb in products:
        factor = sign * (den // d)
        right = keyed(b, vb)
        for ka, na in keyed(a, va):
            na *= factor
            for kb, nb in right:
                key = ka + kb
                sums[key] = get(key, 0) + na * nb
    keys = [k for k, n in sums.items() if n]
    mask, offset = (1 << bits) - 1, 2 * lo
    slots = [[((k >> t) & mask) + offset for k in keys] for t in shifts]
    return dict(zip(zip(*slots), [sums[k] for k in keys]))


def sum_of_products(triples: Iterable[tuple[int, tuple, tuple]]
                    ) -> tuple[int, dict[tuple, int]]:
    """The sum of sign * a * b over (sign, a, b) triples, exactly, as
    (den, {exponent tuple: integer numerator over den}).

    Each factor is (operand, direction): integer numerators over a
    denominator, as a PhasePoly stores its terms, and the (slot, scale) of
    a derivative along x, u, px or py (never a parameter) to take of them by
    PhasePoly.diff's rule, or None.  Every pair of every product accumulates
    into one integer dict over one common denominator, the lcm of every
    product's.  Each layout's derivative step leaves out the terms whose
    exponent in its slot is 0, so a product whose derivative is empty adds
    no term; a term that cancels is left out.  Exponents are added as packed
    integer keys when the operands' own products have more than _PACK_RATIO
    pairs per operand term, as tuples otherwise.
    """
    products, den, excess = [], 1, 0  # excess: pairs - _PACK_RATIO * operand terms
    for sign, ((da, a), va), ((db, b), vb) in triples:
        la, lb = len(a), len(b)
        d = da * db * (va[1] if va else 1) * (vb[1] if vb else 1)
        products.append((sign, d, a, va, b, vb))
        den = lcm(den, d)
        excess += la * lb - _PACK_RATIO * (la + lb)
    return den, (_packed_products if excess > 0 else _tuple_products)(products, den)


# read only by the TARGETS of bench/tracing.py; ROADMAP item 1 retires it
class ParamPoly:
    def __mul__(self, other):
        return NotImplemented

    __rmul__ = __add__ = __radd__ = __mul__
