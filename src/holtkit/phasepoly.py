"""Phase-space Laurent polynomials and their Hamiltonian calculus.

Coordinates are x, y with momenta px, py.  All Holt-family potentials live
in fractional powers of y, so the kernel works with the cube-root generator
u, fixed by y = u**3: every power y^(n/3) becomes the integer power u^n,
the ring closes under multiplication, and d/dy acts on monomials as
u^n -> (n/3) u^(n-3).  Only the u exponent may be negative.

A PhasePoly is one flat sparse polynomial over the rationals, stored as
the integer kernel (ring.sum_of_products) reads and returns it: a positive
integer denominator den and a dict nums from a plain tuple of the seven
exponents (x, u, px, py, k1, k2, k3) to a nonzero integer numerator, in
lowest terms, so that gcd(den, *nums.values()) == 1 and zero is (1, {}).
Fractions and Terms appear only at the edges: the constructor's keys and
coefficients, substitute_params' values, and the terms mapping, built on
access.  So does the fractions module: the terms mapping imports it, and
every other edge accepts a Fraction only once a caller has loaded it, so
importing, building, verifying and simulating never load it.  The
couplings k1, k2, k3 are never differentiated, so equality to zero stays
decidable and every identity check here is a proof.

Floats appear only in numeric evaluation: _fold turns a polynomial at
fixed parameters into float terms, and compile returns a plain loop over
them.  That loop, also behind evaluate, is the package's one float
evaluator, which the generated run loop of dynamics matches bit for bit.

The Poisson bracket convention is

    {f, g} = f_x g_px + f_y g_py - f_px g_x - f_py g_y

with the y-derivative realized through u as above.  Under this convention
the third- and fourth-order integrals of the linear-in-x potential bracket
to +108 k2^3, matching the sign the catalog transcriptions assume.
"""

from __future__ import annotations

import sys
from functools import reduce
from math import gcd, lcm
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple

from .ring import Scalar, Scaled, accumulate, sum_of_products

if TYPE_CHECKING:
    from fractions import Fraction


class DomainError(ValueError):
    """Numeric evaluation outside its domain: y <= 0, a run's non-finite
    state, or a value too large for a float."""


# momentum-leading order, matching how the integrals are written: (epx, epy,
# ex, eu, k1, k2, k3), parameters last, so one monomial's parameter terms
# stay together
_SORT_KEY = itemgetter(2, 3, 0, 1, 4, 5, 6)


class Term(NamedTuple):
    """Exponents of one flat term x^ex u^eu px^epx py^epy k1^k1 k2^k2 k3^k3."""

    ex: int = 0
    eu: int = 0
    epx: int = 0
    epy: int = 0
    k1: int = 0
    k2: int = 0
    k3: int = 0


# name -> (Term slot, scale): the exponent e of a name is scale * e in its
# slot, so y is u^3.  Parameters k1-k3 fill slots 4-6 and are never
# differentiated.  The parser, diff and the kernel's derivative directions
# all read this table.
SLOTS = {"x": (0, 1), "u": (1, 1), "y": (1, 3), "px": (2, 1), "py": (3, 1),
         "k1": (4, 1), "k2": (5, 1), "k3": (6, 1)}
_PARAM_SLOT = 4

# the most bits one term's substituted powers may cost, at e * (bits of
# max(|p|, q) - 1) per substituted p/q with exponent e, so 0 and +-1 cost
# nothing: far past the 14.3k bits of the 4300 digits render prints by
# default, while a power of that size still takes well under a second
_SUBSTITUTION_BITS = 2**20

# the most entries one factor table holds: past it a value is made on each
# miss and not stored, so distinct input cannot grow a table without limit
FACTOR_TABLE_BOUND = 256


class FactorTable(dict):
    """A dict filled on first use: a missing key's value is make(key),
    stored while the table holds fewer than FACTOR_TABLE_BOUND entries and
    never stored when it is None."""

    __slots__ = ("make",)

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self.make(key)
        if value is not None and len(self) < FACTOR_TABLE_BOUND:
            self[key] = value
        return value


def _factor_texts(name: str) -> FactorTable:
    """Exponent -> rendered factor of one name, with its leading "*": "*x",
    "*px^2", "*u^-5", and "" for exponent 0."""
    return FactorTable(lambda e: "" if e == 0 else f"*{name}" if e == 1 else f"*{name}^{e}")


# render's factor texts in rendered order: parameters first, then Term slots 0-3
_RENDER_TABLES = tuple(map(_factor_texts, ("k1", "k2", "k3", "x", "u", "px", "py")))

# float terms (c, ex, eu, epx, epy) of a polynomial at fixed parameters
FloatTerms = tuple[tuple[float, int, int, int, int], ...]


def _exact(value) -> bool:
    """Whether value is an int or a Fraction.  A Fraction exists only once
    the fractions module is loaded, so the module is looked up, never
    imported: an operand that is neither costs no import."""
    if isinstance(value, int):
        return True
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(value, fractions.Fraction)


def _frac(value) -> Scalar:
    if _exact(value):
        return value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class PhasePoly:
    """Sparse sum of terms with nonzero rational coefficients, stored as
    integer numerators nums over one positive denominator den, in lowest
    terms.

    Immutable; the zero polynomial is (1, {}) and equality is equality of
    the stored pairs.
    """

    __slots__ = ("den", "nums")

    def __new__(cls, terms: Mapping[tuple, Scalar] | None = None) -> "PhasePoly":
        """Keys are Terms, or tuples of all 7 exponents."""
        terms = terms or {}
        for key in terms:
            if len(key) != 7:
                raise ValueError(f"expected 7 exponents, got {key}")
            if not all(isinstance(e, int) for e in key):
                raise TypeError(f"expected integer exponents, got {key}")
            if min(key[:1] + key[2:]) < 0:
                raise ValueError(f"negative exponent outside u in {key}")
        coeffs = [(tuple(k), _frac(c)) for k, c in terms.items()]
        return cls._from_rows((k, c.numerator, c.denominator) for k, c in coeffs)

    @classmethod
    def _from_rows(cls, rows: Iterable[tuple[tuple, int, int]]) -> "PhasePoly":
        """The sum of (exponent tuple, numerator, denominator) rows, each
        denominator positive, over the lcm of the denominators; rows on one
        exponent tuple add up."""
        rows = list(rows)
        # reduce, not lcm(*...), whose argument tuple can stay on CPython's free lists
        den = reduce(lcm, (d for _, _, d in rows), 1)
        return cls._wrap(den, accumulate({}, ((k, n * (den // d)) for k, n, d in rows)))

    @classmethod
    def _wrap(cls, den: int, nums: dict) -> "PhasePoly":
        """Trusted constructor: den > 0 and nums maps tuples to nonzero ints;
        their running gcd, which stops at 1, reduces the pair to lowest terms."""
        g = den
        for n in nums.values() if den != 1 else ():  # a gcd with 1 is 1
            g = gcd(g, n)
            if g == 1:  # no numerator can lower it further
                break
        poly = object.__new__(cls)
        poly.den = den // g
        poly.nums = {k: n // g for k, n in nums.items()} if g != 1 else nums
        return poly

    @property
    def terms(self) -> dict[Term, Fraction]:
        """Term -> Fraction coefficient, a new dict on each access."""
        from fractions import Fraction  # the one edge that makes a Fraction itself

        den = self.den
        return {Term._make(k): Fraction(n, den) for k, n in self.nums.items()}

    def _operand(self) -> Scaled:
        return self.den, self.nums.items()

    @classmethod
    def zero(cls) -> "PhasePoly":
        return cls()

    @classmethod
    def constant(cls, value: Scalar) -> "PhasePoly":
        return cls({Term(): value})

    @classmethod
    def monomial(cls, coeff: Scalar = 1, ex: int = 0, eu: int = 0,
                 epx: int = 0, epy: int = 0) -> "PhasePoly":
        return cls({Term(ex, eu, epx, epy): coeff})

    @property
    def momentum_order(self) -> int:
        """Highest total momentum degree over all terms (0 for the zero poly)."""
        return max((t[2] + t[3] for t in self.nums), default=0)

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def _coerce(self, other) -> "PhasePoly | None":
        if isinstance(other, PhasePoly):
            return other
        if _exact(other):
            return PhasePoly.constant(other)
        return None

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.nums == o.nums

    __hash__ = None  # mutable mapping inside; identity by term set only

    def _plus(self, o: "PhasePoly", sign: int) -> "PhasePoly":
        """self + sign * o over the lcm of the two denominators."""
        den = lcm(self.den, o.den)
        a, b = den // self.den, sign * (den // o.den)
        return self._wrap(den, accumulate({k: n * a for k, n in self.nums.items()},
                                          ((k, n * b) for k, n in o.nums.items())))

    def __add__(self, other) -> "PhasePoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __neg__(self) -> "PhasePoly":
        return self._wrap(self.den, {k: -n for k, n in self.nums.items()})

    def __sub__(self, other) -> "PhasePoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other) -> "PhasePoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "PhasePoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap(*sum_of_products([(1, (self._operand(), None), (o._operand(), None))]))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "PhasePoly":
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

    def diff(self, var: str) -> "PhasePoly":
        """Partial derivative along x, u, px, py, or y.

        The y-derivative is the chain rule through u: a monomial u^n maps
        to (n/3) u^(n-3), which keeps the result inside the ring.  Along a
        direction (slot, scale), a term with exponent e != 0 in the slot
        takes n * e and drops e by the scale, which multiplies the
        denominator; terms stay distinct.
        """
        slot, scale = SLOTS.get(var, (_PARAM_SLOT, 0))
        if slot >= _PARAM_SLOT:
            raise ValueError(f"unknown direction {var!r}")
        nums = {k[:slot] + (k[slot] - scale,) + k[slot + 1:]: n * k[slot]
                for k, n in self.nums.items() if k[slot]}
        return self._wrap(self.den * scale, nums)

    def substitute_params(self, k1: Scalar | None = None, k2: Scalar | None = None,
                          k3: Scalar | None = None) -> "PhasePoly":
        """Exact parameter specialization; None leaves a parameter symbolic.

        Every power is computed in full, so a term past _SUBSTITUTION_BITS
        raises ValueError first, even where the terms would cancel.
        """
        subs = [(i, _frac(v)) for i, v in enumerate((k1, k2, k3), _PARAM_SLOT)
                if v is not None]
        bits = [(i, max(abs(v.numerator), v.denominator).bit_length() - 1) for i, v in subs]
        if any(sum(key[i] * b for i, b in bits) > _SUBSTITUTION_BITS for key in self.nums):
            raise ValueError(f"a term's substituted powers cost over {_SUBSTITUTION_BITS} bits")

        def substituted():
            for key, num in self.nums.items():
                key, den = list(key), self.den
                for i, v in subs:
                    num *= v.numerator ** key[i]
                    den *= v.denominator ** key[i]
                    key[i] = 0
                yield tuple(key), num, den

        return self._from_rows(substituted())

    def _fold(self, k1: float, k2: float, k3: float) -> FloatTerms:
        """The float terms at fixed parameters, sorted by monomial.

        The parameter terms of one phase monomial sum into one float term,
        and a sum of 0.0 is dropped.
        """
        values: dict[tuple[int, int, int, int], float] = {}
        den = self.den
        for term, n in self.nums.items():
            ex, eu, epx, epy, e1, e2, e3 = term
            try:
                coeff = n / den  # correctly rounded, as float(Fraction(n, den)) is
            except OverflowError:
                raise DomainError(f"the coefficient of {self._wrap(1, {term: 1}).render()} "
                                  "is too large for a float") from None
            try:
                value = coeff * k1**e1 * k2**e2 * k3**e3
            except OverflowError:
                raise DomainError(f"parameter powers overflow at k1 = {k1!r}, "
                                  f"k2 = {k2!r}, k3 = {k3!r}") from None
            mono = (ex, eu, epx, epy)
            values[mono] = values.get(mono, 0.0) + value
        return tuple((values[m], *m) for m in sorted(values) if values[m] != 0.0)

    def compile(self, k1: float = 0.0, k2: float = 0.0,
                k3: float = 0.0) -> Callable[[float, float, float, float], float]:
        """The function of (x, y, px, py) that evaluates this polynomial at
        fixed parameters: a plain loop over the folded terms.

        The terms are folded here, so a parameter or coefficient error is
        raised before any point is seen.
        """
        terms = self._fold(k1, k2, k3)

        def evaluate(x: float, y: float, px: float, py: float) -> float:
            if y <= 0.0:
                raise DomainError(f"evaluation requires y > 0, got y = {y}")
            u = y ** (1.0 / 3.0)
            total = 0.0
            try:
                for c, ex, eu, epx, epy in terms:
                    total += c * x**ex * u**eu * px**epx * py**epy
            except OverflowError:
                raise _overflow(x, y, px, py) from None
            return total

        return evaluate

    def evaluate(self, x: float, y: float, px: float, py: float, *,
                 k1: float = 0.0, k2: float = 0.0, k3: float = 0.0) -> float:
        """Double-precision value at a phase-space point with y > 0.

        It is the reference the generated run loop of dynamics.integrate
        must match bit for bit.
        """
        return self.compile(k1, k2, k3)(x, y, px, py)

    def render(self) -> str:
        """Canonical text form; deterministic and parseable.

        Terms are sorted momentum-first (epx, epy, ex, eu, then k1, k2, k3,
        all descending), one rendered term per key.  A term's factors are
        one concatenation of its slots' FactorTable texts, each carrying its
        own leading "*"; that "*" goes only when no coefficient is written.
        The terms are joined once.
        """
        nums, den = self.nums, self.den
        if not nums:
            return "0"
        k1s, k2s, k3s, xs, us, pxs, pys = _RENDER_TABLES
        parts = []  # a sign, then its term's text, for each term
        add = parts.append
        for key in sorted(nums, key=_SORT_KEY, reverse=True):
            ex, eu, epx, epy, k1, k2, k3 = key
            n, d = nums[key], den
            if d != 1:  # a gcd with 1 is 1
                g = gcd(n, d)
                n, d = n // g, d // g
            add(" - " if n < 0 else " + ")
            factors = k1s[k1] + k2s[k2] + k3s[k3] + xs[ex] + us[eu] + pxs[epx] + pys[epy]
            if d != 1:
                add(f"{abs(n)}/{d}{factors}")
            elif n != 1 and n != -1:
                add(f"{abs(n)}{factors}")
            else:
                add(factors[1:] or "1")
        parts[0] = "" if parts[0] == " + " else "-"
        return "".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()!r})"


def _overflow(x, y, px, py) -> DomainError:
    return DomainError(f"evaluation overflows at (x, y, px, py) = "
                       f"({x!r}, {y!r}, {px!r}, {py!r})")


# generators for building expressions algebraically
X = PhasePoly.monomial(ex=1)
U = PhasePoly.monomial(eu=1)
Y = PhasePoly.monomial(eu=3)
PX = PhasePoly.monomial(epx=1)
PY = PhasePoly.monomial(epy=1)
K1 = PhasePoly({Term(k1=1): 1})
K2 = PhasePoly({Term(k2=1): 1})
K3 = PhasePoly({Term(k3=1): 1})


def upow(n: int) -> PhasePoly:
    """The Laurent monomial u^n (n may be negative)."""
    return PhasePoly.monomial(eu=n)


def poisson_bracket(f: PhasePoly, g: PhasePoly) -> PhasePoly:
    """{f, g} = f_x g_px + f_y g_py - f_px g_x - f_py g_y, exactly."""
    f, g = f._operand(), g._operand()
    return PhasePoly._wrap(*sum_of_products([(1, (f, SLOTS["x"]), (g, SLOTS["px"])),
                                             (1, (f, SLOTS["y"]), (g, SLOTS["py"])),
                                             (-1, (f, SLOTS["px"]), (g, SLOTS["x"])),
                                             (-1, (f, SLOTS["py"]), (g, SLOTS["y"]))]))


class VectorField(NamedTuple):
    """Flow components along x, y, px, py."""

    cx: PhasePoly
    cy: PhasePoly
    cpx: PhasePoly
    cpy: PhasePoly

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self)

    @property
    def momentum_order(self) -> int:
        return max(c.momentum_order for c in self)

    def apply(self, f: PhasePoly) -> PhasePoly:
        """Directional derivative of f along the field (y via the u chain rule)."""
        f = f._operand()
        return PhasePoly._wrap(*sum_of_products(
            (1, (c._operand(), None), (f, SLOTS[var]))
            for c, var in zip(self, ("x", "y", "px", "py"))))

    def __add__(self, other: "VectorField") -> "VectorField":
        if not isinstance(other, VectorField):
            return NotImplemented
        return VectorField(*(a + b for a, b in zip(self, other)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        if not isinstance(other, VectorField):
            return NotImplemented
        return VectorField(*(a - b for a, b in zip(self, other)))

    def __mul__(self, scalar) -> "VectorField":
        if not (isinstance(scalar, PhasePoly) or _exact(scalar)):
            return NotImplemented
        return VectorField(*(c * scalar for c in self))

    __rmul__ = __mul__

    def render(self) -> str:
        names = ("dx/dt", "dy/dt", "dpx/dt", "dpy/dt")
        return "; ".join(f"{n} = {c.render()}" for n, c in zip(names, self))

    def __str__(self) -> str:
        return self.render()


ZERO_FIELD = VectorField(PhasePoly.zero(), PhasePoly.zero(),
                         PhasePoly.zero(), PhasePoly.zero())


def hamiltonian_vf(f: PhasePoly) -> VectorField:
    """Hamiltonian vector field (f_px, f_py, -f_x, -f_y).

    Applying the field of g to f reproduces poisson_bracket(f, g), so the
    sign couples to the bracket convention in the module docstring.
    """
    return VectorField(f.diff("px"), f.diff("py"), -f.diff("x"), -f.diff("y"))


def vf_commutator(a: VectorField, b: VectorField) -> VectorField:
    """[a, b], componentwise a(b_i) - b(a_i), each component one kernel call
    of the eight products a_v * d b_i/dv and -b_v * d a_i/dv."""
    pairs = [(ac._operand(), bc._operand(), SLOTS[var])
             for ac, bc, var in zip(a, b, ("x", "y", "px", "py"))]
    return VectorField(*(PhasePoly._wrap(*sum_of_products(
        [(1, (av, None), (bi, v)) for av, _, v in pairs]
        + [(-1, (bv, None), (ai, v)) for _, bv, v in pairs]))
        for ai, bi, _ in pairs))
