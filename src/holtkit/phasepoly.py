"""Phase-space Laurent polynomials and their Hamiltonian calculus.

Coordinates are x, y with momenta px, py.  All Holt-family potentials live
in fractional powers of y, so the kernel works with the cube-root generator
u, fixed by y = u**3: every power y^(n/3) becomes the integer power u^n,
the ring closes under multiplication, and d/dy acts on monomials as
u^n -> (n/3) u^(n-3).  Only the u exponent may be negative.

A PhasePoly is one flat sparse polynomial over the rationals: its terms map
a Term, the seven exponents (x, u, px, py, k1, k2, k3), to a nonzero
Fraction.  The couplings k1, k2, k3 are never differentiated, so equality
to zero stays decidable and every identity check here is a proof.

The Poisson bracket convention is

    {f, g} = f_x g_px + f_y g_py - f_px g_x - f_py g_y

with the y-derivative realized through u as above.  Under this convention
the third- and fourth-order integrals of the linear-in-x potential bracket
to +108 k2^3, matching the sign the catalog transcriptions assume.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import add
from typing import Mapping, NamedTuple, Union

from .ring import (
    ParamPoly,
    Scalar,
    SparsePoly,
    _frac,
    _join_signed,
    _term_text,
    accumulate,
    substitute_terms,
)


class DomainError(ValueError):
    """Numeric evaluation outside its domain: y <= 0, a non-finite point,
    or a value too large for a float."""


class Monomial(NamedTuple):
    """Exponents of one monomial x^ex * u^eu * px^epx * py^epy."""

    ex: int = 0
    eu: int = 0
    epx: int = 0
    epy: int = 0


class Term(NamedTuple):
    """Exponents of one flat term x^ex u^eu px^epx py^epy k1^k1 k2^k2 k3^k3."""

    ex: int = 0
    eu: int = 0
    epx: int = 0
    epy: int = 0
    k1: int = 0
    k2: int = 0
    k3: int = 0

    def sort_key(self):
        # momentum-leading order, matching how the integrals are written;
        # parameters last, so one monomial's parameter terms stay together
        return (self.epx, self.epy, self.ex, self.eu, self.k1, self.k2, self.k3)


# name -> (Term slot, scale): the exponent e of a name is scale * e in its
# slot, so y is u^3.  Parameters k1-k3 fill slots 4-6 and are never
# differentiated.  The parser and PhasePoly.diff both read this table.
SLOTS = {"x": (0, 1), "u": (1, 1), "y": (1, 3), "px": (2, 1), "py": (3, 1),
         "k1": (4, 1), "k2": (5, 1), "k3": (6, 1)}
_PARAM_SLOT = 4

Coefficient = Union[ParamPoly, int, Fraction]

# float terms (c, ex, eu, epx, epy) of a polynomial at fixed parameters
FloatTerms = tuple[tuple[float, int, int, int, int], ...]


def _term(exponents: tuple) -> Term:
    return tuple.__new__(Term, exponents)


class PhasePoly(SparsePoly):
    """Sparse sum of Terms with nonzero Fraction coefficients.

    Immutable; the zero polynomial is the empty mapping and equality is
    term-set equality.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[Monomial | Term, Coefficient] | None = None):
        """Keys are Monomials (or Terms); a ParamPoly coefficient expands into
        one term per parameter monomial."""
        out: dict[Term, Fraction] = {}
        for key, coeff in (terms or {}).items():
            mono, params = Monomial(*key[:4]), tuple(key[4:]) or (0, 0, 0)
            if len(params) != 3:
                raise ValueError(f"expected 4 or 7 exponents, got {key}")
            if mono.ex < 0 or mono.epx < 0 or mono.epy < 0 or min(params) < 0:
                raise ValueError(f"negative exponent outside u in {key}")
            coeffs = coeff.terms if isinstance(coeff, ParamPoly) else {(0, 0, 0): _frac(coeff)}
            accumulate(out, ((_term((*mono, *map(add, params, triple))), c)
                             for triple, c in coeffs.items()))
        self.terms = out

    @classmethod
    def _rekey(cls, terms: dict) -> "PhasePoly":
        return cls._wrap({_term(k): c for k, c in terms.items()})

    @classmethod
    def zero(cls) -> "PhasePoly":
        return cls()

    @classmethod
    def constant(cls, value: Coefficient) -> "PhasePoly":
        return cls({Monomial(): value})

    @classmethod
    def monomial(cls, coeff: Coefficient = 1, ex: int = 0, eu: int = 0,
                 epx: int = 0, epy: int = 0) -> "PhasePoly":
        return cls({Monomial(ex, eu, epx, epy): coeff})

    @property
    def momentum_order(self) -> int:
        """Highest total momentum degree over all terms (0 for the zero poly)."""
        return max((t.epx + t.epy for t in self.terms), default=0)

    def _coerce(self, other) -> "PhasePoly | None":
        if isinstance(other, PhasePoly):
            return other
        if isinstance(other, (ParamPoly, int, Fraction)):
            return PhasePoly.constant(other)
        return None

    def diff(self, var: str) -> "PhasePoly":
        """Partial derivative along x, u, px, py, or y.

        The y-derivative is the chain rule through u: a monomial u^n maps
        to (n/3) u^(n-3), which keeps the result inside the ring.
        """
        i, scale = SLOTS.get(var, (_PARAM_SLOT, 0))
        if i >= _PARAM_SLOT:
            raise ValueError(f"unknown direction {var!r}")
        # distinct terms stay distinct and nonzero, so nothing accumulates
        return self._wrap({_term(t[:i] + (t[i] - scale,) + t[i + 1:]):
                           Fraction(c.numerator * t[i], c.denominator * scale)
                           for t, c in self.terms.items() if t[i]})

    def momentum_part(self, epx: int, epy: int) -> "PhasePoly":
        """Coefficient of px^epx * py^epy: matching terms with momenta stripped."""
        return self._wrap({t._replace(epx=0, epy=0): c for t, c in self.terms.items()
                           if t.epx == epx and t.epy == epy})

    def substitute_params(self, k1: Scalar | None = None, k2: Scalar | None = None,
                          k3: Scalar | None = None) -> "PhasePoly":
        """Exact parameter specialization; None leaves a parameter symbolic."""
        return self._rekey(substitute_terms(self.terms, 4, (k1, k2, k3)))

    def _fold(self, k1: float, k2: float, k3: float) -> FloatTerms:
        """The float terms at fixed parameters, sorted by monomial.

        The parameter terms of one phase monomial sum into one float term,
        and a sum of 0.0 is dropped.
        """
        values: dict[tuple[int, int, int, int], float] = {}
        try:
            for (ex, eu, epx, epy, e1, e2, e3), c in self.terms.items():
                mono = (ex, eu, epx, epy)
                values[mono] = values.get(mono, 0.0) + float(c) * k1**e1 * k2**e2 * k3**e3
        except OverflowError:
            raise DomainError(f"parameter powers overflow at k1 = {k1!r}, "
                              f"k2 = {k2!r}, k3 = {k3!r}") from None
        return tuple((values[m], *m) for m in sorted(values) if values[m] != 0.0)

    def compile(self, k1: float = 0.0, k2: float = 0.0, k3: float = 0.0) -> "CompiledPoly":
        """Freeze parameters to floats for fast repeated numeric evaluation.

        Generates one straight-line evaluator (see CompiledPoly), which
        costs about 0.1 ms: worth it for a function called many times.
        """
        return CompiledPoly(self._fold(k1, k2, k3))

    def evaluate(self, x: float, y: float, px: float, py: float, *,
                 k1: float = 0.0, k2: float = 0.0, k3: float = 0.0) -> float:
        """Double-precision value at a phase-space point with y > 0.

        A plain loop over the folded terms, so a one-shot call skips code
        generation.  It is the reference CompiledPoly must match bit for bit.
        """
        terms = self._fold(k1, k2, k3)
        if y <= 0.0:
            raise _nonpositive_y(y)
        u = y ** (1.0 / 3.0)
        total = 0.0
        try:
            for c, ex, eu, epx, epy in terms:
                total += c * x**ex * u**eu * px**epx * py**epy
        except OverflowError:
            raise _overflow(x, y, px, py) from None
        return total

    def render(self) -> str:
        """Canonical text form; deterministic and parseable.

        Terms are sorted momentum-first (epx, epy, ex, eu, then k1, k2, k3,
        all descending), one rendered term per Term.
        """
        if not self.terms:
            return "0"
        return _join_signed([
            _term_text(self.terms[t], t[4:],
                       (("x", t.ex), ("u", t.eu), ("px", t.epx), ("py", t.epy)))
            for t in sorted(self.terms, key=Term.sort_key, reverse=True)])


def _nonpositive_y(y) -> DomainError:
    return DomainError(f"evaluation requires y > 0, got y = {y}")


def _overflow(x, y, px, py) -> DomainError:
    return DomainError(f"evaluation overflows at (x, y, px, py) = "
                       f"({x!r}, {y!r}, {px!r}, {py!r})")


# terms per generated sum expression: CPython's compiler recurses once per
# '+' of one expression and gives up somewhere below 3000 of them
_SUM_CHUNK = 500


def _generate(terms: FloatTerms):
    """One straight-line function of (x, y, px, py) computing exactly what
    PhasePoly.evaluate's loop computes over these terms.

    The sum keeps the term order and 0.0 as its first operand (so -0.0
    terms still sum to 0.0), and each product keeps the factor order
    c * x * u * px * py.  A factor with exponent 0 (the float 1.0) or 1
    (the base itself) is left out, which is exact; every other power stays
    a `**`, so an overflow still raises.  The coefficients are the
    function's globals c0, c1, ..., not printed literals, because a folded
    one can be inf or nan.
    """
    names = [f"c{i}" for i in range(len(terms))]
    products = []
    for name, (_, *exponents) in zip(names, terms):
        factors = [name]
        for var, e in zip(("x", "u", "px", "py"), exponents):
            if e == 1:
                factors.append(var)
            elif e:
                factors.append(f"{var}**{e}")
        products.append(" * ".join(factors))
    sums = "".join(f"        total = total + {' + '.join(products[i:i + _SUM_CHUNK])}\n"
                   for i in range(0, len(products), _SUM_CHUNK))
    source = ("def evaluate(x, y, px, py):\n"
              "    if y <= 0.0:\n"
              "        raise _nonpositive_y(y)\n"
              "    u = y ** (1.0 / 3.0)\n"
              "    try:\n"
              "        total = 0.0\n"
              f"{sums}"
              "    except OverflowError:\n"
              "        raise _overflow(x, y, px, py) from None\n"
              "    return total\n")
    namespace = dict(zip(names, (c for c, *_ in terms)),
                     _nonpositive_y=_nonpositive_y, _overflow=_overflow)
    exec(source, namespace)
    return namespace["evaluate"]


class CompiledPoly(partial):
    """Parameter-frozen polynomial, evaluated in double precision through
    one generated straight-line function (see _generate).

    A partial with no bound arguments: calling it is a C-level call
    straight into the generated function.  A Python __call__ forwarding to
    it would add one frame per evaluation, about a tenth of the `orbit`
    benchmark's warm time.
    """

    __slots__ = ("terms",)

    def __new__(cls, terms: FloatTerms):
        self = super().__new__(cls, _generate(terms))
        self.terms = terms
        return self


# generators for building expressions algebraically
X = PhasePoly.monomial(ex=1)
U = PhasePoly.monomial(eu=1)
Y = PhasePoly.monomial(eu=3)
PX = PhasePoly.monomial(epx=1)
PY = PhasePoly.monomial(epy=1)


def upow(n: int) -> PhasePoly:
    """The Laurent monomial u^n (n may be negative)."""
    return PhasePoly.monomial(eu=n)


def poisson_bracket(f: PhasePoly, g: PhasePoly) -> PhasePoly:
    """{f, g} = f_x g_px + f_y g_py - f_px g_x - f_py g_y, exactly."""
    return (f.diff("x") * g.diff("px") + f.diff("y") * g.diff("py")
            - f.diff("px") * g.diff("x") - f.diff("py") * g.diff("y"))


@dataclass(frozen=True)
class VectorField:
    """Flow components along x, y, px, py."""

    cx: PhasePoly
    cy: PhasePoly
    cpx: PhasePoly
    cpy: PhasePoly

    @property
    def is_zero(self) -> bool:
        return (self.cx.is_zero and self.cy.is_zero
                and self.cpx.is_zero and self.cpy.is_zero)

    @property
    def momentum_order(self) -> int:
        return max(c.momentum_order for c in self.components())

    def components(self) -> tuple[PhasePoly, PhasePoly, PhasePoly, PhasePoly]:
        return (self.cx, self.cy, self.cpx, self.cpy)

    def apply(self, f: PhasePoly) -> PhasePoly:
        """Directional derivative of f along the field (y via the u chain rule)."""
        return (self.cx * f.diff("x") + self.cy * f.diff("y")
                + self.cpx * f.diff("px") + self.cpy * f.diff("py"))

    def __add__(self, other: "VectorField") -> "VectorField":
        if not isinstance(other, VectorField):
            return NotImplemented
        return VectorField(self.cx + other.cx, self.cy + other.cy,
                           self.cpx + other.cpx, self.cpy + other.cpy)

    def __sub__(self, other: "VectorField") -> "VectorField":
        if not isinstance(other, VectorField):
            return NotImplemented
        return VectorField(self.cx - other.cx, self.cy - other.cy,
                           self.cpx - other.cpx, self.cpy - other.cpy)

    def __neg__(self) -> "VectorField":
        return VectorField(-self.cx, -self.cy, -self.cpx, -self.cpy)

    def __mul__(self, scalar) -> "VectorField":
        if not isinstance(scalar, (PhasePoly, ParamPoly, int, Fraction)):
            return NotImplemented
        return VectorField(self.cx * scalar, self.cy * scalar,
                           self.cpx * scalar, self.cpy * scalar)

    __rmul__ = __mul__

    def render(self) -> str:
        names = ("dx/dt", "dy/dt", "dpx/dt", "dpy/dt")
        return "; ".join(f"{n} = {c.render()}" for n, c in zip(names, self.components()))

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
    """[a, b], componentwise a(b_i) - b(a_i)."""
    return VectorField(a.apply(b.cx) - b.apply(a.cx),
                       a.apply(b.cy) - b.apply(a.cy),
                       a.apply(b.cpx) - b.apply(a.cpx),
                       a.apply(b.cpy) - b.apply(a.cpy))
