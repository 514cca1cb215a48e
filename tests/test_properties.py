"""Property-based checks of the ring axioms and bracket calculus.

Polynomials are kept deliberately small: exactness does not depend on
size, and sixth-degree randomized products would only burn time.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from holtkit.parsing import parse_expression
from holtkit.phasepoly import (
    DomainError,
    Monomial,
    PhasePoly,
    Term,
    hamiltonian_vf,
    poisson_bracket,
    vf_commutator,
)
from holtkit.ring import ParamPoly

fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6).filter(lambda q: q != 0)

triples = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))

param_polys = st.dictionaries(triples, fractions, min_size=0, max_size=2).map(ParamPoly)

monomials = st.builds(
    Monomial,
    ex=st.integers(0, 2),
    eu=st.integers(-3, 3),
    epx=st.integers(0, 2),
    epy=st.integers(0, 2),
)

phase_polys = st.dictionaries(monomials, fractions, min_size=0, max_size=3).map(PhasePoly)
nonzero_phase_polys = phase_polys.filter(lambda p: not p.is_zero)


@settings(max_examples=80, deadline=None)
@given(param_polys, param_polys, param_polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a + (-a) == ParamPoly()


@settings(max_examples=80, deadline=None)
@given(phase_polys, phase_polys)
def test_bracket_antisymmetry(f, g):
    assert poisson_bracket(f, g) == -poisson_bracket(g, f)
    assert poisson_bracket(f, f).is_zero


@settings(max_examples=80, deadline=None)
@given(phase_polys, phase_polys, phase_polys, fractions, fractions)
def test_bracket_bilinearity(f, g, h, a, b):
    lhs = poisson_bracket(a * f + b * g, h)
    assert lhs == a * poisson_bracket(f, h) + b * poisson_bracket(g, h)


@settings(max_examples=80, deadline=None)
@given(phase_polys, phase_polys, phase_polys)
def test_bracket_leibniz(f, g, h):
    assert poisson_bracket(f * g, h) == f * poisson_bracket(g, h) + g * poisson_bracket(f, h)


@settings(max_examples=60, deadline=None)
@given(phase_polys, phase_polys, phase_polys)
def test_bracket_jacobi(f, g, h):
    total = (poisson_bracket(poisson_bracket(f, g), h)
             + poisson_bracket(poisson_bracket(g, h), f)
             + poisson_bracket(poisson_bracket(h, f), g))
    assert total.is_zero


@settings(max_examples=60, deadline=None)
@given(phase_polys, phase_polys)
def test_hamiltonian_field_matches_bracket(f, g):
    assert hamiltonian_vf(g).apply(f) == poisson_bracket(f, g)


@settings(max_examples=40, deadline=None)
@given(phase_polys, phase_polys)
def test_field_commutator_matches_bracket(f, g):
    lhs = vf_commutator(hamiltonian_vf(f), hamiltonian_vf(g))
    rhs = hamiltonian_vf(poisson_bracket(g, f))
    assert (lhs - rhs).is_zero


@settings(max_examples=60, deadline=None)
@given(phase_polys, phase_polys)
def test_derivation_product_rule(f, g):
    for var in ("x", "u", "y", "px", "py"):
        assert (f * g).diff(var) == f.diff(var) * g + g.diff(var) * f


@settings(max_examples=80, deadline=None)
@given(nonzero_phase_polys)
def test_render_parse_round_trip(f):
    assert parse_expression(f.render()) == f


@settings(max_examples=50, deadline=None)
@given(phase_polys, phase_polys,
       st.floats(-1.5, 1.5, allow_nan=False),
       st.floats(0.5, 2, allow_nan=False),
       st.floats(-1.5, 1.5, allow_nan=False),
       st.floats(-1.5, 1.5, allow_nan=False))
def test_numeric_evaluation_is_a_homomorphism(f, g, x, y, px, py):
    fv = f.evaluate(x, y, px, py)
    gv = g.evaluate(x, y, px, py)
    sv = (f + g).evaluate(x, y, px, py)
    pv = (f * g).evaluate(x, y, px, py)
    scale = max(abs(fv) + abs(gv), abs(fv) * abs(gv), 1.0)
    assert abs(sv - (fv + gv)) <= 1e-9 * scale
    assert abs(pv - fv * gv) <= 1e-9 * scale


flat_terms = st.builds(
    Term,
    ex=st.integers(0, 3),
    eu=st.integers(-6, 4),
    epx=st.integers(0, 4),
    epy=st.integers(0, 4),
    k1=st.integers(0, 2),
    k2=st.integers(0, 2),
    k3=st.integers(0, 2),
)
wide_fractions = st.fractions(max_denominator=10**6).filter(lambda q: q != 0)
parametric_polys = st.dictionaries(flat_terms, wide_fractions, max_size=8).map(PhasePoly)
# mostly ordinary nonzero values, sometimes any float: 0.0, -0.0, subnormals,
# huge, inf, nan
coordinates = st.one_of(st.floats(0.05, 3), st.floats(-3, -0.05), st.floats())
heights = st.one_of(st.floats(0.05, 4), st.floats(0.05, 4), st.floats())


def _outcome(run):
    try:
        return repr(run())
    except DomainError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(parametric_polys, coordinates, heights, coordinates, coordinates,
       coordinates, coordinates, coordinates)
def test_compiled_evaluator_matches_the_evaluate_loop(p, x, y, px, py, k1, k2, k3):
    compiled = _outcome(lambda: p.compile(k1, k2, k3)(x, y, px, py))
    reference = _outcome(lambda: p.evaluate(x, y, px, py, k1=k1, k2=k2, k3=k3))
    assert compiled == reference
