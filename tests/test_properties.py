"""Property-based checks of the ring axioms and bracket calculus.

Polynomials are kept deliberately small: exactness does not depend on
size, and sixth-degree randomized products would only burn time.
"""

import re
from collections import Counter
from fractions import Fraction
from math import gcd
from operator import neg
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from holtkit import catalog, dynamics, parsing, phasepoly
from holtkit.dynamics import (
    DriftReport,
    InvariantDrift,
    SimConfig,
    Trajectory,
    drift_report,
    integrate,
)
from holtkit.parsing import ParseError, parse_expression
from holtkit.phasepoly import (
    FACTOR_TABLE_BOUND,
    PX,
    PY,
    SLOTS,
    DomainError,
    PhasePoly,
    Term,
    VectorField,
    X,
    Y,
    hamiltonian_vf,
    poisson_bracket,
    upow,
    vf_commutator,
)
from test_dynamics import NO_FORCE, _reference_columns, _run_outcome, run_sources, sampled

fractions = st.fractions(
    min_value=-4, max_value=4, max_denominator=6).filter(lambda q: q != 0)

exponents = st.integers(0, 2)

# Terms in the parameters alone, and in x, u, px, py alone
param_terms = st.tuples(exponents, exponents, exponents).map(lambda k: Term(0, 0, 0, 0, *k))

param_polys = st.dictionaries(param_terms, fractions, min_size=0, max_size=2).map(PhasePoly)

monomials = st.tuples(exponents, st.integers(-3, 3), exponents, exponents).map(lambda e: Term(*e))

phase_polys = st.dictionaries(monomials, fractions, min_size=0, max_size=3).map(PhasePoly)


@settings(max_examples=80, deadline=None)
@given(param_polys, param_polys, param_polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a + (-a) == PhasePoly()


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


def _pairwise(products):
    """The sum of sign * a * b over (sign, a, b), one Fraction product per pair
    of terms: the reference the sum-of-products kernel is held to."""
    out = {}
    for sign, a, b in products:
        right = b.terms.items()  # .terms builds a new dict on each access
        for ka, ca in a.terms.items():
            for kb, cb in right:
                key = tuple(x + y for x, y in zip(ka, kb))
                out[key] = out.get(key, 0) + sign * ca * cb
    return {key: c for key, c in out.items() if c != 0}


def _bracket_products(f, g):
    return [(1, f.diff("x"), g.diff("px")), (1, f.diff("y"), g.diff("py")),
            (-1, f.diff("px"), g.diff("x")), (-1, f.diff("py"), g.diff("y"))]


def _same_terms(result, reference):
    terms = result.terms
    return terms == reference and all(type(t) is Term for t in terms)


# exponents at the edges of the packed keys' slots: small ones, and powers of
# two up to past 2^63 with their neighbours; u also takes them negated
_BOUNDARIES = sorted({2**k + d for k in (1, 2, 3, 4, 31, 32, 63, 64) for d in (-1, 0, 1)})
kernel_exponents = st.one_of(st.integers(0, 3), st.sampled_from(_BOUNDARIES))
kernel_terms = st.builds(Term, ex=kernel_exponents,
                         eu=st.one_of(kernel_exponents, kernel_exponents.map(neg)),
                         epx=kernel_exponents, epy=kernel_exponents,
                         k1=st.integers(0, 1), k2=kernel_exponents, k3=st.integers(0, 1))
# mixed denominators; few distinct values, so that pair sums cancel often
kernel_coefficients = st.sampled_from(
    [Fraction(n, d) for n in (-3, -1, 1, 2) for d in (1, 2, 3, 7)])
# 0 to 3 terms, with 0- and 1-term operands, whose products add tuple keys,
# or 9 to 12 terms, whose products with each other add packed keys (more
# than ring._PACK_RATIO pairs per operand term)
kernel_polys = st.one_of(
    st.dictionaries(kernel_terms, kernel_coefficients, max_size=3),
    st.dictionaries(kernel_terms, kernel_coefficients, min_size=9, max_size=12),
).map(PhasePoly)

_BIG = PhasePoly({Term(ex=2**31, eu=-2**31, epx=1): Fraction(1, 2),
                  Term(ex=2**31 - 1, eu=1 - 2**31, epy=2): Fraction(-2, 3)})
# nine terms, so that its products with itself add packed keys
_WIDE = PhasePoly({Term(ex=2**31 + i, eu=i - 2**31, epx=i % 2, epy=1, k2=i): Fraction(1, i + 1)
                   for i in range(9)})

# packed brackets and fields whose derivatives reach past the operands' own
# exponents: d/dy takes u^1 and u^2 below every exponent of both operands
_LOW_U = PhasePoly({Term(ex=i, eu=1 + i % 2, epy=1 + i % 3): Fraction(i + 1, 3)
                    for i in range(9)})
_LOW_U2 = PhasePoly({Term(ex=i % 4, eu=1 + i, epx=1 + i % 2): Fraction(2 * i - 7, 5)
                     for i in range(10)})
# every exponent of both operands is at least 1, so every derivative falls
# below their least exponent
_ONES = PhasePoly({Term(1 + i, 1 + i % 3, 1 + i % 2, 1, 1, 1 + i % 4, 1): Fraction(-1) ** i
                   for i in range(9)})
_ONES2 = PhasePoly({Term(1 + i % 3, 2 + i, 1, 1 + i % 2, 1 + i % 2, 1, 2): Fraction(i + 1, 7)
                    for i in range(10)})
# exponents past 2^63, on both sides of zero in u
_HUGE = PhasePoly({Term(ex=2**64 + i, eu=(-1) ** i * (2**63 + i), epx=i % 3,
                        epy=2**63 + i % 2, k1=i % 2): Fraction(2 * i - 9, 1 + i % 3)
                   for i in range(10)})


@settings(max_examples=150, deadline=None)
@given(kernel_polys, kernel_polys, kernel_polys, kernel_polys)
@example(_BIG, _BIG + X, PX, PhasePoly())
@example(_WIDE, _WIDE - X**2, _WIDE * PX, _BIG)
@example(_LOW_U, _LOW_U2, _LOW_U * PX + Y, _LOW_U2)
@example(_ONES, _ONES2, _ONES2 * PY - X, _ONES)
@example(_HUGE, _HUGE + PY**3 * X, _HUGE * PX - X, _HUGE)
@example(X**2 + upow(-1), X**2 - upow(-1), X * PX, PhasePoly.constant(Fraction(1, 3)))
def test_the_kernel_matches_a_pairwise_fraction_loop(f, g, h, k):
    assert _same_terms(f * g, _pairwise([(1, f, g)]))
    assert _same_terms((f + g) * (f - g), _pairwise([(1, f + g, f - g)]))  # f*g cancels
    for a, b in ((f, g), (g, h), (f, f)):  # {f, f} cancels to zero
        assert _same_terms(poisson_bracket(a, b), _pairwise(_bracket_products(a, b)))
    field = VectorField(f, g, h, k)
    assert _same_terms(field.apply(h), _pairwise(
        [(1, c, h.diff(var)) for c, var in zip(field, ("x", "y", "px", "py"))]))
    assert hamiltonian_vf(f).apply(f).is_zero


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
# mostly ordinary nonzero values, sometimes any finite float: 0.0, -0.0,
# subnormals, huge
coordinates = st.one_of(st.floats(0.05, 3), st.floats(-3, -0.05),
                        st.floats(allow_nan=False, allow_infinity=False))
# heights above the guard y_min = 1e-6 that a run's start must clear
heights = st.one_of(st.floats(0.05, 4), st.floats(1e-6, exclude_min=True, allow_infinity=False))

exact_values = st.one_of(st.none(), st.just(0), fractions)


def _in_lowest_terms(p):
    """den > 0, nonzero int numerators on plain tuples of seven int
    exponents, and gcd(den, *nums) == 1, which for no terms means den == 1:
    zero is (1, {})."""
    return (type(p.den) is int and p.den > 0 and gcd(p.den, *p.nums.values()) == 1
            and all(type(t) is tuple and len(t) == 7 and all(type(e) is int for e in t)
                    and type(n) is int and n for t, n in p.nums.items()))


@settings(max_examples=80, deadline=None)
@given(st.one_of(phase_polys, parametric_polys), st.one_of(phase_polys, parametric_polys),
       st.sampled_from(["x", "u", "y", "px", "py"]), exact_values, exact_values, exact_values)
def test_every_derived_polynomial_is_keyed_by_exponent_tuples(f, g, var, k1, k2, k3):
    """Every way of making a polynomial stores it in lowest terms, keyed by
    plain tuples of seven int exponents; its terms mapping is keyed by
    Terms, and it and the render both make the polynomial back."""
    made = [f, PhasePoly(f.terms), parse_expression(f.render()),
            parse_expression(f.render().replace("*", " * ")), f + g, f - g, 1 - f, f * g, f**2, -f,
            f.diff(var), poisson_bracket(f, g), VectorField(f, g, g, f).apply(f),
            f.substitute_params(k1, k2, k3), f - f]
    for p in made:
        assert _in_lowest_terms(p)
        terms = p.terms
        assert all(type(t) is Term for t in terms)
        assert PhasePoly(terms) == p == parse_expression(p.render())
    assert (made[-1].den, made[-1].nums) == (1, {})


fields = st.builds(VectorField, parametric_polys, parametric_polys, parametric_polys,
                   parametric_polys)


@settings(max_examples=40, deadline=None)
@given(fields, fields)
def test_the_commutator_matches_two_applications_per_component(a, b):
    """vf_commutator takes each component in one kernel call; two apply
    calls and a difference, one component at a time, are its reference."""
    assert list(vf_commutator(a, b)) == [a.apply(bi) - b.apply(ai) for ai, bi in zip(a, b)]


@settings(max_examples=150, deadline=None)
@given(st.one_of(phase_polys, parametric_polys))
@example(Fraction(2, 5) * upow(-4) * X**2 * PX + Fraction(-7, 3) * Y * PY**3 + 1)
def test_diff_lowers_each_term_by_its_exponent(p):
    """Along x, px and py a term c * v^e becomes e * c * v^(e - 1); along y,
    whose exponent is counted in u = y^(1/3), c * u^eu becomes
    Fraction(eu, 3) * c * u^(eu - 3).  The reference is built term by term
    from Terms and Fractions, with no key slicing and no kernel."""
    for var, name, step in (("x", "ex", 1), ("y", "eu", 3), ("px", "epx", 1), ("py", "epy", 1)):
        expected = {}
        for term, c in p.terms.items():
            e = getattr(term, name)
            if e:
                expected[term._replace(**{name: e - step})] = Fraction(e, step) * c
        assert p.diff(var) == PhasePoly(expected)


# integers from small to far past the float range, and denominators from 1 to
# past 2^1074, so that quotients overflow, underflow or round at a tie
_fold_numerators = st.one_of(st.integers(-10**30, 10**30),
                             st.integers(2**1023, 2**1025), st.integers(1, 2**60).map(neg))
_fold_denominators = st.one_of(st.integers(1, 10**30), st.integers(1, 3),
                               st.integers(2**1070, 2**1080))


@settings(max_examples=300, deadline=None)
@example(2**1024 - 2**970, 1, 1)  # halfway to the next power of two: rounds to inf
@example(2**1024 - 2**970 - 1, 1, 6)  # just below it: rounds to the largest float
@example(1, 2**1075, 2)  # half the smallest subnormal: rounds to zero
@given(_fold_numerators.filter(bool), _fold_denominators, st.integers(1, 10**6))
def test_a_folded_coefficient_is_the_float_of_its_fraction(n, d, m):
    # a second term over m makes the stored numerator of the x term n/d
    # scaled to the common denominator, not the reduced pair
    p = PhasePoly({Term(ex=1): Fraction(n, d), Term(): Fraction(1, m)})
    try:
        expected = float(Fraction(n, d))
    except OverflowError:
        try:
            p._fold(0.0, 0.0, 0.0)
        except DomainError as exc:
            assert str(exc) == "the coefficient of x is too large for a float"
        else:
            raise AssertionError("no DomainError")
        return
    folded = {tuple(mono): c for c, *mono in p._fold(0.0, 0.0, 0.0)}
    assert folded == {**({(1, 0, 0, 0): expected} if expected else {}), (0, 0, 0, 0): 1 / m}


# the draws of one evaluation, which needs no finite start: inf and nan too
wide_coordinates = st.one_of(st.floats(0.05, 3), st.floats(-3, -0.05), st.floats())
wide_heights = st.one_of(st.floats(0.05, 4), st.floats(0.05, 4), st.floats())


def _outcome(run):
    try:
        return repr(run())
    except DomainError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(parametric_polys, wide_coordinates, wide_heights, wide_coordinates, wide_coordinates,
       wide_coordinates, wide_coordinates, wide_coordinates)
def test_compiled_evaluator_matches_the_evaluate_loop(p, x, y, px, py, k1, k2, k3):
    compiled = _outcome(lambda: p.compile(k1, k2, k3)(x, y, px, py))
    reference = _outcome(lambda: p.evaluate(x, y, px, py, k1=k1, k2=k2, k3=k3))
    assert compiled == reference


def _each_evaluated(polys, point, k1, k2, k3):
    """The tuple of evaluate calls, after the parameters of every polynomial
    are folded: a run reports a parameter error before any overflow at a
    point, as folding each polynomial's parameters first does."""
    for p in polys:
        p._fold(k1, k2, k3)
    return tuple(p.evaluate(*point, k1=k1, k2=k2, k3=k3) for p in polys)


def _sample_zero(polys, point, k1, k2, k3):
    """What a run tracking polys stores at its start point: integrate with
    its step count patched to 0, a run SimConfig cannot ask for, so that no
    step can abort or overflow before the sample is checked."""
    tracked = [catalog.CatalogEntry(f"P{i}", "integral", p, "tracked")
               for i, p in enumerate(polys)]
    cfg = SimConfig(h=1.0, t_end=1.0, y_min=5e-324, k1=k1, k2=k2, k3=k3)
    with mock.patch.object(dynamics, "round", lambda _: 0, create=True):
        traj = integrate(NO_FORCE, point, cfg, tracked)
    assert len(traj) == 1
    return tuple(column[0] for column in traj.columns[5:])


@settings(max_examples=300, deadline=None)
@given(parametric_polys, parametric_polys, parametric_polys, coordinates, heights,
       coordinates, coordinates, coordinates, coordinates, coordinates)
def test_fused_evaluator_matches_each_evaluate_loop(p, q, r, x, y, px, py, k1, k2, k3):
    point = (x, y, px, py)
    fused = _outcome(lambda: _sample_zero([p, q, r], point, k1, k2, k3))
    reference = _outcome(lambda: _each_evaluated([p, q, r], point, k1, k2, k3))
    assert fused == reference

# more terms than one generated sum expression holds
_MANY_TERMS = PhasePoly({Term(ex, eu, epx, 1): Fraction(ex - eu, 1 + epx)
                         for ex in range(8) for eu in range(-5, 5) for epx in range(8)
                         if ex != eu})
assert len(_MANY_TERMS.nums) > dynamics._SUM_CHUNK
# folded at k1 = 1e200, the coefficient 1e200 * 1e200 is inf
_INF_COEFFICIENT = PhasePoly({Term(ex=1, k1=1): 10**200})


@settings(max_examples=300, deadline=None)
@example([_MANY_TERMS], (0.9, 1.3, -1.1, 0.7), "composed4", (0.0, 1.0, 0.25))
@example([_INF_COEFFICIENT, PhasePoly(), -X], (2.0, 1.0, 0.5, 0.5), "leapfrog2",
         (1e200, 1.0, 0.0))
@given(st.lists(parametric_polys, max_size=3),
       st.tuples(coordinates, heights, coordinates, coordinates),
       st.sampled_from(dynamics.INTEGRATORS),
       st.tuples(coordinates, coordinates, coordinates))
def test_a_run_samples_each_polynomial_as_its_compiled_loop_does(polys, start, integrator, k):
    """Two steps of U tracking the drawn polynomials record, value for value
    and error for error, what the reference loop records, which calls
    PhasePoly.compile's loop for each polynomial at each sample."""
    tracked = [catalog.CatalogEntry(f"P{i}", "integral", p, "drawn") for i, p in enumerate(polys)]
    cfg = SimConfig(h=0.01, t_end=0.02, integrator=integrator, k1=k[0], k2=k[1], k3=k[2])
    args = (catalog.build("U"), start, cfg, tracked)
    assert _run_outcome(lambda *a: integrate(*a).columns, *args) == \
        _run_outcome(_reference_columns, *args)


def _trajectory(*columns):
    """A Trajectory with the given invariant columns and that many samples."""
    n = len(columns[0])
    state = (tuple(map(float, range(n))), (0.0,) * n, (1.0,) * n, (0.0,) * n, (0.0,) * n)
    return Trajectory(("t", "x", "y", "px", "py", *(f"I{i}" for i in range(len(columns)))),
                      (*state, *columns))


def _loop_drifts(columns):
    """The report a plain loop makes, taking a deviation only when dev > worst."""
    drifts = []
    for i, column in enumerate(columns):
        worst = 0.0
        for value in column:
            dev = abs(value - column[0])
            if dev > worst:
                worst = dev
        drifts.append(InvariantDrift(f"I{i}", column[0], worst / max(abs(column[0]), 1.0)))
    return DriftReport(tuple(drifts), len(columns[0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.floats(), min_size=4, max_size=4), min_size=1, max_size=3))
def test_drift_report_takes_the_largest_deviation_as_a_plain_loop_does(columns):
    report = drift_report(_trajectory(*columns))
    assert repr(report) == repr(_loop_drifts(columns))


# mostly the values where taking the extremes could differ from the loop
_special_floats = st.one_of(st.sampled_from([float("nan"), float("inf"), float("-inf"),
                                             -0.0, 0.0, 1.0, -1.0, 5e-324]),
                            st.floats())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(_special_floats, min_size=n, max_size=n), min_size=1, max_size=3)))
def test_drift_report_from_the_extremes_is_the_loop_report_at_nan_inf_and_minus_zero(columns):
    report = drift_report(_trajectory(*columns))
    assert repr(report) == repr(_loop_drifts(columns))


def test_drift_report_never_takes_a_nan_deviation_for_the_largest():
    nan = float("nan")
    report = drift_report(_trajectory([1.0, 3.0, nan], [1.0, nan, 3.0]))
    assert [d.drift for d in report.invariants] == [2.0, 2.0]
    # a nan first value makes the scale max(|nan|, 1.0) nan, and so the drift
    drift = drift_report(_trajectory([nan, 3.0, 1.0])).invariants[0]
    assert repr((drift.initial, drift.drift)) == "(nan, nan)"


def test_fused_evaluator_keeps_a_repeated_polynomial():
    p = 3 * X * upow(-2) + PX**2
    point = (0.3, 1.7, -0.4, 0.2)
    assert repr(sampled([p, p], point)) == repr((p.evaluate(*point),) * 2)


def test_fused_evaluator_shares_powers_across_polynomials(monkeypatch):
    polys = [PX**2, 5 * X * PX**2, PX**2 * upow(-2) + PX**3, PX**3]
    point = (0.3, 1.7, -0.4, 0.2)
    sources = run_sources(monkeypatch)
    values = sampled(polys, point)
    (source,) = sources
    # px**2, u**-2 and px**3 once each where sample 0 is recorded, and once
    # where the loop records each later sample
    assert Counter(re.findall(r"^ *(\w+ = \w+\*\*-?\d+)$", source, re.MULTILINE)) == \
        {"px_2 = px**2": 2, "u_m2 = u**-2": 2, "px_3 = px**3": 2}
    assert repr(values) == repr(tuple(p.evaluate(*point) for p in polys))


# pieces of expression text, canonical and not: names, ASCII and non-ASCII
# digits, operators, whitespace, the canonical " + " and " - ", and an
# integer past int()'s default limit of 4300 digits
_LONG = "9" * 5000
_SOUP = [*SLOTS, "0", "1", "2", "12", "007", "\u0663", "\u00b2", "/", "*", "^", "^-",
         "-", "+", " ", "\t", "\n", " + ", " - ", "&", _LONG]
token_soups = st.lists(st.sampled_from(_SOUP), max_size=12).map("".join)

# texts shaped like canonical ones, most of them canonical and the rest
# breaking one rule: a zero denominator, a '-' exponent off u, a digit or
# a separator the reader must leave to the walker
_COEFFICIENTS = ["1", "12", "007", "3/4", "0/5", "1/0", "\u0663", _LONG, f"1/{_LONG}"]
_FACTORS = [f"{name}{power}" for name in SLOTS
            for power in ("", "^2", "^-1", "^-0", "^\u0663", f"^{_LONG}")]
_terms = st.builds(lambda c, fs: "*".join(c + fs),
                   st.lists(st.sampled_from(_COEFFICIENTS), max_size=1),
                   st.lists(st.sampled_from(_FACTORS), max_size=3))
term_soups = st.builds(
    lambda lead, first, rest: lead + first + "".join(s + t for s, t in rest),
    st.sampled_from(["", "-", "+", " "]), _terms,
    st.lists(st.tuples(st.sampled_from([" + ", " - ", "+", " -", "\t+ "]), _terms),
             max_size=3))


@settings(max_examples=500, deadline=None)
@given(st.one_of(token_soups, term_soups))
@example("-3/4*k2*x^2*u^-5 - px + 7")
@example("007*x^0 + u^-0 - y^2*u^-6")
@example("x^-0")
@example("0")
@example("\u0663*x")
@example("x - -y")
@example("x + - y")
@example("2*")
def test_the_canonical_reader_agrees_with_the_token_walker(text):
    rows = parsing._read_canonical(text)
    try:
        walked = parsing._walk(text)
    except ParseError as walker_error:
        assert rows is None
        with pytest.raises(ParseError) as exc_info:
            parse_expression(text)
        assert (exc_info.value.pos, str(exc_info.value)) == (walker_error.pos, str(walker_error))
    else:
        assert rows is None or rows == walked
        got, want = parse_expression(text), PhasePoly._from_rows(walked)
        assert (got.den, got.nums) == (want.den, want.nums)


def _walker_off():
    """parsing._walk replaced by a failure, so only the canonical reader
    can parse."""
    failure = AssertionError("canonical text reached the token walker")
    return mock.patch.object(parsing, "_walk", side_effect=failure)


def test_catalog_text_and_a_ladder_bracket_never_reach_the_token_walker():
    K3_4, K2_3 = (catalog.build(name).expression for name in ("K3_4", "K2_3"))
    ladder = poisson_bracket(K3_4**4, K2_3**3)
    with _walker_off():
        for name in catalog.names():
            expr = catalog.build(name).expression
            for part in (expr,) if isinstance(expr, PhasePoly) else expr:
                assert parse_expression(part.render()) == part, name
        assert parse_expression(ladder.render()) == ladder


@settings(max_examples=80, deadline=None)
@given(st.one_of(phase_polys, parametric_polys))
def test_render_parse_round_trip(p):
    with _walker_off():
        assert parse_expression(p.render()) == p


def _reference_render(p):
    """The canonical text of p, term by term with f-strings and no table:
    the renderer PhasePoly.render must match byte for byte."""
    if not p.nums:
        return "0"
    text = ""
    for t in sorted(p.nums, key=phasepoly._SORT_KEY, reverse=True):
        n, d = p.nums[t], p.den
        g = gcd(n, d)
        n, d = n // g, d // g
        factors = [name if e == 1 else f"{name}^{e}"
                   for name, e in zip(("k1", "k2", "k3", "x", "u", "px", "py"), t[4:] + t[:4])
                   if e]
        if d != 1:
            factors.insert(0, f"{abs(n)}/{d}")
        elif not factors or (n != 1 and n != -1):
            factors.insert(0, str(abs(n)))
        text += f" {'-' if n < 0 else '+'} {'*'.join(factors)}"
    return text[3:] if text[1] == "+" else "-" + text[3:]


# one exponent per slot past the bound, and u's below minus it
_PAST = FACTOR_TABLE_BOUND + 3


@settings(max_examples=150, deadline=None)
@given(st.one_of(phase_polys, parametric_polys))
@example(Fraction(-3, 4) * X**2 * upow(-5) + Fraction(5, 6) * PX * PY**3)  # a denominator
@example(PhasePoly({Term(k2=1): -1, Term(1, 0, 0, 1): 1, Term(0, -1): -1}))  # coefficients +-1
@example(PhasePoly({Term(1, k2=1): -1}))  # -1 before a parameter factor: -k2*x
@example(PhasePoly({Term(2, -3, 1, 4, 1, 2, 3): 1}))  # a coefficient of 1, every slot nonzero
@example(PhasePoly.constant(-1) + X)  # the constant term, after a first term
@example(Fraction(-1, 3) * X + 1)  # a constant whose own denominator reduces to 1
@example(PhasePoly.constant(Fraction(-7, 2)))  # the constant term alone
@example(upow(-1) - 2 * upow(-12) * PX + Y)  # negative u exponents
@example(PhasePoly({Term(_PAST, -_PAST, _PAST, _PAST, _PAST, _PAST, _PAST): 9,
                    Term(1, -1, 0, 1): Fraction(1, 2)}))  # past the table bound
def test_render_matches_the_term_by_term_reference(p):
    assert p.render() == _reference_render(p)


def test_the_factor_tables_stop_at_their_bound():
    """Texts with more distinct exponents in every slot than a table
    holds: each render table and the reader's table stop at the bound,
    yet the text still matches the reference and the rows the walker's."""
    many = range(1, _PAST + 1)
    p = PhasePoly({Term(e, -e, e, e, e, e, e): e for e in many})
    q = PhasePoly({Term(0, e, 0, 0, 0, e): Fraction(1, e) for e in many})
    for _ in range(2):  # the second pass finds every table full
        for poly in (p, q):
            text = poly.render()
            assert text == _reference_render(poly)
            rows = parsing._read_canonical(text)
            assert rows == parsing._walk(text)
            assert parse_expression(text) == poly
        assert [len(t) for t in phasepoly._RENDER_TABLES] == [FACTOR_TABLE_BOUND] * 7
        assert len(parsing._FACTORS) == FACTOR_TABLE_BOUND


def test_a_factor_that_does_not_read_is_not_stored():
    table = phasepoly.FactorTable(parsing._read_factor)
    for bad in ("x^-1", "z^2", "y^-3", "u^", "px^-"):
        assert table[bad] is None
    assert (table["y^2"], table["u^-0"], table["x^007"]) == ((1, 6), (1, 0), (0, 7))
    assert list(table) == ["y^2", "u^-0", "x^007"]
