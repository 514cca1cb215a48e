"""Kernel behavior: arithmetic, differentiation, brackets, vector fields."""

from fractions import Fraction

import pytest

from holtkit.ring import K1, K2, K3
from holtkit.phasepoly import (
    PX,
    PY,
    U,
    X,
    Y,
    DomainError,
    Monomial,
    PhasePoly,
    VectorField,
    ZERO_FIELD,
    hamiltonian_vf,
    poisson_bracket,
    upow,
    vf_commutator,
)


def test_y_is_u_cubed():
    assert Y == U**3
    assert Y * upow(-2) == U


def test_negative_exponents_only_on_u():
    assert upow(-5).terms  # fine
    with pytest.raises(ValueError):
        PhasePoly({Monomial(ex=-1): 1})
    with pytest.raises(ValueError):
        PhasePoly({Monomial(epx=-2): 1})


def test_addition_cancels():
    f = 3 * X * PX - 3 * X * PX
    assert f.is_zero
    assert (X + U) - X == U


def test_multiplication_merges_exponents():
    assert upow(-2) * U**5 == U**3
    assert (X * PX) * (X * PY) == X**2 * PX * PY


def test_pow_rejects_negative_exponent():
    with pytest.raises(ValueError):
        PX ** -1


def test_momentum_order():
    assert (2 * PX**3 + X * PY).momentum_order == 3
    assert X.momentum_order == 0
    assert PhasePoly.zero().momentum_order == 0


def test_diff_x_px():
    f = X**2 * PX**3
    assert f.diff("x") == 2 * X * PX**3
    assert f.diff("px") == 3 * X**2 * PX**2
    assert f.diff("py").is_zero


def test_diff_y_through_cube_root():
    # d/dy of u^n is (n/3) u^(n-3); in particular y -> 1 and u^-2 -> -(2/3) u^-5
    assert Y.diff("y") == PhasePoly.constant(1)
    assert upow(-2).diff("y") == Fraction(-2, 3) * upow(-5)
    assert (U**4).diff("y") == Fraction(4, 3) * U


def test_diff_y_equals_chain_rule_via_u():
    f = X * upow(-2) * PX + 5 * U**4 * PY**2
    assert f.diff("y") == Fraction(1, 3) * upow(-2) * f.diff("u")


def test_mixed_partials_commute():
    f = (X**2 + U**2 * PY) * (PX + upow(-1))
    assert f.diff("x").diff("y") == f.diff("y").diff("x")


def test_substitute_params_partial():
    f = K1 * X + K2 * PX
    assert f.substitute_params(k1=0) == K2 * PX
    assert f.substitute_params(k1=1, k2=Fraction(1, 2)) == X + Fraction(1, 2) * PX


def test_momentum_part_slices():
    f = 2 * PX**3 + 5 * K2 * X * PX * PY + 7 * U
    assert f.momentum_part(3, 0) == PhasePoly.constant(2)
    assert f.momentum_part(1, 1) == 5 * K2 * X
    assert f.momentum_part(0, 0) == 7 * U
    assert f.momentum_part(2, 2).is_zero


def test_bracket_canonical_pairs():
    assert poisson_bracket(X, PX) == PhasePoly.constant(1)
    assert poisson_bracket(Y, PY) == PhasePoly.constant(1)
    assert poisson_bracket(X, PY).is_zero
    assert poisson_bracket(X, Y).is_zero
    assert poisson_bracket(PX, PY).is_zero
    # position-momentum order flips the sign
    assert poisson_bracket(PX, X) == PhasePoly.constant(-1)


def test_bracket_u_with_py():
    # u = y^(1/3) so {u, py} = (1/3) u^-2
    assert poisson_bracket(U, PY) == Fraction(1, 3) * upow(-2)


def test_numeric_evaluation():
    f = K2 * X * upow(-2) + K3 * upow(-2)
    val = f.evaluate(2.0, 8.0, 0.0, 0.0, k2=1.0, k3=4.0)
    assert val == pytest.approx((2.0 + 4.0) / 4.0, rel=1e-14)


def test_numeric_evaluation_rejects_nonpositive_y():
    f = upow(-2)
    with pytest.raises(DomainError):
        f.evaluate(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        f.evaluate(0.0, -1.0, 0.0, 0.0)


def test_compile_freezes_parameters():
    f = K2 * X
    g = f.compile(k2=3.0)
    assert g(2.0, 1.0, 0.0, 0.0) == 6.0


def test_render_momentum_leading_order():
    f = 9 * K2 * U * PY + 2 * PX**3 + 6 * K3 * upow(-2) * PX
    assert f.render() == "2*px^3 + 6*k3*u^-2*px + 9*k2*u*py"
    assert PhasePoly.zero().render() == "0"


def test_render_flattens_parameter_sums():
    f = (K2 + K3) * X
    assert f.render() == "k2*x + k3*x"


def test_param_poly_coefficients_expand_into_flat_terms():
    f = PhasePoly({Monomial(1, -2, 1, 0): K1 + 2 * K2 - Fraction(1, 3) * K3,
                   Monomial(): 1 + K1**2,
                   Monomial(0, 1, 0, 2): 5})
    expansion = (K1 * X * upow(-2) * PX + 2 * K2 * X * upow(-2) * PX
                 - Fraction(1, 3) * K3 * X * upow(-2) * PX
                 + 1 + K1**2 + 5 * U * PY**2)
    assert f == expansion
    assert len(f.terms) == 6
    assert PhasePoly(f.terms) == f  # flat Term keys are accepted back
    assert f.render() == ("k1*x*u^-2*px + 2*k2*x*u^-2*px - 1/3*k3*x*u^-2*px"
                          " + 5*u*py^2 + k1^2 + 1")


def test_constructor_rejects_malformed_keys():
    with pytest.raises(ValueError):
        PhasePoly({(0, 0, 0, 0, -1, 0, 0): 1})
    with pytest.raises(ValueError):
        PhasePoly({(0, 0, 0, 0, 1): 1})
    with pytest.raises(ValueError):
        X.diff("z")


@pytest.mark.parametrize("param", ["k1", "k2", "k3"])
def test_parameters_are_never_differentiated(param):
    with pytest.raises(ValueError):
        ((K1 + K2 + K3) * X).diff(param)


def test_float_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match="overflow"):
        (K1**3 * X).compile(k1=1e110)
    with pytest.raises(DomainError, match="overflow"):
        (X**2).compile()(1e200, 1.0, 0.0, 0.0)


def test_compile_sums_parameter_terms_of_one_monomial():
    g = ((K1 + K2) * X).compile(k1=1.0, k2=2.0)
    assert g.terms == ((3.0, 1, 0, 0, 0),)
    assert ((K1 - K2) * X).compile(k1=2.0, k2=2.0).terms == ()


def compiled_and_evaluated(poly, point, k):
    """Outcome of the generated evaluator and of the evaluate loop: the
    value's repr (so -0.0 and nan count), or a DomainError's type and text."""
    outcomes = []
    for run in (lambda: poly.compile(**k)(*point), lambda: poly.evaluate(*point, **k)):
        try:
            outcomes.append(repr(run()))
        except DomainError as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


# (poly, point, parameters, the outcome both paths give)
EDGE_CASES = [
    (upow(-2) + X, (1.0, 0.0, 0.0, 0.0), {},
     (DomainError, "evaluation requires y > 0, got y = 0.0")),
    (upow(-2) + X, (1.0, -2.5, 0.0, 0.0), {},
     (DomainError, "evaluation requires y > 0, got y = -2.5")),
    (PX + X**2 * PX, (1e200, 1.0, 3.0, 0.0), {},
     (DomainError, "evaluation overflows at (x, y, px, py) = (1e+200, 1.0, 3.0, 0.0)")),
    (X + upow(-4), (0.5, 1e-320, 0.0, 0.0), {},
     (DomainError, "evaluation overflows at (x, y, px, py) = (0.5, 1e-320, 0.0, 0.0)")),
    # the folded coefficient is inf: it must be bound, not printed as a literal
    (Fraction(10**200) * K2 * X, (2.0, 1.0, 0.0, 0.0), {"k2": 1e200}, "inf"),
    (Fraction(10**200) * K2 * X - K2 * X, (0.0, 1.0, 0.0, 0.0), {"k2": 1e200}, "nan"),
    (-X, (0.0, 1.0, 0.0, 0.0), {}, "0.0"),  # 0.0 + -0.0
    (PhasePoly.zero(), (1.0, 1.0, 1.0, 1.0), {}, "0.0"),
    (PhasePoly.zero(), (1.0, -1.0, 1.0, 1.0), {},
     (DomainError, "evaluation requires y > 0, got y = -1.0")),
    (K1**3 * X, (1.0, 1.0, 0.0, 0.0), {"k1": 1e110},
     (DomainError, "parameter powers overflow at k1 = 1e+110, k2 = 0.0, k3 = 0.0")),
]


@pytest.mark.parametrize("poly, point, k, expected", EDGE_CASES)
def test_compiled_matches_the_evaluate_loop_on_edge_cases(poly, point, k, expected):
    assert compiled_and_evaluated(poly, point, k) == [expected, expected]


def test_compiled_matches_the_evaluate_loop_beyond_one_generated_sum():
    # more terms than CPython compiles into one sum expression
    poly = PhasePoly({Monomial(ex, eu, epx, 1): Fraction(ex - eu, 1 + epx)
                      for ex in range(30) for eu in range(-5, 5) for epx in range(11)
                      if ex != eu})
    assert len(poly.terms) > 3000
    outcomes = compiled_and_evaluated(poly, (0.9, 1.3, -1.1, 0.7), {})
    assert outcomes[0] == outcomes[1]
    assert float(outcomes[0]) != 0.0


def test_vector_field_apply_is_directional_derivative():
    V = VectorField(PX, PY, -X, PhasePoly.zero())
    f = X * PX
    assert V.apply(f) == PX**2 - X**2


def test_hamiltonian_vf_reproduces_bracket():
    H = Fraction(1, 2) * (PX**2 + PY**2) + K2 * X * upow(-2)
    f = X**2 * PY + U * PX
    assert hamiltonian_vf(H).apply(f) == poisson_bracket(f, H)


def test_vf_commutator_of_commuting_fields():
    A = VectorField(PX, PhasePoly.zero(), PhasePoly.zero(), PhasePoly.zero())
    B = VectorField(PhasePoly.zero(), PY, PhasePoly.zero(), PhasePoly.zero())
    assert vf_commutator(A, B).is_zero
    assert (A - A).is_zero
    assert ZERO_FIELD.is_zero


def test_vf_scaling_by_ring_elements():
    G = VectorField(PX, PY, PhasePoly.zero(), PhasePoly.zero())
    scaled = 1944 * K2**3 * G
    assert scaled.cx == 1944 * K2**3 * PX
    assert scaled.momentum_order == 1
