"""Kernel behavior: arithmetic, differentiation, brackets, vector fields."""

import gc
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from holtkit import catalog, ring, verify
from holtkit.parsing import parse_expression
from holtkit.phasepoly import (
    K1,
    K2,
    K3,
    PX,
    PY,
    U,
    X,
    Y,
    DomainError,
    PhasePoly,
    Term,
    VectorField,
    ZERO_FIELD,
    hamiltonian_vf,
    poisson_bracket,
    upow,
    vf_commutator,
)
from test_dynamics import sampled


def test_y_is_u_cubed():
    assert Y == U**3
    assert Y * upow(-2) == U


def test_negative_exponents_only_on_u():
    assert upow(-5).terms  # fine
    with pytest.raises(ValueError):
        PhasePoly({Term(ex=-1): 1})
    with pytest.raises(ValueError):
        PhasePoly({Term(epx=-2): 1})


def test_addition_cancels():
    f = 3 * X * PX - 3 * X * PX
    assert f.is_zero
    assert (X + U) - X == U


def test_a_sum_reduces_and_leaves_its_operands_as_they_were():
    half = Fraction(1, 2)
    f, g = half * X + half * PX, half * X - half * PX
    # denominators of 2 that cancel to 1
    assert ((f + g).den, (f + g).nums) == (1, {Term(ex=1): 1})
    assert ((f - g).den, (f - g).nums) == (1, {Term(epx=1): 1})
    # denominators of 1, where no numerator is scaled
    h = X + PX
    assert h - PX == X and h + (-X) == PX and -PX + h == X
    # a scalar minus a polynomial
    assert 3 - X == -(X - 3) and half - X * PX == -(X * PX - half)
    assert (f.den, f.nums) == (2, {Term(ex=1): 1, Term(epx=1): 1})
    assert (h.den, h.nums) == (1, {Term(ex=1): 1, Term(epx=1): 1})


def test_a_result_is_reduced_by_the_gcd_of_its_denominator_and_every_numerator():
    def wrapped(den, nums):
        p = PhasePoly._wrap(den, {Term(ex=i): n for i, n in enumerate(nums)})
        return p.den, list(p.nums.values())

    assert wrapped(6, [5, 3, 9]) == (6, [5, 3, 9])  # the gcd is 1 at the first term
    assert wrapped(6, [3, 9, 15]) == (2, [1, 3, 5])  # 3 divides every term
    assert wrapped(12, [6, 9, 15]) == (4, [2, 3, 5])  # 6 at the first term, then 3
    assert wrapped(6, [3, 9, 15, 4]) == (6, [3, 9, 15, 4])  # 1 only at the last term
    assert wrapped(1, [4, 6]) == (1, [4, 6])
    sixths = Fraction(1, 6) * X + Fraction(3, 6) * PX + Fraction(5, 6) * PY
    assert (sixths.den, sixths.nums) == (6, {Term(ex=1): 1, Term(epx=1): 3, Term(epy=1): 5})
    # the last sum is 3, 9, 15 over 6 before it is reduced
    halves = sixths + sixths + sixths
    assert (halves.den, halves.nums) == (2, {Term(ex=1): 1, Term(epx=1): 3, Term(epy=1): 5})


def test_multiplication_merges_exponents():
    assert upow(-2) * U**5 == U**3
    assert (X * PX) * (X * PY) == X**2 * PX * PY


def _key_layouts(monkeypatch):
    """The key layout of every kernel call from now on, in call order."""
    seen = []
    for layout in ("tuple", "packed"):
        products = getattr(ring, f"_{layout}_products")
        monkeypatch.setattr(ring, f"_{layout}_products",
                            lambda *args, layout=layout, products=products:
                            seen.append(layout) or products(*args))
    return seen


def _powers_of_x(n):
    return PhasePoly({Term(ex=i): 1 for i in range(n)})


def test_the_key_layout_follows_the_operand_sizes(monkeypatch):
    assert ring._PACK_RATIO == 4
    eight, nine = _powers_of_x(8), _powers_of_x(9)
    products = [lambda: 3 * nine,  # 9 pairs, 10 terms
                lambda: eight * eight,  # 64 pairs, 16 terms: 4 per term
                lambda: eight * nine,  # 72 pairs, 17 terms
                lambda: PhasePoly() * nine]  # no pairs, nothing to add
    expected = [PhasePoly({Term(ex=i): 3 for i in range(9)}),
                PhasePoly({Term(ex=k): min(k + 1, 15 - k) for k in range(15)}),
                PhasePoly({Term(ex=k): min(k + 1, 8, 16 - k) for k in range(16)}),
                PhasePoly()]
    seen = _key_layouts(monkeypatch)
    assert [p() for p in products] == expected
    assert seen == ["tuple", "tuple", "packed", "tuple"]


def test_the_paper_suite_adds_tuple_keys_and_the_ladder_packed_keys(monkeypatch):
    """Every kernel call of the suite adds tuple keys but the bracket of
    conserved_J_h3_6_k, whose operands (15 and 6 terms) make 90 pairs, past
    _PACK_RATIO * 21."""
    seen, packing = _key_layouts(monkeypatch), []
    for kind in ("conserved", "identity", "vf_relation", "lie_closure"):
        def spy(*args, check=getattr(verify, f"check_{kind}")):
            start = len(seen)
            failure = check(*args)
            packing.append("packed" in seen[start:])
            return failure
        monkeypatch.setattr(verify, f"check_{kind}", spy)
    assert verify.full_suite().all_passed
    assert [claim[0] for claim, packs in zip(verify.CLAIMS, packing, strict=True)
            if packs] == ["conserved_J_h3_6_k"]
    assert seen.count("packed") == 1
    A, B = catalog.build("K3_4").expression, catalog.build("K2_3").expression
    A2, B2 = A**2, B**2
    del seen[:]
    poisson_bracket(A2, B2)
    assert seen == ["packed"]


def test_a_packed_bracket_packs_each_operand_once(monkeypatch):
    packed = []
    pack = ring._pack
    monkeypatch.setattr(ring, "_pack", lambda terms, *args: packed.append(len(terms))
                        or pack(terms, *args))
    f, g = catalog.build("K3_4").expression ** 2, catalog.build("K2_3").expression ** 2
    assert poisson_bracket(f, g) == 108 * 4 * K2**3 * catalog.build("K3_4").expression \
        * catalog.build("K2_3").expression
    assert sorted(packed) == sorted([len(f.nums), len(g.nums)])
    # a field applied to f packs f once and each component once
    field = hamiltonian_vf(g)
    del packed[:]
    applied = field.apply(f)
    assert sorted(packed) == sorted([len(f.nums), *(len(c.nums) for c in field)])
    assert applied == poisson_bracket(f, g)


def test_the_ladder_rungs_pack_but_the_two_smallest(monkeypatch):
    """{K3_4^a, K2_3^b} packs exactly when |A| * |B| > _PACK_RATIO * (|A| +
    |B|), which 6 x 5 and 20 x 5 (on the edge: 100 = 4 * 25) terms are not."""
    seen = _key_layouts(monkeypatch)
    for k2, k3 in ((None, None), LADDER_K):
        A = catalog.build("K3_4").expression.substitute_params(k2=k2, k3=k3)
        B = catalog.build("K2_3").expression.substitute_params(k2=k2, k3=k3)
        powers = [(a, b, A**a, B**b) for a in range(1, 5) for b in range(1, 4)]
        layouts = {}
        for a, b, Aa, Bb in powers:
            del seen[:]
            poisson_bracket(Aa, Bb)
            layouts[a, b], = seen
        assert [rung for rung, layout in layouts.items() if layout == "tuple"] == [(1, 1), (2, 1)]
        assert set(layouts.values()) == {"tuple", "packed"}


LADDER_K = (Fraction(13, 17), Fraction(-19, 23))


def test_ladder_brackets_render_as_captured():
    """render() of {K3_4^a, K2_3^b} for a = 1..4 (outer loop) and b = 1..3,
    first with k symbolic, then at (k2, k3) = LADDER_K: one line each,
    captured from the kernel that added the four products term by term."""
    lines = []
    for k2, k3 in ((None, None), LADDER_K):
        A = catalog.build("K3_4").expression.substitute_params(k2=k2, k3=k3)
        B = catalog.build("K2_3").expression.substitute_params(k2=k2, k3=k3)
        lines += [poisson_bracket(A**a, B**b).render() for a in range(1, 5) for b in range(1, 4)]
    golden = (Path(__file__).parent / "data" / "ladder_brackets.txt").read_text()
    assert "".join(f"{line}\n" for line in lines) == golden


POWERS = {"k1^-1": (K1, -1, ValueError), "px^-1": (PX, -1, ValueError), "x^0": (X, 0, 1),
          "zero^0": (PhasePoly.zero(), 0, 1),
          "K2_3^0": (catalog.build("K2_3").expression, 0, 1)}


@pytest.mark.parametrize("base, exponent, power", POWERS.values(), ids=POWERS)
def test_pow_is_1_at_exponent_0_and_refuses_a_negative_one(base, exponent, power):
    if power is ValueError:
        with pytest.raises(ValueError):
            base ** exponent
    else:
        assert base ** exponent == PhasePoly.constant(power)


def test_momentum_order():
    assert (2 * PX**3 + X * PY).momentum_order == 3
    assert (PX * PY**2).momentum_order == (PY**3).momentum_order == 3
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


def test_substitution_refuses_a_power_past_its_bit_budget():
    # k2 = 2 costs one bit per unit of exponent, so 2^20 is the last exponent
    # allowed, and 2^(2^20 + 1) is refused before it is computed
    with pytest.raises(ValueError, match="cost over 1048576 bits"):
        (K2**(2**20 + 1) * X).substitute_params(k2=2)
    assert (K2**(2**20) * X).substitute_params(k2=2) == 2**(2**20) * X


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


# (polynomial, render()): the sign, the +-1 and the denominator branches
RENDERED = [
    (PhasePoly.constant(-1), "-1"),
    (PhasePoly.constant(1), "1"),
    (PhasePoly.constant(Fraction(7, 2)), "7/2"),
    (-X, "-x"),
    (PhasePoly.constant(Fraction(-1, 3)), "-1/3"),
    (Fraction(-1, 3) * PX, "-1/3*px"),
    (Fraction(-1, 3) * X + 1, "-1/3*x + 1"),
    (108 * K2**3 - 1, "108*k2^3 - 1"),
    (-PX * X - Fraction(1, 3), "-x*px - 1/3"),
    (Fraction(-5, 7) * PX**2 + X, "-5/7*px^2 + x"),
    (Fraction(-5, 7) * K2 * PX**2 - Fraction(2, 3) * X + Fraction(1, 2),
     "-5/7*k2*px^2 - 2/3*x + 1/2"),
]


@pytest.mark.parametrize("poly, text", RENDERED)
def test_render_coefficient_edge_cases(poly, text):
    assert poly.render() == text


def test_param_poly_coefficients_expand_into_flat_terms():
    f = (K1 + 2 * K2 - Fraction(1, 3) * K3) * X * upow(-2) * PX + 1 + K1**2 + 5 * U * PY**2
    expansion = PhasePoly({Term(1, -2, 1, 0, 1, 0, 0): 1, Term(1, -2, 1, 0, 0, 1, 0): 2,
                           Term(1, -2, 1, 0, 0, 0, 1): Fraction(-1, 3), Term(): 1,
                           Term(k1=2): 1, Term(0, 1, 0, 2): 5})
    assert f == expansion
    assert len(f.terms) == 6
    assert PhasePoly(f.terms) == f  # flat Term keys are accepted back
    assert f.render() == ("k1*x*u^-2*px + 2*k2*x*u^-2*px - 1/3*k3*x*u^-2*px"
                          " + 5*u*py^2 + k1^2 + 1")


def test_writing_into_terms_changes_nothing():
    # terms is a new dict on each access, not the polynomial's own storage
    p = parse_expression("2*x + 3*px")
    p.terms[Term(ex=1)] = 0
    assert p.terms == {Term(ex=1): 2, Term(epx=1): 3}
    assert p.render() == "3*px + 2*x"
    assert p == parse_expression("2*x + 3*px") and p != parse_expression("3*px")


def test_building_polynomials_leaves_no_argument_tuples_behind():
    # one row per term, 1 to 19 terms: argument tuples of every size CPython
    # keeps free lists for, which a gcd(den, *nums.values()) per polynomial
    # filled by about one tuple per call
    texts = [" + ".join(f"1/{n + 2}*x^{n}" for n in range(terms)) for terms in range(1, 20)]
    for text in texts:
        parse_expression(text)
    gc.collect()  # a full collection empties the free lists
    before = sys.getallocatedblocks()
    for _ in range(50):
        for text in texts:
            parse_expression(text)
    assert sys.getallocatedblocks() - before < 500


def test_constructor_rejects_malformed_keys():
    with pytest.raises(ValueError):
        PhasePoly({(0, 0, 0, 0, -1, 0, 0): 1})
    with pytest.raises(ValueError):
        PhasePoly({(0, 0, 0, 0, 1): 1})
    with pytest.raises(ValueError):  # a Term's first four exponents are not a key
        PhasePoly({(0, 0, 0, 0): 1})
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
    assert ((K1 + K2) * X)._fold(1.0, 2.0, 0.0) == ((3.0, 1, 0, 0, 0),)
    assert ((K1 - K2) * X)._fold(2.0, 2.0, 0.0) == ()
    assert ((K1 + K2) * X).compile(k1=1.0, k2=2.0)(5.0, 1.0, 0.0, 0.0) == 15.0


def outcome(run):
    """The value's repr (so -0.0 and nan count), or a DomainError's type and text."""
    try:
        return repr(run())
    except DomainError as exc:
        return type(exc), str(exc)


# (poly, point, parameters, the outcome both the run function and the
# evaluate loop give; a run cannot start at y <= 0, so those rows are
# evaluate's alone)
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
    # no parameter is involved: the coefficient itself is past the float range
    (Fraction(10**400) * X, (1.0, 1.0, 0.0, 0.0), {},
     (DomainError, "the coefficient of x is too large for a float")),
    (PX - Fraction(10**400) * K2 * X * upow(-2), (1.0, 1.0, 0.0, 0.0), {"k2": 1.0},
     (DomainError, "the coefficient of k2*x*u^-2 is too large for a float")),
]


@pytest.mark.parametrize("poly, point, k, expected", EDGE_CASES)
def test_compiled_matches_the_evaluate_loop_on_edge_cases(poly, point, k, expected):
    assert outcome(lambda: poly.evaluate(*point, **k)) == expected
    if point[1] > 0.0:
        assert outcome(lambda: sampled([poly], point, k)[0]) == expected


def test_compiled_matches_the_evaluate_loop_beyond_one_generated_sum():
    # more terms than CPython compiles into one sum expression
    poly = PhasePoly({Term(ex, eu, epx, 1): Fraction(ex - eu, 1 + epx)
                      for ex in range(30) for eu in range(-5, 5) for epx in range(11)
                      if ex != eu})
    assert len(poly.terms) > 3000
    point = (0.9, 1.3, -1.1, 0.7)
    value = poly.evaluate(*point)
    assert repr(sampled([poly], point)) == repr((value,))
    assert value != 0.0


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


def test_vector_fields_add_componentwise():
    X2, X3 = catalog.build("X2").expression, catalog.build("X3").expression
    total = X2 + X3
    assert type(total) is VectorField
    assert list(total) == [a + b for a, b in zip(X2, X3)]
    assert total - X3 == X2
    with pytest.raises(TypeError):
        X2 + 1


GAMMA_H = catalog.build("Gamma_H").expression


@pytest.mark.parametrize("make", [
    lambda: PhasePoly({Term(): 0.5}),
    lambda: X + 0.5,
    lambda: 0.5 + X,
    lambda: X - 0.5,
    lambda: 0.5 - X,
    lambda: 0.5 * X,
    lambda: GAMMA_H - 1,
    lambda: GAMMA_H * 0.5,
    lambda: PhasePoly({(1.5, 0, 0, 0, 0, 0, 0): 1}),
    lambda: PhasePoly({Term(ex=2.0): 1}),
    lambda: PhasePoly({Term(ex=Fraction(2)): 1}),
    lambda: X * 1.5,
], ids=["constructor", "add", "radd", "sub", "rsub", "rmul", "field-sub-int", "field-mul",
        "exponent-1.5", "exponent-2.0", "exponent-Fraction(2)", "mul"])
def test_no_float_enters_the_exact_ring(make):
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize("make", [
    lambda: PhasePoly.constant(1.5),
    lambda: (K2 * X).substitute_params(k2=0.5),
], ids=["constant", "substitute"])
def test_a_float_coefficient_is_refused_by_name(make):
    with pytest.raises(TypeError, match="^expected an exact rational, got float$"):
        make()


@pytest.mark.parametrize("make, text", [
    (lambda: X * Fraction(1, 2), "1/2*x"),
    (lambda: Fraction(1, 2) * X, "1/2*x"),
    (lambda: PhasePoly.constant(Fraction(3, 6)), "1/2"),
    (lambda: (K2 * X).substitute_params(k2=Fraction(1, 3)), "1/3*x"),
    (lambda: VectorField(X, PX, -X, PhasePoly.zero()) * Fraction(1, 2),
     "dx/dt = 1/2*x; dy/dt = 1/2*px; dpx/dt = -1/2*x; dpy/dt = 0"),
], ids=["mul", "rmul", "constant", "substitute", "field-mul"])
def test_an_exact_rational_enters_the_ring(make, text):
    assert make().render() == text


def test_a_polynomial_equals_its_rational_constant_only():
    half = Fraction(1, 2)
    assert PhasePoly.constant(half) == half and half == PhasePoly.constant(half)
    assert (X == half) is False and (PhasePoly.constant(half) != half) is False


def test_a_float_never_equals_an_exact_polynomial():
    assert (X == 0.5) is False
    assert (PhasePoly.constant(1) == 1.0) is False


@pytest.mark.parametrize("value", [X - 2 * PY, GAMMA_H], ids=["poly", "field"])
def test_str_is_the_canonical_render(value):
    assert str(value) == value.render()
