"""Exact arithmetic in the parameters k1, k2, k3, the PhasePoly generators,
and the integer kernel underneath."""

from fractions import Fraction

import pytest

import holtkit
from holtkit import catalog, ring, verify
from holtkit.phasepoly import K1, K2, K3, X, PhasePoly, Term, poisson_bracket

ONE = PhasePoly.constant(1)
ZERO = PhasePoly.zero()


def test_parameters_are_phase_poly_generators():
    assert (holtkit.K1, holtkit.K2, holtkit.K3) == (K1, K2, K3)
    assert all(type(k) is PhasePoly for k in (K1, K2, K3))
    assert [dict(k.terms) for k in (K1, K2, K3)] == [
        {Term(k1=1): 1}, {Term(k2=1): 1}, {Term(k3=1): 1}]
    assert not {"ParamPoly", "Monomial"} & set(holtkit.__all__)


def test_zero_and_one():
    assert ZERO.is_zero
    assert not ONE.is_zero
    assert ONE == 1
    assert ZERO == 0


def test_constructor_drops_zero_coefficients():
    p = PhasePoly({Term(k1=1): Fraction(0), Term(k2=1): Fraction(2)})
    assert p == 2 * K2
    assert list(p.terms) == [Term(k2=1)]


def test_negative_parameter_exponent_rejected():
    with pytest.raises(ValueError):
        PhasePoly({Term(k1=-1): Fraction(1)})


def test_arithmetic_is_exact():
    p = Fraction(1, 3) * K1 + Fraction(1, 6) * K1
    assert p == Fraction(1, 2) * K1
    assert (K1 + K2) * (K1 - K2) == K1**2 - K2**2
    assert (K2 + 1) ** 3 == K2**3 + 3 * K2**2 + 3 * K2 + 1


def test_subtraction_cancels_to_zero():
    p = 108 * K2**3
    assert (p - p).is_zero


def test_evaluate():
    p = 2 * K1 * K3 + K2**2
    assert p.substitute_params(Fraction(1, 2), 3, 4) == Fraction(13)
    assert p.evaluate(0.0, 1.0, 0.0, 0.0, k1=0.5, k2=3.0, k3=4.0) == 13.0


def test_substitute_partial():
    p = K1 * K2 + K3
    q = p.substitute_params(k1=2)
    assert q == 2 * K2 + K3
    assert q.substitute_params(k2=Fraction(1, 2), k3=0) == 1


def test_render_deterministic_and_readable():
    p = 108 * K2**3
    assert p.render() == "108*k2^3"
    q = K2 * K3 - Fraction(1, 2) * K1
    assert q.render() == "-1/2*k1 + k2*k3"
    assert ZERO.render() == "0"


def test_equality_against_numbers():
    assert PhasePoly.constant(Fraction(3, 4)) == Fraction(3, 4)
    assert PhasePoly.constant(5) == 5
    assert K1 != 1


def test_sum_of_products_on_plain_exponent_tuples():
    assert ring.sum_of_products([]) == (1, {})
    # factors (operand, direction) of operands (den, [(exponents, numerator)])
    # in x and y, slots 0 and 1 of the seven, each taken as it is (direction None)
    plus = ((2, [((1, 0, 0, 0, 0, 0, 0), 2), ((0, 0, 0, 0, 0, 0, 0), 1)]), None)  # x + 1/2
    minus = ((2, [((1, 0, 0, 0, 0, 0, 0), 2), ((0, 0, 0, 0, 0, 0, 0), -1)]), None)  # x - 1/2
    third_y = ((3, [((0, 1, 0, 0, 0, 0, 0), 1)]), None)
    empty = ((1, []), None)
    den, sums = ring.sum_of_products([(1, plus, minus), (-1, third_y, third_y),
                                      (1, third_y, empty)])
    # x^2 - 1/4 - 1/9 y^2 over 36; the x terms cancel and are left out
    assert den == 36 and sums == {(2, 0, 0, 0, 0, 0, 0): 36, (0, 0, 0, 0, 0, 0, 0): -9,
                                  (0, 2, 0, 0, 0, 0, 0): -4}
    den, sums = ring.sum_of_products([(1, plus, minus), (-1, minus, plus)])
    assert den == 4 and sums == {}


def test_sum_of_products_differentiates_a_factor_along_its_direction():
    # (y^4 + 7x) / 5, whose slot 1 has scale 2 here (as if y = v^2): its
    # derivative along that slot is 4/10 y^2, times x + 1/2
    y4 = (5, [((0, 4, 0, 0, 0, 0, 0), 1), ((1, 0, 0, 0, 0, 0, 0), 7)])
    plus = ((2, [((1, 0, 0, 0, 0, 0, 0), 2), ((0, 0, 0, 0, 0, 0, 0), 1)]), None)
    den, sums = ring.sum_of_products([(1, (y4, (1, 2)), plus)])
    assert den == 20 and sums == {(1, 2, 0, 0, 0, 0, 0): 8, (0, 2, 0, 0, 0, 0, 0): 4}


def test_sum_of_products_adds_the_same_terms_in_either_key_layout():
    # nine terms times nine is more than ring._PACK_RATIO pairs per operand
    # term, so these products add packed keys; one term times nine adds tuples
    wide = ((1, [((i, -i, 0, 0, 0, 0, 0), i + 1) for i in range(9)]), None)
    assert ring.sum_of_products([(1, wide, wide), (-1, wide, wide)]) == (1, {})
    square = ring.sum_of_products([(1, wide, wide)])
    by_term = [ring.sum_of_products([(1, ((1, [term]), None), wide)])[1]
               for term in wide[0][1]]
    expected = {}
    for sums in by_term:
        for k, n in sums.items():
            expected[k] = expected.get(k, 0) + n
    assert square == (1, expected)


def test_both_key_layouts_take_the_same_derivatives_of_each_factor(monkeypatch):
    # seven-slot keys with negative u exponents; every product differentiates
    # both factors, along y (slot 1, scale 3) or along x, px or py
    f = (6, [((2, -4, 1, 0, 1, 0, 0), 5), ((0, 5, 0, 2, 0, 1, 0), -3),
             ((1, -1, 3, 0, 0, 0, 2), 1), ((0, -6, 0, 1, 0, 0, 0), 4)])
    g = (5, [((1, -2, 0, 1, 0, 0, 1), 7), ((0, 3, 2, 0, 2, 0, 0), 2),
             ((3, 0, 0, 0, 0, 1, 0), -4), ((1, -3, 1, 2, 0, 0, 0), 1)])
    y, x, px, py = (1, 3), (0, 1), (2, 1), (3, 1)
    triples = [(1, (f, y), (g, px)), (-1, (f, x), (g, y)), (1, (g, y), (f, y)),
               (-1, (f, py), (g, x))]
    F, G = (PhasePoly({k: Fraction(n, d) for k, n in terms}) for d, terms in (f, g))
    expected = (F.diff("y") * G.diff("px") - F.diff("x") * G.diff("y")
                + G.diff("y") * F.diff("y") - F.diff("py") * G.diff("x"))
    layouts = []
    for name in ("_tuple_products", "_packed_products"):
        def layout(products, den, real=getattr(ring, name), name=name):
            layouts.append(name)
            return real(products, den)

        monkeypatch.setattr(ring, name, layout)
    sums = []
    for ratio in (10**6, -1):  # no product is over this many pairs per term, then every one is
        monkeypatch.setattr(ring, "_PACK_RATIO", ratio)
        sums.append(ring.sum_of_products(triples))
    assert layouts == ["_tuple_products", "_packed_products"]
    assert sums[0] == sums[1]
    assert PhasePoly._wrap(*sums[0]) == expected and not expected.is_zero


def test_a_product_whose_derivative_has_no_terms_adds_no_term(monkeypatch):
    # the slot-1 derivative of x / 7 has no terms, so its product adds none
    # in either key layout, though its denominator enters the common one
    x_over_7 = (7, [((1, 0, 0, 0, 0, 0, 0), 1)])
    plus = ((2, [((1, 0, 0, 0, 0, 0, 0), 2), ((0, 0, 0, 0, 0, 0, 0), 1)]), None)
    expected = (2 * X + 1) * Fraction(1, 14)
    layouts = []
    for name in ("_tuple_products", "_packed_products"):
        def layout(products, den, real=getattr(ring, name), name=name):
            layouts.append(name)
            return real(products, den)

        monkeypatch.setattr(ring, name, layout)
    for ratio in (10**6, -1):  # every product on tuple keys, then on packed ones
        monkeypatch.setattr(ring, "_PACK_RATIO", ratio)
        assert PhasePoly._wrap(*ring.sum_of_products([(1, (x_over_7, (1, 3)), plus)])) == ZERO
        assert PhasePoly._wrap(*ring.sum_of_products([(1, plus, (x_over_7, (1, 3))),
                                                      (1, (x_over_7, (0, 1)), plus)])) == expected
    assert layouts == ["_tuple_products"] * 2 + ["_packed_products"] * 2


def test_every_direction_either_layout_takes_names_a_phase_slot(monkeypatch):
    """The tuple layout shifts only slots 0-3 (x, u, px, py) of a left term:
    the paper suite and a ladder rung that packs, {K3_4^2, K2_3^2}, hand
    either layout no derivative along a parameter slot."""
    directions = {}
    for name in ("_tuple_products", "_packed_products"):
        def layout(products, den, real=getattr(ring, name), name=name):
            directions.setdefault(name, []).extend(v for p in products for v in (p[3], p[5]) if v)
            return real(products, den)

        monkeypatch.setattr(ring, name, layout)
    assert verify.full_suite().all_passed
    A, B = catalog.build("K3_4").expression, catalog.build("K2_3").expression
    poisson_bracket(A**2, B**2)
    assert set(directions) == {"_tuple_products", "_packed_products"}
    assert all(seen and all(slot < 4 for slot, _ in seen) for seen in directions.values())
