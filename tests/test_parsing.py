from fractions import Fraction

import pytest

from holtkit.parsing import ParseError, parse_expression
from holtkit.phasepoly import PX, PY, U, X, Y, PhasePoly, upow
from holtkit.ring import K2, K3


def test_single_monomials():
    assert parse_expression("x") == X
    assert parse_expression("px") == PX
    assert parse_expression("u^-2") == upow(-2)
    assert parse_expression("7") == PhasePoly.constant(7)
    assert parse_expression("3/4") == PhasePoly.constant(Fraction(3, 4))


def test_y_sugar_expands_to_u():
    assert parse_expression("y") == Y
    assert parse_expression("y^2") == U**6
    assert parse_expression("y*u^-2") == U


def test_signs_and_sums():
    assert parse_expression("-x + px") == PX - X
    assert parse_expression("2*px^3 + 3*px*py^2") == 2 * PX**3 + 3 * PX * PY**2


def test_parameter_factors():
    got = parse_expression("k2*x*u^-2 + k3*u^-2")
    assert got == K2 * X * upow(-2) + K3 * upow(-2)
    assert parse_expression("108*k2^3") == PhasePoly.constant(108 * K2**3)


def test_whitespace_insensitive():
    a = parse_expression("2*px^3+3*px*py^2")
    b = parse_expression("  2 * px^3  +  3 * px * py^2 ")
    assert a == b


def test_like_terms_accumulate():
    assert parse_expression("x + x") == 2 * X
    assert parse_expression("x - x").is_zero


def test_rejects_negative_exponent_off_u():
    with pytest.raises(ParseError):
        parse_expression("x^-1")
    with pytest.raises(ParseError):
        parse_expression("y^-2")
    with pytest.raises(ParseError):
        parse_expression("k2^-1")


def test_rejects_malformed_text():
    for bad in ("", "x +", "* x", "2x", "x^", "1/0", "x & y", "px py"):
        with pytest.raises(ParseError):
            parse_expression(bad)


def test_error_carries_position():
    try:
        parse_expression("x + $")
    except ParseError as exc:
        assert exc.pos == 3
        assert "position" in str(exc)
    else:
        pytest.fail("expected ParseError")


def test_round_trip_on_catalog_expressions():
    from holtkit import catalog
    for name in catalog.names():
        entry = catalog.build(name)
        if not isinstance(entry.expression, PhasePoly):
            continue
        text = entry.expression.render()
        assert parse_expression(text) == entry.expression, name


def test_round_trip_on_a_large_symbolic_product():
    from holtkit import catalog
    p = catalog.build("J_h3_6_k").expression ** 2
    assert parse_expression(p.render()) == p
