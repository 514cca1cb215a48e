from fractions import Fraction

import pytest

from holtkit.parsing import ParseError, parse_expression
from holtkit.phasepoly import K2, K3, PX, PY, U, X, Y, PhasePoly, upow


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
    assert parse_expression("108*k2^3") == 108 * K2**3


def test_whitespace_insensitive():
    a = parse_expression("2*px^3+3*px*py^2")
    b = parse_expression("  2 * px^3  +  3 * px * py^2 ")
    assert a == b


def test_tabs_and_newlines_separate_tokens():
    assert parse_expression("x\t+\ny") == X + Y
    assert parse_expression("u^-2\t-\n3/4*k2 \t\n") == upow(-2) - Fraction(3, 4) * K2
    assert parse_expression("x\n\t*\ty") == X * Y


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


# (text, pos, reason): the diagnostics are part of the parser's contract;
# pos is where the whitespace before the offending token starts, or, where
# reading stops at a character that starts no symbol, that character, which
# the reason names
MALFORMED = [
    ("", 0, "expected term"),
    ("   ", 0, "expected term"),
    ("x +", 3, "expected term"),
    ("+", 1, "expected term"),
    ("* x", 0, "expected variable or parameter name"),
    ("2x", 1, "missing '*' after numeric coefficient"),
    ("2 px", 1, "missing '*' after numeric coefficient"),
    ("x^", 2, "expected integer"),
    ("x^-k1", 3, "expected integer"),
    ("x^+2", 2, "expected integer"),
    ("u^--1", 3, "expected integer"),
    ("1/0", 3, "zero denominator"),
    ("3/", 2, "expected integer"),
    ("1/2/3", 3, "expected '+' or '-' between terms"),
    ("2*3", 2, "expected variable or parameter name"),
    ("2^3", 1, "expected '+' or '-' between terms"),
    ("px py", 2, "expected '+' or '-' between terms"),
    ("k12", 2, "expected '+' or '-' between terms"),
    ("x*", 2, "expected variable or parameter name"),
    ("y^-2", 4, "negative exponent only allowed on u, not y"),
    ("k1^-1", 5, "negative exponent only allowed on u, not k1"),
    ("x^-1", 4, "negative exponent only allowed on u, not x"),
    ("x + $", 4, "unexpected character '$'"),
    ("x & y", 2, "unexpected character '&'"),
    ("x\u00b2", 1, "unexpected character '\u00b2'"),
    ("- -x", 1, "expected variable or parameter name"),
    ("x - - y", 3, "expected variable or parameter name"),
    ("1/2*", 4, "expected variable or parameter name"),
    # where reading stops at a character that starts no symbol
    ("x + k4", 4, "unexpected character 'k'"),
    ("x*k", 2, "unexpected character 'k'"),
    ("k", 0, "unexpected character 'k'"),
    ("2/3x", 3, "missing '*' after numeric coefficient"),
    ("3/4 px", 3, "missing '*' after numeric coefficient"),
    ("u^-2 &", 5, "unexpected character '&'"),
    ("x + y  $", 7, "unexpected character '$'"),
    ("x &  ", 2, "unexpected character '&'"),
    ("x\n&", 2, "unexpected character '&'"),
    ("x\t+ &\n", 4, "unexpected character '&'"),
    # at each point where a token is expected
    ("x^&", 2, "unexpected character '&'"),
    ("x^-&", 3, "unexpected character '&'"),
    ("1/&", 2, "unexpected character '&'"),
    ("3/ &", 3, "unexpected character '&'"),
    ("2*&", 2, "unexpected character '&'"),
    ("-&", 1, "unexpected character '&'"),
    ("+ &", 2, "unexpected character '&'"),
    ("x +\t", 3, "expected term"),
    ("x + -", 3, "expected variable or parameter name"),
    ("x*-1", 2, "expected variable or parameter name"),
    ("2/-3", 2, "expected integer"),
    ("x^2y", 3, "expected '+' or '-' between terms"),
    ("12ab", 2, "unexpected character 'a'"),
    ("x_1", 1, "unexpected character '_'"),
    ("  x  ,", 5, "unexpected character ','"),
    ("x + k12", 6, "expected '+' or '-' between terms"),
    ("x + \u00b2", 4, "unexpected character '\u00b2'"),
    ("x*\u0663", 2, "expected variable or parameter name"),
]


@pytest.mark.parametrize("text, pos, reason", MALFORMED)
def test_malformed_text_reports_position_and_reason(text, pos, reason):
    with pytest.raises(ParseError) as exc_info:
        parse_expression(text)
    assert (exc_info.value.text, exc_info.value.pos, exc_info.value.reason) == (text, pos, reason)


@pytest.mark.parametrize("text, pos", [
    ("1" * 5000, 0),
    ("x + 3/" + "7" * 5000, 6),
    ("x^" + "9" * 5000, 2),
])
def test_integer_past_the_int_conversion_limit_is_a_parse_error(text, pos):
    # int() refuses more than sys.get_int_max_str_digits() (4300) digits
    with pytest.raises(ParseError) as exc_info:
        parse_expression(text)
    assert (exc_info.value.pos, exc_info.value.reason) == (
        pos, "integer of 5000 digits is too long")


def test_error_carries_position():
    try:
        parse_expression("x + $")
    except ParseError as exc:
        assert exc.pos == 4
        assert "position" in str(exc)
    else:
        pytest.fail("expected ParseError")
    # an error in what was read is named before a character that follows it
    for text, pos, reason in (("1/0 &", 3, "zero denominator"),
                              ("y^-2 &", 4, "negative exponent only allowed on u, not y")):
        with pytest.raises(ParseError) as exc_info:
            parse_expression(text)
        assert (exc_info.value.pos, exc_info.value.reason) == (pos, reason)


def test_round_trip_on_catalog_expressions():
    from holtkit import catalog
    for name in catalog.names():
        expr = catalog.build(name).expression
        parts = (expr,) if isinstance(expr, PhasePoly) else expr
        for part in parts:
            assert parse_expression(part.render()) == part, name


def test_round_trip_on_a_large_symbolic_product():
    from holtkit import catalog
    p = catalog.build("J_h3_6_k").expression ** 2
    assert parse_expression(p.render()) == p
