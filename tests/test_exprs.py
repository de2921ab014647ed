"""Expression grammar, printing, and round trips."""

import random
from fractions import Fraction

import pytest

from superhopf import parse, parse_list, polynomial_presentation
from superhopf.errors import ParseError, PresentationError
from superhopf.exprs import parse_linear_combination


def test_rationals_and_precedence(ubar):
    assert parse("1/2", ubar) == ubar.scalar(Fraction(1, 2))
    assert parse("2*x + 3*y", ubar) == 2 * ubar.gen("x") + 3 * ubar.gen("y")
    # ^ binds tighter than *
    assert parse("u*y^2", ubar) == ubar.gen("u") * ubar.gen("y") ** 2
    assert parse("(x + y)^2", ubar) == (ubar.gen("x") + ubar.gen("y")) ** 2
    assert parse("x^2^3", ubar) == ubar.gen("x") ** 6  # left-assoc powers


def test_whitespace_and_signs(ubar):
    assert parse(" - u ", ubar) == -ubar.gen("u")
    assert parse("+x-y", ubar) == ubar.gen("x") - ubar.gen("y")
    assert parse("0", ubar).is_zero
    assert parse("1", ubar) == ubar.one()


def test_parse_errors_carry_position(ubar):
    with pytest.raises(ParseError) as exc:
        parse("x + ", ubar)
    assert exc.value.position == 4
    with pytest.raises(ParseError) as exc:
        parse("x + $y", ubar)
    assert exc.value.position == 4
    with pytest.raises(ParseError):
        parse("x^y", ubar)
    with pytest.raises(ParseError):
        parse("(x + y", ubar)
    with pytest.raises(PresentationError):
        parse("x + q", ubar)


def test_parse_list(ubar):
    gens = parse_list("x,y, u*v", ubar)
    assert gens == [ubar.gen("x"), ubar.gen("y"), ubar.gen("u") * ubar.gen("v")]


def test_round_trip_on_random_elements(ubar):
    from superhopf.verify import random_element
    rng = random.Random(2024)
    monomials = ubar.enumerate_monomials(4)
    for _ in range(200):
        e = random_element(ubar, rng, 4, monomials=monomials)
        assert parse(str(e), ubar) == e


def test_round_trip_fractional_coefficients(ubar):
    e = Fraction(1, 2) * ubar.gen("x") - Fraction(7, 3) * ubar.gen("u") * ubar.gen("t")
    assert parse(str(e), ubar) == e
    assert "1/2" in str(e)


def test_linear_combination_parser():
    names = polynomial_presentation(["x", "y", "u"])
    assert parse_linear_combination("x", names) == {"x": Fraction(1)}
    assert parse_linear_combination("2*x - 1/2*y", names) == {
        "x": Fraction(2), "y": Fraction(-1, 2)}
    assert parse_linear_combination("0", names) == {}
    assert parse_linear_combination("x - x", names) == {}
    with pytest.raises(ParseError):
        parse_linear_combination("w", names)
    with pytest.raises(ParseError):
        parse_linear_combination("2", names)


def test_linear_combinations_use_the_expression_grammar():
    names = polynomial_presentation(["x", "y", "u"])
    combo = parse_linear_combination("2*(x - y) + 1/2*u + 1/2*u", names)
    assert combo == {"x": 2, "y": -2, "u": 1}
    assert all(type(c) is int for c in combo.values())  # 1/2 + 1/2 is the int 1
    assert parse_linear_combination("x*y - y*x + u", names) == {"u": 1}
    with pytest.raises(ParseError):
        parse_linear_combination("x*y", names)  # degree 2
    with pytest.raises(ParseError):
        parse_linear_combination("x + 1", names)  # a degree-0 term
    with pytest.raises(ParseError) as exc:
        parse_linear_combination("x + 2*w", names)
    assert exc.value.position == 6 and "unknown basis name 'w'" in str(exc.value)
