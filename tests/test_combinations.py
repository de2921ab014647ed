"""Elements, tensors and Lie vectors: printed forms and shared semantics."""

from fractions import Fraction

import pytest

from superhopf import TensorElement, parse, pl11
from superhopf.errors import PresentationError

from linear_maps import as_element


def test_tensors_print_unit_negative_and_fractional_coefficients(ubar):
    u, v, x, t = (ubar.gen(n) for n in "uvxt")
    one = ubar.one()
    assert str(-u.outer(v)) == "-u(x)v"
    assert str(2 * one.outer(one)) == "2*1(x)1"
    assert str(Fraction(1, 2) * x.outer(t)) == "1/2*x(x)t"
    assert str(one.outer(one) - u.outer(v)) == "-u(x)v + 1(x)1"
    assert str(u.outer(v) - Fraction(3, 2) * one.outer(one)) == "u(x)v - 3/2*1(x)1"
    assert str(parse("y^2*u", ubar).outer(one) + one.outer(-u)) == "y^2*u(x)1 - 1(x)u"
    three = u.outer(v).apply_tensor_map(lambda m: ubar.tensor_one(), 1)
    assert str(three) == "u(x)1(x)1"
    assert str(ubar.tensor_one() - ubar.tensor_one()) == "0"


def test_lie_vectors_print_like_elements():
    g = pl11()  # basis x, y, u, v
    assert g.format_vector((Fraction(-1, 2), 0, 3, -1)) == "-1/2*x + 3*u - v"
    assert g.format_vector((-1, Fraction(2, 3), 0, 1)) == "-x + 2/3*y + v"
    assert g.format_vector((0, 1, -2, 0)) == "y - 2*u"
    assert g.format_vector((0, 0, 0, 0)) == "0"


def test_elements_print_a_lone_scalar_term(ubar):
    assert str(parse("x - 3", ubar)) == "x - 3"
    assert str(parse("-1/2", ubar)) == "-1/2"
    assert str(parse("2*u*v - 1", ubar)) == "2*u*v - 1"
    assert str(parse("-x + 1/3", ubar)) == "-x + 1/3"


def test_elements_and_tensors_never_mix(ubar):
    x = ubar.gen("x")
    one_leg = TensorElement(ubar, 1, {(m,): c for m, c in x.items()})
    assert as_element(one_leg) == x
    assert x != one_leg and one_leg != x
    assert ubar.zero() != TensorElement(ubar, 2, {})
    with pytest.raises(TypeError):
        x + x.outer(x)
    with pytest.raises(TypeError):
        x.outer(x) - x


def test_tensor_leg_counts_are_part_of_the_value(ubar):
    u, v = ubar.gen("u"), ubar.gen("v")
    three = u.outer(v).apply_tensor_map(lambda m: ubar.tensor_one(), 1)
    with pytest.raises(PresentationError):
        three + u.outer(v)
    with pytest.raises(PresentationError):
        u.outer(v) - three
    assert TensorElement(ubar, 2, {}) != TensorElement(ubar, 3, {})
    assert TensorElement(ubar, 2, {}) == 0 * u.outer(v)
    assert len({TensorElement(ubar, 2, {}), TensorElement(ubar, 3, {})}) == 2
