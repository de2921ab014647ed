"""Core arithmetic: straightening, products, tensor products."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superhopf import centralizer_degree_bounded, parse
from superhopf.algebra import AlgebraPresentation, Generator
from superhopf.errors import PresentationError
from superhopf.linalg import RowSpace
from superhopf.verify import random_element


def test_normalize_defining_relations(ubar):
    assert ubar.normalize(["v", "u"]) == parse("x - u*v", ubar)
    assert ubar.normalize(["u", "y"]) == parse("y*u - u", ubar)
    assert ubar.normalize(["t", "t"]) == ubar.one()
    assert ubar.normalize(["u", "u"]) == ubar.zero()
    assert ubar.normalize([]) == ubar.one()


def test_normalize_is_idempotent_on_random_words(ubar):
    rng = random.Random(7)
    for _ in range(1000):
        word = [rng.randrange(ubar.n) for _ in range(rng.randint(0, 8))]
        e = ubar.normalize(word)
        renormalized = ubar.zero()
        for m, c in e.items():
            renormalized = renormalized + c * ubar.normalize(ubar.monomial_letters(m))
        assert renormalized == e


def test_powers_match_repeated_multiplication(ubar, sess_u):
    rng = random.Random(11)
    # powers of the first five reach a scalar (1, 4, 0, -3 or 0) and stop
    # multiplying there; those of u, 2*y and y^2 pass in closed form below the
    # caps (u and t have cap 2, y has none), and 1+t is a plain loop
    elements = [parse(e, ubar)
                for e in ("t", "2*t", "t*u", "-3", "x-x", "u", "2*y", "y^2", "1+t")]
    for pres in (ubar, sess_u.pres):
        elements += [random_element(pres, rng, 2) for _ in range(15)]
    for a in elements:
        expected = a.alg.one()
        for n in range(7):
            assert a ** n == expected, (a, n)
            expected = expected * a


def test_normalize_rejects_unknown_generator(ubar):
    with pytest.raises(PresentationError):
        ubar.normalize(["w"])
    with pytest.raises(PresentationError):
        ubar.gen("q")


def test_random_words_of_degree_twelve_normalize(ubar):
    rng = random.Random(3)
    for _ in range(50):
        word = [rng.randrange(ubar.n) for _ in range(12)]
        ubar.normalize(word)  # must not raise NonTerminationError


def test_mul_matches_relations(ubar):
    u, v, t, x = (ubar.gen(n) for n in "uvtx")
    assert u * v + v * u == x
    assert t * u == parse("-u*t", ubar)
    assert u * ubar.zero() == ubar.zero()
    assert (u + v) * ubar.one() == u + v


def test_add_scale_vector_axioms(ubar):
    u, x, y = ubar.gen("u"), ubar.gen("x"), ubar.gen("y")
    assert (u + (-u)).is_zero
    assert Fraction(1, 2) * (2 * u) == u
    assert len((x + y).coeffs) == 2
    assert 0 * x == ubar.zero()


def test_mul_associativity_on_random_triples(ubar):
    from superhopf.verify import random_element
    rng = random.Random(11)
    monomials = ubar.enumerate_monomials(4)
    for _ in range(500):
        a = random_element(ubar, rng, 4, monomials=monomials)
        b = random_element(ubar, rng, 4, monomials=monomials)
        c = random_element(ubar, rng, 4, monomials=monomials)
        assert (a * b) * c == a * (b * c)


def test_mul_distributes(ubar):
    from superhopf.verify import random_element
    rng = random.Random(13)
    for _ in range(100):
        a = random_element(ubar, rng, 3)
        b = random_element(ubar, rng, 3)
        c = random_element(ubar, rng, 3)
        assert a * (b + c) == a * b + a * c


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parity_is_multiplicative(sess_ubar, data):
    pres = sess_ubar.pres
    monomials = pres.enumerate_monomials(5)
    m1 = data.draw(st.sampled_from(monomials))
    m2 = data.draw(st.sampled_from(monomials))
    a = pres.monomial_element(m1)
    b = pres.monomial_element(m2)
    prod = a * b
    expected = (pres.monomial_parity(m1) + pres.monomial_parity(m2)) % 2
    assert {pres.monomial_parity(m) for m in prod.coeffs} <= {expected}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_z_degree_is_additive(sess_ubar, data):
    pres = sess_ubar.pres
    monomials = pres.enumerate_monomials(4)
    m1 = data.draw(st.sampled_from(monomials))
    m2 = data.draw(st.sampled_from(monomials))
    prod = pres.monomial_element(m1) * pres.monomial_element(m2)
    expected = pres.monomial_z_degree(m1) + pres.monomial_z_degree(m2)
    assert {pres.monomial_z_degree(m) for m in prod.coeffs} <= {expected}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_sparse_sums_never_store_zeros(sess_ubar, seed):
    from superhopf.verify import adjoint_left, random_element
    pres, H = sess_ubar.pres, sess_ubar.hopf
    rng = random.Random(seed)
    # few low-degree monomials, so sums and products often cancel terms
    monomials = pres.enumerate_monomials(2)
    a, b, h = (random_element(pres, rng, 2, max_terms=4, monomials=monomials)
               for _ in range(3))
    assert a + b - b == a
    assert (a - a).is_zero
    d = H.coproduct(a - b)
    for result in (a + b, a - b, a * b, b * a, d,
                   d.apply_element_map(H.antipode_monomial, 0),
                   d.apply_tensor_map(H.delta_monomial, 1),
                   d.contract_scalar(H.counit_monomial, 0)):
        assert all(result.coeffs.values()), result
    assert adjoint_left(H, h, a + b) == adjoint_left(H, h, a) + adjoint_left(H, h, b)


def _exact(values):
    """Every value is an ``int`` or a ``Fraction`` (never a float or a bool)."""
    return all(type(c) in (int, Fraction) for c in values)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_coefficients_stay_exact_and_integral_inputs_stay_int(sess_u, sess_ubar, seed):
    from superhopf.verify import random_dense_element, random_element
    rng = random.Random(seed)
    for sess in (sess_u, sess_ubar):
        pres, H = sess.pres, sess.hopf
        a = random_element(pres, rng, 3, max_terms=4)
        b = random_dense_element(pres, rng, 2)
        half = Fraction(1, 2) * a + b
        for result in (a * b, half * b, a + half, a - b, H.antipode(half)):
            assert _exact(result.coeffs.values()), result
        assert _exact(H.coproduct(half).coeffs.values())
        # from integral inputs products, coproducts and antipodes hold only ints
        for result in (a * b, b * a, H.coproduct(a * b), H.antipode(a), H.antipode(b)):
            assert all(type(c) is int for c in result.coeffs.values()), result
        space = RowSpace()
        for e in (a, b, half, a * b):
            space.insert(e.coeffs)
        for row in space.rows.values():
            assert _exact(row.values()), row
        for row in space.reduced_basis():
            assert _exact(row.values()), row


def test_row_space_division_is_exact():
    space = RowSpace()
    row = space.insert({"a": 2, "b": 1})
    # the stored row is the primitive integer multiple, returned as stored
    assert row == {"a": 2, "b": 1} and row is space.rows["a"]
    assert all(type(v) is int for v in row.values())
    # the division happens where a caller sees a row in pivot-1 form
    basis = space.reduced_basis()
    assert basis == [{"a": 1, "b": Fraction(1, 2)}]
    assert type(basis[0]["a"]) is int and type(basis[0]["b"]) is Fraction
    # denominators are cleared on entry; Fraction(n, 1) becomes an int
    row = space.insert({"c": Fraction(-1, 3), "d": Fraction(2, 1)})
    assert row == {"c": 1, "d": -6} and type(row["d"]) is int


def test_scalars_are_int_when_integral(ubar):
    one = ubar.unit_monomial()
    assert ubar.scalar(Fraction(4, 2)).coeffs == {one: 2}
    assert type(ubar.scalar(Fraction(4, 2)).coeffs[one]) is int
    assert type(ubar.scalar(Fraction(1, 2)).coeffs[one]) is Fraction
    assert type(ubar.element({one: True}).coeffs[one]) is int
    assert str(parse("4/2*u", ubar)) == "2*u"


def test_tensor_product_koszul_sign(sess_u, ubar):
    # the presentation's mode decides the sign: super on U(pl11), none on
    # its bosonization
    for pres, sign in ((sess_u.pres, -1), (ubar, 1)):
        u, v, one = pres.gen("u"), pres.gen("v"), pres.one()
        assert one.outer(u).tensor_mul(v.outer(one)) == sign * v.outer(u)
        s = u.outer(v) + one.outer(one)
        assert pres.tensor_one().tensor_mul(s) == s


def test_tensor_mul_associative(sess_u, ubar):
    for pres, even in ((sess_u.pres, "x"), (ubar, "t")):
        u, v, g, y = (pres.gen(n) for n in ("u", "v", even, "y"))
        a = u.outer(v) + g.outer(y)
        b = v.outer(u)
        c = y.outer(g) + u.outer(u)
        assert (a * b) * c == a * (b * c)
        assert a * b == a.tensor_mul(b)


def test_tensor_mul_needs_two_legs(ubar):
    u, v = ubar.gen("u"), ubar.gen("v")
    three = u.outer(v).apply_tensor_map(lambda m: ubar.tensor_one(), 1)
    assert three.legs == 3
    for a, b in ((three, three), (three, u.outer(v)), (u.outer(v), three)):
        with pytest.raises(PresentationError):
            a.tensor_mul(b)


def test_presentation_mismatch_raises(ubar, kxy):
    with pytest.raises(PresentationError):
        ubar.gen("x") + kxy.gen("x")
    with pytest.raises(PresentationError):
        ubar.gen("x") * kxy.gen("y")
    with pytest.raises(PresentationError):
        ubar.gen("x").outer(ubar.gen("y")).tensor_mul(
            kxy.gen("x").outer(kxy.gen("y")))
    with pytest.raises(PresentationError):
        centralizer_degree_bounded(ubar, [kxy.gen("x")], 2)


SORT_BA = {(1, 0): {(1, 1): 1}}  # b*a -> a*b


@pytest.mark.parametrize("parities, rules", [
    pytest.param((0, 0), {**SORT_BA, (): {}}, id="empty-word"),
    pytest.param((0, 0), {**SORT_BA, (0, 1): {(1, 1): 1}}, id="ascending-pair"),
    pytest.param((0, 0), {**SORT_BA, (1, 0, 0): {}}, id="mixed-word"),
    pytest.param((0, 0), {**SORT_BA, (0, 0): {}, (0, 0, 0): {}}, id="two-power-words"),
    pytest.param((0, 0), {**SORT_BA, (2, 0): {}}, id="index-out-of-range"),
    pytest.param((0, 0), {}, id="missing-swap"),
    # the termination guard
    pytest.param((0, 0), {(1, 0): {(2, 1): Fraction(1)}}, id="degree-raising"),
    pytest.param((1, 0), {(1, 0): {(1, 1): 1, (0, 1): 1}}, id="mixed-parity"),
])
def test_bad_rules_raise_a_presentation_error(parities, rules):
    gens = [Generator(name, p, i) for i, (name, p) in enumerate(zip("ab", parities))]
    with pytest.raises(PresentationError):
        AlgebraPresentation(gens, rules)


def test_element_degree_and_printing(ubar):
    e = parse("y^2*u - 2*y*u + u", ubar)
    assert e.degree() == 3
    assert str(e) == "y^2*u - 2*y*u + u"
    assert str(ubar.zero()) == "0"
    assert str(ubar.one()) == "1"
    assert str(parse("x - u*v", ubar)) == "x - u*v"
    # t*u straightens to -u*t, so -2*t*u is 2*u*t in canonical form
    assert str(parse("-2*t*u", ubar)) == "2*u*t"
