"""Structure maps of the enveloping algebra and its bosonization."""

import random
import sys
from fractions import Fraction
from math import comb

import pytest

from superhopf import HopfStructureMaps, bosonize, enveloping, load_session, parse
from superhopf.algebra import SUPER, Generator, TensorElement
from superhopf.catalog import BUILTINS
from superhopf.errors import AlgebraError
from superhopf.liesuper import LieSuperAlgebra
from superhopf.linalg import exact
from superhopf.verify import FAIL

from linear_maps import project_to_coinvariants
from relations import PL11_BOSONIZED_RELATIONS, RELATIONS, check_defining_relations
from test_products import gl21, osp12

F = Fraction


def test_enveloping_relations_and_maps(sess_u):
    U = sess_u.u_maps
    P = U.carrier
    assert P.normalize(["v", "u"]) == parse("x - u*v", P)
    x = P.gen("x")
    assert U.coproduct(x) == x.outer(P.one()) + P.one().outer(x)
    assert U.antipode(x) == -x
    assert U.counit(x) == 0
    assert U.counit(P.one()) == 1


@pytest.mark.parametrize("name", BUILTINS)
def test_each_builtin_presentation_satisfies_its_relation_table(name):
    # the presentation generated from the Lie structure constants against
    # the relations the paper writes out by hand
    report = check_defining_relations(load_session(name).pres, RELATIONS[name])
    assert report.passed, report.witnesses


def test_a_corrupted_relation_table_fails(sess_ubar):
    table = [("u*v + v*u", "-x") if pair == ("u*v + v*u", "x") else pair
             for pair in PL11_BOSONIZED_RELATIONS]
    report = check_defining_relations(sess_ubar.pres, table)
    assert report.status == FAIL
    assert report.witnesses == [("u*v + v*u = -x", "-x", "x")]


def test_enveloping_super_coproduct_of_uv(sess_u):
    # super-multiplicative expansion with the Koszul sign on (1(x)u)(v(x)1)
    U = sess_u.u_maps
    P = U.carrier
    u, v, one = P.gen("u"), P.gen("v"), P.one()
    expected = (u * v).outer(one) + u.outer(v) - v.outer(u) + one.outer(u * v)
    assert U.coproduct(u * v) == expected


def test_enveloping_rejects_invalid_algebra():
    basis = [Generator("a", 0, 0), Generator("b", 1, 1)]
    # [a, b] = a has odd-even bracket landing on an even vector: parity broken
    bad = LieSuperAlgebra(basis, {(0, 1): {0: F(1)}}, name="bad")
    with pytest.raises(AlgebraError):
        enveloping(bad)


def test_bosonize_generator_formulas(bos):
    P = bos.carrier
    u, y, t, one = P.gen("u"), P.gen("y"), P.gen("t"), P.one()
    H = bos.hopf
    assert H.coproduct(u) == u.outer(one) + t.outer(u)
    assert H.coproduct(y) == y.outer(one) + one.outer(y)
    assert H.coproduct(t) == t.outer(t)
    assert H.antipode(u) == -(t * u)
    assert H.antipode(t) == t
    assert H.counit(u) == 0
    assert H.counit(t) == 1


def test_bosonize_requires_primitive_generators(sess_u):
    U = sess_u.u_maps
    P = U.carrier
    x = P.gen("x")
    corrupted = HopfStructureMaps(P, {**U.delta_gen, P.gen_index("x"): x.outer(x)},
                                  U.eps_gen, U.antipode_gen)
    with pytest.raises(AlgebraError):
        bosonize(corrupted)
    with pytest.raises(AlgebraError):
        bosonize(bosonize(U).hopf)  # ordinary mode is not accepted either


def test_coproduct_of_uv_is_coassociative(bos):
    P = bos.carrier
    H = bos.hopf
    u, v, t, one = P.gen("u"), P.gen("v"), P.gen("t"), P.one()
    d = H.coproduct(u * v)
    expected = ((u * v).outer(one) + (u * t).outer(v)
                - (v * t).outer(u) + one.outer(u * v))
    assert d == expected
    left = d.apply_tensor_map(H.delta_monomial, 0)
    right = d.apply_tensor_map(H.delta_monomial, 1)
    assert left == right


def test_coproduct_of_one_term_is_its_memoized_image(bos):
    P, H = bos.carrier, bos.hopf
    u, t, one = P.gen("u"), P.gen("t"), P.one()
    assert H.coproduct(u) is H.delta_monomial(P.monomial(u=1))
    assert H.coproduct(3 * u) == 3 * H.coproduct(u)
    assert H.coproduct(u) == u.outer(one) + t.outer(u)  # the multiple left the image as it was


def test_projection_to_group_part(bos):
    P = bos.carrier
    y, u, t, one = P.gen("y"), P.gen("u"), P.gen("t"), P.one()
    assert bos.project_to_group(y * t).is_zero
    assert bos.project_to_group(t) == t
    assert bos.project_to_group(one + u) == one
    # identity on the group algebra part
    for e in (one, t, one + 3 * t):
        assert bos.project_to_group(e) == e
    # algebra map on a small test set
    for a in (y, u * t, one + u):
        for b in (t, y * t, u):
            assert bos.project_to_group(a * b) == \
                bos.project_to_group(a) * bos.project_to_group(b)
    # coalgebra map: Delta(pi(a)) == (pi (x) pi) Delta(a)
    for a in (y, u, t, y * t, u * v_of(P)):
        lhs = bos.hopf.coproduct(bos.project_to_group(a))
        rhs = bos.hopf.coproduct(a) \
            .apply_element_map(lambda m: bos.project_to_group(P.monomial_element(m)), 0) \
            .apply_element_map(lambda m: bos.project_to_group(P.monomial_element(m)), 1)
        assert lhs == rhs


def v_of(P):
    return P.gen("v")


def test_projection_to_coinvariants(bos):
    P = bos.carrier
    y, u, t = P.gen("y"), P.gen("u"), P.gen("t")
    assert project_to_coinvariants(bos, y * t) == y
    assert project_to_coinvariants(bos, u) == u
    assert project_to_coinvariants(bos, u * t - u).is_zero
    # idempotent
    for a in (y * t, u, y + 2 * u * t):
        once = project_to_coinvariants(bos, a)
        assert project_to_coinvariants(bos, once) == once


def test_coinvariant_projection_is_a_coalgebra_map(bos):
    # Delta_U(Pi(a)) == (Pi (x) Pi) Delta(a), with the left side taken in
    # the plain enveloping algebra and embedded back
    P = bos.carrier
    for expr in ("y", "u", "y*t", "u*t", "u*v", "u*v*t", "1 + 2*t"):
        a = parse(expr, P)
        pi_a = project_to_coinvariants(bos, a)
        lhs = bos.u_maps.coproduct(bos.restrict_to_u(pi_a))
        embedded = {}
        for (m1, m2), c in lhs.items():
            embedded[(m1 + (0,), m2 + (0,))] = c
        def pi(m):
            return project_to_coinvariants(bos, P.monomial_element(m))
        rhs = bos.hopf.coproduct(a).apply_element_map(pi, 0).apply_element_map(pi, 1)
        assert dict(rhs.items()) == embedded


def test_coinvariance(bos):
    P = bos.carrier
    assert bos.is_coinvariant(P.gen("u"))
    assert not bos.is_coinvariant(P.gen("t"))
    assert bos.is_coinvariant(P.one())


def test_coinvariance_is_exactly_t_freeness_up_to_degree_six(bos):
    P = bos.carrier
    for m in P.enumerate_monomials(6):
        assert bos.is_coinvariant(P.monomial_element(m)) == (m[bos.t_index] == 0)


def test_parity_conjugation_by_t(bos):
    P = bos.carrier
    t = P.gen("t")
    for m in P.enumerate_monomials(6):
        a = P.monomial_element(m)
        sign = -1 if P.monomial_parity(m) else 1
        assert t * a * t == sign * a


def test_sum_formula_coproduct_oracle_agrees(bos):
    # the generator-extension route must match the direct biproduct formula
    P = bos.carrier
    for m in P.enumerate_monomials(4):
        e = P.monomial_element(m)
        assert bos.hopf.coproduct(e) == sum_formula_coproduct(bos, e)


def test_include_restrict_round_trip(bos):
    P = bos.carrier
    a = parse("x*y - 2*u*v", bos.u_maps.carrier)
    embedded = bos.include_from_u(a)
    assert bos.restrict_to_u(embedded) == a
    with pytest.raises(AlgebraError):
        bos.restrict_to_u(P.gen("t"))


def test_distinct_presentation_objects_do_not_mix(bos, sess_u):
    # two independently constructed copies of the same algebra are distinct
    # carriers; elements never cross between them silently
    with pytest.raises(AlgebraError):
        bos.include_from_u(sess_u.pres.gen("x"))


def test_antipode_squared_is_conjugation_by_t(bos):
    # S^2(a) = t a t on the bosonization (so S^2 = id exactly on the even part)
    P = bos.carrier
    H = bos.hopf
    t = P.gen("t")
    for m in P.enumerate_monomials(4):
        e = P.monomial_element(m)
        assert H.antipode(H.antipode(e)) == t * e * t


def test_super_antipode_is_an_involution_on_the_enveloping_part(sess_u):
    U = sess_u.u_maps
    P = U.carrier
    for m in P.enumerate_monomials(4):
        e = P.monomial_element(m)
        assert U.antipode(U.antipode(e)) == e


def test_structure_maps_of_long_monomials_need_no_recursion(sess_u, sess_ubar):
    H = sess_ubar.hopf
    pres = H.carrier
    y_power = pres.monomial_element(pres.monomial(y=1100))
    assert H.antipode(y_power) == y_power  # S(y) = -y, and 1100 is even
    # a recursive extension would need a frame per letter
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        d = H.coproduct(pres.monomial_element(pres.monomial(x=250)))
        # Delta(y^n u) = Delta(y)^n Delta(u), with Delta(u) = u(x)1 + g(x)u, where
        # g = 1 on pl11 and g = t on its bosonization; n + 1 terms per leg of Delta(u)
        long_deltas = [(G, G.coproduct(G.carrier.monomial_element(
            G.carrier.monomial(y=1100, u=1)))) for G in (sess_u.hopf, H)]
    finally:
        sys.setrecursionlimit(limit)
    assert d == TensorElement(pres, 2, {(pres.monomial(x=k), pres.monomial(x=250 - k)):
                                        Fraction(comb(250, k)) for k in range(251)})
    for G, delta in long_deltas:
        P = G.carrier
        g = {"t": 1} if "t" in [gen.name for gen in P.generators] else {}
        want = {}
        for k in range(1101):
            want[(P.monomial(y=k, u=1), P.monomial(y=1100 - k))] = comb(1100, k)
            want[(P.monomial(y=k, **g), P.monomial(y=1100 - k, u=1))] = comb(1100, k)
        assert delta == TensorElement(P, 2, want)


def letter_by_letter(H, m):
    """Delta(m) as the product of the generator images, one letter at a time."""
    d = H.carrier.tensor_one()
    for idx in H.carrier.monomial_letters(m):
        d = d.tensor_mul(H.delta_gen[idx])
    return d


def sum_formula_coproduct(bos, a):
    """Delta(a) by the biproduct sum formula, not from the generator images.

    For a monomial x*t^d with x in the coinvariant part it is the sum of
    ``(x1 t^{p(x2)} (x) x2) * (t^d (x) t^d)`` over the super coproduct of x.
    """
    U, P, k = bos.u_maps, bos.carrier, bos.t_index
    t = bos.t()
    out = TensorElement(P, 2, {})
    for m, c in a.items():
        acc = TensorElement(P, 2, {})
        for (m1, m2), cu in U.coproduct(U.carrier.monomial_element(m[:k])).items():
            leg1 = bos.include_from_u(U.carrier.monomial_element(m1))
            if U.carrier.monomial_parity(m2):
                leg1 = leg1 * t
            acc = acc + cu * leg1.outer(bos.include_from_u(U.carrier.monomial_element(m2)))
        if m[k]:
            acc = acc.tensor_mul(t.outer(t))
        out = out + c * acc
    return out


@pytest.mark.parametrize("lie", [lambda: load_session("pl11").lie,
                                 lambda: load_session("b-bosonized").lie, osp12, gl21],
                         ids=["pl11", "b", "osp(1|2)", "gl(2|1)"])
def test_coproducts_by_powers_match_letter_by_letter_products(lie):
    U = enveloping(lie())  # fresh maps, so every image below is computed here
    bos = bosonize(U)
    for H in (U, bos.hopf):
        # highest degree first, so the monomials peel through uncached suffixes
        for m in reversed(list(H.carrier.enumerate_monomials(5))):
            d = H.delta_monomial(m)
            assert d == letter_by_letter(H, m), H.carrier.monomial_element(m)
            if H is bos.hopf:
                assert d == sum_formula_coproduct(bos, H.carrier.monomial_element(m))


def test_a_non_primitive_image_takes_the_letter_step(sess_u):
    U = sess_u.u_maps
    P = U.carrier
    x = P.gen("x")
    corrupted = HopfStructureMaps(P, {**U.delta_gen, P.gen_index("x"): x.outer(x)},
                                  U.eps_gen, U.antipode_gen)
    x3 = P.monomial_element(P.monomial(x=3))
    assert corrupted.coproduct(x3) == x3.outer(x3)
    for m in reversed(list(P.enumerate_monomials(4))):
        assert corrupted.delta_monomial(m) == letter_by_letter(corrupted, m)


# -- the tensor product kernel ---------------------------------------------------------


def tensor_product_by_elements(A, B):
    """The oracle for ``tensor_mul``: the sum of +-ca*cb (a1*b1) (x) (a2*b2) over
    the pairs of terms, from Element products, with the sign (-1)^(p(a2) p(b1))
    only in super mode."""
    P = A.alg
    out = TensorElement(P, 2, {})
    for (a1, a2), ca in A.items():
        for (b1, b2), cb in B.items():
            odd = P.mode == SUPER and P.monomial_parity(a2) and P.monomial_parity(b1)
            first = P.monomial_element(a1) * P.monomial_element(b1)
            second = P.monomial_element(a2) * P.monomial_element(b2)
            out = out + ((-1 if odd else 1) * ca * cb) * first.outer(second)
    return out


def random_tensor(P, rng, monomials):
    """A 2-leg tensor with a unit leg on either side and Fraction coefficients."""
    unit = P.unit_monomial()
    keys = {(rng.choice(monomials), rng.choice(monomials))
            for _ in range(rng.randint(1, 4))}
    keys |= {(unit, rng.choice(monomials)), (rng.choice(monomials), unit)}
    return TensorElement(P, 2, {k: exact(Fraction(rng.choice([-3, -1, 1, 2, 5]),
                                                  rng.randint(1, 3)))
                                for k in keys})


@pytest.mark.parametrize("carrier", [lambda: load_session("pl11").pres,
                                     lambda: load_session("pl11-bosonized").pres,
                                     lambda: enveloping(osp12()).carrier],
                         ids=["pl11", "pl11-bosonized", "osp(1|2)"])
def test_tensor_mul_matches_the_sum_of_element_products(carrier, monkeypatch):
    P = carrier()
    rng = random.Random(15)
    monomials = P.enumerate_monomials(3)
    pairs = [(random_tensor(P, rng, monomials), random_tensor(P, rng, monomials))
             for _ in range(40)]
    wants = [tensor_product_by_elements(A, B) for A, B in pairs]
    mul, calls = P.mul_monomials, []

    def counted(m1, m2):
        calls.append((m1, m2))
        return mul(m1, m2)

    monkeypatch.setattr(P, "mul_monomials", counted)
    gots = [A.tensor_mul(B) for A, B in pairs]
    monkeypatch.undo()
    assert gots == wants
    assert any(isinstance(c, Fraction) for T in gots for c in T.coeffs.values())
    # a unit leg calls no product; the others include multi-term leg products
    assert calls and all(any(m1) and any(m2) for m1, m2 in calls)
    assert any(len(P.mul_monomials(m1, m2)) > 1 for m1, m2 in calls)


@pytest.mark.parametrize("carrier", [lambda: load_session("pl11").pres,
                                     lambda: load_session("pl11-bosonized").pres,
                                     lambda: enveloping(osp12()).carrier],
                         ids=["pl11", "pl11-bosonized", "osp(1|2)"])
def test_fold_mul_matches_element_products(carrier, monkeypatch):
    P = carrier()
    rng = random.Random(16)
    monomials = P.enumerate_monomials(3)
    tensors = [random_tensor(P, rng, monomials) for _ in range(30)]
    tensors += [TensorElement(P, 3, {(rng.choice(monomials),) + k: c for k, c in T.items()})
                for T in tensors[:10]]
    wants = []
    for T in tensors:
        want = P.zero()
        for k, c in T.items():
            product = P.one()
            for m in k:
                product = product * P.monomial_element(m)
            want = want + c * product
        wants.append(want)
    mul, calls = P.mul_monomials, []

    def counted(m1, m2):
        calls.append((m1, m2))
        return mul(m1, m2)

    monkeypatch.setattr(P, "mul_monomials", counted)
    gots = [T.fold_mul() for T in tensors]
    monkeypatch.undo()
    assert gots == wants
    # a unit factor calls no product
    assert calls and all(any(m1) and any(m2) for m1, m2 in calls)


def test_tensor_mul_deletes_the_terms_that_cancel(sess_u):
    # (u(x)1 + 1(x)u)^2 = u^2(x)1 + u(x)u - u(x)u + 1(x)u^2, and u^2 = 0 in U(pl11)
    P = sess_u.pres
    u, one = P.gen("u"), P.one()
    du = u.outer(one) + one.outer(u)
    assert du.tensor_mul(du).coeffs == {}
    assert tensor_product_by_elements(du, du).coeffs == {}
