"""Certificate checks: axioms, adjoint actions, normality, biproducts."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from superhopf import (FiltrationClosure, HopfStructureMaps, bosonize, enveloping,
                       load_session, parse, verify)
from superhopf.algebra import Element, monomial_key
from superhopf.errors import AlgebraError, DegreeBudgetError
from superhopf.linalg import kernel_basis
from superhopf.verify import (adjoint_left, adjoint_right,
                              biproduct_decomposition, check_ad_equals_bracket,
                              check_antipode, check_bialgebra,
                              check_coassociativity, check_counit,
                              check_grouplike, check_nilpotent_ideal,
                              check_shift_identity, find_skew_primitives,
                              hopf_axiom_suite, is_normal, render_reports,
                              render_summary, zero_divisor_scan)

from test_products import gl21

F = Fraction


# -- axioms -----------------------------------------------------------------------


def test_coassociativity_concrete(bos):
    P = bos.carrier
    H = bos.hopf
    u, t, one = P.gen("u"), P.gen("t"), P.one()
    rep = check_coassociativity(H, [u, one])
    assert rep.passed
    # both sides of the u instance are u(x)1(x)1 + t(x)u(x)1 + t(x)t(x)u
    d = H.coproduct(u).apply_tensor_map(H.delta_monomial, 0)
    expected = {(m1, m2, m3): F(1) for m1, m2, m3 in [
        (P.monomial(u=1), P.monomial(), P.monomial()),
        (P.monomial(t=1), P.monomial(u=1), P.monomial()),
        (P.monomial(t=1), P.monomial(t=1), P.monomial(u=1)),
    ]}
    assert dict(d.items()) == expected


def test_corrupted_coproduct_fails_coassociativity(bos):
    # with Delta(t) := t (x) 1 the element t alone still looks coassociative;
    # the corruption surfaces on u, whose expansions disagree in the middle
    # slot (t (x) 1 (x) u versus t (x) t (x) u)
    P = bos.carrier
    H = bos.hopf
    t, u, one = P.gen("t"), P.gen("u"), P.one()
    corrupted = HopfStructureMaps(P, {**H.delta_gen, P.gen_index("t"): t.outer(one)},
                                  H.eps_gen, H.antipode_gen)
    assert check_coassociativity(corrupted, [t]).passed
    rep = check_coassociativity(corrupted, [t, u])
    assert rep.status == verify.FAIL
    assert rep.witnesses[0][0] == "u"


def test_counit_and_antipode_concrete(bos):
    P = bos.carrier
    H = bos.hopf
    u, t = P.gen("u"), P.gen("t")
    assert check_counit(H, [u, t, P.one(), u * t]).passed
    assert check_antipode(H, [u, t, P.one(), u * t]).passed
    assert check_bialgebra(H, [(u, t), (u, u), (t, t)]).passed


def test_full_axiom_suite_on_all_three_algebras(sess_u, sess_ubar, sess_bbar):
    for sess in (sess_u, sess_ubar, sess_bbar):
        reports = hopf_axiom_suite(sess.hopf, n_random=25, seed=5)
        assert all(r.passed for r in reports), sess.name


def test_corrupted_counit_fails_at_u(bos):
    P, H = bos.carrier, bos.hopf
    gens = [P.gen(g.name) for g in P.generators]
    corrupted = HopfStructureMaps(P, H.delta_gen, {**H.eps_gen, P.gen_index("t"): 0},
                                  H.antipode_gen)
    rep = check_counit(corrupted, gens)
    assert rep.status == verify.FAIL
    assert rep.witnesses[0] == ("u", "u", "0")  # (eps (x) id)Delta(u) = eps(t)*u


def test_corrupted_antipode_fails_at_u(bos):
    P, H = bos.carrier, bos.hopf
    u = P.gen("u")
    corrupted = HopfStructureMaps(P, H.delta_gen, H.eps_gen,
                                  {**H.antipode_gen, P.gen_index("u"): u})
    rep = check_antipode(corrupted, [P.one(), u])
    assert rep.status == verify.FAIL
    assert [w[0] for w in rep.witnesses] == ["u", "u"]
    assert all(w[1] == "0" for w in rep.witnesses)


def test_corrupted_coproduct_fails_the_bialgebra_check_at_u_u(bos):
    # u(x)1 + 1(x)u drops the t of the bosonized coproduct; the tensor product
    # of the bosonization carries no Koszul sign, so the cross terms of Delta(u)^2
    # add up instead of cancelling, while u^2 = 0
    P, H = bos.carrier, bos.hopf
    u, one = P.gen("u"), P.one()
    corrupted = HopfStructureMaps(
        P, {**H.delta_gen, P.gen_index("u"): u.outer(one) + one.outer(u)},
        H.eps_gen, H.antipode_gen)
    rep = check_bialgebra(corrupted, [(u, u)])
    assert rep.status == verify.FAIL
    assert rep.witnesses == [("(u, u)", "0", "2*u(x)u")]


def reference_axiom_witnesses(H, test_set):
    """The witnesses of the coassociativity, counit and antipode checks, found
    through the generic tensor maps: whole 2- and 3-leg tensors per side."""
    coassociativity, counit, antipode = [], [], []
    for a in test_set:
        d = H.coproduct(a)
        left, right = (d.apply_tensor_map(H.delta_monomial, leg) for leg in (0, 1))
        if left != right:
            coassociativity.append((str(a), "(Delta(x)id)Delta = (id(x)Delta)Delta",
                                    f"{left} vs {right}"))
        target = H.counit(a) * H.carrier.one()
        for leg in (0, 1):
            side = d.contract_scalar(H.counit_monomial, leg).as_element()
            if side != a:
                counit.append((str(a), str(a), str(side)))
        for leg in (0, 1):
            side = d.apply_element_map(H.antipode_monomial, leg).fold_mul()
            if side != target:
                antipode.append((str(a), str(target), str(side)))
    return [coassociativity, counit, antipode]


@pytest.mark.parametrize("corruption", ["none", "delta_t", "eps_t", "antipode_u", "delta_u"])
def test_one_pass_axiom_checks_match_the_tensor_map_path(bos, corruption):
    P, H = bos.carrier, bos.hopf
    t, u, one = P.gen("t"), P.gen("u"), P.one()
    delta, eps, antipode = dict(H.delta_gen), dict(H.eps_gen), dict(H.antipode_gen)
    if corruption == "delta_t":
        delta[P.gen_index("t")] = t.outer(one)
    elif corruption == "eps_t":
        eps[P.gen_index("t")] = 0
    elif corruption == "antipode_u":
        antipode[P.gen_index("u")] = u
    elif corruption == "delta_u":
        delta[P.gen_index("u")] = u.outer(one) + one.outer(u)
    maps = HopfStructureMaps(P, delta, eps, antipode)
    rng = random.Random(3)
    test_set = ([P.gen(g.name) for g in P.generators]
                + [P.monomial_element(m) for m in P.enumerate_monomials(2)]
                + [verify.random_element(P, rng, 3) for _ in range(15)])
    reports = [check(maps, test_set)
               for check in (check_coassociativity, check_counit, check_antipode)]
    expected = reference_axiom_witnesses(maps, test_set)
    assert [rep.witnesses for rep in reports] == expected
    assert [rep.status for rep in reports] == [verify.FAIL if w else verify.PASS
                                               for w in expected]
    assert any(expected) == (corruption != "none")


# -- adjoint actions -----------------------------------------------------------------


def test_adjoint_left_examples(bos):
    P = bos.carrier
    H = bos.hopf
    y, u, v, t = (P.gen(n) for n in "yuvt")
    assert adjoint_left(H, y, u) == u
    assert adjoint_left(H, y, v) == -v
    assert adjoint_left(H, u, t) == parse("-2*t*u", P)


def test_adjoint_left_is_a_measuring_action(bos):
    P = bos.carrier
    H = bos.hopf
    rng = random.Random(17)
    for _ in range(25):
        a = verify.random_element(P, rng, 2)
        a2 = verify.random_element(P, rng, 2)
        b = verify.random_element(P, rng, 2)
        assert adjoint_left(H, a * a2, b) == \
            adjoint_left(H, a, adjoint_left(H, a2, b))


def test_adjoint_right_composes_contravariantly(bos):
    P = bos.carrier
    H = bos.hopf
    rng = random.Random(19)
    for _ in range(15):
        a = verify.random_element(P, rng, 2)
        a2 = verify.random_element(P, rng, 2)
        b = verify.random_element(P, rng, 2)
        assert adjoint_right(H, a * a2, b) == \
            adjoint_right(H, a2, adjoint_right(H, a, b))


def _adjoint_by_elements(H, a, b, left):
    """The adjoint actions as sums of Element products, term by term."""
    out = H.carrier.zero()
    for (m1, m2), c in H.coproduct(a).items():
        x, y = H.carrier.monomial_element(m1), H.carrier.monomial_element(m2)
        out = out + c * (x * b * H.antipode_monomial(m2) if left
                         else H.antipode_monomial(m1) * b * y)
    return out


@pytest.mark.parametrize("name", ["pl11-bosonized", "b-bosonized", "gl(2|1)#k[t]"])
def test_adjoint_actions_match_the_element_formula(name):
    H = (bosonize(enveloping(gl21())) if name == "gl(2|1)#k[t]" else load_session(name).bos).hopf
    P = H.carrier
    rng = random.Random(name)
    for _ in range(20):
        a = verify.random_element(P, rng, 2, max_terms=3)
        b = verify.random_element(P, rng, 2, max_terms=3)
        assert adjoint_left(H, a, b) == _adjoint_by_elements(H, a, b, True), (str(a), str(b))
        assert adjoint_right(H, a, b) == _adjoint_by_elements(H, a, b, False), (str(a), str(b))


def test_ad_equals_bracket(sess_ubar):
    rep = check_ad_equals_bracket(sess_ubar.lie, sess_ubar.bos)
    assert rep.passed
    assert rep.parameters["pairs"] == 16


def test_ad_equals_bracket_on_triangular(sess_bbar):
    assert check_ad_equals_bracket(sess_bbar.lie, sess_bbar.bos).passed


def test_a_corrupted_antipode_breaks_ad_equals_bracket_at_u(sess_ubar):
    # S(u) := u in place of -t*u: ad_l(u)(b) = u*b + t*b*u is no bracket
    B = sess_ubar.bos
    P, H = B.carrier, B.hopf
    u = P.gen("u")
    corrupted = HopfStructureMaps(P, H.delta_gen, H.eps_gen,
                                  {**H.antipode_gen, P.gen_index("u"): u})
    rep = check_ad_equals_bracket(sess_ubar.lie, dataclasses.replace(B, hopf=corrupted))
    assert rep.status == verify.FAIL
    assert rep.witnesses == [("(u,x)", "0", "-x*u*t + x*u"),
                             ("(u,y)", "-u", "-y*u*t + y*u - u"),
                             ("(u,v)", "x", "x*t - u*v*t + u*v")]


# -- normality -----------------------------------------------------------------------


def test_normality_of_central_polynomials(bos):
    P = bos.carrier
    assert is_normal(bos, [P.gen("x")], 6).passed


def test_group_algebra_is_not_normal(bos):
    P = bos.carrier
    rep = is_normal(bos, [P.gen("t")], 6)
    assert rep.status == verify.FAIL
    item, _, actual = rep.witnesses[0]
    assert item == "ad_l(u)(t)"
    assert parse(actual, P) == parse("-2*t*u", P)


def test_whole_algebra_is_normal(bos):
    P = bos.carrier
    assert is_normal(bos, [P.gen(g.name) for g in P.generators], 4).passed


# -- grouplikes and skew primitives -----------------------------------------------------


def test_grouplike_membership(bos):
    P = bos.carrier
    H = bos.hopf
    assert check_grouplike(H, P.one())
    assert check_grouplike(H, P.gen("t"))
    assert not check_grouplike(H, P.gen("u") + P.one())
    assert not check_grouplike(H, P.gen("y"))


def test_primitives_span_the_even_part(bos):
    P = bos.carrier
    basis = find_skew_primitives(bos, P.one(), 3)
    assert len(basis) == 2
    assert set(basis) == {P.gen("x"), P.gen("y")}


def test_t_skew_primitives_include_the_odd_generators(bos):
    P = bos.carrier
    t = P.gen("t")
    basis = find_skew_primitives(bos, t, 3)
    # u, v, and 1 - t span the solutions at this bound
    assert len(basis) == 3
    from superhopf.linalg import RowSpace
    from superhopf.algebra import monomial_key
    space = RowSpace(monomial_key)
    for e in basis:
        space.insert(e.coeffs)
    for sol in (P.gen("u"), P.gen("v"), P.one() - t):
        assert space.contains(sol.coeffs)
    # every returned element satisfies the skew-primitive equation
    H = bos.hopf
    for p in basis:
        assert H.coproduct(p) == p.outer(P.one()) + t.outer(p)


@pytest.mark.parametrize("grouplike", ["t", "1"])
def test_skew_primitive_columns_match_tensor_arithmetic(bos, grouplike):
    # for g = 1 the subtracted keys m (x) 1 and g (x) m coincide at m = 1
    P, H = bos.carrier, bos.hopf
    g, one = parse(grouplike, P), P.one()
    columns, images = [], []
    for m in P.enumerate_monomials(4):
        e = P.monomial_element(m)
        columns.append((H.coproduct(e) - e.outer(one) - g.outer(e)).coeffs)
        images.append(e.coeffs)
    want = [Element(P, row) for row in kernel_basis(columns, images, monomial_key)]
    assert find_skew_primitives(bos, g, 4) == want


def test_skew_primitives_need_a_grouplike(bos):
    with pytest.raises(AlgebraError):
        find_skew_primitives(bos, bos.carrier.gen("u"), 2)


# -- biproduct decomposition --------------------------------------------------------------


@pytest.mark.parametrize("gen_names,inner_dim", [
    (["y", "u", "t"], 13),  # the triangular enveloping part: y^a u^e, a+e<=6
    (["x", "t"], 7),        # k[x] up to degree 6
    (["t"], 1),             # the group algebra alone
    (["x", "-t"], 7),       # every multiple of t has weight 0
    (["x", "2*t"], 7),
    (["y", "u", "-t"], 13),
])
def test_biproduct_decomposition_cases(bos, gen_names, inner_dim):
    P = bos.carrier
    rep = biproduct_decomposition(bos, [parse(n, P) for n in gen_names], 6)
    assert rep.passed, rep.witnesses[:3]
    assert rep.parameters["innerDimension"] == inner_dim


def test_biproduct_decomposition_whole_algebra(bos):
    P = bos.carrier
    rep = biproduct_decomposition(bos, [P.gen(g.name) for g in P.generators], 6)
    assert rep.passed
    assert rep.parameters["innerDimension"] == 85  # dim F_6 of the enveloping part


def intersection_with_u(B, basis_elements):
    """Basis of span(basis_elements) with zero t-part, via an exact kernel."""
    t_index = B.t_index
    columns = [{m: c for m, c in e.items() if m[t_index]} for e in basis_elements]
    basis = kernel_basis(columns, [e.coeffs for e in basis_elements], monomial_key)
    return [Element(B.carrier, row) for row in basis]


def t_first_closure(B, gens, weights):
    """The closure the biproduct check builds: every t-monomial first."""
    t_index = B.t_index
    return FiltrationClosure(B.carrier, gens, weights,
                             order=lambda m: (not m[t_index], sum(m), m))


def t_free_rows(B, space):
    """The reduced rows of a t-first row space that hold no t-letter."""
    return [Element(B.carrier, row) for row in space.reduced_basis()
            if not any(m[B.t_index] for m in row)]


@pytest.mark.parametrize("gens", [("y", "u", "t"), ("x", "t"), "whole",
                                  ("y + x*t", "t")])  # rows mixing t-free and t-letters
def test_the_t_first_order_splits_off_the_kernel_intersection(bos, gens):
    P = bos.carrier
    if gens == "whole":
        gens = [g.name for g in P.generators]
    weights = [0 if g == "t" else 1 for g in gens]
    gens = [parse(g, P) for g in gens]
    top_degree = FiltrationClosure(P, gens, weights)
    split = t_first_closure(bos, gens, weights)
    for n in range(7):
        split.extend_to(n)
        oracle = intersection_with_u(bos, top_degree.basis_up_to(n))
        assert t_free_rows(bos, split.space) == oracle, n
        assert sum(1 for p in split.space.rows if not p[bos.t_index]) == len(oracle), n
        assert split.dims == top_degree.dims, n


def test_biproduct_triangular_inner_part_is_the_y_u_span(bos):
    P = bos.carrier
    sub = t_first_closure(bos, [P.gen(n) for n in ("y", "u", "t")], [1, 1, 0])
    inner = t_free_rows(bos, sub.extend_to(6).space)
    monomials = {m for e in inner for m in e.coeffs}
    for m in monomials:
        assert m[P.gen_index("x")] == 0
        assert m[P.gen_index("v")] == 0
        assert m[bos.t_index] == 0
    assert len(inner) == 13


def corrupted_u_maps(B, delta=(), antipode=()):
    """``B`` with the generator images of ``U`` in ``delta`` and ``antipode``
    (index -> image) put in place of its own."""
    U = B.u_maps
    maps = HopfStructureMaps(U.carrier, {**U.delta_gen, **dict(delta)}, U.eps_gen,
                             {**U.antipode_gen, **dict(antipode)})
    return dataclasses.replace(B, u_maps=maps)


def test_biproduct_flags_an_antipode_that_leaves_the_t_free_part(bos):
    P, Q = bos.carrier, bos.u_maps.carrier
    broken = corrupted_u_maps(bos, antipode={Q.gen_index("u"): -Q.gen("v")})
    rep = biproduct_decomposition(broken, [P.gen(n) for n in ("y", "u", "t")], 2)
    assert rep.status == verify.FAIL
    assert rep.witnesses[0] == ("S_U(u)", "in A cap U", "-v")


def test_biproduct_flags_a_coproduct_marginal_outside_the_t_free_part(bos):
    P, Q = bos.carrier, bos.u_maps.carrier
    one = Q.one()
    broken = corrupted_u_maps(
        bos, delta={Q.gen_index("u"): Q.gen("v").outer(one) + one.outer(Q.gen("u"))})
    rep = biproduct_decomposition(broken, [P.gen(n) for n in ("y", "u", "t")], 2)
    assert rep.status == verify.FAIL
    assert rep.witnesses[0] == ("Delta_U(u) left marginal at 1", "in A cap U", "v")


def test_biproduct_flags_a_right_marginal_outside_the_t_free_part(bos):
    # Delta(x) := x (x) 1 + 1 (x) x + u (x) v: its left marginal at v is u and
    # its right marginal at u is v, neither of them in A cap U = k[x]
    P, Q = bos.carrier, bos.u_maps.carrier
    x, one = Q.gen("x"), Q.one()
    broken = corrupted_u_maps(bos, delta={
        Q.gen_index("x"): x.outer(one) + one.outer(x) + Q.gen("u").outer(Q.gen("v"))})
    rep = biproduct_decomposition(broken, [P.gen("x"), P.gen("t")], 1)
    assert rep.status == verify.FAIL
    assert rep.witnesses == [("Delta_U(x) left marginal at v", "in A cap U", "u"),
                             ("Delta_U(x) right marginal at u", "in A cap U", "v")]


def test_biproduct_flags_an_inner_element_that_is_not_coinvariant(bos):
    # Delta(u) := u (x) t + t (x) u on the smash product: (id (x) proj) Delta(u)
    # keeps u (x) t, so u and every product with it stop being coinvariants
    P, H = bos.carrier, bos.hopf
    u, t = P.gen("u"), P.gen("t")
    corrupted = HopfStructureMaps(
        P, {**H.delta_gen, P.gen_index("u"): u.outer(t) + t.outer(u)},
        H.eps_gen, H.antipode_gen)
    broken = dataclasses.replace(bos, hopf=corrupted)
    rep = biproduct_decomposition(broken, [P.gen(n) for n in ("y", "u", "t")], 2)
    assert rep.status == verify.FAIL
    assert rep.witnesses == [("u", "coinvariant", "not coinvariant"),
                             ("y*u", "coinvariant", "not coinvariant")]


@pytest.mark.xfail(strict=True, reason="A is built only to a product length, and "
                   "ad_r(u)(u + v) lies in A = H ([y, u + v] = u - v) through longer products")
def test_normality_of_generators_that_are_not_letters(bos):
    P = bos.carrier
    rep = is_normal(bos, [parse("u + v", P), P.gen("y"), P.gen("t")], 1)
    assert rep.status != verify.FAIL, rep.witnesses[0]


def test_biproduct_of_generators_that_are_not_letters(bos):
    P = bos.carrier
    rep = biproduct_decomposition(bos, [parse("u + v", P), P.gen("y"), P.gen("t")], 2)
    assert rep.passed, rep.witnesses[:3]
    assert rep.parameters["innerDimension"] == 7


@pytest.mark.parametrize("gens", [("u + v", "y", "t"), ("u + v", "t"),
                                  ("x + y + u + v", "t"), ("x + u", "t")])
@pytest.mark.parametrize("bound", range(1, 6))
def test_biproduct_inner_part_matches_the_kernel_intersection(bos, gens, bound):
    P = bos.carrier
    sub_gens = [parse(g, P) for g in gens]
    rep = biproduct_decomposition(bos, sub_gens, bound)
    assert rep.passed, rep.witnesses[:3]
    sub = FiltrationClosure(P, sub_gens, [1] * (len(gens) - 1) + [0]).extend_to(bound)
    assert rep.parameters["innerDimension"] == len(
        intersection_with_u(bos, sub.basis_up_to(bound)))


def test_a_product_of_level_2_elements_can_need_level_3(bos):
    # u and v lie in A cap U by level 2 ([y, u + v] = u - v), but
    # v*u = x - u*v enters the closure only at level 3, so no level bounds
    # the products of A cap U
    P = bos.carrier
    sub = FiltrationClosure(P, [parse("u + v", P), P.gen("y"), P.gen("t")], [1, 1, 0])
    vu = P.gen("v") * P.gen("u")
    assert sub.extend_to(2).contains(P.gen("u")) and sub.contains(P.gen("v"))
    assert not sub.contains(vu)
    assert sub.extend_to(3).contains(vu)


def test_biproduct_fails_when_a_does_not_split(bos):
    # A = <y + x*t, t> holds y*t + x but not y, so A_1 is not (A cap U)_1 # K
    P = bos.carrier
    rep = biproduct_decomposition(bos, [parse("y + x*t", P), P.gen("t")], 3)
    assert rep.status == verify.FAIL
    assert rep.witnesses[0] == ("dim A_1", "2*dim(A cap U)_1 = 2", "4")


def test_biproduct_requires_t(bos):
    P = bos.carrier
    with pytest.raises(AlgebraError):
        biproduct_decomposition(bos, [P.gen("x")], 6)


def test_biproduct_requires_a_multiple_of_t_as_a_generator(bos):
    # <t + u, u> holds t, but no generator is a multiple of it
    P = bos.carrier
    with pytest.raises(AlgebraError):
        biproduct_decomposition(bos, [parse("t + u", P), P.gen("u")], 3)


# -- shift identity -------------------------------------------------------------------------


def test_shift_identity_for_both_eigenvectors(bos):
    P = bos.carrier
    assert check_shift_identity(bos, P.gen("u"), 6, P.gen("y")).passed
    assert check_shift_identity(bos, P.gen("v"), 6, P.gen("y")).passed
    assert check_shift_identity(bos, P.gen("u"), 0, P.gen("y")).passed  # n = 0 is trivial


def test_shift_identity_concrete_squares(bos):
    P = bos.carrier
    y, u, v, one = P.gen("y"), P.gen("u"), P.gen("v"), P.one()
    assert y ** 2 * u == u * (y + one) ** 2
    assert y ** 2 * v == v * (y - one) ** 2


def test_shift_identity_rejects_non_eigenvectors(bos):
    P = bos.carrier
    with pytest.raises(AlgebraError):
        check_shift_identity(bos, P.gen("x"), 3, P.gen("y"))  # eigenvalue 0, not +-1


# -- nilpotency and zero divisors ----------------------------------------------------------------


def test_ideal_u_is_square_zero_in_the_triangular_bosonization(sess_bbar):
    P = sess_bbar.pres
    rep = check_nilpotent_ideal(P, [P.gen("u")], 2, 6)
    assert rep.passed
    assert rep.parameters["spanDimension"] == 11  # y^a u t^d with a+1+d <= 6


def test_ideal_u_is_not_square_zero_in_the_full_bosonization(bos):
    P = bos.carrier
    rep = check_nilpotent_ideal(P, [P.gen("u")], 2, 6)
    assert rep.status == verify.FAIL
    assert rep.witnesses


def test_nilpotency_trivial_and_error_cases(bos):
    P = bos.carrier
    assert check_nilpotent_ideal(P, [P.zero()], 2, 4).passed
    with pytest.raises(DegreeBudgetError):
        check_nilpotent_ideal(P, [P.gen("u") * P.gen("v")], 2, 1)


def _brute_force_nilpotency_witnesses(P, basis, power):
    """The first five index words of length ``power``, in lexicographic
    order, whose plain product of basis elements is nonzero."""
    out = []
    for word in itertools.product(range(len(basis)), repeat=power):
        prod = P.one()
        for i in word:
            prod = prod * basis[i]
        if not prod.is_zero:
            out.append(("*".join(f"[{i}]" for i in word), str(P.zero()), str(prod)))
    return out[:5]


@pytest.mark.parametrize("power", [2, 3])
@pytest.mark.parametrize("gens,bound", [(["u"], 2), (["u", "y"], 1), (["u*v"], 2)])
def test_nilpotency_witnesses_match_a_brute_force_enumeration(bos, gens, bound, power):
    P = bos.carrier
    ideal = [parse(g, P) for g in gens]
    basis = verify.ideal_span(P, ideal, bound)
    rep = check_nilpotent_ideal(P, ideal, power, bound)
    want = _brute_force_nilpotency_witnesses(P, basis, power)
    assert rep.witnesses == want
    assert rep.status == (verify.FAIL if want else verify.PASS)


def test_zero_divisor_scan_is_clean_on_the_full_bosonization(bos):
    rep = zero_divisor_scan(bos.carrier, 3, 200, seed=1)
    assert rep.status == verify.INCONCLUSIVE
    assert rep.parameters["found"] == 0


def test_zero_divisor_scan_finds_nilpotents_when_sampling_monomials(sess_bbar):
    rep = zero_divisor_scan(sess_bbar.pres, 2, 200, seed=1, max_terms=1)
    assert rep.status == verify.FAIL
    assert rep.parameters["found"] > 0


def test_zero_divisor_scan_is_deterministic(bos):
    a = zero_divisor_scan(bos.carrier, 2, 50, seed=9)
    b = zero_divisor_scan(bos.carrier, 2, 50, seed=9)
    assert render_reports([a]) == render_reports([b])


def test_trivial_product_is_not_a_zero_divisor(bos):
    one = bos.carrier.one()
    assert not (one * one).is_zero


def test_the_built_in_h_is_not_prime(bos):
    # w = t*(u*v - v*u) is central with w^2 = x^2, so x + w and x - w are
    # central and (x + w)*H*(x - w) = 0
    P = bos.carrier
    w = parse("t*(u*v - v*u)", P)
    x = P.gen("x")
    a, b = x + w, x - w
    for c in (a, b):
        assert not c.is_zero
        for g in "xyuvt":
            assert (c * P.gen(g) - P.gen(g) * c).is_zero, (c, g)
    assert (a * b).is_zero
    assert (a * parse("y*u", P) * b).is_zero


# -- report rendering -------------------------------------------------------------------------------


def test_report_rendering_and_summary(bos):
    P = bos.carrier
    rep = is_normal(bos, [P.gen("t")], 6)
    text = render_reports([rep])
    assert text.startswith("CHECK normality FAIL\n")
    assert "    witness: ad_l(u)(t)" in text
    assert text.endswith("\n")
    summary = render_summary([rep], extra={"seed": 1})
    assert "seed=1" in summary
    assert "check.normality=FAIL" in summary


def test_an_unexpected_status_fails_the_meta_certificate_and_names_it(bos):
    P = bos.carrier
    inner = is_normal(bos, [P.gen("x")], 2)
    assert inner.passed
    meta = verify.expect(inner, verify.FAIL, name="normality.k[x]")
    assert meta.status == verify.FAIL
    assert meta.witnesses == [("normality", "fail", "pass")]
    assert render_reports([meta]).splitlines()[:3] == [
        "CHECK normality.k[x] FAIL", "    inputs: sub=<x>",
        "    witness: normality expected fail got pass"]
