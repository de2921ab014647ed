"""Filtration dimensions, growth degrees, module-finiteness, centralizers."""

import itertools
import random
import time
from fractions import Fraction

import pytest

from superhopf import (FiltrationClosure, algebra, bosonize, centralizer_degree_bounded,
                       check_overlaps, enveloping, growth, growth_obstruction,
                       growth_series, load_session, module_finite_check, parse)
from superhopf.algebra import AlgebraPresentation, Element, Generator, monomial_key
from superhopf.errors import AlgebraError, PresentationError
from superhopf.linalg import RowSpace, kernel_basis

from test_confluence import corrupted_pl11_bosonized
from test_products import gl, gl21, osp12


def all_gens(P):
    return [P.gen(g.name) for g in P.generators]


def difference(seq, order):
    """The order-th finite difference of seq: its i-th value is at n = i + order."""
    for _ in range(order):
        seq = [b - a for a, b in zip(seq, seq[1:])]
    return seq


def brute_force_word_rank(P, n):
    """Rank of the span of ALL words of length <= n in the generators.

    Independent of the closure code path: enumerate words, normalize, row
    reduce.  5^5 + ... + 1 = 3906 words for the bosonized algebra at n=5.
    """
    space = RowSpace(monomial_key)
    for length in range(n + 1):
        for word in itertools.product(range(P.n), repeat=length):
            space.insert(P.normalize(word).coeffs)
    return space.rank


def test_filtration_dim_matches_brute_force_and_monomial_count(ubar):
    dims = FiltrationClosure(ubar, all_gens(ubar)).extend_to(5).dims
    for n in range(6):
        by_words = brute_force_word_rank(ubar, n)
        by_monomials = len(ubar.enumerate_monomials(n))
        assert dims[n] == by_words == by_monomials, n
    assert dims[5] == 102
    assert dims[3] == 38


def test_filtration_dim_trivial(ubar):
    assert FiltrationClosure(ubar, all_gens(ubar)).extend_to(0).dims[0] == 1


def test_growth_closed_forms(ubar, sess_bbar, kxy):
    full = growth_series(ubar, all_gens(ubar), 12)
    assert full.dims[5] == 102
    for n in range(3, 13):
        assert full.dims[n] == 4 * n * n + 2
    assert full.detected_degree == 2
    assert full.stabilization_onset == 3

    tri = growth_series(sess_bbar.pres, all_gens(sess_bbar.pres), 12)
    for n in range(2, 13):
        assert tri.dims[n] == 4 * n
    assert tri.detected_degree == 1

    poly = growth_series(kxy, all_gens(kxy), 12)
    for n in range(13):
        assert poly.dims[n] == (n + 1) * (n + 2) // 2
    assert poly.detected_degree == 2


def test_dims_are_non_decreasing_and_differences_stabilize(ubar):
    report = growth_series(ubar, all_gens(ubar), 12)
    assert all(a <= b for a, b in zip(report.dims, report.dims[1:]))
    second = difference(report.dims, 2)
    onset = report.stabilization_onset
    assert all(v == second[-1] for v in second[onset - 2:])
    assert second[-1] == 8


def detected_by_definition(dims):
    """The smallest d whose d-th difference has at least 3 values and ends in a
    run of at least 3 equal positive values, with the n where that run starts."""
    for d in range(len(dims) - 2):
        seq = difference(dims, d)
        if len(set(seq[-3:])) == 1 and seq[-1] > 0:
            start = min(i for i in range(len(seq)) if len(set(seq[i:])) == 1)
            return d, d + start
    return None, None


def test_detected_degrees_match_the_definition():
    rng = random.Random(23)
    for _ in range(400):
        # a polynomial in n whose first values are disturbed, or small noise
        coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] + [rng.randint(-1, 3)]
        dims = [sum(c * n ** k for k, c in enumerate(coeffs)) for n in range(rng.randint(0, 12))]
        for i in range(rng.randint(0, len(dims))):
            dims[i] += rng.randint(-2, 2)
        assert growth.detect_degree(dims) == detected_by_definition(dims), dims


def test_a_long_window_finds_the_degree_at_once(ubar):
    start = time.perf_counter()
    report = growth_series(ubar, all_gens(ubar), 20000)
    assert (report.detected_degree, report.stabilization_onset) == (2, 3)
    assert report.to_text().endswith("\n20000 1600000002 159996 8 0\ndegree: 2 onset: 3\n")
    assert time.perf_counter() - start < 5


def test_growth_report_serialization(kxy):
    report = growth_series(kxy, all_gens(kxy), 6)
    text = report.to_text()
    lines = text.splitlines()
    assert lines[0] == "generators: x y"
    assert lines[1] == "0 1 - - -"
    assert lines[2] == "1 3 2 - -"
    assert lines[3] == "2 6 3 1 -"
    assert lines[4] == "3 10 4 1 0"
    assert lines[-1] == "degree: 2 onset: 2"


def test_growth_of_the_group_algebra_is_degree_zero():
    K = AlgebraPresentation([Generator("t", 0, 0)], {(0, 0): {(0,): 1}}, name="k[t]")
    report = growth_series(K, [K.gen("t")], 8)
    assert report.dims == [1, 2, 2, 2, 2, 2, 2, 2, 2]
    assert report.detected_degree == 0


def test_module_finite_over_the_polynomial_part(ubar):
    pbw_gens = [parse(s, ubar)
                for s in ("1", "u", "v", "u*v", "t", "u*t", "v*t", "u*v*t")]
    sub = [ubar.gen("x"), ubar.gen("y")]
    for side in ("left", "right"):
        cert = module_finite_check(ubar, sub, pbw_gens, side, 8)
        assert cert.passed, (side, cert.witnesses[:3])


def test_module_finite_fails_over_a_small_subalgebra(ubar):
    cert = module_finite_check(ubar, [ubar.gen("x")],
                               [parse(s, ubar) for s in ("1", "u", "v", "t")],
                               "left", 8)
    assert not cert.passed
    assert cert.witnesses


def test_module_finite_trivial(ubar):
    cert = module_finite_check(ubar, all_gens(ubar), [ubar.one()], "left", 4)
    assert cert.passed


def test_module_finite_side_validation(ubar):
    with pytest.raises(AlgebraError):
        module_finite_check(ubar, [ubar.gen("x")], [ubar.one()], "middle", 2)


def test_growth_obstruction_cases(ubar, sess_bbar):
    rep = growth_obstruction(ubar, [ubar.gen("x")], 12)
    assert rep.passed
    assert rep.parameters["obstruction"] == "1 < 2"

    rep = growth_obstruction(ubar, [ubar.gen("x"), ubar.gen("y")], 12)
    assert rep.status == "fail"
    assert rep.parameters["subDegree"] == rep.parameters["fullDegree"] == 2

    Pb = sess_bbar.pres
    rep = growth_obstruction(Pb, [Pb.gen("y")], 12)
    assert rep.status == "fail"  # equal growth: no obstruction certificate
    assert rep.parameters["subDegree"] == 1


def test_growth_obstruction_checks_the_overlaps_once(monkeypatch, sess_bbar):
    Pb = sess_bbar.pres
    P = AlgebraPresentation(Pb.generators, Pb.rules, mode=Pb.mode,
                            name=Pb.name)  # no verdict yet
    calls = []

    def counted(pres):
        calls.append(pres)
        return check_overlaps(pres)

    monkeypatch.setattr(algebra, "check_overlaps", counted)
    assert growth_obstruction(P, [P.gen("y")], 12).status == "fail"
    assert calls == [P]
    growth_obstruction(P, [P.gen("u")], 12)
    assert calls == [P]


def test_growth_obstruction_inconclusive_window(ubar):
    rep = growth_obstruction(ubar, [ubar.gen("x")], 2)
    assert rep.status == "inconclusive"


def test_finiteness_implies_equal_growth_degree(ubar):
    # a passing finiteness certificate coexists with equal detected degrees
    pbw_gens = [parse(s, ubar)
                for s in ("1", "u", "v", "u*v", "t", "u*t", "v*t", "u*v*t")]
    sub = [ubar.gen("x"), ubar.gen("y")]
    assert module_finite_check(ubar, sub, pbw_gens, "left", 6).passed
    full = growth_series(ubar, all_gens(ubar), 12)
    over = growth_series(ubar, sub, 12)
    assert full.detected_degree == over.detected_degree == 2


def test_centralizer_window(ubar):
    gens = all_gens(ubar)
    basis = centralizer_degree_bounded(ubar, gens, 4, z_degree=0)
    assert basis == [ubar.one()]
    unfiltered = centralizer_degree_bounded(ubar, gens, 4)
    space = RowSpace(monomial_key)
    for e in unfiltered:
        space.insert(e.coeffs)
    assert space.contains(ubar.gen("x").coeffs)
    assert space.contains((ubar.gen("x") ** 2).coeffs)
    # independent recheck: every reported element commutes with every generator
    for c in unfiltered:
        for g in gens:
            assert c * g == g * c


def reference_centralizer(P, gens, bound, z_degree=None):
    """The kernel of columns built as Elements: e*g - g*e for each generator."""
    columns, images = [], []
    for m in P.enumerate_monomials(bound, z_degree=z_degree):
        e = P.monomial_element(m)
        stacked = {}
        for pos, g in enumerate(gens):
            for mm, c in (e * g - g * e).items():
                stacked[(pos, mm)] = c
        columns.append(stacked)
        images.append(e.coeffs)
    return [Element(P, row) for row in kernel_basis(columns, images, monomial_key)]


@pytest.mark.parametrize("name, gens, bound, z_degree", [
    ("pl11-bosonized", None, 6, None),
    ("pl11-bosonized", ["x+y", "u+t"], 6, None),
    ("pl11-bosonized", ["1+x", "u"], 5, None),
    ("pl11-bosonized", ["y", "u*v"], 4, 0),
    ("gl(2|1)", None, 3, None),
])
def test_centralizer_columns_match_element_commutators(name, gens, bound, z_degree):
    P = (load_session(name).pres if name == "pl11-bosonized"
         else enveloping(gl21()).carrier)
    gens = all_gens(P) if gens is None else [parse(text, P) for text in gens]
    basis = centralizer_degree_bounded(P, gens, bound, z_degree)
    assert basis == reference_centralizer(P, gens, bound, z_degree)
    assert len(basis) > 1


def test_centralizer_with_no_constraints_is_the_whole_span(ubar):
    basis = centralizer_degree_bounded(ubar, [], 2)
    assert len(basis) == len(ubar.enumerate_monomials(2))


def test_centralizer_z_filter_needs_declared_degrees(kxy):
    with pytest.raises(AlgebraError):
        centralizer_degree_bounded(kxy, [kxy.gen("x")], 2, z_degree=0)


def test_enveloping_growth_of_sub_lie_superalgebras(sess_u):
    # U(b), U(centre), U(even part) and U(closure of u, v) as letter subsets of U(pl11)
    U = sess_u.pres
    for letters, degree in (("yu", 1), ("x", 1), ("xy", 2), ("xuv", 1)):
        report = growth_series(U, [U.gen(a) for a in letters], 12)
        assert report.detected_degree == degree, letters


# -- the normal-monomial count against the closure ------------------------------------

LIE_ALGEBRAS = {"pl11": lambda: load_session("pl11").lie,
                "b": lambda: load_session("b-bosonized").lie,
                "osp(1|2)": osp12, "gl(2|1)": gl21}


def letter_subsets(P, sample=32):
    """Every subset of the letters, or a seeded sample plus all of them."""
    subsets = [c for k in range(P.n + 1) for c in itertools.combinations(range(P.n), k)]
    if len(subsets) > 64:
        subsets = random.Random(P.n).sample(subsets[:-1], sample) + subsets[-1:]
    return subsets


@pytest.mark.parametrize("bosonized", [False, True])
@pytest.mark.parametrize("name", sorted(LIE_ALGEBRAS))
def test_the_count_matches_the_closure_on_every_letter_subset(name, bosonized):
    U = enveloping(LIE_ALGEBRAS[name]())
    P = bosonize(U).carrier if bosonized else U.carrier
    n_max = 5 if P.n <= 6 else 4
    for subset in letter_subsets(P):
        gens = [P.gen(P.gen_name(i)) for i in subset]
        by_closure = growth.FiltrationClosure(P, gens).extend_to(n_max).dims
        assert growth_series(P, gens, n_max).dims == by_closure, subset


class ClosureBuilt(Exception):
    pass


def refuse_closures(monkeypatch):
    def refuse(*args, **kwargs):
        raise ClosureBuilt
    monkeypatch.setattr(growth, "FiltrationClosure", refuse)


def test_a_closed_letter_set_builds_no_closure(monkeypatch, ubar, sess_bbar):
    refuse_closures(monkeypatch)
    assert growth_series(ubar, all_gens(ubar), 12).dims[12] == 4 * 12 * 12 + 2
    assert growth_series(sess_bbar.pres, all_gens(sess_bbar.pres), 12).dims[12] == 48
    # multiples of letters count as the letters; {x, t} holds its rules
    x_t = [parse("2*x", ubar), parse("-t", ubar)]
    assert growth_series(ubar, x_t, 6).dims == [1, 3, 5, 7, 9, 11, 13]
    # {u} on b-bosonized: u^2 = 0 caps the count
    assert growth_series(sess_bbar.pres, [sess_bbar.pres.gen("u")], 3).dims == [1, 2, 2, 2]


@pytest.mark.parametrize("gens", ["u,v", "x+y+u+v", "x,y,1"])
def test_other_generators_fall_back_to_the_closure(monkeypatch, ubar, gens):
    refuse_closures(monkeypatch)
    with pytest.raises(ClosureBuilt):
        growth_series(ubar, [parse(g, ubar) for g in gens.split(",")], 4)


def test_a_non_confluent_presentation_falls_back_to_the_closure(monkeypatch, ubar):
    corrupted = corrupted_pl11_bosonized(ubar)
    by_closure = growth.FiltrationClosure(corrupted, all_gens(corrupted)).extend_to(4).dims
    refuse_closures(monkeypatch)
    with pytest.raises(ClosureBuilt):
        growth_series(corrupted, all_gens(corrupted), 4)
    monkeypatch.undo()
    assert growth_series(corrupted, all_gens(corrupted), 4).dims == by_closure


def test_rules_that_cycle_off_the_letters_fall_back_to_the_closure(monkeypatch):
    # b*a -> b*c and c*a -> a^2 rewrite b*c*a back into itself, so the
    # overlap check cannot finish; the closure of {a} never meets those rules
    P = AlgebraPresentation([Generator(name, 0, i) for i, name in enumerate("abc")],
                            {(1, 0): {(0, 1, 1): 1}, (2, 0): {(2, 0, 0): 1},
                             (2, 1): {(0, 1, 1): 1}}, name="cycling")
    assert growth_series(P, [P.gen("a")], 4).dims == [1, 2, 3, 4, 5]
    refuse_closures(monkeypatch)
    with pytest.raises(ClosureBuilt):
        growth_series(P, [P.gen("a")], 4)


def test_growth_keeps_the_presentation_mismatch_error(ubar, kxy):
    with pytest.raises(PresentationError, match="presentation mismatch"):
        growth_series(ubar, [kxy.gen("x")], 3)


@pytest.mark.parametrize("bosonized, top", [(False, 256), (True, 512)])
def test_gl22_detects_degree_eight(bosonized, top):
    U = enveloping(gl(2, 2))
    P = bosonize(U).carrier if bosonized else U.carrier
    report = growth_series(P, all_gens(P), 30)
    assert report.detected_degree == 8
    assert set(difference(report.dims, 8)[8:]) == {top}


# -- the closure's stored rows ---------------------------------------------------------


def old_rule_dims(P, gens, n_max):
    """Closure dims from an echelon form over Fractions that pivots on the
    least ``monomial_key`` and reduces a vector only until that key is free."""
    rows, dims, new = {}, [], []
    for n in range(n_max + 1):
        products = [e * g for g in gens for e in new] if n else [P.one()]
        new = []
        for prod in products:
            vec = dict(prod.coeffs)
            while vec and (p := min(vec, key=monomial_key)) in rows:
                c = vec[p]
                for k, v in rows[p].items():
                    vec[k] = vec.get(k, 0) - c * v
                vec = {k: v for k, v in vec.items() if v}
            if vec:
                p = min(vec, key=monomial_key)
                rows[p] = {k: Fraction(v, vec[p]) for k, v in vec.items()}
                new.append(Element(P, rows[p]))
        dims.append(len(rows))
    return dims


def test_closure_rows_pivot_on_top_degree_terms_and_skip_earlier_pivots(ubar):
    gens = [parse("x+y+u+v", ubar), ubar.gen("t")]
    closure = FiltrationClosure(ubar, gens).extend_to(11)
    assert closure.dims == old_rule_dims(ubar, gens, 11)
    earlier = set()
    for pivot, row in closure.space.rows.items():
        assert sum(pivot) == max(sum(m) for m in row), row
        assert not row.keys() & earlier, row
        earlier.add(pivot)


@pytest.mark.parametrize("presentation, n", [
    (lambda: load_session("pl11-bosonized").pres, 5),
    (lambda: bosonize(enveloping(gl21())).carrier, 3),
], ids=["pl11-bosonized", "gl(2|1)#k[t]"])
def test_a_closure_of_letters_stores_single_monomials(presentation, n):
    P = presentation()
    closure = FiltrationClosure(P, all_gens(P)).extend_to(n)
    assert closure.dims[n] == len(P.enumerate_monomials(n))
    assert all(len(row) == 1 for row in closure.space.rows.values())
