"""Local confluence of the straightening rules (the diamond-lemma check)."""

from fractions import Fraction

import pytest

from superhopf import (algebra, bosonize, check_overlaps, enveloping, pl11,
                       polynomial_presentation, upper_triangular_subalgebra)
from superhopf.algebra import AlgebraPresentation, Generator
from superhopf.growth import growth_series


def test_enveloping_pl11_is_confluent(sess_u):
    report = check_overlaps(sess_u.pres)
    assert report.confluent
    assert report.overlaps_checked > 0


def test_bosonized_pl11_is_confluent(ubar):
    report = check_overlaps(ubar)
    assert report.confluent


def test_bosonized_triangular_is_confluent(sess_bbar):
    assert check_overlaps(sess_bbar.pres).confluent


def corrupted_pl11_bosonized(ubar):
    """pl11-bosonized with v*u -> y - u*v in place of v*u -> x - u*v; the
    overlap v*u*u then resolves to u one way and to 0 the other."""
    rules = {k: dict(v) for k, v in ubar.rules.items()}
    v_idx, u_idx = ubar.gen_index("v"), ubar.gen_index("u")
    y_mono = ubar.monomial(y=1)
    uv_mono = ubar.monomial(u=1, v=1)
    rules[(v_idx, u_idx)] = {y_mono: Fraction(1), uv_mono: Fraction(-1)}
    return AlgebraPresentation(ubar.generators, rules, mode=ubar.mode, name="corrupted")


def test_corrupted_relation_breaks_confluence(ubar):
    corrupted = corrupted_pl11_bosonized(ubar)
    report = check_overlaps(corrupted)
    assert not report.confluent
    words = {d.word for d in report.discrepancies}
    assert ("v", "u", "u") in words
    d = next(d for d in report.discrepancies if d.word == ("v", "u", "u"))
    assert (d.left_first, d.right_first) == (corrupted.gen("u"), corrupted.zero())


def test_overlap_count_includes_cap_overlaps(ubar):
    # descending triples: C(5,3)=10 strict + cap-boundary words like u*u*u,
    # t*t*x, v*u*u; exact count pinned for determinism
    report = check_overlaps(ubar)
    assert report.overlaps_checked == 25


def test_long_cap_overlaps_are_all_checked():
    # a^7 -> 1 overlaps itself in the words a^(14-k), k = 1..6; the longest
    # has 13 letters, and a length cut would skip it
    pres = AlgebraPresentation([Generator("a", 0, 0)], {(0,) * 7: {(0,): 1}},
                               name="k[a]/(a^7-1)")
    report = check_overlaps(pres)
    assert report.overlaps_checked == 6 and report.confluent


def count_overlap_passes(monkeypatch):
    """The presentations that :func:`check_overlaps` runs on from now on."""
    calls = []

    def counted(pres):
        calls.append(pres)
        return check_overlaps(pres)

    monkeypatch.setattr(algebra, "check_overlaps", counted)
    return calls


def lie_superalgebra(name):
    from test_products import gl, osp12
    return {"pl11": pl11, "b": upper_triangular_subalgebra, "gl(1|1)": lambda: gl(1, 1),
            "gl(2|1)": lambda: gl(2, 1), "gl(2|2)": lambda: gl(2, 2),
            "osp(1|2)": osp12}[name]()


def leading_monomials_multiply(pres):
    """The rule scan behind a stated ``pbw`` fact: the top-degree part of every
    swap rule is one nonzero multiple of the sorted pair and that of every
    power rule is empty, so LM(a*b) = LM(a) + LM(b) whenever that is normal."""
    for w, rhs in pres.rules.items():
        top = [m for m in rhs if sum(m) == len(w)]
        if top != ([] if w[0] == w[-1] else [tuple(w.count(k) for k in range(pres.n))]):
            return False
    return True


@pytest.mark.parametrize("bosonized", [False, True])
@pytest.mark.parametrize("name", ["pl11", "b", "gl(1|1)", "gl(2|1)", "gl(2|2)", "osp(1|2)"])
def test_the_recorded_confluence_holds_and_skips_the_overlap_pass(monkeypatch, name, bosonized):
    from test_products import cold_copy
    calls = count_overlap_passes(monkeypatch)
    U = enveloping(lie_superalgebra(name))
    P = bosonize(U).carrier if bosonized else U.carrier
    assert P.pbw and calls == []  # stated where it is built, with no overlap pass
    assert check_overlaps(P).confluent and leading_monomials_multiply(P)
    assert not cold_copy(P).pbw  # built directly: it states nothing


def test_the_polynomial_algebra_records_its_confluence(monkeypatch):
    calls = count_overlap_passes(monkeypatch)
    K = polynomial_presentation(["x", "y"])
    report = growth_series(K, [K.gen("x"), K.gen("y")], 4)
    assert report.dims == [1, 3, 6, 10, 15] and calls == []  # counted, with no overlap pass
    assert K.pbw and check_overlaps(K).confluent and leading_monomials_multiply(K)


def test_a_corrupted_table_states_nothing_and_runs_no_overlap_pass(monkeypatch, ubar):
    calls = count_overlap_passes(monkeypatch)
    corrupted = corrupted_pl11_bosonized(ubar)
    assert not corrupted.pbw and calls == []
    # its top-degree parts are those of pl11-bosonized: only the overlap pass
    # shows that its normal monomials are no basis
    assert leading_monomials_multiply(corrupted) and not check_overlaps(corrupted).confluent
