"""Local confluence of the straightening rules (the diamond-lemma check)."""

from fractions import Fraction

import pytest

from superhopf import (algebra, bosonize, check_overlaps, enveloping, pl11,
                       upper_triangular_subalgebra)
from superhopf.algebra import AlgebraPresentation, Generator


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


@pytest.mark.parametrize("bosonized", [False, True])
@pytest.mark.parametrize("name", ["pl11", "b", "gl(1|1)", "gl(2|1)", "gl(2|2)", "osp(1|2)"])
def test_the_recorded_confluence_holds_and_skips_the_overlap_pass(monkeypatch, name, bosonized):
    from test_products import cold_copy
    U = enveloping(lie_superalgebra(name))
    P = bosonize(U).carrier if bosonized else U.carrier
    calls = count_overlap_passes(monkeypatch)
    assert P.is_confluent() and calls == []
    assert check_overlaps(P).confluent
    cold = cold_copy(P)  # built some other way: no record
    assert cold.is_confluent() and calls == [cold]


def test_a_corrupted_table_still_runs_the_overlap_pass(monkeypatch, ubar):
    corrupted = corrupted_pl11_bosonized(ubar)
    calls = count_overlap_passes(monkeypatch)
    assert not corrupted.is_confluent() and calls == [corrupted]
    assert not corrupted.is_confluent() and calls == [corrupted]  # found once
