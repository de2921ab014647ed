"""Acceptance criteria, one test per criterion, each timed against its budget.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
pass/fail lines.  Every expected value is either asserted directly from the
relation tables or recomputed by an independent oracle inside the test
(brute-force word spans for the growth values).
"""

import itertools
import time
from contextlib import contextmanager

from superhopf import (check_overlaps, growth_obstruction, growth_series,
                       load_session, module_finite_check, parse,
                       polynomial_presentation, verify)
from superhopf.algebra import monomial_key
from superhopf.linalg import RowSpace
from superhopf.verify import (adjoint_left, biproduct_decomposition,
                              check_ad_equals_bracket,
                              check_nilpotent_ideal, check_shift_identity,
                              hopf_axiom_suite, is_normal, zero_divisor_scan)

from relations import PL11_BOSONIZED_RELATIONS, check_defining_relations


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_seconds else "FAIL (over budget)"
    print(f"ACCEPTANCE {number} {name}: {status} "
          f"({elapsed:.2f}s < {budget_seconds}s)")
    assert elapsed < budget_seconds, f"{name} took {elapsed:.2f}s"


def test_criterion_1_presentation_fidelity():
    with criterion(1, "presentation-fidelity", 1.0):
        sess = load_session("pl11-bosonized")
        report = check_defining_relations(sess.pres, PL11_BOSONIZED_RELATIONS)
        assert report.passed
        assert report.parameters["relations"] == len(PL11_BOSONIZED_RELATIONS)


def test_criterion_2_confluence():
    with criterion(2, "confluence", 5.0):
        for sess in (load_session("pl11"), load_session("pl11-bosonized"),
                     load_session("b-bosonized")):
            report = check_overlaps(sess.pres)
            assert report.confluent, sess.name
            assert report.overlaps_checked > 0


def test_criterion_3_hopf_axiom_suite():
    with criterion(3, "hopf-axioms", 60.0):
        for sess in (load_session("pl11"), load_session("pl11-bosonized")):
            reports = hopf_axiom_suite(sess.hopf, n_random=100, seed=1)
            for rep in reports:
                assert rep.passed, (sess.name, rep.check_name, rep.witnesses[:2])


def test_criterion_4_adjoint_identities():
    with criterion(4, "adjoint-identities", 5.0):
        sess = load_session("pl11-bosonized")
        B = sess.bos
        P = sess.pres
        rep = check_ad_equals_bracket(sess.lie, B)
        assert rep.passed and rep.parameters["pairs"] == 16
        y = P.gen("y")
        assert adjoint_left(B.hopf, y, P.gen("u")) == P.gen("u")
        assert adjoint_left(B.hopf, y, P.gen("v")) == -P.gen("v")
        assert check_shift_identity(B, P.gen("u"), 6, P.gen("y")).passed
        assert check_shift_identity(B, P.gen("v"), 6, P.gen("y")).passed


def test_criterion_5_normality():
    with criterion(5, "normality", 10.0):
        sess = load_session("pl11-bosonized")
        B, P = sess.bos, sess.pres
        assert is_normal(B, [P.gen("x")], 6).passed
        rep = is_normal(B, [P.gen("t")], 6)
        assert rep.status == verify.FAIL
        witness_item, _, witness_value = rep.witnesses[0]
        assert witness_item == "ad_l(u)(t)"
        assert parse(witness_value, P) == parse("-2*t*u", P)


def test_criterion_6_biproduct_decomposition():
    with criterion(6, "biproduct-decomposition", 30.0):
        sess = load_session("pl11-bosonized")
        B, P = sess.bos, sess.pres
        for names in (("y", "u", "t"), ("x", "t"),
                      tuple(g.name for g in P.generators)):
            rep = biproduct_decomposition(B, [P.gen(n) for n in names], 6)
            assert rep.passed, (names, rep.witnesses[:2])


def test_criterion_7_growth_values():
    with criterion(7, "growth-values", 60.0):
        sess = load_session("pl11-bosonized")
        P = sess.pres
        gens = [P.gen(g.name) for g in P.generators]

        # independent oracle: rank of the span of all words of length <= 5
        space = RowSpace(monomial_key)
        oracle_dims = []
        for length in range(6):
            for word in itertools.product(range(P.n), repeat=length):
                space.insert(P.normalize(word).coeffs)
            oracle_dims.append(space.rank)

        full = growth_series(P, gens, 12)
        assert full.dims[:6] == oracle_dims
        assert full.dims[5] == 102
        for n in range(3, 13):
            assert full.dims[n] == 4 * n * n + 2
        assert full.detected_degree == 2

        tri_sess = load_session("b-bosonized")
        Pt = tri_sess.pres
        tri = growth_series(Pt, [Pt.gen(g.name) for g in Pt.generators], 12)
        for n in range(2, 13):
            assert tri.dims[n] == 4 * n
        assert tri.detected_degree == 1

        kxy = polynomial_presentation(["x", "y"])
        poly = growth_series(kxy, [kxy.gen("x"), kxy.gen("y")], 12)
        for n in range(13):
            assert poly.dims[n] == (n + 1) * (n + 2) // 2
        assert poly.detected_degree == 2


def test_criterion_8_module_finiteness():
    with criterion(8, "module-finiteness", 60.0):
        sess = load_session("pl11-bosonized")
        P = sess.pres
        pbw_gens = [parse(s, P)
                    for s in ("1", "u", "v", "u*v", "t", "u*t", "v*t", "u*v*t")]
        sub = [P.gen("x"), P.gen("y")]
        for side in ("left", "right"):
            cert = module_finite_check(P, sub, pbw_gens, side, 8)
            assert cert.passed, (side, cert.witnesses[:3])
        obstruction = growth_obstruction(P, [P.gen("x")], 12)
        assert obstruction.passed
        assert obstruction.parameters["obstruction"] == "1 < 2"


def test_criterion_9_nilpotency_and_zero_divisor_contrast():
    with criterion(9, "nilpotency-and-semiprimality", 30.0):
        tri = load_session("b-bosonized")
        rep = check_nilpotent_ideal(tri.pres, [tri.pres.gen("u")], 2, 6)
        assert rep.passed
        sess = load_session("pl11-bosonized")
        scan = zero_divisor_scan(sess.pres, 3, 200, seed=1)
        assert scan.parameters["found"] == 0
        assert scan.status == verify.INCONCLUSIVE


def test_criterion_10_centralizer_window():
    with criterion(10, "centralizer-window", 30.0):
        from superhopf import centralizer_degree_bounded
        sess = load_session("pl11-bosonized")
        P = sess.pres
        gens = [P.gen(g.name) for g in P.generators]
        basis = centralizer_degree_bounded(P, gens, 4, z_degree=0)
        assert basis == [P.one()]
