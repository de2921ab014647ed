"""The leading-monomial certificate of the zero-divisor scan: the rule-level
predicate, the lemma it licenses, and the scan against a full-product scan."""

import random

import pytest

from superhopf import bosonize, check_overlaps, enveloping, load_session
from superhopf.algebra import AlgebraPresentation, Element, Generator, monomial_key
from superhopf.verify import (FAIL, INCONCLUSIVE, random_dense_element,
                              random_element, zero_divisor_scan)

from test_confluence import leading_monomials_multiply
from test_products import gl21, osp12


def _carriers():
    b = load_session("b-bosonized").bos
    out = {"pl11": load_session("pl11").pres, "pl11-bosonized": load_session("pl11-bosonized").pres,
           "b-bosonized": b.carrier, "b": b.u_maps.carrier,
           "k[t]": AlgebraPresentation([Generator("t", 0, 0)], {(0, 0): {(0,): 1}},
                                       name="k[t]")}
    for g in (osp12(), gl21()):
        U = enveloping(g)
        out[g.name] = U.carrier
        out[g.name + "#k[t]"] = bosonize(U).carrier
    return out


CARRIERS = _carriers()


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_the_predicate_holds_on_every_carrier(name):
    P = CARRIERS[name]
    assert leading_monomials_multiply(P) and check_overlaps(P).confluent
    assert P.pbw == (name != "k[t]")  # k[t] is built directly and states nothing


def _two_generators(swap, x_squared=None):
    """x < y with the swap rule y*x -> swap, and the power rule x^2 -> x_squared if given."""
    gens = [Generator("x", 0, 0), Generator("y", 0, 1)]
    power = {} if x_squared is None else {(0, 0): x_squared}
    return AlgebraPresentation(gens, {(1, 0): swap, **power})


def test_the_predicate_fails_on_other_degree_two_terms_or_a_flat_power_rule(monkeypatch):
    calls, mul = [], Element.__mul__
    monkeypatch.setattr(Element, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    for swap, x_squared, holds in [
            ({(1, 1): 1}, None, True),
            ({(1, 1): 1, (2, 0): 1}, None, False),  # y*x = x*y + x^2: two terms of degree 2
            ({(1, 0): 1}, None, False),  # y*x = x: the swapped pair is missing
            ({(1, 1): 1}, {(1, 1): 1}, False),  # x^2 = x*y keeps the degree of x^2
            ({(1, 1): 1}, {(0, 1): 1}, True)]:
        P = _two_generators(swap, x_squared)
        assert leading_monomials_multiply(P) == holds
        # built directly, the table states nothing, so the scan multiplies every pair
        calls.clear()
        assert not P.pbw and zero_divisor_scan(P, 2, 10, seed=0).parameters["found"] == 0
        assert len(calls) == 10


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_the_leading_monomials_multiply(name):
    """Whenever LM(a) + LM(b) is normal, its coefficient in a*b is nonzero."""
    P = CARRIERS[name]
    rng = random.Random(name)
    dense, sparse = P.enumerate_monomials(2), P.enumerate_monomials(3)
    certified = 0
    for k in range(60):
        if k % 4 == 0:
            a = random_dense_element(P, rng, 2, monomials=dense)
            b = random_dense_element(P, rng, 2, monomials=dense)
        else:
            a = random_element(P, rng, 3, max_terms=3, monomials=sparse)
            b = random_element(P, rng, 3, max_terms=3, monomials=sparse)
        lead = tuple(x + y for x, y in zip(max(a.coeffs, key=monomial_key),
                                           max(b.coeffs, key=monomial_key)))
        if P.is_normal_monomial(lead):
            certified += 1
            assert (a * b).coefficient(lead) != 0, (str(a), str(b))
    assert certified >= 20


def _reference_scan(P, degree_bound, samples, seed, max_terms):
    """The scan's draws, with every pair multiplied."""
    rng = random.Random(seed)
    monomials = P.enumerate_monomials(degree_bound)
    found = []
    for _ in range(samples):
        if max_terms is None:
            a = random_dense_element(P, rng, degree_bound, monomials=monomials)
            b = random_dense_element(P, rng, degree_bound, monomials=monomials)
        else:
            a = random_element(P, rng, degree_bound, max_terms=max_terms,
                               monomials=monomials)
            b = random_element(P, rng, degree_bound, max_terms=max_terms,
                               monomials=monomials)
        if (a * b).is_zero:
            found.append((a, b))
    return found


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name, degree, samples, max_terms",
                         [("pl11-bosonized", 2, 40, None), ("b-bosonized", 2, 200, 1)])
def test_the_scan_matches_a_scan_that_multiplies_every_pair(name, degree, samples,
                                                            max_terms, seed):
    P = CARRIERS[name]
    rep = zero_divisor_scan(P, degree, samples, seed=seed, max_terms=max_terms)
    found = _reference_scan(P, degree, samples, seed, max_terms)
    assert rep.parameters["found"] == len(found)
    assert rep.status == (FAIL if found else INCONCLUSIVE)
    assert rep.witnesses == [(f"({a})*({b})", "nonzero product", "0")
                             for a, b in found[:5]]
    assert (max_terms is None) == (not found)


def test_the_dense_scan_multiplies_almost_no_pair(monkeypatch):
    calls = []
    mul = Element.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Element, "__mul__", counted)
    rep = zero_divisor_scan(CARRIERS["gl(2|1)#k[t]"], 3, 200, seed=1)
    assert rep.status == INCONCLUSIVE and rep.parameters["found"] == 0
    assert len(calls) <= 5, len(calls)


def test_dense_coefficients_are_the_randint_stream_and_the_last_key_leads():
    # three random bits, drawn again at 7, less 3: what randint(-3, 3) draws
    P = CARRIERS["pl11-bosonized"]
    monomials = P.enumerate_monomials(2)
    for seed in range(32):
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(3):
            a = random_dense_element(P, rng, 2, monomials=monomials)
            want = {}
            while not want:
                want = {m: c for m in monomials if (c := reference.randint(-3, 3))}
            assert list(a.coeffs.items()) == list(want.items()), seed
            assert next(reversed(a.coeffs)) == max(a.coeffs, key=monomial_key)
        assert rng.random() == reference.random()
