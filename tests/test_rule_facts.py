"""The rule facts of the structure maps, and the Hopf-axiom PASS proved from them."""

import pytest

from superhopf import (HopfStructureMaps, bosonize, enveloping, load_session,
                       polynomial_presentation, verify)
from superhopf.algebra import Element, TensorElement
from superhopf.errors import PresentationError
from superhopf.hopf import RuleFacts
from superhopf.verify import (check_antipode, check_bialgebra, check_coassociativity,
                              check_counit, hopf_axiom_suite)

from test_confluence import (corrupted_pl11_bosonized, count_overlap_passes,
                             lie_superalgebra)
from test_products import cold_copy

AXIOMS = ("coassociativity", "counit", "antipode", "bialgebra")


def structure_maps(name):
    """A built-in by name, or ``"<Lie fixture>"`` / ``"<Lie fixture>#k[t]"``."""
    if name in ("pl11", "pl11-bosonized", "b-bosonized"):
        return load_session(name).hopf
    U = enveloping(lie_superalgebra(name.removesuffix("#k[t]")))
    return bosonize(U).hopf if name.endswith("#k[t]") else U


def sampled_suite(monkeypatch, H, **kwargs):
    """:func:`hopf_axiom_suite` with every proof refused, so every check sums."""
    with monkeypatch.context() as m:
        m.setattr(RuleFacts, "proves", lambda self, axiom: False)
        return hopf_axiom_suite(H, **kwargs)


def report_fields(reports):
    return [(r.check_name, r.status, r.inputs, r.witnesses, r.parameters) for r in reports]


@pytest.mark.parametrize("name", [
    "pl11", "pl11-bosonized", "b-bosonized",
    *(f"{g}{suffix}" for g in ("gl(1|1)", "gl(2|1)", "osp(1|2)", "gl(2|2)")
      for suffix in ("", "#k[t]"))])
def test_a_proved_pass_is_the_report_of_the_sampled_sums(monkeypatch, name):
    H = structure_maps(name)
    facts = H.rule_facts()
    assert facts == RuleFacts(True, (), (), (), True, True, True)
    assert all(facts.proves(axiom) for axiom in AXIOMS)
    proved = hopf_axiom_suite(H, n_random=20, seed=3)
    sampled = sampled_suite(monkeypatch, H, n_random=20, seed=3)
    assert report_fields(proved) == report_fields(sampled)
    assert all(r.passed for r in proved)


def bosonized_pl11_corruption(which):
    B = load_session("pl11-bosonized").bos
    P, H = B.carrier, B.hopf
    t, u, one = P.gen("t"), P.gen("u"), P.one()
    delta, eps, antipode = dict(H.delta_gen), dict(H.eps_gen), dict(H.antipode_gen)
    if which == "Delta(t) = t(x)1":
        delta[P.gen_index("t")] = t.outer(one)
    elif which == "eps(t) = 0":
        eps[P.gen_index("t")] = 0
    elif which == "S(u) = u":
        antipode[P.gen_index("u")] = u
    elif which == "primitive Delta(u)":
        delta[P.gen_index("u")] = u.outer(one) + one.outer(u)
    return HopfStructureMaps(P, delta, eps, antipode)


def pl11_with_grouplike_x():
    U = load_session("pl11").hopf
    P = U.carrier
    x = P.gen("x")
    return HopfStructureMaps(P, {**U.delta_gen, P.gen_index("x"): x.outer(x)},
                             U.eps_gen, U.antipode_gen)


@pytest.mark.parametrize("corruption,broken", [
    ("Delta(t) = t(x)1", {"delta": (("t", "u"), ("t", "v"))}),
    ("eps(t) = 0", {"counit": (("t", "t"),)}),
    ("S(u) = u", {"antipode": (("v", "u"),)}),
    ("primitive Delta(u)", {"delta": (("u", "u"), ("v", "u"))}),
    ("Delta(x) = x(x)x on pl11", {"delta": (("v", "u"),)}),
])
def test_the_record_names_exactly_the_broken_rules(monkeypatch, corruption, broken):
    H = pl11_with_grouplike_x() if corruption.endswith("pl11") \
        else bosonized_pl11_corruption(corruption)
    facts = H.rule_facts()
    assert facts.confluent
    assert {key: getattr(facts, key) for key in ("delta", "counit", "antipode")} \
        == {"delta": (), "counit": (), "antipode": (), **broken}
    # a broken map proves no axiom that needs it, and the sampled reports stand
    (key, _), = broken.items()
    needs = {"delta": AXIOMS, "counit": ("counit", "antipode"), "antipode": ("antipode",)}
    assert {a for a in AXIOMS if facts.proves(a)} == set(AXIOMS) - set(needs[key])
    reports = hopf_axiom_suite(H, n_random=10, seed=4)
    assert report_fields(reports) == report_fields(sampled_suite(monkeypatch, H, n_random=10,
                                                                 seed=4))
    assert any(r.status == verify.FAIL for r in reports)


def test_maps_that_respect_every_rule_still_need_the_axioms_on_the_generators():
    # eps(y) = 1 and S(y) = 1 - y respect every rule of U(pl11), since y is no
    # bracket and [1 - y, -u] = -u; Delta(x) = x(x)x + x(x)1 respects the one
    # rule of k[x, y], which is commutative; each fails its axiom at the generator
    U = load_session("pl11").hopf
    P = U.carrier
    y = P.gen("y")
    counit = HopfStructureMaps(P, U.delta_gen, {**U.eps_gen, P.gen_index("y"): 1},
                               U.antipode_gen)
    antipode = HopfStructureMaps(P, U.delta_gen, U.eps_gen,
                                 {**U.antipode_gen, P.gen_index("y"): P.one() - y})
    K = polynomial_presentation(["x", "y"])
    x, one = K.gen("x"), K.one()
    coproduct = HopfStructureMaps(
        K, {0: x.outer(x) + x.outer(one), 1: K.gen("y").outer(one) + one.outer(K.gen("y"))},
        {0: 0, 1: 0}, {0: -x, 1: -K.gen("y")})
    for H, fact, check, gen in ((counit, "counital", check_counit, y),
                                (antipode, "antipodal", check_antipode, y),
                                (coproduct, "coassociative", check_coassociativity, x)):
        facts = H.rule_facts()
        assert (facts.delta, facts.counit, facts.antipode) == ((), (), ())
        assert getattr(facts, fact) is False
        rep = check(H, [H.carrier.one(), gen])
        assert rep.status == verify.FAIL and rep.witnesses[0][0] == str(gen)
        assert check_bialgebra(H, [(gen, gen)]).passed


def transplanted(H, carrier):
    """``H``'s generator images on another carrier with the same generators."""
    return HopfStructureMaps(
        carrier, {i: TensorElement(carrier, 2, d.coeffs) for i, d in H.delta_gen.items()},
        H.eps_gen, {i: Element(carrier, s.coeffs) for i, s in H.antipode_gen.items()})


def count_delta_monomial(monkeypatch):
    calls = []
    original = HopfStructureMaps.delta_monomial

    def counted(self, m):
        calls.append(m)
        return original(self, m)

    monkeypatch.setattr(HopfStructureMaps, "delta_monomial", counted)
    return calls


@pytest.mark.parametrize("table", ["non-confluent", "cold copy"])
def test_the_confluence_gate(monkeypatch, ubar, sess_ubar, table):
    P = corrupted_pl11_bosonized(ubar) if table == "non-confluent" else cold_copy(ubar)
    H = transplanted(sess_ubar.hopf, P)
    passes = count_overlap_passes(monkeypatch)
    facts = H.rule_facts()
    assert passes == [P]  # the confluence of a table built directly is found once
    assert facts.confluent == (table == "cold copy")
    assert H.rule_facts() is facts
    test_set = [P.gen(g.name) for g in P.generators] + [P.gen("v") * P.gen("u") * P.gen("y")]
    calls = count_delta_monomial(monkeypatch)
    reports = [check(H, test_set) for check in (check_coassociativity, check_counit,
                                                check_antipode)]
    reports.append(check_bialgebra(H, [(a, b) for a in test_set for b in test_set]))
    assert passes == [P]
    if facts.confluent:
        assert calls == [] and all(r.passed for r in reports)  # no sum was formed
    else:
        assert calls  # the sampled sums ran
        assert facts == RuleFacts(False) and not any(map(facts.proves, AXIOMS))
    assert [r.parameters for r in reports] == [{"elements": 6}] * 3 + [{"pairs": 36}]


@pytest.mark.parametrize("check", [check_coassociativity, check_counit, check_antipode])
def test_a_proved_check_still_refuses_a_foreign_element(sess_ubar, sess_u, check):
    H, foreign = sess_ubar.hopf, sess_u.pres.gen("u")
    assert H.rule_facts().proves(check.__name__.removeprefix("check_"))
    with pytest.raises(PresentationError):
        check(H, [H.carrier.gen("u"), foreign])
    with pytest.raises(PresentationError):
        check_bialgebra(H, [(H.carrier.gen("u"), foreign)])


def test_an_odd_generator_has_counit_zero_in_super_mode(sess_u):
    U = sess_u.hopf
    P = U.carrier
    with pytest.raises(PresentationError, match="counit of the odd generator u"):
        HopfStructureMaps(P, U.delta_gen, {**U.eps_gen, P.gen_index("u"): 1}, U.antipode_gen)
