"""The product tables against the word rewriter they replaced, and their limits."""

import random
from fractions import Fraction
from math import comb

import pytest

from superhopf import check_overlaps, enveloping, load_session, matrix_superalgebra
from superhopf.algebra import AlgebraPresentation, Generator
from superhopf.errors import NonTerminationError

from test_confluence import corrupted_pl11_bosonized
from word_rewriter import rewrite


def osp12():
    """osp(1|2) in gl(1|2), coordinate 0 even: [a, a] = 2e and [b, b] = -2f."""
    return matrix_superalgebra("osp(1|2)", [
        ("h", 0, None, {(1, 1): 1, (2, 2): -1}),
        ("e", 0, None, {(1, 2): 1}),
        ("f", 0, None, {(2, 1): 1}),
        ("a", 1, None, {(1, 0): 1, (0, 2): 1}),
        ("b", 1, None, {(2, 0): 1, (0, 1): -1}),
    ])


def gl(m, n):
    """gl(m|n) on its matrix units, even units first."""
    parity = [0] * m + [1] * n
    units = sorted(((i, j) for i in range(m + n) for j in range(m + n)),
                   key=lambda ij: (parity[ij[0]] ^ parity[ij[1]], ij))
    return matrix_superalgebra(f"gl({m}|{n})", [
        (f"e{i + 1}{j + 1}", parity[i] ^ parity[j], None, {(i, j): 1})
        for i, j in units])


def gl21():
    return gl(2, 1)


PRESENTATIONS = {
    "pl11": lambda: load_session("pl11").pres,
    "pl11-bosonized": lambda: load_session("pl11-bosonized").pres,
    "b-bosonized": lambda: load_session("b-bosonized").pres,
    "osp(1|2)": lambda: enveloping(osp12()).carrier,
    "gl(2|1)": lambda: enveloping(gl21()).carrier,
}


def cold_copy(pres):
    """``pres`` with an empty product memo."""
    return AlgebraPresentation(pres.generators, pres.rules, mode=pres.mode, name=pres.name)


def cold_pl11_bosonized():
    """pl11-bosonized with empty tables (building a session fills them)."""
    return cold_copy(load_session("pl11-bosonized").pres)


def test_osp12_has_nonzero_odd_squares():
    pres = PRESENTATIONS["osp(1|2)"]()
    assert pres.normalize(["a", "a"]) == pres.gen("e")
    assert pres.normalize(["b", "b"]) == -pres.gen("f")


@pytest.mark.parametrize("name", sorted(PRESENTATIONS))
def test_products_match_the_word_rewriter(name):
    pres = PRESENTATIONS[name]()
    assert check_overlaps(pres).confluent
    monomials = pres.enumerate_monomials(4)
    rng = random.Random(2024)
    for _ in range(150):
        m1, m2 = rng.choice(monomials), rng.choice(monomials)
        want = rewrite(pres, pres.monomial_letters(m1) + pres.monomial_letters(m2))
        assert pres.mul_monomials(m1, m2) == want, (m1, m2)
    for _ in range(60):
        word = [rng.randrange(pres.n) for _ in range(rng.randint(0, 6))]
        assert pres.normalize(word).coeffs == rewrite(pres, word), word
    # a single letter on either side: g*h^k folds h^k into g, h^k*g folds g
    for g in range(pres.n):
        letter = pres.normalize([g])
        for h in range(pres.n):
            for k in range(9):
                power = pres.normalize([h] * k)
                assert (letter * power).coeffs == rewrite(pres, [g] + [h] * k), (g, h, k)
                assert (power * letter).coeffs == rewrite(pres, [h] * k + [g]), (h, k, g)


@pytest.mark.parametrize("name", ["gl(2|1)", "osp(1|2)"])
def test_cold_products_match_the_word_rewriter(name):
    # every product on an empty memo: single-letter and multi-letter misses
    pres = PRESENTATIONS[name]()
    monomials = pres.enumerate_monomials(3)
    letters = [m for m in monomials if sum(m) == 1]
    rng = random.Random(17)
    missed = set()
    for _ in range(150):
        m1 = rng.choice(monomials)
        m2 = rng.choice(letters if rng.random() < 0.5 else monomials)
        cold = cold_copy(pres)
        want = rewrite(pres, pres.monomial_letters(m1) + pres.monomial_letters(m2))
        assert cold.mul_monomials(m1, m2) == want, (m1, m2)
        if (m1, m2) in cold._mul_cache:
            missed.add(sum(m2) == 1)
    assert missed == {True, False}


def test_u_times_a_high_power_of_y_is_binomial():
    pres = load_session("pl11-bosonized").pres
    n = 200
    got = pres.gen("u") * pres.monomial_element(pres.monomial(y=n))
    want = pres.element({pres.monomial(y=k, u=1): comb(n, k) * (-1) ** (n - k)
                         for k in range(n + 1)})
    assert got == want


def test_the_table_grows_linearly_with_a_long_power():
    # each entry (y, y^j*u) holds y^(j+1)*u - y^j*u
    pres = cold_pl11_bosonized()
    n = 200
    pres.mul_monomials(pres.monomial(u=1), pres.monomial(y=n))
    assert sum(len(v) for (_, g), v in pres._mul_cache.items() if sum(g) == 1) <= 3 * n


def test_a_sorted_product_is_stored_once_and_powers_store_nothing():
    pres = cold_pl11_bosonized()
    power = pres.normalize(["y"] * 20000)  # sorted joins inside a fold are not memo entries
    assert power == pres.monomial_element(pres.monomial(y=20000))
    assert not pres._mul_cache
    assert pres.gen("y") ** 20000 == power  # in closed form, with no product
    assert not pres._mul_cache
    m1, m2 = pres.monomial(x=3), pres.monomial(y=2, t=1)
    product = pres.mul_monomials(m1, m2)
    assert product == {pres.monomial(x=3, y=2, t=1): 1}
    assert pres._mul_cache == {(m1, m2): product}
    assert pres.mul_monomials(m1, m2) is product
    assert len(pres._mul_cache) == 1


@pytest.mark.parametrize("path", ["Element.__mul__", "tensor_mul", "fold_mul"])
def test_every_product_goes_through_mul_monomials(path, monkeypatch):
    # a counter on the class attribute, as a tracer installs it, sees them all
    pres = load_session("pl11").pres
    mul, calls = AlgebraPresentation.mul_monomials, []

    def counted(self, m1, m2):
        calls.append((m1, m2))
        return mul(self, m1, m2)

    monkeypatch.setattr(AlgebraPresentation, "mul_monomials", counted)
    um, ym = pres.monomial(u=1), pres.monomial(y=1)
    u, y = pres.monomial_element(um), pres.monomial_element(ym)
    uy = pres.normalize(["u", "y"])
    product, want, n = {
        "Element.__mul__": (lambda: u * y, uy, 1),
        "tensor_mul": (lambda: u.outer(u).tensor_mul(y.outer(y)), uy.outer(uy), 2),
        "fold_mul": (lambda: u.outer(y).fold_mul(), uy, 1),
    }[path]
    calls.clear()
    assert product() == want
    assert calls == [(um, ym)] * n


def test_a_product_whose_terms_cancel_stores_no_zero():
    pres = load_session("pl11-bosonized").pres
    one, x, u, t = pres.one(), pres.gen("x"), pres.gen("u"), pres.gen("t")
    square = (x + u) * (x - u)  # x*u and u*x cancel
    assert square.coeffs == {pres.monomial(x=2): 1}
    assert ((one + t) * (one - t)).coeffs == {}  # t^2 = 1: every term cancels


@pytest.mark.parametrize("name, m1, m2", [
    ("gl(2|1)", {"e23": 1, "e32": 1}, {"e13": 1}),  # a single-letter miss
    ("gl(2|1)", {"e31": 1, "e32": 1}, {"e12": 1, "e23": 1}),  # a multi-letter one
    ("pl11-bosonized", {"u": 1}, {"y": 20}),
])
def test_a_cold_product_fills_each_entry_once_below_its_degree(name, m1, m2):
    # why rewriting ends: no key is filled twice, none has a higher degree
    pres = PRESENTATIONS[name]()
    m1, m2 = pres.monomial(**m1), pres.monomial(**m2)
    cold = cold_copy(pres)
    entry, filled = cold._entry, []

    def counted(m, g):
        filled.append((m, g))
        return entry(m, g)

    cold._entry = counted
    assert cold.mul_monomials(m1, m2) == pres.mul_monomials(m1, m2)
    assert filled and len(set(filled)) == len(filled)
    assert all(key in cold._mul_cache for key in filled)
    assert all(sum(m) + sum(g) <= sum(m1) + sum(m2) for m, g in filled)


def test_a_single_letter_product_is_stored_once():
    pres = cold_pl11_bosonized()
    pres.mul_monomials(pres.monomial(v=1), pres.monomial(u=1))
    memos = [v for k, v in vars(pres).items() if k.endswith("_cache")]
    assert sum(len(memo) for memo in memos) == 1


def test_rewriting_cycle_raises():
    # b*a -> 2*a^2 - b^2 rewrites b*a*a back into a multiple of b*a*a
    gens = [Generator("a", 0, 0), Generator("b", 0, 1)]
    pres = AlgebraPresentation(gens, {(1, 0): {(2, 0): Fraction(2), (0, 2): Fraction(-1)}},
                               name="looping")
    with pytest.raises(NonTerminationError, match="rewriting cycle"):
        pres.normalize(["b", "a", "a"])
    # b^2*a reaches the cycle through its own table entry
    cold = cold_copy(pres)
    with pytest.raises(NonTerminationError, match="rewriting cycle"):
        cold.mul_monomials((0, 2), (1, 0))
    assert ((0, 2), (1, 0)) not in cold._mul_cache


def test_a_cap_of_one_rewrites_a_single_letter():
    gens = [Generator("s", 0, 0), Generator("a", 0, 1)]
    rules = {(1, 0): {(0, 1): Fraction(-1)}, (0,): {(0, 0): Fraction(-1)}}  # s -> -1
    pres = AlgebraPresentation(gens, rules, name="scalar-s")
    assert pres.normalize(["a", "s", "a"]) == pres.element({(0, 2): Fraction(-1)})
    # the oracle rewrites a lone s too, also as the last letter of a word
    for word in ([0], [1, 0], [0, 1, 0], [1, 1, 0, 0]):
        assert pres.normalize(word).coeffs == rewrite(pres, word), word


@pytest.mark.parametrize("name", ["pl11-bosonized", "gl(2|1)", "osp(1|2)", "corrupted"])
def test_a_product_whose_prefix_is_memoized_folds_only_the_rest(name):
    # m2 = r*k^e, k its last letter: once m1*r is memoized, m1*m2 folds only
    # k^e into that memo entry, once m1*(m2 less one k) is, only k, and a
    # power k^e stops at the table entry m1*k; with every entry memoized it
    # fills no entry, so no stack is built; and it equals the full fold on a
    # fresh memo, even where the rules are not confluent
    if name == "corrupted":
        pres = corrupted_pl11_bosonized(load_session("pl11-bosonized").pres)
    else:
        pres = PRESENTATIONS[name]()
    monomials = [m for m in pres.enumerate_monomials(3) if any(m)]
    rights = [m for m in monomials if sum(m) >= 2]
    rng = random.Random(31)

    def forbidden(*args):
        raise AssertionError("an entry filled though every entry is memoized")

    folded = 0
    for _ in range(120):
        m1, m2 = rng.choice(monomials), rng.choice(rights)
        k = max(i for i, e in enumerate(m2) if e)
        word = pres.monomial_letters(m1) + pres.monomial_letters(m2)
        want = cold_copy(pres).normalize(word).coeffs
        if name != "corrupted":
            assert want == rewrite(pres, word)
        for d in {m2[k], 1}:
            prefix = m2[:k] + (m2[k] - d,) + m2[k + 1:]
            r = prefix if any(prefix) else m2[:k] + (1,) + m2[k + 1:]
            warm = cold_copy(pres)
            warm.mul_monomials(m1, prefix)
            fold, folds = warm._fold, []

            def recording(letters, terms):
                folds.append((letters, terms))
                return fold(letters, terms)

            warm._fold = recording
            assert warm.mul_monomials(m1, m2) == want, (m1, m2)
            if folds:  # not a sorted join: one fold of k^(m2[k] - r[k]) into the memo of m1*r
                start = warm._mul_cache[(m1, r)]
                assert [letters for letters, terms in folds if terms is start] == [(k,) * (m2[k] - r[k])]
                assert all(len(terms) == 1 for _, terms in folds if terms is not start)  # rule right sides
                folded += 1
            del warm._mul_cache[(m1, m2)]
            warm._entry = forbidden
            assert warm.mul_monomials(m1, m2) == want, (m1, m2)
    assert folded >= 90


def test_a_long_run_adds_one_memo_entry_per_letter_group():
    # u*(x*y^n): the entry u*x, the table of m*y, and the product itself;
    # no product per prefix x*y^j of the run y^n
    counts = []
    for n in (100, 200, 400):
        pres = cold_pl11_bosonized()
        m1, m2 = pres.monomial(u=1), pres.monomial(x=1, y=n)
        pres.mul_monomials(m1, m2)
        assert [key for key in pres._mul_cache if sum(key[1]) != 1] == [(m1, m2)]
        counts.append(len(pres._mul_cache))
    assert counts[2] - counts[1] == 2 * (counts[1] - counts[0]) <= 2 * 101


def test_a_one_term_product_is_the_memo_entry_and_nothing_changes_it():
    pres = cold_pl11_bosonized()
    m1, m2 = pres.monomial(u=1), pres.monomial(x=1, y=3)
    u, xy3 = pres.monomial_element(m1), pres.monomial_element(m2)
    product = u * xy3
    entry = pres._mul_cache[(m1, m2)]
    assert product.coeffs is entry
    before = dict(entry)
    scaled = (2 * u) * (Fraction(1, 2) * xy3)  # coefficients that multiply to 1
    assert scaled.coeffs is entry
    assert ((-u) * xy3).coeffs == {m: -c for m, c in before.items()}
    for result in (product + product, product - u, -product, 3 * product, product * product,
                   product * u, u * product, product ** 2, product.outer(product)):
        assert result.coeffs is not entry
    assert entry == before and pres._mul_cache[(m1, m2)] is entry


def test_a_power_closes_at_its_first_partial_power_with_a_closed_form():
    # (u+v)^2 = x is central and uncapped, so (u+v)^n = x^(n//2) * (u+v)^(n%2);
    # t^2 = 1 is a scalar; (t*u)^2 = 0; t^n has no closed form past t's cap
    pres = cold_pl11_bosonized()
    u, v, x, t, y = (pres.gen(g) for g in "uvxty")
    for a in (u + v, t, t * u, 2 * t, x + 2 * t, y + u, 3 * y * u, pres.one() + t):
        power = pres.one()
        for n in range(10):
            assert a ** n == power, (a, n)
            power = power * a
    n = 99999999999
    assert (u + v) ** n == x ** (n // 2) * (u + v) == pres.element(
        {pres.monomial(x=n // 2, u=1): 1, pres.monomial(x=n // 2, v=1): 1})
    assert (3 * y) ** 4 == 81 * y ** 4 and t ** n == t and (t * u) ** n == pres.element({})
