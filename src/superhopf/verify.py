"""Certificate-producing checks for Hopf axioms, adjoint actions, normality,
biproduct decompositions, module finiteness, growth obstructions, and
growth-adjacent identities.

Every check returns a :class:`CertificateReport`; a report is deterministic
given its inputs, parameters, and seed, and failures carry explicit
witnesses.

A Hopf-axiom PASS rests on a proof from the rule table when the gates of
:meth:`HopfStructureMaps.rule_facts` hold: the carrier is confluent, the
structure maps the axiom uses respect every rule, and the axiom holds on
the generators.  Otherwise the check sums both sides on each element or
pair of its test set, and is a sampled test.  No parameter chooses the
path, and the report does not depend on it: a proved PASS is the report
the sums would give.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, Optional, Sequence

from .algebra import AlgebraPresentation, Element, TensorElement, monomial_key
from .errors import AlgebraError, DegreeBudgetError
from .hopf import BosonizedAlgebra, HopfStructureMaps
from .growth import FiltrationClosure, growth_series
from .linalg import RowSpace, accumulate, kernel_basis

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


@dataclass
class CertificateReport:
    check_name: str
    status: str
    inputs: str = ""
    witnesses: list = field(default_factory=list)  # (input, expected, actual)
    parameters: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def add_witness(self, item, expected, actual):
        self.witnesses.append((str(item), str(expected), str(actual)))
        self.status = FAIL


def render_reports(reports: Sequence[CertificateReport]) -> str:
    """Line-oriented report: one CHECK header per check, indented witnesses."""
    lines = []
    for rep in reports:
        lines.append(f"CHECK {rep.check_name} {rep.status.upper()}")
        if rep.inputs:
            lines.append(f"    inputs: {rep.inputs}")
        for item, expected, actual in rep.witnesses:
            lines.append(f"    witness: {item} expected {expected} got {actual}")
        if rep.parameters:
            params = " ".join(f"{k}={rep.parameters[k]}" for k in sorted(rep.parameters))
            lines.append(f"    params: {params}")
    return "\n".join(lines) + "\n"


def render_summary(reports: Sequence[CertificateReport], extra: dict) -> str:
    """Machine-readable key-value summary: the ``extra`` pairs, then one status
    line per report, sorted by check name."""
    lines = [f"{k}={extra[k]}" for k in sorted(extra)]
    for rep in sorted(reports, key=lambda r: r.check_name):
        lines.append(f"check.{rep.check_name}={rep.status.upper()}")
    return "\n".join(lines) + "\n"


# -- sampling -------------------------------------------------------------------


def random_element(pres: AlgebraPresentation, rng: random.Random,
                   max_degree: int, max_terms: int = 3,
                   monomials=None) -> Element:
    """A nonzero element with 1..max_terms monomials of degree <= max_degree.

    Coefficients are nonzero integers in [-3, 3]; monomials are uniform over
    the degree-bounded normal basis.  Deterministic given the rng state.
    """
    if monomials is None:
        monomials = pres.enumerate_monomials(max_degree)
    n_terms = rng.randint(1, max_terms)
    out = {}
    for _ in range(n_terms):
        m = monomials[rng.randrange(len(monomials))]
        accumulate(out, {m: 1}, rng.choice((-3, -2, -1, 1, 2, 3)))
    if not out:
        m = monomials[rng.randrange(len(monomials))]
        out[m] = 1
    return Element(pres, out)


def random_dense_element(pres: AlgebraPresentation, rng: random.Random,
                         max_degree: int, monomials=None) -> Element:
    """A generic element: every monomial of the bounded basis gets a
    coefficient drawn from the integers in [-3, 3]; resampled if zero.

    A coefficient is three random bits, drawn again while they read 7, less
    3.  That is the stream ``rng.randint(-3, 3)`` draws in CPython 3.10 and
    3.11, whose ``randint`` takes the same bits through the private
    ``_randbelow``, so a seeded report keeps the bytes it had with
    ``randint`` there; ``tests/test_leading_monomials.py`` checks the match
    on the running interpreter.  The draw itself uses only the public
    ``getrandbits``.  ``randint`` is not called because of its per-call
    overhead: the zero-divisor scan of ``check all`` on pl11-bosonized took
    10.0 ms with it and 2.4 ms with the bits drawn here.  The keys keep the
    order of ``monomials``, so with the sorted default the last key is the
    leading monomial.
    """
    if monomials is None:
        monomials = pres.enumerate_monomials(max_degree)
    bits = rng.getrandbits
    while True:
        out = {}
        for m in monomials:
            r = bits(3)
            while r == 7:
                r = bits(3)
            if r != 3:
                out[m] = r - 3
        if out:
            return Element(pres, out)


# -- Hopf axioms ------------------------------------------------------------------


def _axiom_report(H: HopfStructureMaps, axiom, inputs, parameters, sampled,
                  count_key="elements") -> CertificateReport:
    """The report of ``axiom`` on ``inputs``, elements or, counted as
    ``"pairs"``, pairs of them.  When :meth:`HopfStructureMaps.rule_facts`
    proves the axiom on the whole carrier it is PASS once every input is
    found to lie in the carrier; otherwise ``sampled(H, inputs, rep)`` sums
    both sides on each input, adds a witness where they differ and returns
    the count of inputs.  The report is the same either way."""
    rep = CertificateReport(axiom, PASS, parameters=dict(parameters or {}))
    if H.rule_facts().proves(axiom):
        count, same = 0, H.carrier._require_same
        for item in inputs:
            count += 1
            for a in (item if count_key == "pairs" else (item,)):
                same(a.alg)
    else:
        count = sampled(H, inputs, rep)
    rep.parameters[count_key] = count
    return rep


def check_coassociativity(H: HopfStructureMaps, test_set: Iterable[Element],
                          parameters=None) -> CertificateReport:
    """(Delta (x) id) Delta == (id (x) Delta) Delta on the test set.

    A PASS is proved from the rules when the rule facts hold (Delta an
    algebra map, the axiom on the generators); otherwise both sides are
    summed on each element."""
    return _axiom_report(H, "coassociativity", test_set, parameters,
                         _sampled_coassociativity)


def _sampled_coassociativity(H, test_set, rep):
    count = 0
    for a in test_set:
        count += 1
        left, right = H.coassociativity_sides(a)
        if left != right:
            rep.add_witness(a, "(Delta(x)id)Delta = (id(x)Delta)Delta",
                            f"{TensorElement(H.carrier, 3, left)} vs "
                            f"{TensorElement(H.carrier, 3, right)}")
    return count


def check_counit(H: HopfStructureMaps, test_set: Iterable[Element],
                 parameters=None) -> CertificateReport:
    """(eps (x) id) Delta == id == (id (x) eps) Delta on the test set.

    A PASS is proved from the rules when the rule facts hold (Delta and eps
    algebra maps, the axiom on the generators); otherwise both sides are
    summed on each element."""
    return _axiom_report(H, "counit", test_set, parameters, _sampled_counit)


def _sampled_counit(H, test_set, rep):
    count = 0
    for a in test_set:
        count += 1
        for side in H.counit_sides(a):
            if side != a.coeffs:
                rep.add_witness(a, a, Element(H.carrier, side))
    return count


def check_antipode(H: HopfStructureMaps, test_set: Iterable[Element],
                   parameters=None) -> CertificateReport:
    """m(S (x) id) Delta == eps(.) 1 == m(id (x) S) Delta on the test set.

    A PASS is proved from the rules when the rule facts hold (Delta and eps
    algebra maps, S an anti-algebra map, the axiom on the generators);
    otherwise both sides are summed on each element."""
    return _axiom_report(H, "antipode", test_set, parameters, _sampled_antipode)


def _sampled_antipode(H, test_set, rep):
    count, one = 0, H.carrier.one()
    for a in test_set:
        count += 1
        target = H.counit(a) * one
        for side in H.antipode_sides(a):
            if side != target.coeffs:
                rep.add_witness(a, target, Element(H.carrier, side))
    return count


def check_bialgebra(H: HopfStructureMaps, pair_set, parameters=None) -> CertificateReport:
    """Delta(ab) == Delta(a) Delta(b), the tensor product signed by the carrier's mode.

    A PASS is proved from the rules when Delta respects every rule of a
    confluent carrier; otherwise both sides are formed on each pair."""
    return _axiom_report(H, "bialgebra", pair_set, parameters, _sampled_bialgebra, "pairs")


def _sampled_bialgebra(H, pair_set, rep):
    count, deltas = 0, {}  # id(x) -> (x, Delta(x)): x stays alive, so its id is not reused
    for a, b in pair_set:
        count += 1
        for x in (a, b):  # pair sets list each factor object in many pairs
            if id(x) not in deltas:
                deltas[id(x)] = x, H.coproduct(x)
        left = H.coproduct(a * b)
        right = deltas[id(a)][1] * deltas[id(b)][1]
        if left != right:
            rep.add_witness(f"({a}, {b})", left, right)
    return count


def hopf_axiom_suite(H: HopfStructureMaps, n_random: int = 100,
                     seed: int = 0) -> list:
    """The four Hopf-axiom checks on a standard test set, named ``hopf.*``.

    Test set: all generators, all monomials of degree <= 3, and n_random
    seeded random elements of degree <= 4.  The bialgebra check runs on
    generator pairs, monomial pairs of total degree <= 4, and consecutive
    random pairs, formed as the check reads them.  A check whose rule facts
    hold only counts its test set; the others sum on it.
    """
    monomial_degree, random_degree = 3, 4
    pres = H.carrier
    rng = random.Random(seed)
    gens = [pres.gen(g.name) for g in pres.generators]
    monomials = [pres.monomial_element(m) for m in pres.enumerate_monomials(monomial_degree)]
    basis = pres.enumerate_monomials(random_degree)
    randoms = [random_element(pres, rng, random_degree, monomials=basis)
               for _ in range(n_random)]
    test_set = gens + monomials + randoms
    # basis is sorted degree first, so the partners of m are a prefix of it
    by_degree = [pres.monomial_element(m) for m in basis]
    pairs = chain(((a, b) for a in gens for b in gens),
                  ((a, b) for m, a in zip(basis, by_degree)
                   for b in islice(by_degree,
                                   bisect_right(basis, random_degree - sum(m), key=sum))),
                  zip(randoms, randoms[1:]))
    params = {"monomialDegree": monomial_degree, "randomElements": n_random,
              "randomDegree": random_degree, "seed": seed, "algebra": pres.name}
    reports = [
        check_coassociativity(H, test_set, params),
        check_counit(H, test_set, params),
        check_antipode(H, test_set, params),
        check_bialgebra(H, pairs, params),
    ]
    for rep in reports:
        rep.check_name = f"hopf.{rep.check_name}"
    return reports


# -- adjoint actions -----------------------------------------------------------------


def adjoint_left(H: HopfStructureMaps, a: Element, b: Element) -> Element:
    """(ad_l a)(b) = sum a1 * b * S(a2)."""
    return _adjoint(H, a, b, left=True)


def adjoint_right(H: HopfStructureMaps, a: Element, b: Element) -> Element:
    """(ad_r a)(b) = sum S(a1) * b * a2."""
    return _adjoint(H, a, b, left=False)


def _adjoint(H: HopfStructureMaps, a: Element, b: Element, left: bool) -> Element:
    """The sum of ``c * x*b*y`` over the terms ``c*m1 (x) m2`` of Delta(a),
    with ``(x, y) = (m1, S(m2))`` on the left and ``(S(m1), m2)`` on the
    right: each monomial product a memoized
    :meth:`AlgebraPresentation.mul_monomials`, each added in place as
    :func:`linalg.accumulate` would add, with no element in between."""
    mul, antipode = H.carrier.mul_monomials, H.antipode_monomial
    out = {}
    get = out.get
    for (m1, m2), c in H.coproduct(a).items():
        xs, ys = (((m1, c),), antipode(m2).items()) if left else \
            (antipode(m1).items(), ((m2, c),))
        for x, cx in xs:
            for mb, cb in b.items():
                for z, cz in mul(x, mb).items():
                    cz *= cx * cb
                    for y, cy in ys:
                        for w, cw in mul(z, y).items():
                            if new := get(w, 0) + cz * cy * cw:
                                out[w] = new
                            else:
                                del out[w]
    return Element(H.carrier, out)


def check_ad_equals_bracket(g, B: BosonizedAlgebra) -> CertificateReport:
    """The left adjoint action restricted to Lie generators is the bracket."""
    rep = CertificateReport("ad-equals-bracket", PASS,
                            parameters={"algebra": B.carrier.name})
    pres = B.carrier
    for i in range(g.n):
        for j in range(g.n):
            a = pres.gen(g.basis[i].name)
            b = pres.gen(g.basis[j].name)
            ad = adjoint_left(B.hopf, a, b)
            terms = {}
            for k, c in enumerate(g.table[i][j]):
                if c:
                    accumulate(terms, pres.gen(g.basis[k].name).coeffs, c)
            bracket = Element(pres, terms)
            if ad != bracket:
                rep.add_witness(f"({g.basis[i].name},{g.basis[j].name})", bracket, ad)
    rep.parameters["pairs"] = g.n * g.n
    return rep


# -- spanned subalgebras and normality --------------------------------------------------


def is_normal(B: BosonizedAlgebra, gens: Sequence[Element],
              degree_bound: int) -> CertificateReport:
    """Stability of A = <gens> under both adjoint actions of every generator.

    A is closed to degree_bound + 2 (generator degree 1 plus the degree the
    antipode can add before normalization).
    """
    pres = B.carrier
    A = FiltrationClosure(pres, gens).extend_to(degree_bound + 2)
    rep = CertificateReport("normality", PASS,
                            inputs=f"sub=<{', '.join(str(g) for g in A.gens)}>",
                            parameters={"degreeBound": degree_bound,
                                        "algebra": pres.name})
    basis = A.basis_up_to(degree_bound)
    for gen in pres.generators:
        h = pres.gen(gen.name)
        for a in basis:
            la = adjoint_left(B.hopf, h, a)
            if not A.contains(la):
                rep.add_witness(f"ad_l({gen.name})({a})", "membership", la)
            ra = adjoint_right(B.hopf, h, a)
            if not A.contains(ra):
                rep.add_witness(f"ad_r({gen.name})({a})", "membership", ra)
    rep.parameters["actionsChecked"] = 2 * len(pres.generators) * len(basis)
    return rep


# -- grouplikes and skew primitives --------------------------------------------------


def check_grouplike(H: HopfStructureMaps, candidate: Element) -> bool:
    """Delta(c) == c (x) c and eps(c) == 1."""
    return (H.coproduct(candidate) == candidate.outer(candidate)
            and H.counit(candidate) == 1)


def find_skew_primitives(B: BosonizedAlgebra, grouplike: Element,
                         degree_bound: int):
    """Basis of {p : Delta(p) = p (x) 1 + g (x) p} within degree <= bound.

    Solved as an exact linear system over the normal monomials of bounded
    degree; returns a row-reduced list of elements.  A column is a copy of
    the memoized ``Delta(m)`` less ``m (x) 1``, then less ``g (x) m``: one
    key at ``g = m = 1``.
    """
    H = B.hopf
    if not check_grouplike(H, grouplike):
        raise AlgebraError(f"{grouplike} is not grouplike")
    pres = B.carrier
    unit = pres.unit_monomial()
    columns, images = [], []
    for m in pres.enumerate_monomials(degree_bound):
        defect = dict(H.delta_monomial(m).coeffs)
        accumulate(defect, {(m, unit): 1}, -1)
        accumulate(defect, {(mg, m): c for mg, c in grouplike.items()}, -1)
        columns.append(defect)
        images.append({m: 1})
    basis = kernel_basis(columns, images, monomial_key)
    return [Element(pres, row) for row in basis]


# -- biproduct decomposition -----------------------------------------------------------


def biproduct_decomposition(B: BosonizedAlgebra, gens: Sequence[Element],
                            degree_bound: int) -> CertificateReport:
    """Certify A = (A `intersect` U) # K degreewise for A generated by ``gens``.

    A is spanned with every generator that is a multiple of the grouplike t
    given filtration weight zero, which is the grading under which the
    group algebra factor exactly doubles each level; ``gens`` must hold
    one.  A's row space orders every t-monomial first, so a row with a
    t-free pivot is t-free, and those rows span A_n `intersect` U: the
    t-free dimension, the reduced basis of the t-free part and the
    membership tests are all read off that one space.  Checks: dim A_n
    equals twice the t-free dimension at every cached level, and the
    t-free part is closed under the coproduct (tensor-factor marginals stay
    in the part) and under the super antipode, and consists of
    coinvariants.  Closure under products is not checked: A `intersect` U
    is an intersection of two subalgebras.
    """
    pres = B.carrier
    rep = CertificateReport("biproduct", PASS,
                            inputs=f"sub=<{', '.join(str(g) for g in gens)}>",
                            parameters={"degreeBound": degree_bound,
                                        "algebra": pres.name})
    weights = [0 if g.coeffs.keys() == B.t().coeffs.keys() else 1 for g in gens]
    if all(weights):
        raise AlgebraError("biproduct decomposition needs a multiple of t as a generator")
    t_index = B.t_index
    A = FiltrationClosure(pres, gens, weights, order=lambda m: (not m[t_index], sum(m), m))
    A.extend_to(degree_bound)
    dim = 0
    for n, level in enumerate(A.levels):
        dim += sum(1 for e in level if not any(m[t_index] for m in e.coeffs))
        if A.dims[n] != 2 * dim:
            rep.add_witness(f"dim A_{n}", f"2*dim(A cap U)_{n} = {2 * dim}", A.dims[n])
    # the t-free reduced rows are A cap U's reduced basis under monomial_key;
    # a t-free vector reduces by them alone, so A tests membership in A cap U
    inner = [Element(pres, row)
             for row in A.space.reduced_basis(lambda p: not p[t_index])]

    # closure under the super coproduct of the plain enveloping part (the
    # t-free part is a subcoalgebra of U, not of the smash product, whose
    # coproduct puts t-letters in the left legs); membership of a tensor in
    # span (x) span is equivalent to both marginal families lying in span
    Q = B.u_maps.carrier
    for a in inner:
        d = B.u_maps.coproduct(B.restrict_to_u(a))
        left, right = {}, {}
        for (m1, m2), c in d.items():
            accumulate(left.setdefault(m2, {}), {m1: c})
            accumulate(right.setdefault(m1, {}), {m2: c})
        for side, marginals in (("left", left), ("right", right)):
            for m in sorted(marginals, key=monomial_key):
                marginal = B.include_from_u(Element(Q, marginals[m]))
                if not A.contains(marginal):
                    rep.add_witness(f"Delta_U({a}) {side} marginal at {Q.monomial_element(m)}",
                                    "in A cap U", marginal)

    # antipode closure, using the super antipode of the plain enveloping part
    for a in inner:
        restricted = B.restrict_to_u(a)
        s_u = B.include_from_u(B.u_maps.antipode(restricted))
        if not A.contains(s_u):
            rep.add_witness(f"S_U({a})", "in A cap U", s_u)

    # the t-free part consists of coinvariants
    for a in inner:
        if not B.is_coinvariant(a):
            rep.add_witness(a, "coinvariant", "not coinvariant")

    rep.parameters["innerDimension"] = len(inner)
    return rep


# -- module finiteness and growth obstructions -------------------------------------------


def module_finite_check(P: AlgebraPresentation, sub_gens: Sequence[Element],
                        module_gens: Sequence[Element], side: str,
                        n_max: int) -> CertificateReport:
    """Every monomial of degree <= n_max lies in span(sub * module gens).

    ``side`` selects left (subalgebra elements on the left) or right.  The
    subalgebra is spanned to degree n_max before multiplying by the module
    generators, which covers the PBW factorizations used here.  The first
    ten monomials outside the span are the witnesses.
    """
    if side not in ("left", "right"):
        raise AlgebraError("side must be 'left' or 'right'")
    rep = CertificateReport(f"module-finite.{side}", PASS,
                            inputs=f"sub=<{', '.join(str(g) for g in sub_gens)}> "
                                   f"gens=<{', '.join(str(g) for g in module_gens)}>",
                            parameters={"nMax": n_max, "algebra": P.name})
    closure = FiltrationClosure(P, sub_gens).extend_to(n_max)
    span = RowSpace(monomial_key)
    for s in closure.basis_up_to(n_max):
        for m in module_gens:
            prod = s * m if side == "left" else m * s
            span.insert(prod.coeffs)
    for mono in P.enumerate_monomials(n_max):  # sorted degree first, as the witnesses go
        if not span.contains({mono: 1}):
            rep.add_witness(P.monomial_element(mono),
                            "in subalgebra * module generators", "outside")
            if len(rep.witnesses) == 10:
                break
    return rep


def growth_obstruction(P: AlgebraPresentation, sub_gens: Sequence[Element],
                       n_max: int) -> CertificateReport:
    """Compare detected growth degrees of a subalgebra and the full algebra.

    Strictly smaller subalgebra growth obstructs module-finiteness of the
    algebra over the subalgebra (equal growth is necessary).  Status 'pass'
    when the obstruction is certified, 'fail' when there is no obstruction,
    'inconclusive' when a window did not stabilize.
    """
    full_gens = [P.gen(g.name) for g in P.generators]
    full = growth_series(P, full_gens, n_max)
    sub = growth_series(P, sub_gens, n_max)
    params = {"nMax": n_max, "algebra": P.name,
              "subDegree": sub.detected_degree, "fullDegree": full.detected_degree}
    rep = CertificateReport("growth-obstruction", PASS,
                            inputs=f"sub=<{', '.join(str(g) for g in sub_gens)}>",
                            parameters=params)
    if not full.stabilized or not sub.stabilized:
        rep.status = INCONCLUSIVE
        rep.parameters["note"] = "growth window did not stabilize"
        return rep
    if sub.detected_degree < full.detected_degree:
        rep.parameters["obstruction"] = (f"{sub.detected_degree} < "
                                         f"{full.detected_degree}")
    else:
        rep.status = FAIL
        rep.parameters["obstruction"] = (f"none ({sub.detected_degree} >= "
                                         f"{full.detected_degree})")
    return rep


# -- identities from the eigenvector calculus ------------------------------------------


def check_shift_identity(B: BosonizedAlgebra, w: Element, n_max: int,
                         h: Element) -> CertificateReport:
    """For an ad(h)-eigenvector w of eigenvalue +-1: h^n w == w (h +- 1)^n."""
    pres = B.carrier
    commutator = h * w - w * h
    eigenvalue = None
    for lam in (1, -1):
        if commutator == lam * w:
            eigenvalue = lam
            break
    if eigenvalue is None:
        raise AlgebraError(f"{w} is not an ad({h})-eigenvector of eigenvalue +-1")
    rep = CertificateReport("shift-identity", PASS,
                            inputs=f"w={w} eigenvalue={eigenvalue}",
                            parameters={"nMax": n_max, "algebra": pres.name})
    shifted = h + eigenvalue * pres.one()
    left = right = w  # h^n w and w (h +- 1)^n, one factor more per step
    for n in range(n_max + 1):
        if left != right:
            rep.add_witness(f"n={n}", right, left)
        if n < n_max:
            left, right = h * left, right * shifted
    return rep


# -- nilpotency and zero divisors ---------------------------------------------------


def ideal_span(P: AlgebraPresentation, ideal_gens: Sequence[Element],
               degree_bound: int) -> list:
    """A spanning set of the two-sided ideal up to the degree bound: the
    closure of the nonzero generators under one-sided multiplication by the
    algebra generators, one element per rank it adds."""
    seeds = [g for g in ideal_gens if not g.is_zero]
    for g in seeds:
        if g.degree() > degree_bound:
            raise DegreeBudgetError(
                f"ideal generator {g} exceeds the degree bound {degree_bound}")
    space = RowSpace(monomial_key)
    basis = []
    frontier = []
    for g in seeds:
        if space.insert(g.coeffs) is not None:
            basis.append(g)
            frontier.append(g)
    algebra_gens = [P.gen(g.name) for g in P.generators]
    while frontier:
        new_frontier = []
        for e in frontier:
            for g in algebra_gens:
                for prod in (e * g, g * e):
                    if prod.is_zero or prod.degree() > degree_bound:
                        continue
                    if space.insert(prod.coeffs) is not None:
                        basis.append(prod)
                        new_frontier.append(prod)
        frontier = new_frontier
    return basis


def check_nilpotent_ideal(P: AlgebraPresentation, ideal_gens: Sequence[Element],
                          power: int, degree_bound: int) -> CertificateReport:
    """Products of `power` elements of :func:`ideal_span` all vanish.

    The index words of length `power` are walked in lexicographic order on
    an explicit stack, and a prefix whose product is already zero is not
    extended; the first five words with a nonzero product are the witnesses.
    """
    rep = CertificateReport("nilpotency", PASS,
                            inputs=f"ideal=<{', '.join(str(g) for g in ideal_gens)}>",
                            parameters={"power": power, "degreeBound": degree_bound,
                                        "algebra": P.name})
    basis = ideal_span(P, ideal_gens, degree_bound)
    rep.parameters["spanDimension"] = len(basis)
    word, prods, i = [], [P.one()], 0  # prods[k]: product of the first k of word
    while len(rep.witnesses) < 5:  # enough witnesses to be useful
        if len(word) == power:
            rep.add_witness("*".join(f"[{k}]" for k in word), P.zero(), prods[-1])
            i = len(basis)
        if i == len(basis):  # every extension of word is done: backtrack
            if not word:
                break
            i = word.pop() + 1
            prods.pop()
            continue
        prod = prods[-1] * basis[i]
        if prod.is_zero:
            i += 1
        else:
            word.append(i)
            prods.append(prod)
            i = 0
    return rep


def zero_divisor_scan(P: AlgebraPresentation, degree_bound: int, samples: int,
                      seed: int, max_terms: Optional[int] = None) -> CertificateReport:
    """Multiply seeded random nonzero pairs; report any zero product.

    By default the factors are dense generic elements, for which a vanishing
    product is a genuine finding (sparse near-monomial factors would merely
    rediscover the nilpotent generators; pass ``max_terms`` to sample those
    deliberately).  A clean scan is inconclusive: it cannot prove primality.

    Under :meth:`AlgebraPresentation.leading_monomials_multiply`, a pair whose
    leading monomials sum to a normal monomial is nonzero and is not multiplied.
    """
    rng = random.Random(seed)
    monomials = P.enumerate_monomials(degree_bound)
    certify = P.leading_monomials_multiply()
    found = []
    for _ in range(samples):
        if max_terms is None:  # keyed in the sorted order of monomials: the last key leads
            a = random_dense_element(P, rng, degree_bound, monomials=monomials)
            b = random_dense_element(P, rng, degree_bound, monomials=monomials)
            lead_a, lead_b = next(reversed(a.coeffs)), next(reversed(b.coeffs))
        else:
            a = random_element(P, rng, degree_bound, max_terms=max_terms,
                               monomials=monomials)
            b = random_element(P, rng, degree_bound, max_terms=max_terms,
                               monomials=monomials)
            lead_a, lead_b = max(a.coeffs, key=monomial_key), max(b.coeffs, key=monomial_key)
        if certify and P.is_normal_monomial(tuple(x + y for x, y in zip(lead_a, lead_b))):
            continue
        if (a * b).is_zero:
            found.append((a, b))
    status = FAIL if found else INCONCLUSIVE
    rep = CertificateReport("zero-divisors", status,
                            parameters={"degreeBound": degree_bound,
                                        "samples": samples, "seed": seed,
                                        "sampling": "dense" if max_terms is None
                                                    else f"sparse<={max_terms}",
                                        "found": len(found), "algebra": P.name})
    for a, b in found[:5]:
        rep.witnesses.append((f"({a})*({b})", "nonzero product", "0"))
    return rep


# -- expectation wrappers (used by the CLI suites) ---------------------------------------


def expect(report: CertificateReport, expected_status: str, name: str) -> CertificateReport:
    """Meta-certificate ``name``: the wrapped check finished with the expected status."""
    ok = report.status == expected_status
    meta = CertificateReport(name, PASS if ok else FAIL, inputs=report.inputs,
                             parameters=dict(report.parameters))
    meta.parameters["innerStatus"] = report.status
    meta.parameters["expectedStatus"] = expected_status
    if not ok:
        meta.witnesses.append((report.check_name, expected_status, report.status))
    elif report.witnesses:
        # keep the inner witnesses for visibility (e.g. the expected-failure witness)
        meta.witnesses = [(i, e, a) for i, e, a in report.witnesses]
    return meta
