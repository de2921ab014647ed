"""Hopf structure maps for enveloping algebras and their parity smash products.

:class:`HopfStructureMaps` extends generator images over PBW monomials one
generator power at a time, so a coproduct costs one tensor product per
distinct generator of the monomial.  Koszul signs follow the carrier's
``mode``.  :func:`enveloping` equips the enveloping algebra of a Lie
superalgebra with its super-Hopf structure (primitive generators,
super-multiplicative coproduct).  :func:`bosonize` adjoins an involutive
grouplike ``t`` acting by parity conjugation, producing an ordinary Hopf
algebra on the smash product carrier.

:meth:`HopfStructureMaps.rule_facts` finds, once, what the maps do on the
carrier's rule table and generators.  When the normal monomials are a basis
(the confluence gate, Bergman's diamond lemma), a map extended over normal
words is an algebra map, or anti-algebra map for the antipode, exactly when
it respects every rule, and two algebra maps that agree on the generators
agree everywhere; so the record proves the Hopf axioms on the whole carrier
(Kassel, *Quantum Groups*, GTM 155, ch. III).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb, prod
from operator import mul
from typing import Dict, Optional

from .algebra import (ORDINARY, SUPER, AlgebraPresentation, Element, Generator,
                      TensorElement)
from .errors import AlgebraError, PresentationError
from .liesuper import LieSuperAlgebra
from .linalg import accumulate, exact

T_NAME = "t"


@dataclass(frozen=True)
class RuleFacts:
    """What a :class:`HopfStructureMaps` does on its carrier's rules and
    generators, found once by :meth:`HopfStructureMaps.rule_facts`.

    ``confluent`` is the gate ``carrier.is_confluent()``; when it fails
    nothing else is found, and every other field is None.  ``delta``,
    ``counit`` and ``antipode`` name the rules, each by its word of
    generator names, whose two sides the map sends to different images.
    ``coassociative``, ``counital`` and ``antipodal`` say whether the axiom
    holds on every generator, by the sampled sums.
    """

    confluent: bool
    delta: Optional[tuple] = None
    counit: Optional[tuple] = None
    antipode: Optional[tuple] = None
    coassociative: Optional[bool] = None
    counital: Optional[bool] = None
    antipodal: Optional[bool] = None

    def proves(self, axiom: str) -> bool:
        """Whether these facts prove ``axiom`` on the whole carrier.

        With the gate and Delta respecting every rule, Delta is an algebra
        map: that is ``"bialgebra"``.  Both sides of coassociativity are
        then algebra maps, so ``"coassociativity"`` needs it on the
        generators alone.  ``"counit"`` adds eps, an algebra map too, and the
        counit axiom on the generators.  ``"antipode"`` adds eps, S, an
        anti-algebra map, and the antipode axiom on the generators: if it
        holds on a and b it holds on a*b.
        """
        if not self.confluent or self.delta:
            return False
        return {"bialgebra": True,
                "coassociativity": self.coassociative,
                "counit": not self.counit and self.counital,
                "antipode": not self.counit and not self.antipode and self.antipodal}[axiom]


def _sum_terms(terms):
    """The sum of ``(key, coefficient)`` pairs, as a dict that stores no zero."""
    out = {}
    for k, c in terms:
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


class HopfStructureMaps:
    """Generator images of the coproduct, counit, and antipode.

    The maps are extended to the whole carrier on demand: the coproduct and
    counit multiplicatively, the antipode anti-multiplicatively, with Koszul
    signs exactly when the carrier's ``mode`` is ``"super"``.  The coproduct
    of a power of an even primitive generator is the binomial sum ``sum_b
    C(a, b) g^b (x) g^(a-b)``; any other power repeats the step for one
    letter.  Images of monomials, powers included, are memoized, and a
    memoized image is returned with one lookup.  Generator coproducts must be
    parity-homogeneous, and in super mode the counit of an odd generator
    zero: the maps are even, as the proofs of :meth:`RuleFacts.proves` need.
    """

    def __init__(self, carrier: AlgebraPresentation,
                 delta_gen: Dict[int, TensorElement],
                 eps_gen: Dict,
                 antipode_gen: Dict[int, Element]):
        self.carrier = carrier
        self.delta_gen = dict(delta_gen)
        self.eps_gen = {k: exact(v) for k, v in eps_gen.items()}
        self.antipode_gen = dict(antipode_gen)
        for idx in range(carrier.n):
            if idx not in self.delta_gen or idx not in self.eps_gen \
                    or idx not in self.antipode_gen:
                raise PresentationError(
                    f"missing structure maps for generator {carrier.gen_name(idx)}")
        for idx, img in self.delta_gen.items():
            gp = carrier.generators[idx].parity
            for key in img.coeffs:
                if (carrier.monomial_parity(key[0])
                        + carrier.monomial_parity(key[1])) % 2 != gp:
                    raise PresentationError(
                        f"coproduct of {carrier.gen_name(idx)} is not parity-homogeneous")
            if carrier.mode == SUPER and gp and self.eps_gen[idx]:
                raise PresentationError(
                    f"counit of the odd generator {carrier.gen_name(idx)} is not zero")
        self._delta_cache = {carrier.unit_monomial(): carrier.tensor_one()}
        self._antipode_cache = {carrier.unit_monomial(): carrier.one()}
        self._facts = None

    # -- monomial-level maps --------------------------------------------------

    def _power(self, idx, a):
        """The monomial ``g_idx^a``."""
        one = self.carrier.unit_monomial()
        return one[:idx] + (a,) + one[idx + 1:]

    def _extend(self, cache, m, images, step, closed=lambda idx, a: None):
        """Image of ``m = g^a * rest``, ``g`` its first generator, under a map
        extended over PBW monomials: ``step(idx, a, image of g^a, rest, image
        of rest)``.  ``g^a`` is ``images[idx]`` if ``a`` is 1, else
        ``closed(idx, a)`` unless that is None, else ``g * g^(a-1)``.  Missing
        images are filled from a stack, so long monomials need no recursion.
        """
        stack = [m]
        while stack:
            top = stack[-1]
            if top in cache:
                stack.pop()
                continue
            idx = next(i for i, e in enumerate(top) if e)
            power, rest = self._power(idx, top[idx]), top[:idx] + (0,) + top[idx + 1:]
            if not any(rest):
                image = images[idx] if top[idx] == 1 else closed(idx, top[idx])
                if image is not None:
                    cache[top] = image
                    continue
                power, rest = self._power(idx, 1), self._power(idx, top[idx] - 1)
            missing = [k for k in (power, rest) if k not in cache]
            if missing:
                stack += missing
            else:
                cache[top] = step(idx, power[idx], cache[power], rest, cache[rest])
        return cache[m]

    def _binomial(self, idx, a):
        """Delta(g^a) = sum_b C(a, b) g^b (x) g^(a-b) if g is even and primitive."""
        g, one = self._power(idx, 1), self.carrier.unit_monomial()
        if self.carrier.generators[idx].parity \
                or self.delta_gen[idx].coeffs != {(g, one): 1, (one, g): 1}:
            return None
        return TensorElement(self.carrier, 2, {
            (self._power(idx, b), self._power(idx, a - b)): comb(a, b)
            for b in range(a + 1)})

    def delta_monomial(self, m) -> TensorElement:
        return self._delta_cache.get(m) or self._extend(
            self._delta_cache, m, self.delta_gen,
            lambda idx, a, d_power, rest, d: d_power.tensor_mul(d),
            self._binomial)

    def counit_monomial(self, m):
        acc = 1
        for idx, e in enumerate(m):
            if not e:
                continue
            c = self.eps_gen[idx]
            if not c:
                return 0
            acc *= c ** e
        return acc

    def antipode_monomial(self, m) -> Element:
        return self._antipode_cache.get(m) or self._extend(
            self._antipode_cache, m, self.antipode_gen, self._antipode_step)

    def _antipode_step(self, idx, a, s_power, rest, s_rest):
        """S(g^a * rest) = sign * S(rest) * S(g^a)."""
        img = s_rest * s_power
        if self.carrier.mode == SUPER and (a * self.carrier.generators[idx].parity
                                           * self.carrier.monomial_parity(rest)) % 2:
            img = -img
        return img

    # -- linear extensions -----------------------------------------------------

    def coproduct(self, a: Element) -> TensorElement:
        """Delta(a); for a one-term ``a`` the memoized image or a multiple of
        it, with no copy."""
        self.carrier._require_same(a.alg)
        if len(a.coeffs) == 1:
            (m, c), = a.items()
            return self.delta_monomial(m) if c == 1 else c * self.delta_monomial(m)
        out = {}
        for m, c in a.items():
            accumulate(out, self.delta_monomial(m).coeffs, c)
        return TensorElement(self.carrier, 2, out)

    def counit(self, a: Element):
        self.carrier._require_same(a.alg)
        return sum((c * self.counit_monomial(m) for m, c in a.items()),
                   start=0)

    def antipode(self, a: Element) -> Element:
        self.carrier._require_same(a.alg)
        out = {}
        for m, c in a.items():
            accumulate(out, self.antipode_monomial(m).coeffs, c)
        return Element(self.carrier, out)

    # -- the two sides of each Hopf axiom on one element -------------------------

    def coassociativity_sides(self, a: Element):
        """(Delta (x) id) Delta(a) and (id (x) Delta) Delta(a) as dicts, each
        summed in one pass over Delta(a) from the memoized images of its legs."""
        d, delta = self.coproduct(a).items(), self.delta_monomial
        return (_sum_terms(((k1, k2, m2), c * ck)
                           for (m1, m2), c in d for (k1, k2), ck in delta(m1).items()),
                _sum_terms(((m1, k1, k2), c * ck)
                           for (m1, m2), c in d for (k1, k2), ck in delta(m2).items()))

    def counit_sides(self, a: Element):
        """(eps (x) id) Delta(a) and (id (x) eps) Delta(a) as dicts."""
        d, eps = self.coproduct(a).items(), self.counit_monomial
        return (_sum_terms((m2, c * eps(m1)) for (m1, m2), c in d),
                _sum_terms((m1, c * eps(m2)) for (m1, m2), c in d))

    def antipode_sides(self, a: Element):
        """m(S (x) id) Delta(a) and m(id (x) S) Delta(a) as dicts, each summed
        in one pass over Delta(a) from memoized antipodes and products."""
        d, mul, S = self.coproduct(a).items(), self.carrier.mul_monomials, self.antipode_monomial
        return (_sum_terms((m, c * cs * cm) for (m1, m2), c in d
                           for s, cs in S(m1).items() for m, cm in mul(s, m2).items()),
                _sum_terms((m, c * cs * cm) for (m1, m2), c in d
                           for s, cs in S(m2).items() for m, cm in mul(m1, s).items()))

    # -- rule-level facts ----------------------------------------------------------

    def rule_facts(self) -> RuleFacts:
        """The :class:`RuleFacts` of these maps, found on first use and kept.

        For each rule ``g_1...g_k -> sum c*m`` of a confluent carrier: whether
        ``Delta(g_1)...Delta(g_k) == sum c*Delta(m)``, the same for eps, and
        whether ``sign * S(g_k)...S(g_1) == sum c*S(m)``, the sign
        (-1)^C(j, 2) in super mode for the j odd letters of the word (the
        Koszul sign of reversing it) and 1 otherwise; then the three axioms
        on the generators.
        """
        if self._facts is None:
            self._facts = self._find_facts()
        return self._facts

    def _find_facts(self) -> RuleFacts:
        pres = self.carrier
        if not pres.is_confluent():
            return RuleFacts(False)

        def extended(image, rhs):
            out = {}
            for m, c in rhs.items():
                accumulate(out, image(m).coeffs, c)
            return out

        broken = {"delta": [], "counit": [], "antipode": []}
        for w in sorted(pres.rules):
            rhs = pres.rules[w]
            odd = sum(pres.generators[i].parity for i in w)
            sign = -1 if pres.mode == SUPER and odd * (odd - 1) // 2 % 2 else 1
            for key, ok in (
                    ("delta", reduce(mul, (self.delta_gen[i] for i in w)).coeffs
                     == extended(self.delta_monomial, rhs)),
                    ("counit", prod(self.eps_gen[i] for i in w)
                     == sum(c * self.counit_monomial(m) for m, c in rhs.items())),
                    ("antipode", (sign * reduce(mul, (self.antipode_gen[i] for i in reversed(w))))
                     .coeffs == extended(self.antipode_monomial, rhs))):
                if not ok:
                    broken[key].append(tuple(pres.gen_name(i) for i in w))
        gens = [pres.gen(g.name) for g in pres.generators]
        return RuleFacts(
            True, **{key: tuple(words) for key, words in broken.items()},
            coassociative=all(left == right for left, right
                              in map(self.coassociativity_sides, gens)),
            counital=all(side == g.coeffs for g in gens for side in self.counit_sides(g)),
            antipodal=all(side == (self.counit(g) * pres.one()).coeffs
                          for g in gens for side in self.antipode_sides(g)))


def enveloping(g: LieSuperAlgebra) -> HopfStructureMaps:
    """The enveloping algebra of ``g`` as a super Hopf algebra.

    The rule table is read off ``g.table`` in one pass, on ``g``'s own basis:
    the swap rule of ``(j, i)`` (j > i) straightens ``g_j g_i`` to
    ``(-1)^{p_i p_j} g_i g_j + [g_j, g_i]``, and each odd generator gets the
    power rule ``g^2 -> [g,g]/2``.  Generators are primitive, with counit zero
    and antipode ``-g``.  The rules are confluent, and recorded so with no
    overlap pass: ``g`` passed :meth:`LieSuperAlgebra.validate`, whose Jacobi
    check is what the PBW theorem needs, and by the diamond lemma the PBW
    basis is the set of normal monomials.
    """
    report = g.validate()
    if not report.ok:
        raise AlgebraError(
            f"invalid Lie superalgebra {g.name}: {report.violations[0]}")
    n = g.n
    letters = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    rules = {}
    for hi, row in enumerate(g.table):
        for lo in range(hi + 1):
            rhs = {letters[k]: c for k, c in enumerate(row[lo]) if c}
            if lo < hi:
                sign = -1 if g.parity(hi) * g.parity(lo) else 1
                accumulate(rhs, {tuple(a + b for a, b in zip(letters[hi], letters[lo])): sign})
                rules[(hi, lo)] = rhs
            elif g.parity(hi):
                rules[(hi, hi)] = {m: exact(Fraction(c, 2)) for m, c in rhs.items()}
    pres = AlgebraPresentation(g.basis, rules, mode=SUPER, name=f"U({g.name})")
    pres._confluent = True
    return HopfStructureMaps(pres, *_lie_generator_images(pres, [pres.one()] * n))


def _lie_generator_images(pres: AlgebraPresentation, taus):
    """The images of the first ``len(taus)`` generators of ``pres``, as the
    three dicts ``(delta, eps, antipode)``: ``Delta(g) = g (x) 1 + tau (x)
    g``, ``eps(g) = 0`` and ``S(g) = -tau*g``, where ``tau = taus[i]`` for
    ``g = g_i`` is 1 or the grouplike ``t^{p(g)}``."""
    one = pres.one()
    delta, eps, antipode = {}, {}, {}
    for idx, tau in enumerate(taus):
        g = pres.gen(pres.gen_name(idx))
        delta[idx], eps[idx], antipode[idx] = g.outer(one) + tau.outer(g), 0, -(tau * g)
    return delta, eps, antipode


@dataclass
class BosonizedAlgebra:
    """An enveloping Hopf superalgebra with the parity grouplike adjoined.

    ``hopf`` carries the ordinary Hopf structure of the smash product;
    ``u_maps`` keeps the original super structure on the sub-presentation
    generated by the Lie generators.
    """

    hopf: HopfStructureMaps
    u_maps: HopfStructureMaps
    t_index: int

    @property
    def carrier(self) -> AlgebraPresentation:
        return self.hopf.carrier

    def t(self) -> Element:
        return self.carrier.gen(T_NAME)

    def include_from_u(self, a: Element) -> Element:
        """Embed an element of the plain enveloping algebra."""
        self.u_maps.carrier._require_same(a.alg)
        return Element(self.carrier, {m + (0,): c for m, c in a.items()})

    def restrict_to_u(self, a: Element) -> Element:
        """Inverse of :meth:`include_from_u`; requires all t-exponents zero."""
        self.carrier._require_same(a.alg)
        out = {}
        for m, c in a.items():
            if m[self.t_index]:
                raise AlgebraError("element has a t-letter; not in the subalgebra")
            out[m[:self.t_index]] = c
        return Element(self.u_maps.carrier, out)

    def project_to_group(self, a: Element) -> Element:
        """The Hopf projection onto the group algebra part: a#h -> eps(a) h."""
        self.carrier._require_same(a.alg)
        # the counit of a non-trivial Lie monomial is zero
        return Element(self.carrier, {m: c for m, c in a.items()
                                      if not any(m[:self.t_index])})

    def is_coinvariant(self, a: Element) -> bool:
        """(id (x) proj) Delta(a) == a (x) 1."""
        d = self.hopf.coproduct(a)
        projected = d.apply_element_map(
            lambda m: self.project_to_group(self.carrier.monomial_element(m)), 1)
        return projected == a.outer(self.carrier.one())


def bosonize(U: HopfStructureMaps) -> BosonizedAlgebra:
    """Adjoin the parity automorphism as a grouplike of order two.

    Requires a primitively generated super Hopf algebra.  The carrier's rule
    table is ``U``'s, lifted once by a zero t-exponent, plus the swap rules
    ``t g -> (-1)^{p(g)} g t`` and the power rule ``t^2 -> 1``.  The result is
    an ordinary Hopf algebra: for a Lie generator g,
    ``Delta(g) = g (x) 1 + t^{p(g)} (x) g`` and ``S(g) = -t^{p(g)} g``,
    while ``Delta(t) = t (x) t``, ``S(t) = t``, ``eps(t) = 1``.  The carrier
    keeps ``U``'s confluence record: t acts on the parity-homogeneous rules by
    the parity automorphism and ``t^2 = 1``, so the overlaps with t resolve.
    """
    pres = U.carrier
    if pres.mode != SUPER:
        raise AlgebraError("bosonize needs a super-mode Hopf algebra")
    delta, eps, antipode = _lie_generator_images(pres, [pres.one()] * pres.n)
    for idx in range(pres.n):
        if U.delta_gen[idx] != delta[idx] or U.eps_gen[idx] != eps[idx] \
                or U.antipode_gen[idx] != antipode[idx]:
            raise AlgebraError(
                f"generator {pres.gen_name(idx)} is not primitive; "
                "bosonize expects an enveloping-type Hopf superalgebra")
    if T_NAME in [g.name for g in pres.generators]:
        raise AlgebraError(f"carrier already has a generator named {T_NAME!r}")
    n = pres.n
    rules = {w: {m + (0,): c for m, c in rhs.items()} for w, rhs in pres.rules.items()}
    for lo, g in enumerate(pres.generators):
        rules[(n, lo)] = {pres.monomial(**{g.name: 1}) + (1,): -1 if g.parity else 1}
    rules[(n, n)] = {(0,) * (n + 1): 1}
    big = AlgebraPresentation(list(pres.generators) + [Generator(T_NAME, 0, n, z_degree=0)],
                              rules, mode=ORDINARY, name=f"{pres.name}#k[t]")
    big._confluent = pres._confluent

    t = big.gen(T_NAME)
    delta, eps, antipode = _lie_generator_images(
        big, [t if g.parity else big.one() for g in pres.generators])
    delta[n], eps[n], antipode[n] = t.outer(t), 1, t
    return BosonizedAlgebra(hopf=HopfStructureMaps(big, delta, eps, antipode),
                            u_maps=U, t_index=n)
