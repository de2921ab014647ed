"""Finitely presented graded algebras with products in PBW normal form.

A presentation fixes an ordered generator alphabet and one table of rules,
keyed by left-hand word: swap rules for descending adjacent pairs and power
rules ``g_i^cap``, whose words give the exponent caps.  Products
run through one memo keyed by the pair of normal monomials ``(m1, m2)``, which
stores every product it forms, so a repeat is one lookup.  A product with a
unit factor, or whose joined word is already sorted and under its caps, is
formed directly.  Any other sheds letters off the right end of its right
factor until the product by what is left is memoized, then folds them back
in, one at a time, storing the product at the end of each letter group: a
right factor ``r * k^e``, ``k`` its last letter, is one fold of ``k^e`` into
the memoized product by ``r``, and the memo gains one entry per letter group,
none per letter of a run.  Those products are the full letter-by-letter
fold's own intermediates, so even non-confluent rules give the same result.
The memo's entries with a one-letter right factor ``g_i`` are the table of
``m * g_i``.  A fold is a generator that looks its entries up in the memo
and ends at its first step when all are there; each one missing is filled
from the rules on an explicit stack.  No rule raises degree, so
filling one entry meets finitely many others, each filled once; meeting one
still being filled is a rewriting cycle and raises
:class:`NonTerminationError`.  When the rules are locally confluent (every
overlap resolves, see :func:`check_overlaps`) normal forms do not depend on
the order of reductions and the normal monomials are a linear basis.  The
presentation's ``mode`` alone decides Koszul signs.

Elements and tensor elements are exact sparse rational combinations of
normal-form monomials; a coefficient is an ``int`` when it is integral and a
``Fraction`` only where a division made one (see :func:`linalg.exact`).
Both are one combination type, :class:`Combination`, which owns their sums,
scalar multiples, equality and printing; :func:`format_terms` is the one
term printer, also for Lie-superalgebra vectors.  Everything is immutable
after construction and all operations are pure.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf, log10
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence

from .errors import AlgebraError, NonTerminationError, PresentationError
from .linalg import accumulate, exact

SUPER = "super"
ORDINARY = "ordinary"


@dataclass(frozen=True)
class Generator:
    """One letter of the alphabet.

    ``pbw_index`` is the position in the normal order, ``z_degree`` an
    optional integer grading.  Exponent caps are not a property of the letter:
    they are read off the power rules of a presentation.
    """

    name: str
    parity: int
    pbw_index: int
    z_degree: Optional[int] = None


def monomial_key(m):
    """Canonical sort key: total degree, then exponent vector."""
    return (sum(m), m)


class AlgebraPresentation:
    """Ordered generators plus straightening rules: a reduction system.

    ``rules`` maps each left-hand word, a tuple of pbw indices, to its normal
    form given as a mapping ``monomial -> coefficient``.  A descending pair
    ``(hi, lo)`` (``hi > lo`` in PBW position) is the swap rule of
    ``g_hi * g_lo``; every descending pair needs one.  The word ``(i,) * cap``
    is the power rule of ``g_i``, and ``cap`` is the exponent at which it fires
    (at most one per generator).  ``mode`` selects Koszul signs (``"super"``)
    or none (``"ordinary"``) in tensor arithmetic and in the structure maps
    built on the presentation.
    """

    def __init__(self, generators: Sequence[Generator], rules,
                 mode: str = SUPER, name: str = ""):
        self.generators = tuple(generators)
        self.mode = mode
        self.name = name or "algebra"
        self.n = len(self.generators)
        self._validate_generators()
        self._by_name = {g.name: g.pbw_index for g in self.generators}
        self._parities = tuple(g.parity for g in self.generators)
        self.rules = {w: dict(rhs) for w, rhs in rules.items()}
        self._validate_rules()
        # rule right-hand sides pre-expanded to letter words for splicing, by
        # the pair (j, i) of g_j*g_i; (i, i) is the power rule of g_i
        self._rhs = {(w[0], w[-1]): self._expand_rhs(rhs) for w, rhs in self.rules.items()}
        self._mul_cache = {}  # (m1, m2) -> m1*m2, every product formed
        self._confluent = None  # the verdict of is_confluent, unless recorded
        self._letters = [self.monomial(**{g.name: 1}) for g in self.generators]

    # -- construction checks -------------------------------------------------

    def _validate_generators(self):
        if self.mode not in (SUPER, ORDINARY):
            raise PresentationError(f"unknown extension mode {self.mode!r}")
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise PresentationError("generator names must be unique")
        if [g.pbw_index for g in self.generators] != list(range(self.n)):
            raise PresentationError("generators must be listed in pbw order")
        for g in self.generators:
            if g.parity not in (0, 1):
                raise PresentationError(f"bad parity for {g.name}")

    def _validate_rules(self):
        """Check every rule, filling ``_caps`` (``index -> cap``) from the power
        words before the right-hand sides are checked against it."""
        caps = self._caps = {}
        for w in self.rules:
            if not w or not all(0 <= i < self.n for i in w):
                raise PresentationError(f"bad rule word {w}")
            if w.count(w[0]) == len(w):
                if w[0] in caps:
                    raise PresentationError(
                        f"two power rules for {self.gen_name(w[0])}")
                caps[w[0]] = len(w)
            elif len(w) != 2 or w[0] < w[1]:
                raise PresentationError(
                    f"rule word {w} is neither a descending pair nor a power")
        for hi in range(self.n):
            for lo in range(hi):
                if (hi, lo) not in self.rules:
                    raise PresentationError(
                        f"missing swap rule for {self.gen_name(hi)}*{self.gen_name(lo)}")
        for w, rhs in self.rules.items():
            what = "*".join(self.gen_name(i) for i in w)
            parity = sum(self._parities[i] for i in w) % 2
            for m, c in rhs.items():
                if not c:
                    raise PresentationError(f"zero coefficient stored in rule {what}")
                if not self.is_normal_monomial(m):
                    raise PresentationError(f"rule {what} has a non-normal monomial")
                if sum(m) > len(w):
                    raise PresentationError(
                        f"rule {what} raises filtration degree; rewriting may not terminate")
                if self.monomial_parity(m) != parity:
                    raise PresentationError(f"rule {what} is not parity-homogeneous")

    def _expand_rhs(self, rhs):
        """(coefficient, letters) pairs with exact coefficients."""
        return tuple((exact(c), self.monomial_letters(m))
                     for m, c in sorted(rhs.items()))

    # -- basic queries --------------------------------------------------------

    def gen_name(self, idx: int) -> str:
        return self.generators[idx].name

    def gen_index(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise PresentationError(f"unknown generator {name!r} in {self.name}") from None

    def unit_monomial(self):
        return (0,) * self.n

    def monomial(self, **exps) -> tuple:
        m = [0] * self.n
        for name, e in exps.items():
            m[self.gen_index(name)] = e
        return tuple(m)

    def monomial_letters(self, m) -> tuple:
        letters = []
        for idx, e in enumerate(m):
            letters.extend([idx] * e)
        return tuple(letters)

    def monomial_parity(self, m) -> int:
        return sum(map(mul, m, self._parities)) & 1

    def monomial_z_degree(self, m) -> int:
        total = 0
        for idx, e in enumerate(m):
            if not e:
                continue
            z = self.generators[idx].z_degree
            if z is None:
                raise PresentationError(
                    f"generator {self.gen_name(idx)} has no z-degree")
            total += e * z
        return total

    def has_z_degrees(self) -> bool:
        return all(g.z_degree is not None for g in self.generators)

    def is_normal_monomial(self, m) -> bool:
        if len(m) != self.n or any(e < 0 for e in m):
            return False
        return all(m[idx] < cap for idx, cap in self._caps.items())

    def leading_monomials_multiply(self) -> bool:
        """Whether LM(a*b) = LM(a) + LM(b) whenever that sum is normal.

        True when the top-degree part of every rule is one nonzero multiple of
        the sorted word ``g_lo*g_hi`` for a swap and empty for a power, which
        then lowers degree.  Then the top-degree part of ``m1*m2`` is a nonzero
        product of swap factors times the sorted join, or 0 when the join
        passes a cap, and in ``a*b`` only the leading monomials under the term
        order :func:`monomial_key` reach LM(a) + LM(b).
        """
        for w, rhs in self.rules.items():
            top = [m for m in rhs if sum(m) == len(w)]
            if top != ([] if w[0] == w[-1] else [tuple(w.count(k) for k in range(self.n))]):
                return False
        return True

    def is_confluent(self) -> bool:
        """Whether :func:`check_overlaps` resolves every overlap.  A rewriting
        cycle counts as not confluent only when an overlap's reduction meets it:
        ``b*a -> 2*a^2 - b^2`` alone has no overlaps and reads confluent.
        :func:`hopf.enveloping` and :func:`hopf.bosonize` record the verdict
        True, which the validated Jacobi identity proves; for a presentation
        built some other way the overlap pass runs once, on first use."""
        if self._confluent is None:
            try:
                self._confluent = check_overlaps(self).confluent
            except NonTerminationError:
                self._confluent = False
        return self._confluent

    # -- element constructors --------------------------------------------------

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return Element(self, {self.unit_monomial(): 1})

    def scalar(self, c) -> "Element":
        c = exact(c)
        return Element(self, {self.unit_monomial(): c} if c else {})

    def gen(self, name: str) -> "Element":
        m = [0] * self.n
        m[self.gen_index(name)] = 1
        return Element(self, {tuple(m): 1})

    def element(self, coeffs: Mapping) -> "Element":
        out = {}
        for m, c in coeffs.items():
            m = tuple(m)
            if not self.is_normal_monomial(m):
                raise PresentationError(f"{m} is not a normal monomial of {self.name}")
            c = exact(c)
            if c:
                out[m] = c
        return Element(self, out)

    def monomial_element(self, m) -> "Element":
        return Element(self, {tuple(m): 1})

    def enumerate_monomials(self, max_degree: int, z_degree: Optional[int] = None):
        """All normal monomials of filtration degree <= max_degree, sorted."""
        out = []

        def rec(idx, remaining, acc):
            if idx == self.n:
                out.append(tuple(acc))
                return
            cap = self._caps.get(idx)
            top = remaining if cap is None else min(remaining, cap - 1)
            for e in range(top + 1):
                acc.append(e)
                rec(idx + 1, remaining - e, acc)
                acc.pop()

        rec(0, max_degree, [])
        if z_degree is not None:
            out = [m for m in out if self.monomial_z_degree(m) == z_degree]
        out.sort(key=monomial_key)
        return out

    # -- the product engine ------------------------------------------------------

    def normalize(self, word: Iterable) -> "Element":
        """Normal form of the product of the listed generators.

        ``word`` may contain generator names or pbw indices; the empty word
        is the identity.  Raises :class:`NonTerminationError` if the rules
        rewrite a word back into itself.
        """
        letters = tuple(self.gen_index(w) if isinstance(w, str) else int(w)
                        for w in word)
        for idx in letters:
            if not 0 <= idx < self.n:
                raise PresentationError(f"generator index {idx} out of range")
        return Element(self, dict(self._word_normal_form(letters)))

    def mul_monomials(self, m1, m2):
        """Normal form of the product of two normal monomials, as a raw dict:
        the letters of ``m2`` folded into ``m1``.

        A unit factor or an already sorted join is formed in one step, and a
        single letter makes the product a table entry, filled by
        :meth:`_entry`.  Any other ``m2`` sheds its last letter, in a loop,
        until ``m1*r`` is memoized for what is left ``r``, or is formed in one
        step and stored.  :meth:`_fold` then folds the shed letters back in,
        one run ``k^d`` of a letter at a time, and stores ``m1*r`` at the end
        of each: ``m2 = r*k^e`` with ``m1*r`` memoized is one fold of ``k^e``,
        ``m1*(m2 less one k)`` memoized one fold of ``k``, and the memo gains
        one entry per letter group of ``m2``, none per letter of a run.  Every
        product is stored in the memo, so a repeat returns the same dict: do
        not modify it.
        """
        cache = self._mul_cache
        product = cache.get((m1, m2))
        if product is not None:
            return product
        runs, r = [], m2  # the runs [end, k, d] shed, end being r with d more k
        while True:  # m1*r is not memoized
            if not (any(m1) and any(r)):  # a unit factor
                product = {m1 if any(m1) else r: 1}
            else:
                j = 0
                while not r[j]:
                    j += 1
                cap = self._caps.get(j)
                if not any(m1[j + 1:]) and (cap is None or m1[j] + r[j] < cap):
                    product = {m1[:j] + (m1[j] + r[j],) + r[j + 1:]: 1}  # already sorted
                elif r[j] == 1 and not any(r[j + 1:]):
                    product = self._run(self._entry(m1, r), (m1, r))
                else:  # shed the last letter k: m1*r is stored at the end of its run
                    k = self.n - 1
                    while not r[k]:
                        k -= 1
                    if runs and runs[-1][1] == k:
                        runs[-1][2] += 1
                    else:
                        runs.append([r, k, 1])
                    r = r[:k] + (r[k] - 1,) + r[k + 1:]
                    if (product := cache.get((m1, r))) is None:
                        continue
                    break
            cache[(m1, r)] = product
            break
        for r, k, d in reversed(runs):
            product = cache[(m1, r)] = self._run(self._fold((k,) * d, product))
        return product

    def _word_normal_form(self, letters):
        """Normal form of a word of pbw indices, as a raw dict."""
        return self._run(self._fold(letters, {self.unit_monomial(): 1}))

    def _fold(self, letters, terms):
        """Multiply the combination ``terms`` on the right by ``letters``.

        A generator for :meth:`_run`: it yields the memo key ``(m, g_i)`` of
        each unsorted product ``m*g_i`` missing from the memo, first letter
        first, is sent that product back, and returns the collected
        combination.  A sorted join is added in place with no dict for its
        one term and a memoized entry term by term, as
        :func:`linalg.accumulate` would add, so a fold whose entries are all
        memoized ends at its first step without yielding.
        """
        caps, cache, units = self._caps, self._mul_cache, self._letters
        for i in letters:
            cap, g = caps.get(i), units[i]
            out = {}
            get = out.get
            for m, c in terms.items():
                e = m[i] + 1
                if (cap is None or e < cap) and not any(m[i + 1:]):
                    joined = m[:i] + (e,) + m[i + 1:]
                    if new := get(joined, 0) + c:
                        out[joined] = new
                    else:
                        del out[joined]
                    continue
                if (entry := cache.get((m, g))) is None:
                    entry = yield m, g
                for mm, cm in entry.items():
                    if new := get(mm, 0) + c * cm:
                        out[mm] = new
                    else:
                        del out[mm]
            terms = out
        return terms

    def _entry(self, m, g):
        """Fill the table entry ``m*g`` for ``g = g_i``, yielding like :meth:`_fold`.

        ``g_i`` is swapped with the last letter of ``m`` if that comes later
        in the order; if it is ``g_i``'s own power, the power rule applies.
        Each right-hand side term is folded into the rest of ``m``, a
        one-letter one in place: a sorted join, added with no dict for its one
        term as in :meth:`_fold`, or one entry.
        """
        i = g.index(1)
        j = self.n - 1
        while j > i and not m[j]:
            j -= 1
        base = m[:j] + (0 if j == i else m[j] - 1,) + m[j + 1:]
        out = {}
        for rc, letters in self._rhs[(j, i)]:
            if len(letters) != 1:
                accumulate(out, (yield from self._fold(letters, {base: 1})), rc)
                continue
            k, e = letters[0], base[letters[0]] + 1
            cap = self._caps.get(k)
            if (cap is None or e < cap) and not any(base[k + 1:]):
                joined = base[:k] + (e,) + base[k + 1:]
                if new := out.get(joined, 0) + rc:
                    out[joined] = new
                else:
                    del out[joined]
            else:
                key = (base, self._letters[k])
                entry = self._mul_cache.get(key)
                accumulate(out, (yield key) if entry is None else entry, rc)
        return out

    def _run(self, job, key=None):
        """Drive ``job``, a :meth:`_fold` or the :meth:`_entry` of ``key``, to its result.

        A job that yields nothing, every entry it needs being memoized, is
        its first step alone.  Each key a job yields is an entry missing from
        the memo, filled there from a stack of :meth:`_entry` tasks.  This
        ends without a step count: validation rejects any rule whose
        right-hand side has a degree above its word's length, so every key
        ``(m, g_i)`` met while filling ``(m0, g)`` has ``deg m <= deg m0``,
        and there are finitely many such keys.  Each is filled at most once,
        and meeting one still being filled, ``key`` among them, is a
        rewriting cycle: :class:`NonTerminationError`.
        """
        try:
            need = job.send(None)
        except StopIteration as done:
            return done.value
        cache = self._mul_cache
        stack, keys, pending = [job], [], {key}
        while True:
            if need in pending:
                name = self.gen_name(need[1].index(1))
                raise NonTerminationError(f"rewriting cycle at {name} in {self.name}")
            keys.append(need)
            pending.add(need)
            stack.append(self._entry(*need))
            value = None
            while True:
                try:
                    need = stack[-1].send(value)
                    break
                except StopIteration as done:
                    value = done.value
                    stack.pop()
                    if not stack:
                        return value
                    need = keys.pop()
                    pending.discard(need)
                    cache[need] = value

    def _require_same(self, other):
        if self is not other:
            raise PresentationError(
                f"presentation mismatch: {self.name} vs {other.name}")

    def tensor_one(self) -> "TensorElement":
        return TensorElement(self, 2, {(self.unit_monomial(),) * 2: 1})


def polynomial_presentation(names) -> AlgebraPresentation:
    """The commutative polynomial algebra on ``names``: even generators whose
    swap rules only sort, i.e. the enveloping algebra of an abelian Lie
    algebra; recorded confluent, since sorting resolves every overlap."""
    n = len(names)
    swaps = {(hi, lo): {tuple(int(k in (lo, hi)) for k in range(n)): 1}
             for hi in range(n) for lo in range(hi)}
    pres = AlgebraPresentation([Generator(name, 0, idx) for idx, name in enumerate(names)],
                               swaps, mode=SUPER, name="U(abelian)")
    pres._confluent = True
    return pres


def format_terms(terms) -> str:
    """Print ``(body, coefficient)`` pairs as ``c*body`` joined by `` + ``
    and `` - ``: a coefficient 1 is left out, -1 is a bare sign, an empty
    body is a scalar term, and no terms at all is ``0``.  A coefficient
    past Python's limit on printed digits is an :class:`AlgebraError`."""
    pieces = []
    for body, c in terms:
        if pieces:
            pieces.append(" - " if c < 0 else " + ")
            c = abs(c)
        try:
            pieces.append(str(c) if not body else body if c == 1
                          else f"-{body}" if c == -1 else f"{c}*{body}")
        except ValueError:  # past sys.get_int_max_str_digits(), kept: no print runs for hours
            raise _too_many_digits() from None
    return "".join(pieces) or "0"


def _too_many_digits():
    return AlgebraError(f"a coefficient has more than {sys.get_int_max_str_digits()} "
                        "digits, Python's limit for printing an integer")


def _scalar_power(c, n):
    """``c**n``, refused before it is computed if it would pass the digit limit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if limit and any(a > 1 and n * log10(a) >= limit for a in (abs(c.numerator), c.denominator)):
        raise _too_many_digits()
    return exact(c ** n)


def _monomial_text(alg, m) -> str:
    """``y^2*u``: the generator powers of a normal monomial; empty for 1."""
    return "*".join(g.name if e == 1 else f"{g.name}^{e}"
                    for g, e in zip(alg.generators, m) if e)


class Combination:
    """A finite exact combination ``coeffs`` (key -> nonzero coefficient)
    over the presentation ``alg``: the keys of an :class:`Element` are
    normal monomials, those of a :class:`TensorElement` tuples of ``legs``
    monomials.

    Treated as immutable: the ``coeffs`` of an :class:`Element` may be the
    memo's own dict (see :meth:`AlgebraPresentation.mul_monomials`), which
    must not be modified.  Sums, negation, scalar multiples, equality and
    printing are shared; a subclass says only how to rebuild itself around
    new coefficients (``_like``) and how to print one key (``_body``).
    Combinations are equal when they are of one kind over one presentation
    with equal leg counts and coefficients, so zero tensors with different
    leg counts differ.
    """

    __slots__ = ("alg", "coeffs")
    legs = None  # a tensor's leg count; an Element has none

    def __init__(self, alg: AlgebraPresentation, coeffs):
        self.alg = alg
        self.coeffs = coeffs

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self):
        return self.coeffs.items()

    def __add__(self, other, scale=None):
        """``self + scale*other``; :meth:`__sub__` passes -1."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.alg is not other.alg or self.legs != other.legs:
            self.alg._require_same(other.alg)  # raises if the presentations differ
            raise PresentationError("tensor leg count mismatch")
        out = dict(self.coeffs)
        accumulate(out, other.coeffs, scale)
        return self._like(out)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __neg__(self):
        return self._like({k: -c for k, c in self.coeffs.items()})

    def __rmul__(self, c):
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        c = exact(c)
        return self._like({k: c * v for k, v in self.coeffs.items()} if c else {})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alg is other.alg and self.legs == other.legs
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((id(self.alg), self.legs, frozenset(self.coeffs.items())))

    def __str__(self):
        return format_terms((self._body(k), c)
                            for k, c in sorted(self.coeffs.items(), reverse=True))

    def __repr__(self):
        return f"<{self.alg.name}{'' if self.legs is None else ' tensor'}: {self}>"


class Element(Combination):
    """A finite rational combination of normal-form monomials.

    Besides the shared arithmetic: products with elements and scalars and
    ``**`` with a non-negative integer.
    """

    __slots__ = ()

    def _like(self, coeffs):
        return Element(self.alg, coeffs)

    def _body(self, m):
        return _monomial_text(self.alg, m)

    def degree(self) -> int:
        return max((sum(m) for m in self.coeffs), default=0)

    def coefficient(self, m):
        return self.coeffs.get(tuple(m), 0)

    def __mul__(self, other):
        """A product of two one-term elements is the memoized product of
        their monomials, itself when the coefficients multiply to 1, else
        scaled; any other sums those of its term pairs by :func:`accumulate`."""
        if isinstance(other, Element):
            self.alg._require_same(other.alg)
            if len(self.coeffs) == 1 == len(other.coeffs):
                (m1, c1), = self.coeffs.items()
                (m2, c2), = other.coeffs.items()
                product, c = self.alg.mul_monomials(m1, m2), c1 * c2
                return Element(self.alg, product if c == 1 else
                               {m: c * cm for m, cm in product.items()})
            mul, out, right = self.alg.mul_monomials, {}, other.coeffs.items()
            for m1, c1 in self.coeffs.items():
                for m2, c2 in right:
                    accumulate(out, mul(m1, m2), c1 * c2)
            return Element(self.alg, out)
        return self.__rmul__(other)

    def _closed_power(self, q: int):
        """``self**q`` for ``q >= 1`` with no product formed, when ``self`` is
        zero, a scalar ``c`` or a term ``c*g^e`` of one generator ``g`` with
        ``e*q`` below the cap of ``g``: ``c**q * g^(e*q)``.  None otherwise."""
        if not self.coeffs:
            return self
        if len(self.coeffs) > 1:
            return None
        (m, c), = self.coeffs.items()
        letters = [i for i, e in enumerate(m) if e]
        if len(letters) > 1 or letters and m[letters[0]] * q >= self.alg._caps.get(letters[0], inf):
            return None
        return Element(self.alg, {tuple(e * q for e in m): _scalar_power(c, q)})

    def __pow__(self, n: int):
        """``self**n``, one factor at a time until a partial power
        ``self**k`` has a closed ``(self**k)**(n//k)`` (see
        :meth:`_closed_power`; k = 1 when ``self`` has one), then that times
        ``self**(n%k)``, or until ``self**k == self**(k-1)``, which every
        higher power then equals.  Not by squaring: a dense square costs far
        more products than the factors it saves."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        if n == 0:
            return self.alg.one()
        previous, result = self.alg.one(), self
        for k in range(1, n + 1):
            if k > 1:
                previous, result = result, result * self
            closed = result._closed_power(n // k)
            if closed is not None:
                return closed * self ** (n % k) if n % k else closed
            if result == previous:
                return result
        return result

    def outer(self, other: "Element") -> "TensorElement":
        """The simple tensor self (x) other."""
        self.alg._require_same(other.alg)
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                out[(m1, m2)] = c1 * c2
        return TensorElement(self.alg, 2, out)


class TensorElement(Combination):
    """A sparse combination of tuples of ``legs`` normal monomials."""

    __slots__ = ("legs",)

    def __init__(self, alg: AlgebraPresentation, legs: int, coeffs):
        self.alg = alg
        self.legs = legs
        self.coeffs = coeffs

    def _like(self, coeffs):
        return TensorElement(self.alg, self.legs, coeffs)

    def _body(self, key):
        return "(x)".join(_monomial_text(self.alg, m) or "1" for m in key)

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            return self.tensor_mul(other)
        return self.__rmul__(other)

    def tensor_mul(self, other: "TensorElement"):
        """Product of two 2-leg tensors, with Koszul signs in super mode.

        ``(a1 (x) a2)(b1 (x) b2) = (-1)^{p(a2) p(b1)} a1 b1 (x) a2 b2``, the
        sign only when the presentation's ``mode`` is ``"super"``: the right
        operand's first leg passes the left operand's second.

        One in-place kernel: each term's parity and unit legs are found once,
        the sign is taken once per pair of terms, and the pair's two leg
        products are added straight into the result.  A unit leg calls no
        product, its partner monomial is the product; any other leg product is
        one memoized :meth:`AlgebraPresentation.mul_monomials`.  The add is
        one of the in-place adds the :mod:`linalg` docstring lists: no dict
        per term and, as in :func:`linalg.accumulate`, no zero stored.
        Tensors with another number of legs raise :class:`PresentationError`.
        """
        alg = self.alg
        alg._require_same(other.alg)
        if self.legs != 2 or other.legs != 2:
            raise PresentationError("tensor_mul multiplies 2-leg tensors")
        parity = alg.monomial_parity if alg.mode == SUPER else lambda m: 0
        left = [(a1, a2, any(a1), any(a2), c, parity(a2))
                for (a1, a2), c in self.coeffs.items()]
        right = [(b1, b2, any(b1), any(b2), c, parity(b1))
                 for (b1, b2), c in other.coeffs.items()]
        mul = alg.mul_monomials
        out = {}
        get = out.get
        for a1, a2, x1, x2, ca, pa in left:
            for b1, b2, y1, y2, cb, pb in right:
                c = -ca * cb if pa and pb else ca * cb
                first = mul(a1, b1).items() if x1 and y1 else ((a1 if x1 else b1, 1),)
                second = mul(a2, b2).items() if x2 and y2 else ((a2 if x2 else b2, 1),)
                for m1, c1 in first:
                    c1 *= c
                    for m2, c2 in second:
                        key = (m1, m2)
                        new = get(key, 0) + c1 * c2
                        if new:
                            out[key] = new
                        else:
                            del out[key]
        return TensorElement(alg, 2, out)

    def apply_element_map(self, fn, leg: int) -> "TensorElement":
        """Apply a linear, parity-even map (monomial -> Element) to one leg."""
        out = {}
        for k, c in self.coeffs.items():
            accumulate(out, {k[:leg] + (m,) + k[leg + 1:]: cm
                             for m, cm in fn(k[leg]).coeffs.items()}, c)
        return TensorElement(self.alg, self.legs, out)

    def apply_tensor_map(self, fn, leg: int) -> "TensorElement":
        """Apply a map (monomial -> TensorElement) to one leg, splicing legs."""
        out = {}
        extra = None
        for k, c in self.coeffs.items():
            image = fn(k[leg])
            extra = image.legs
            accumulate(out, {k[:leg] + ms + k[leg + 1:]: cm
                             for ms, cm in image.coeffs.items()}, c)
        if extra is None:
            extra = 2  # zero tensor: leg count of the image is conventional
        return TensorElement(self.alg, self.legs - 1 + extra, out)

    def contract_scalar(self, fn, leg: int) -> "TensorElement":
        """Apply a map (monomial -> scalar) to one leg and drop the leg."""
        out = {}
        for k, c in self.coeffs.items():
            s = fn(k[leg])
            if s:
                accumulate(out, {k[:leg] + k[leg + 1:]: c}, s)
        return TensorElement(self.alg, self.legs - 1, out)

    def fold_mul(self) -> Element:
        """Multiply all legs together (the multiplication map of the algebra)."""
        alg = self.alg
        out = {}
        for k, c in self.coeffs.items():
            terms = {k[-1] if k else alg.unit_monomial(): 1}  # from the last leg on
            for m in filter(any, reversed(k[:-1])):  # a unit factor calls no product
                new_terms = {}
                for t, ct in terms.items():
                    accumulate(new_terms, alg.mul_monomials(m, t) if any(t) else {m: 1}, ct)
                terms = new_terms
            accumulate(out, terms, c)
        return Element(alg, out)


# -- local confluence ------------------------------------------------------------


@dataclass
class Discrepancy:
    word: tuple
    left_first: Element
    right_first: Element


@dataclass
class ConfluenceReport:
    overlaps_checked: int
    discrepancies: list = field(default_factory=list)

    @property
    def confluent(self) -> bool:
        return not self.discrepancies


def check_overlaps(pres: AlgebraPresentation) -> ConfluenceReport:
    """Resolve every overlap ambiguity of the rule system both ways.

    Overlap words are built from pairs of left-hand words of ``pres.rules``,
    swaps first, that share a boundary (descending triples, and cap overlaps
    such as g^cap*g and g*g^cap), whatever their length.  Reducing a word
    raises :class:`NonTerminationError` at a rewriting cycle.  An empty
    discrepancy list certifies local confluence, hence unique normal forms and
    a PBW basis for a terminating system.
    """
    lhs = [(w, pres._rhs[(w[0], w[-1])])
           for w in sorted(pres.rules, key=lambda w: (w[0] == w[-1], w))]

    def reduce_with_first(word, pos, span, rhs):
        out = {}
        prefix, suffix = word[:pos], word[pos + span:]
        for rc, letters in rhs:
            accumulate(out, pres._word_normal_form(prefix + letters + suffix), rc)
        return Element(pres, out)

    report = ConfluenceReport(0)
    for w1, rhs1 in lhs:
        for w2, rhs2 in lhs:
            for k in range(1, min(len(w1), len(w2))):
                if w1[len(w1) - k:] != w2[:k]:
                    continue
                word = w1 + w2[k:]
                report.overlaps_checked += 1
                left = reduce_with_first(word, 0, len(w1), rhs1)
                right = reduce_with_first(word, len(w1) - k, len(w2), rhs2)
                if left != right:
                    names = tuple(pres.gen_name(i) for i in word)
                    report.discrepancies.append(Discrepancy(names, left, right))
    return report
