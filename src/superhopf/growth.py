"""Filtration dimension counting and polynomial-growth-degree detection.

``FiltrationClosure`` maintains exact degree-by-degree bases, pivoting on
top-degree terms by default, of the span of all products of at most n
generators, whose dimensions :func:`growth_series` counts as normal
monomials when the presentation states its ``pbw`` fact (the diamond lemma
then makes them a basis), and otherwise by the closure.  Growth degrees come
from finite differences over the window, taken order by order up to the
detected one (a desk-scale reading of Gelfand-Kirillov dimension: reports
carry the window, never a limit).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate as partial_sums, pairwise
from typing import Optional, Sequence

from .algebra import AlgebraPresentation, Element, monomial_key
from .errors import AlgebraError
from .linalg import RowSpace, accumulate, kernel_basis


class FiltrationClosure:
    """Degree-filtered basis of the subalgebra generated by some elements.

    Level n holds the new basis elements reachable as products of
    generators with total weight n (every generator has weight 1 unless
    overridden; weight-0 generators are closed off within each level).
    ``order`` is the sort key of the row space.  By default rows are ordered
    by degree descending, so each pivots on a top-degree term and a level-n
    product is reduced from its new top-degree part down.  The biproduct
    check orders every t-monomial first instead, so that its rows with a
    t-free pivot are t-free and span the t-free part.  The span at each
    level does not depend on the order; bases are reproducible.  ``levels``
    hold the space's primitive integer rows, so products stay integral;
    :meth:`basis_up_to` hands out the pivot-1 multiples.
    """

    def __init__(self, pres: AlgebraPresentation, gens: Sequence[Element],
                 weights=None, order=None):
        self.pres = pres
        self.gens = list(gens)
        for g in self.gens:
            pres._require_same(g.alg)
        if weights is None:
            weights = [1] * len(self.gens)
        if len(weights) != len(self.gens) or any(w < 0 for w in weights):
            raise AlgebraError("weights must be non-negative, one per generator")
        self.weights = list(weights)
        self.space = RowSpace(order or (lambda m: (-sum(m), m)))
        self.levels = []  # levels[n] = new Elements at level n, as stored rows
        self.dims = []    # dims[n] = cumulative rank through level n
        self._add_level([self.pres.one()])

    def _add_level(self, products):
        """Append the level spanned by ``products`` and the weight-0 closure."""
        zero_gens = [g for g, w in zip(self.gens, self.weights) if w == 0]
        new = frontier = self._insert_all(products)
        while frontier:
            frontier = self._insert_all(e * g for e in frontier for g in zero_gens)
            new = new + frontier
        self.levels.append(new)
        self.dims.append(self.space.rank)

    def _insert_all(self, products):
        """The stored rows of the products that enlarge the span, as Elements."""
        out = []
        for prod in products:
            stored = self.space.insert(prod.coeffs)
            if stored is not None:
                out.append(Element(self.pres, stored))
        return out

    def extend_to(self, n: int):
        while len(self.levels) <= n:
            level = len(self.levels)
            self._add_level(e * g for g, w in zip(self.gens, self.weights)
                            if 0 < w <= level for e in self.levels[level - w])
        return self

    def basis_up_to(self, n: int):
        """The basis through level n, each element scaled to 1 at its pivot."""
        self.extend_to(n)
        return [Element(self.pres, self.space.monic(e.coeffs))
                for level in self.levels[:n + 1] for e in level]

    def contains(self, a: Element) -> bool:
        """Membership in the span of the levels built so far."""
        return self.space.contains(a.coeffs)


@dataclass
class GrowthReport:
    generator_names: list
    dims: list
    detected_degree: Optional[int]
    stabilization_onset: Optional[int]

    @property
    def stabilized(self) -> bool:
        return self.detected_degree is not None

    def to_text(self) -> str:
        rows = [[str(n), str(dim)] for n, dim in enumerate(self.dims)]
        seq = self.dims
        for d in (1, 2, 3):
            seq = _differences(seq)  # seq[i] = d-th difference at n = i + d
            for n, row in enumerate(rows):
                row.append(str(seq[n - d]) if n >= d else "-")
        degree = ("not stabilized onset: -" if self.detected_degree is None
                  else f"{self.detected_degree} onset: {self.stabilization_onset}")
        lines = [f"generators: {' '.join(self.generator_names)}",
                 *(" ".join(row) for row in rows), f"degree: {degree}"]
        return "\n".join(lines) + "\n"


def _differences(seq):
    return [b - a for a, b in pairwise(seq)]


def detect_degree(dims):
    """Smallest d whose d-th difference of ``dims`` ends in a run of at least 3
    equal positive values, and the n where that run starts, taking the
    differences one order at a time; (None, None) when no order with 3 values does."""
    seq = dims
    for d in range(len(dims) - 2):
        if seq[-1] == seq[-2] == seq[-3] > 0:
            start = len(seq) - 3
            while start and seq[start - 1] == seq[-1]:
                start -= 1
            return d, d + start
        seq = _differences(seq)
    return None, None


def growth_series(P: AlgebraPresentation, gens: Sequence[Element],
                  n_max: int) -> GrowthReport:
    """Dimensions of the generator filtration for n = 0..n_max, counted by
    :func:`_normal_monomial_dims` where it applies, plus the detected degree."""
    dims = (_normal_monomial_dims(P, gens, n_max)
            or FiltrationClosure(P, gens).extend_to(n_max).dims)
    return GrowthReport([str(g) for g in gens], dims, *detect_degree(dims))


def _normal_monomial_dims(P, gens, n_max):
    """The counts of normal monomials of degree <= n on the generators' letters
    S, or None unless ``P`` states its ``pbw`` fact, every given generator is
    a multiple of one letter and the rules among S keep to S.  A letter's
    power rule lies among S exactly when the letter does, so the caps of S
    are the presentation's."""
    if not P.pbw or not all(g.alg is P and len(g.coeffs) == 1
                            and sum(next(iter(g.coeffs))) == 1 for g in gens):
        return None
    letters = {next(iter(g.coeffs)).index(1) for g in gens}
    rules = {w: rhs for w, rhs in P.rules.items() if set(w) <= letters}
    if any(e and i not in letters for r in rules.values() for m in r for i, e in enumerate(m)):
        return None
    dims = [1] + [0] * n_max
    for cap in [P._caps.get(i) for i in letters] + [None]:
        dims = list(partial_sums(dims))  # times 1/(1 - t); the last pass sums the degrees
        if cap:  # times 1 - t^cap
            dims[cap:] = [a - b for a, b in zip(dims[cap:], dims)]
    return dims


def centralizer_degree_bounded(P: AlgebraPresentation,
                               constraint_gens: Sequence[Element],
                               filtration_bound: int,
                               z_degree: Optional[int] = None):
    """Row-reduced basis of {c : [c, g] = 0 for all g} within the bounded span.

    The commutator is the ordinary one.  With ``z_degree`` given, the search
    space is restricted to monomials of that integer degree (requires the
    presentation to declare z-degrees).  Each commutator ``[m, g]`` is summed
    straight from the memoized products of ``m`` with the terms of ``g``.
    """
    if z_degree is not None and not P.has_z_degrees():
        raise AlgebraError(f"{P.name} does not declare z-degrees")
    for g in constraint_gens:
        P._require_same(g.alg)
    mul, columns, images = P.mul_monomials, [], []
    for m in P.enumerate_monomials(filtration_bound, z_degree=z_degree):
        stacked = {}
        for pos, g in enumerate(constraint_gens):
            comm = {}
            for mg, cg in g.items():
                accumulate(comm, mul(m, mg), cg)
                accumulate(comm, mul(mg, m), -cg)
            stacked.update(((pos, mm), c) for mm, c in comm.items())
        columns.append(stacked)
        images.append({m: 1})
    basis = kernel_basis(columns, images, monomial_key)
    return [Element(P, row) for row in basis]
