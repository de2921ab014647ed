"""Exact sparse vectors and row reduction over the rationals.

Vectors are dicts mapping hashable keys to nonzero exact scalars: ``int``
or ``Fraction``, never a float.  Int arithmetic stays int and :func:`exact`
demotes an integral quotient to an ``int``, but an integral sum or product
of ``Fraction`` values stays ``Fraction(n, 1)``, which equals, hashes and
prints like the ``int``.  :func:`accumulate` is the one sparse sum that
keeps the values nonzero.  A few hot loops add by the same rule in place
instead, one term at a time with no dict built for it, each because an A/B
of the benchmark workloads measured :func:`accumulate` slower there:
``AlgebraPresentation._fold``, a sorted join and each term of a memoized
entry (straighten ``wall_s`` +5-9% with :func:`accumulate`); the
one-letter term of ``AlgebraPresentation._entry``, a sorted join
(straighten ``op_p98_ms`` +4-6% when folded into it);
``TensorElement.tensor_mul`` (hopf-maps ``wall_s`` +6%).  The one-term
``Element.__mul__`` scales the memo entry (straighten ``wall_s`` +6-10%
without it) and the one-term ``HopfStructureMaps.coproduct`` the memoized
image (cli-suite ``wall_s`` +3-5% without it), with no sum at all; and
:func:`_eliminate` subtracts a scaled row and pushes each key it fills in
on the reduction's heap, which :func:`accumulate` does not.

:class:`RowSpace` stores rows fraction-free: all ``int``, primitive (gcd 1)
and with a positive pivot entry, eliminated by cross-multiplication (compare
Bareiss 1968).  A row is divided by its pivot entry only where a caller sees
it: :meth:`RowSpace.monic` and :meth:`RowSpace.reduced_basis`.
:meth:`RowSpace.reduce` takes a vector's keys off a heap, least first, and
eliminates every stored pivot, so no row holds an earlier row's pivot and
results are reproducible bit-for-bit.  :func:`kernel_basis` is the one kernel
routine: it stacks each column over its image in one space and hands out the
fully reduced basis of the image of the kernel, which is unique, so it does
not depend on the order of the column coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


def exact(c):
    """``c`` as an exact scalar: an ``int`` when integral, else a ``Fraction``."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class RowSpace:
    """Incrementally maintained row-echelon span of sparse vectors.

    ``sort_key`` maps coordinate keys one-to-one to orderable values, once
    per key; it defaults to the key itself.  A row's pivot is its least key;
    no row holds an earlier row's pivot.  Each stored row is the unique
    primitive integral multiple of its vector with a positive pivot, so
    ``rows`` holds no ``Fraction``; :meth:`monic` divides a row by its pivot.
    """

    def __init__(self, sort_key=None):
        self._key = _SortKeys(sort_key or (lambda k: k)).__getitem__
        self.rows = {}  # pivot key -> primitive int row, row[pivot] > 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec):
        """Eliminate every stored pivot from ``vec``.

        Returns an integral residual, a positive multiple of ``vec`` minus a
        combination of the rows, and its pivot, the least key left; an empty
        residual, with pivot None, means membership.  Keys come off a heap
        least first: :func:`_eliminate` pushes the keys it fills in, a popped
        key that has cancelled since is skipped, and a free one is kept.
        """
        rows, key = self.rows, self._key
        out, heap, mixed = {}, [], False  # one copy: drop zeros, note non-int entries
        for k, v in vec.items():
            if v:
                heap.append(entry := key(k))
                out[entry[1]] = v  # the one key object: probes match on identity
                if type(v) is not int:
                    mixed = True
        if mixed:  # clear the denominators; Fraction(n, 1) becomes an int
            den = lcm(*(v.denominator for v in out.values()))
            out = {k: v.numerator * (den // v.denominator) for k, v in out.items()}
        heapify(heap)
        pivot = None
        while heap:  # every live key is on the heap
            k = heappop(heap)[1]
            a = out.get(k)
            if a is None:
                continue  # cancelled after it was pushed
            row = rows.get(k)
            if row is not None:
                out = _eliminate(out, row, k, a, heap, key)
            elif pivot is None:
                pivot = k  # rows with larger pivots never reach it
        return out, pivot

    def insert(self, vec):
        """Add ``vec`` to the span.  Returns the stored row, or None if dependent."""
        res, pivot = self.reduce(vec)
        if not res:
            return None
        c = res[pivot]  # a pivot entry 1 leaves the gcd 1 already
        row = self.rows[pivot] = res if c == 1 else _primitive(res, c)
        return row

    def contains(self, vec) -> bool:
        return not self.reduce(vec)[0]

    def monic(self, row):
        """``row`` divided by its pivot entry, ints where integral."""
        b = row[min(row, key=self._key)]
        return row if b == 1 else {k: exact(Fraction(v, b)) for k, v in row.items()}

    def reduced_basis(self, keep=None):
        """Fully back-substituted canonical basis, sorted by pivot key.

        With ``keep``, the basis of only the rows whose pivot it accepts.
        ``keep`` must accept every key that sorts after an accepted one, so
        those rows hold no other row's pivot and span the part of the span
        on the accepted keys.
        """
        pivots = sorted(filter(keep, self.rows) if keep else self.rows, key=self._key)
        reduced = {}
        for p in reversed(pivots):
            row = dict(self.rows[p])
            hits = [q for q in row if q != p and q in self.rows]
            for q in sorted(hits, key=self._key):
                c = row.get(q)
                if c:
                    row = _eliminate(row, reduced[q], q, c, [], self._key)
            reduced[p] = _primitive(row, row[p])
        return [self.monic(reduced[p]) for p in pivots]


class _SortKeys(dict):
    """Coordinate -> ``(sort key, coordinate)``, made on the first lookup: a
    heap entry, and the one key object a :class:`RowSpace` stores."""

    def __init__(self, sort_key):
        self.sort_key = sort_key

    def __missing__(self, k):
        entry = self[k] = (self.sort_key(k), k)
        return entry


def _primitive(vec, lead):
    """``vec`` divided by the gcd of its entries, signed so ``lead`` turns positive."""
    g = gcd(*vec.values()) if lead > 0 else -gcd(*vec.values())
    return vec if g == 1 else {k: v // g for k, v in vec.items()}


def _eliminate(vec, row, pivot, a, heap, key):
    """``(b/g)*vec - (a/g)*row``, where ``a = vec[pivot]``, ``b = row[pivot]``
    and ``g = gcd(a, b)``, in place unless ``b/g`` scales ``vec``; each key
    filled in goes on ``heap`` as ``key(k)``.  The pivot entry cancels with
    the rest: one product per call, where a skip costs a test per entry.
    """
    b = row[pivot]
    if b != 1:
        g = gcd(a, b)
        if g != b:
            m = b // g
            vec = {k: m * v for k, v in vec.items()}
        a //= g
    for k, v in row.items():
        old = vec.get(k)
        if old is None:
            vec[k] = -a * v
            heappush(heap, key(k))
        elif new := old - a * v:
            vec[k] = new
        else:
            del vec[k]
    return vec


def accumulate(out, coeffs, scale=None):
    """Add ``coeffs``, times ``scale`` if one is given, into ``out`` in place.

    ``scale`` and the coefficients are nonzero, so a new key needs no sum;
    an entry that cancels is deleted, so ``out`` never stores a zero.  A
    plain sum passes no scale, so it forms no products.  The in-place adds of
    the module docstring follow the same rule without a dict per term.
    """
    for k, c in coeffs.items():
        if scale is not None:
            c = scale * c
        old = out.get(k)
        if old is None:
            out[k] = c
        else:
            new = old + c
            if new:
                out[k] = new
            else:
                del out[k]


def kernel_basis(columns, images=None, image_key=None):
    """Reduced basis of ``{sum_i c_i * images[i] : sum_i c_i * columns[i] == 0}``.

    ``columns`` is a sequence of sparse dicts with mutually comparable keys,
    ``images`` a parallel one whose keys ``image_key`` orders.  The images
    default to the unit vectors ``{i: 1}``, which makes the result the kernel
    itself: dicts mapping the index i to c_i.  Each column is stacked over its
    image in one :class:`RowSpace`, column coordinates first, so a row with an
    image pivot is free of the columns, and those rows span the result.  They
    are back-substituted once into its fully reduced echelon basis, which is
    unique, so it does not depend on the order of the column coordinates.
    """
    if images is None:
        images = [{i: 1} for i in range(len(columns))]
    image_key = image_key or (lambda k: k)
    space = RowSpace(lambda k: k if k[0] == 0 else (1, image_key(k[1])))
    for column, image in zip(columns, images):
        stacked = {(0, k): v for k, v in column.items()}
        stacked.update(((1, k), v) for k, v in image.items())
        space.insert(stacked)
    return [{k[1]: v for k, v in row.items()}
            for row in space.reduced_basis(lambda p: p[0] == 1)]
