"""Exact sparse vectors and row reduction over the rationals.

Vectors are dicts mapping hashable keys to nonzero exact scalars: an ``int``
when the value is integral, a ``Fraction`` only where a division made one
(:func:`exact` is that rule).  :func:`accumulate` is the one sparse sum that
keeps the values nonzero; every linear combination in the package goes
through it.  Pivots are chosen by minimal sort key, so every reduction is
deterministic and results are reproducible bit-for-bit;
:func:`kernel_image_basis` turns a kernel into the reduced basis of its image.
"""

from __future__ import annotations

from fractions import Fraction


def exact(c):
    """``c`` as an exact scalar: an ``int`` when integral, else a ``Fraction``."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class RowSpace:
    """Incrementally maintained row-echelon span of sparse vectors.

    ``sort_key`` maps a coordinate key to something orderable; it defaults
    to the key itself.  Stored rows are scaled so the pivot entry is 1.
    """

    def __init__(self, sort_key=None):
        self._key = sort_key if sort_key is not None else (lambda k: k)
        self.rows = {}  # pivot key -> row (dict), row[pivot] == 1

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec):
        """Eliminate stored pivots from ``vec`` until its leading key is free.

        Returns the residual dict; an empty residual means membership.
        """
        vec = {k: v for k, v in vec.items() if v}
        while vec:
            pivot = min(vec, key=self._key)
            row = self.rows.get(pivot)
            if row is None:
                return vec
            _eliminate(vec, row, pivot, vec.pop(pivot))
        return vec

    def insert(self, vec):
        """Add ``vec`` to the span.  Returns the stored row, or None if dependent."""
        res = self.reduce(vec)
        if not res:
            return None
        pivot = min(res, key=self._key)
        c = res[pivot]
        row = res if c == 1 else {k: exact(Fraction(v, c)) for k, v in res.items()}
        self.rows[pivot] = row
        return row

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def reduced_basis(self):
        """Fully back-substituted canonical basis, sorted by pivot key."""
        pivots = sorted(self.rows, key=self._key)
        reduced = {}
        for p in reversed(pivots):
            row = dict(self.rows[p])
            hits = [q for q in row if q != p and q in self.rows]
            for q in sorted(hits, key=self._key):
                c = row.pop(q, 0)
                if c:
                    _eliminate(row, reduced[q], q, c)
            reduced[p] = row
        return [reduced[p] for p in pivots]


def _eliminate(vec, row, pivot, c):
    """Subtract ``c * row`` from ``vec`` in place, skipping the pivot entry.

    Kept apart from :func:`accumulate`: the pivot entry is already gone from
    ``vec``, and recomputing it only to delete it costs a sum per step.
    """
    for k, v in row.items():
        if k == pivot:
            continue
        new = vec.get(k, 0) - c * v
        if new:
            vec[k] = new
        else:
            vec.pop(k, None)


def accumulate(out, coeffs, scale=None):
    """Add ``coeffs``, times ``scale`` if one is given, into ``out`` in place.

    ``scale`` and the coefficients are nonzero, so a new key needs no sum;
    an entry that cancels is deleted, so ``out`` never stores a zero.  A
    plain sum passes no scale, so it forms no products.
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


def kernel_basis(vectors, sort_key=None):
    """Basis of ``{c : sum_i c_i * vectors[i] == 0}`` over the rationals.

    ``vectors`` is a sequence of sparse dicts.  Returns a list of dicts
    mapping the index i to the coefficient c_i, row-reduced and
    deterministic.
    """
    base = sort_key if sort_key is not None else (lambda k: k)

    def aug_key(k):
        tag, payload = k
        return (0, base(payload)) if tag == 0 else (1, payload)

    space = RowSpace(aug_key)
    kernels = []
    for i, vec in enumerate(vectors):
        aug = {(0, k): v for k, v in vec.items() if v}
        aug[(1, i)] = 1
        stored = space.insert(aug)
        if stored is not None and min(stored, key=aug_key)[0] == 1:
            # All coordinate keys were eliminated: the coefficient part is a
            # kernel vector (pivot normalized to 1 already).
            kernels.append({k[1]: v for k, v in stored.items()})
    return kernels


def kernel_image_basis(columns, images, column_key, image_key):
    """Reduced basis of ``{sum_i c_i * images[i] : c in kernel(columns)}``.

    ``columns`` and ``images`` are parallel sequences of sparse dicts;
    ``column_key`` orders the coordinates of ``columns`` for the kernel and
    ``image_key`` those of the images for the returned basis.
    """
    space = RowSpace(image_key)
    for combo in kernel_basis(columns, sort_key=column_key):
        vec = {}
        for idx, c in combo.items():
            accumulate(vec, images[idx], c)
        space.insert(vec)
    return space.reduced_basis()
