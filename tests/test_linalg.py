"""Fraction-free row reduction against a pivot-1 Gauss-Jordan oracle."""

import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from superhopf.linalg import RowSpace, kernel_basis


def _sort_key(k):
    return (k % 3, -k)  # not the natural order, so pivots are not the least keys


class _Oracle:
    """Echelon form over Fractions, each row scaled to 1 at its pivot."""

    def __init__(self, key):
        self.key, self.rows = key, {}

    def reduce(self, vec):
        vec = {k: Fraction(v) for k, v in vec.items() if v}
        while vec and min(vec, key=self.key) in self.rows:
            p = min(vec, key=self.key)
            c = vec[p]
            for k, v in self.rows[p].items():
                vec[k] = vec.get(k, 0) - c * v
            vec = {k: v for k, v in vec.items() if v}
        return vec

    def insert(self, vec):
        vec = self.reduce(vec)
        if vec:
            p = min(vec, key=self.key)
            vec = self.rows[p] = {k: v / vec[p] for k, v in vec.items()}
        return vec

    def rref(self):
        reduced = {}
        for p in sorted(self.rows, key=self.key, reverse=True):
            row = dict(self.rows[p])
            for q, other in reduced.items():
                c = row.get(q, 0)
                for k, v in other.items():
                    row[k] = row.get(k, 0) - c * v
            reduced[p] = {k: v for k, v in row.items() if v}
        return [reduced[p] for p in sorted(reduced, key=self.key)]


def _oracle_rref(vectors):
    oracle = _Oracle(_sort_key)
    for vec in vectors:
        oracle.insert(vec)
    return oracle.rref()


def _oracle_kernel(vectors):
    """Relations among ``vectors``, found as in ``kernel_basis`` by tagging
    each vector with a unit coordinate (1, i) ordered after the others."""
    oracle = _Oracle(lambda k: k)
    kernel = []
    for i, vec in enumerate(vectors):
        row = oracle.insert({**{(0, k): v for k, v in vec.items()}, (1, i): 1})
        if row and min(row, key=oracle.key)[0] == 1:
            kernel.append({k[1]: v for k, v in row.items()})
    return kernel


def _random_scalar(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice([-1, 1]) * rng.randint(1, 9)
    if kind == 1:
        return Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 7))
    return Fraction(rng.randint(-9, 9) or 1, 1)  # integral, but a Fraction


def _random_vectors(rng):
    keys = range(rng.randint(1, 8))
    vectors = []
    for _ in range(rng.randint(1, 10)):
        support = rng.sample(keys, rng.randint(0, len(keys)))
        vectors.append({k: _random_scalar(rng) for k in support})
        if vectors and rng.random() < 0.2:  # a dependent combination
            a, b = rng.choice(vectors), rng.choice(vectors)
            c = _random_scalar(rng)
            combo = {k: a.get(k, 0) + c * b.get(k, 0) for k in a.keys() | b.keys()}
            vectors.append({k: v for k, v in combo.items() if v})
    return vectors


def _pivot_one_types(row):
    return all(type(v) is int if Fraction(v).denominator == 1 else type(v) is Fraction
               for v in row.values())


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_row_space_agrees_with_a_fraction_oracle(seed):
    rng = random.Random(seed)
    vectors = _random_vectors(rng)
    space = RowSpace(_sort_key)
    for vec in vectors:
        space.insert(vec)
    expected = _oracle_rref(vectors)
    assert space.rank == len(expected)
    basis = space.reduced_basis()
    assert basis == expected
    assert all(_pivot_one_types(row) for row in basis)
    # stored rows: all int, primitive, positive pivot
    for pivot, row in space.rows.items():
        assert pivot == min(row, key=_sort_key)
        assert all(type(v) is int for v in row.values()), row
        assert gcd(*row.values()) == 1 and row[pivot] > 0
    # membership: every input is in, and a probe is in exactly when it
    # leaves the oracle's rank unchanged
    assert all(space.contains(vec) for vec in vectors)
    for probe in _random_vectors(rng)[:4]:
        assert space.contains(probe) == (len(_oracle_rref(vectors + [probe]))
                                         == len(expected))
    # the kernel equals the oracle's, vector by vector, scaled to pivot 1,
    # and does not depend on the order of the coordinates
    kernel = kernel_basis(vectors)
    assert kernel == _oracle_kernel(vectors)
    assert kernel == kernel_basis([{_sort_key(k): v for k, v in vec.items()}
                                   for vec in vectors])
    assert len(kernel) == len(vectors) - len(expected)
    for combo in kernel:
        assert combo[min(combo)] == 1 and _pivot_one_types(combo)
        total = {}
        for i, c in combo.items():
            for k, v in vectors[i].items():
                total[k] = total.get(k, 0) + c * v
        assert not any(total.values())
