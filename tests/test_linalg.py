"""Fraction-free row reduction against a pivot-1 Gauss-Jordan oracle."""

import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superhopf import linalg
from superhopf.linalg import RowSpace, kernel_basis


def _sort_key(k):
    return (k % 3, -k)  # not the natural order, so pivots are not the least keys


def _t_first(m):
    return (not m[1], sum(m), m)  # the biproduct split's order, t the second letter


class _Oracle:
    """Echelon form over Fractions, each row scaled to 1 at its pivot and
    reduced at every pivot stored before it."""

    def __init__(self, key):
        self.key, self.rows = key, {}

    def reduce(self, vec):
        """``vec`` with every stored pivot key eliminated, least first."""
        vec = {k: Fraction(v) for k, v in vec.items() if v}
        while hits := [k for k in vec if k in self.rows]:
            p = min(hits, key=self.key)
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
    return _oracle_space(vectors).rref()


def _oracle_space(vectors):
    oracle = _Oracle(_sort_key)
    for vec in vectors:
        oracle.insert(vec)
    return oracle


def _oracle_kernel(vectors):
    """The oracle's reduced basis of the relations among ``vectors``: its RREF
    of each vector tagged with a unit coordinate (1, i) ordered after the
    others, kept where the pivot is a tag."""
    oracle = _Oracle(lambda k: k)
    for i, vec in enumerate(vectors):
        oracle.insert({**{(0, k): v for k, v in vec.items()}, (1, i): 1})
    return [{k[1]: v for k, v in row.items()} for row in oracle.rref() if min(row)[0] == 1]


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
    oracle = _oracle_space(vectors)
    expected = oracle.rref()
    assert space.rank == len(expected)
    basis = space.reduced_basis()
    assert basis == expected
    assert all(_pivot_one_types(row) for row in basis)
    # stored rows: the oracle's, in its order, all int, primitive, positive
    # pivot, and free of every pivot stored before them
    assert list(space.rows) == list(oracle.rows)
    earlier = set()
    for pivot, row in space.rows.items():
        assert space.monic(row) == oracle.rows[pivot]
        assert pivot == min(row, key=_sort_key)
        assert all(type(v) is int for v in row.values()), row
        assert gcd(*row.values()) == 1 and row[pivot] > 0
        assert not row.keys() & earlier
        earlier.add(pivot)
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


@pytest.mark.parametrize("sort_key, coords", [
    (None, list(range(6))),
    (_sort_key, sorted(range(12), key=_sort_key)[:6]),
    (_t_first, sorted(product(range(3), repeat=2), key=_t_first)[:6]),
], ids=["natural", "mod-3", "t-first"])
def test_a_key_that_cancels_and_fills_in_again(sort_key, coords, monkeypatch):
    # coords are in pivot order.  Reducing vec, the row at k0 fills in k3, the
    # row at k1 cancels it and the row at k2 fills it in again; so k3 is on
    # the heap twice, and its second copy is met after k3 was eliminated.
    k0, k1, k2, k3, k4, k5 = coords
    space, oracle = RowSpace(sort_key), _Oracle(sort_key or (lambda k: k))
    rows = [{k0: 3, k3: 1}, {k1: 2, k3: -1}, {k2: 1, k3: 3}, {k3: 2, k5: 1}]
    for row in rows:  # no earlier pivot in any row: each is stored as given
        assert space.insert(row) == row
        oracle.insert(row)
    push, pushed = linalg.heappush, []
    monkeypatch.setattr(linalg, "heappush",
                        lambda heap, entry: (pushed.append(entry[1]), push(heap, entry)))
    vec = {k0: 3, k1: 2, k2: Fraction(5, 2), k4: Fraction(1, 2)}
    residual, pivot = space.reduce(vec)
    assert pushed == [k3, k3, k5]
    want = oracle.reduce(vec)
    assert pivot == min(residual, key=oracle.key) == k4
    assert {k: Fraction(v, residual[k4]) for k, v in residual.items()} \
        == {k: v / want[k4] for k, v in want.items()}
    stored = space.insert(vec)
    assert space.monic(stored) == oracle.insert(vec)
    assert space.reduced_basis() == oracle.rref()
    assert space.contains({k: 2 * v for k, v in vec.items()} | {k3: 4, k5: 2})


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_the_image_of_the_kernel_agrees_with_a_fraction_oracle(seed):
    rng = random.Random(seed)
    columns = _random_vectors(rng)
    images = _random_vectors(rng)
    images = (images * len(columns))[:len(columns)]  # parallel, some repeated
    combos = []
    for combo in _oracle_kernel(columns):
        total = {}
        for i, c in combo.items():
            for k, v in images[i].items():
                total[k] = total.get(k, 0) + c * v
        combos.append({k: v for k, v in total.items() if v})
    basis = kernel_basis(columns, images, _sort_key)
    assert basis == _oracle_space(combos).rref()
    assert all(_pivot_one_types(row) for row in basis)


def test_the_kernel_is_fully_reduced():
    # found one vector at a time, the first relation holds the pivot 2 of the
    # second; the returned basis holds no pivot but its own
    vectors = [{0: -1}, {1: 2}, {0: 1}, {0: -2}, {0: 1, 1: -1}]
    kernel = kernel_basis(vectors)
    assert kernel == _oracle_kernel(vectors)
    pivots = [min(row) for row in kernel]
    assert pivots == sorted(pivots) and len(kernel) == 3
    for row, pivot in zip(kernel, pivots):
        assert row[pivot] == 1
        assert not row.keys() & (set(pivots) - {pivot})
