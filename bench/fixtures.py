"""Lie superalgebra fixtures built from matrices, independent of the built-ins.

``gl(m|n)`` is spanned by the matrix units ``E_ij`` of a super vector space
whose first ``m`` coordinates are even; ``osp(1|2)`` is the subalgebra of
``gl(1|2)`` spanned by the sp(2) matrices on the odd block and two odd
matrices whose squares are nonzero.  Brackets are decomposed from the matrix
super-commutator ``AB - (-1)^{|A||B|} BA`` with a small exact solver, so the
fixtures do not depend on the row reduction they are used to measure.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from superhopf import Generator, LieSuperAlgebra

Matrix = dict  # (row, col) -> nonzero Fraction


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    out = {}
    for (i, k), x in a.items():
        for (k2, j), y in b.items():
            if k == k2:
                out[(i, j)] = out.get((i, j), 0) + x * y
    return {key: v for key, v in out.items() if v}


def _axpy(out: dict, c, vec: dict):
    for key, v in vec.items():
        new = out.get(key, 0) + c * v
        if new:
            out[key] = new
        else:
            out.pop(key, None)


def _super_commutator(a: Matrix, pa: int, b: Matrix, pb: int) -> Matrix:
    out = dict(_mat_mul(a, b))
    _axpy(out, Fraction(1 if pa * pb else -1), _mat_mul(b, a))
    return out


class _Basis:
    """Express matrices as combinations of a fixed independent list."""

    def __init__(self, mats):
        self.rows = []  # (pivot, vector, combination), in insertion order
        for idx, m in enumerate(mats):
            vec, combo = dict(m), {idx: Fraction(1)}
            self._reduce(vec, combo)
            if not vec:
                raise ValueError(f"basis matrix {idx} is linearly dependent")
            pivot = min(vec)
            c = vec[pivot]
            self.rows.append((pivot, {k: v / c for k, v in vec.items()},
                              {k: v / c for k, v in combo.items()}))

    def _reduce(self, vec, combo):
        for pivot, row, row_combo in self.rows:
            c = vec.get(pivot)
            if c:
                _axpy(vec, -c, row)
                _axpy(combo, -c, row_combo)

    def express(self, m: Matrix) -> dict:
        vec, combo = dict(m), {}
        self._reduce(vec, combo)
        if vec:
            raise ValueError("matrix lies outside the span: not bracket-closed")
        return {k: -v for k, v in combo.items()}


def matrix_superalgebra(name: str, elements) -> LieSuperAlgebra:
    """Lie superalgebra spanned by ``(name, parity, matrix)`` triples.

    The triples must be listed in PBW order and be linearly independent.
    """
    basis = _Basis([m for _, _, m in elements])
    gens = [Generator(label, parity, idx)
            for idx, (label, parity, _) in enumerate(elements)]
    brackets = {}
    for i, (_, pi, a) in enumerate(elements):
        for j, (_, pj, b) in enumerate(elements):
            brackets[(i, j)] = basis.express(_super_commutator(a, pi, b, pj))
    return LieSuperAlgebra(gens, brackets, name=name)


def gl(m: int, n: int) -> LieSuperAlgebra:
    """gl(m|n) on matrix units ``eIJ`` (1-based), even block first."""
    size = m + n
    if size > 9:
        raise ValueError("basis names use one digit per index")

    def parity(i, j):
        return int(i >= m) ^ int(j >= m)

    units = [(i, j) for i in range(size) for j in range(size)]
    units.sort(key=lambda ij: (parity(*ij), ij))
    return matrix_superalgebra(
        f"gl({m}|{n})",
        [(f"e{i + 1}{j + 1}", parity(i, j), {(i, j): Fraction(1)})
         for i, j in units])


def osp12() -> LieSuperAlgebra:
    """osp(1|2) inside gl(1|2): coordinate 0 even, 1 and 2 odd.

    ``[a, a] = 2e`` and ``[b, b] = -2f``, so both odd generators have power
    rules with a nonzero right-hand side.
    """
    one = Fraction(1)
    return matrix_superalgebra("osp(1|2)", [
        ("h", 0, {(1, 1): one, (2, 2): -one}),
        ("e", 0, {(1, 2): one}),
        ("f", 0, {(2, 1): one}),
        ("a", 1, {(1, 0): one, (0, 2): one}),
        ("b", 1, {(2, 0): one, (0, 1): -one}),
    ])


def pbw_dims(even: int, odd: int, n_max: int):
    """Dimensions of the PBW filtration of U(g): sum_j C(odd,j) C(n-j+even,even)."""
    return [sum(comb(odd, j) * comb(n - j + even, even)
                for j in range(min(odd, n) + 1))
            for n in range(n_max + 1)]


def definition_text(g: LieSuperAlgebra) -> str:
    """``g`` in the definition-file format read by ``load_algebra_file``."""
    lines = ["[generators]"]
    lines += [f"{b.name} {b.parity}" for b in g.basis]
    lines.append("[brackets]")
    for i in range(g.n):
        for j in range(i, g.n):
            vec = g.table[i][j]
            if any(vec):
                lines.append(f"{g.basis[i].name} {g.basis[j].name} = "
                             f"{g.format_vector(vec)}")
    return "\n".join(lines) + "\n"
