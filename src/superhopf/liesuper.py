"""Finite-dimensional Lie superalgebras given by structure constants.

Basis vectors carry a parity and an optional integer grading.  Structure
constants are stored as a dense table, and :meth:`LieSuperAlgebra.validate`
reads only its nonzero entries.  Its Jacobi check is what makes the rules of
an enveloping presentation confluent (the PBW theorem): :func:`hopf.enveloping`
states that as the presentation's ``pbw`` fact.  Vectors are dense tuples of
exact rationals in basis coordinates: integral ones are ``int``, so integer
structure constants stay integers.

Structure constants are solved for from matrices under the super-commutator
(:func:`matrix_superalgebra`) or read from a definition file with the
expression parser of :mod:`exprs` (:func:`load_algebra_file`).  Both built-ins
come from matrices: ``pl11`` is gl(1|1), and b
(:func:`upper_triangular_subalgebra`) is its upper triangular part.
:class:`SubSuperSpace` reads coordinates off the pivots of its reduced basis.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .algebra import Generator, format_terms
from .errors import AlgebraError, LineError, ParseError, UnsupportedFieldError
from .exprs import is_name, parse_linear_combination
from .linalg import RowSpace, accumulate, exact, kernel_basis


class LieSuperAlgebra:
    """Basis symbols with parities plus a table of brackets.

    ``brackets`` maps ``(i, j)`` to the coordinates of ``[b_i, b_j]`` as a
    mapping ``k -> coefficient``.  The table is filled from the stated pairs
    alone: when only one orientation of a pair is stated the other is filled
    in by super antisymmetry, and every other entry is one shared zero vector.
    """

    def __init__(self, basis: Sequence[Generator], brackets, name: str = ""):
        self.basis = tuple(basis)
        self.name = name or "liesuper"
        self.n = len(self.basis)
        if [g.pbw_index for g in self.basis] != list(range(self.n)):
            raise AlgebraError("basis must be listed in pbw order")
        names = [g.name for g in self.basis]
        if len(set(names)) != len(names):
            raise AlgebraError("basis names must be unique")
        zero = (0,) * self.n
        table = [[zero] * self.n for _ in range(self.n)]
        for (i, j), coords in brackets.items():
            table[i][j] = vec = _dense(coords, self.n)
            if (j, i) not in brackets:
                sign = 1 if (self.parity(i) * self.parity(j)) % 2 else -1
                table[j][i] = tuple(sign * c for c in vec)
        self.table = tuple(tuple(row) for row in table)

    # -- queries ---------------------------------------------------------------

    def parity(self, i: int) -> int:
        return self.basis[i].parity

    def vector_parity(self, vec) -> Optional[int]:
        parities = {self.parity(i) for i, c in enumerate(vec) if c}
        if len(parities) == 1:
            return parities.pop()
        if not parities:
            return 0
        return None

    def bracket(self, v, w):
        """[v, w] for dense coordinate vectors, extended bilinearly."""
        out = [0] * self.n
        for i, a in enumerate(v):
            if not a:
                continue
            for j, b in enumerate(w):
                if not b:
                    continue
                ab = a * b
                for k, c in enumerate(self.table[i][j]):
                    if c:
                        out[k] += ab * c
        return tuple(out)

    def format_vector(self, vec) -> str:
        return format_terms((g.name, c) for g, c in zip(self.basis, vec) if c)

    # -- validation --------------------------------------------------------------

    def validate(self) -> "ValidationReport":
        """Check super antisymmetry, the super Jacobi identity, and gradings,
        reading only the nonzero structure constants."""
        report = ValidationReport()
        n, basis = self.n, self.basis
        terms = [[{k: c for k, c in enumerate(br) if c} for br in row] for row in self.table]
        for i in range(n):
            for j in range(n):
                br = terms[i][j]
                target = (self.parity(i) + self.parity(j)) % 2
                for k in br:
                    if self.parity(k) != target:
                        report.violations.append(
                            f"parity: [{basis[i].name},{basis[j].name}] "
                            f"has a component of wrong parity ({basis[k].name})")
                zi, zj = basis[i].z_degree, basis[j].z_degree
                if zi is not None and zj is not None:
                    for k in br:
                        zk = basis[k].z_degree
                        if zk is not None and zk != zi + zj:
                            report.violations.append(
                                f"z-grading: [{basis[i].name},{basis[j].name}] "
                                f"is not homogeneous of degree {zi + zj}")
                sign = 1 if (self.parity(i) * self.parity(j)) % 2 else -1
                if br != {k: sign * c for k, c in terms[j][i].items()}:
                    report.violations.append(
                        f"antisymmetry fails on ({basis[i].name},{basis[j].name})")
        # partners[i]: the k with [b_i, b_k] != 0.  A triple (i, j, k) can
        # fail only if [b_j, b_k] or [b_i, b_k] is nonzero, or [b_l, b_k] for
        # some b_l in [b_i, b_j]; the k are visited in order, so the
        # violations keep the order of all n^3 triples
        partners = [{k for k, br in enumerate(row) if br} for row in terms]
        for i, row_i in enumerate(terms):
            for j, row_j in enumerate(terms):
                sign = 1 if (self.parity(i) * self.parity(j)) % 2 else -1
                ij = row_i[j]
                for k in sorted(partners[i].union(partners[j], *(partners[l] for l in ij))):
                    # graded Leibniz: [a,[b,c]] - [[a,b],c] - (-1)^{p(a)p(b)} [b,[a,c]]
                    # is zero, each inner bracket read off the nonzero constants
                    jk, ik = row_j[k], row_i[k]
                    diff = {}
                    for l, c in jk.items():
                        accumulate(diff, row_i[l], c)
                    for l, c in ij.items():
                        accumulate(diff, terms[l][k], -c)
                    for l, c in ik.items():
                        accumulate(diff, row_j[l], sign * c)
                    if diff:
                        report.violations.append(
                            f"jacobi fails on ({basis[i].name},{basis[j].name},{basis[k].name})")
        return report

    def unit(self, i: int):
        return _dense({i: 1}, self.n)


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


# -- matrix superalgebras ----------------------------------------------------------


def matrix_superalgebra(name: str, basis) -> LieSuperAlgebra:
    """The Lie superalgebra spanned by matrices under the super-commutator.

    ``basis`` lists ``(name, parity, z_degree, matrix)`` in pbw order, each
    matrix a sparse dict ``{(row, col): entry}``.  Each matrix is stacked over
    its coordinate vector in one :class:`RowSpace`, built once, and each
    ``[A, B] = AB - (-1)^{p(A)p(B)} BA`` is reduced against it; raises
    :class:`AlgebraError` when the matrices are linearly dependent or their
    span is not closed under the bracket.
    """
    space = RowSpace()  # keys (0, entry), then (1, i) for b_i, then the marker (2,)
    for i, (*_, mat) in enumerate(basis):
        if min(space.insert({**{(0, k): v for k, v in mat.items()}, (1, i): 1}))[0]:
            raise AlgebraError(f"{name}: the basis matrices are linearly dependent")
    brackets = {}
    for i, (a, pa, _, A) in enumerate(basis):
        for j, (b, pb, _, B) in enumerate(basis):
            comm = {(2,): 1}  # [A, B] over the marker
            for left, right, scale in ((A, B, 1), (B, A, 1 if pa * pb % 2 else -1)):
                for (r, k), x in left.items():
                    for (k2, c), y in right.items():
                        if k == k2:
                            accumulate(comm, {(0, (r, c)): x * y}, scale)
            # m*comm less a combination [sum c_i A_i | c | 0] of the rows, free
            # of entries exactly when [A, B] = sum (c_i / m) A_i
            res, pivot = space.reduce(comm)
            if pivot[0] == 0:
                raise AlgebraError(f"{name}: [{a}, {b}] leaves the span of the basis")
            m = res.pop((2,))
            brackets[(i, j)] = {k: Fraction(-c, m) for (_, k), c in res.items()}
    gens = [Generator(label, parity, idx, z_degree=z)
            for idx, (label, parity, z, _) in enumerate(basis)]
    return LieSuperAlgebra(gens, brackets, name=name)


def pl11() -> LieSuperAlgebra:
    """gl(1|1): the 2x2 matrix superalgebra with diagonal even part.

    Basis (in pbw order): x = identity, y = upper-left unit, u = upper-right
    unit (odd), v = lower-left unit (odd).
    """
    return matrix_superalgebra("pl11", [
        ("x", 0, 2, {(0, 0): 1, (1, 1): 1}),
        ("y", 0, 0, {(0, 0): 1}),
        ("u", 1, 1, {(0, 1): 1}),
        ("v", 1, 1, {(1, 0): 1}),
    ])


def upper_triangular_subalgebra() -> LieSuperAlgebra:
    """b: the subalgebra of pl11 spanned by y and u (upper triangular matrices)."""
    return matrix_superalgebra("sub(pl11)", [
        ("y", 0, 0, {(0, 0): 1}),
        ("u", 1, 1, {(0, 1): 1}),
    ])


# -- subspaces ------------------------------------------------------------------------


class SubSuperSpace:
    """A graded subspace stored as a fully reduced row-echelon basis.

    Spanning vectors must be parity-homogeneous; since homogeneous vectors
    of different parity have disjoint coordinate support, row reduction
    keeps the basis graded.
    """

    def __init__(self, parent: LieSuperAlgebra, vectors):
        self.parent = parent
        space = RowSpace()
        for vec in vectors:
            if parent.vector_parity(vec) is None:
                raise AlgebraError(
                    f"spanning vector {parent.format_vector(vec)} is not homogeneous")
            space.insert(_sparse(vec))
        self._space = space
        self.vectors = tuple(_dense(row, parent.n) for row in space.reduced_basis())

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def contains(self, vec) -> bool:
        return self._space.contains(_sparse(vec))

    def express(self, vec):
        """Coordinates of ``vec`` in the stored basis, or None if outside: the
        basis is fully reduced, so they are the entries of ``vec`` at the pivots."""
        if not self.contains(vec):
            return None
        return tuple(vec[p] for p in sorted(self._space.rows))


def _sparse(vec):
    return {i: c for i, c in enumerate(vec) if c}


def _dense(row, n):
    vec = [0] * n
    for k, v in row.items():
        vec[k] = exact(v)
    return tuple(vec)


def subalgebra_generated(g: LieSuperAlgebra, seeds) -> SubSuperSpace:
    """Smallest bracket-closed graded subspace containing the seeds."""
    sub = SubSuperSpace(g, seeds)
    while True:
        extra = []
        for v in sub.vectors:
            for w in sub.vectors:
                br = g.bracket(v, w)
                if any(br) and not sub.contains(br):
                    extra.append(br)
        if not extra:
            return sub
        sub = SubSuperSpace(g, list(sub.vectors) + extra)


def ad_eigen(g: LieSuperAlgebra, h, s: SubSuperSpace):
    """Exact rational eigenpairs of ad(h) restricted to s.

    Raises :class:`AlgebraError` when ad(h) fails to preserve s, and
    :class:`UnsupportedFieldError` when the characteristic polynomial has
    an irrational root.  Returns pairs (eigenvalue, vector in parent
    coordinates) sorted by decreasing eigenvalue, each eigenspace as its
    fully reduced echelon basis.
    """
    dim = s.dim
    cols = []
    for v in s.vectors:
        img = g.bracket(h, v)
        coords = s.express(img)
        if coords is None:
            raise AlgebraError(
                f"ad({g.format_vector(h)}) does not preserve the subspace "
                f"(image {g.format_vector(img)})")
        cols.append(coords)
    # matrix of ad(h) in the subspace basis: M[i][j] = coefficient of basis
    # vector i in the image of basis vector j
    M = [[cols[j][i] for j in range(dim)] for i in range(dim)]
    roots = _rational_roots(_char_poly(M))
    images = [_sparse(v) for v in s.vectors]
    pairs = []
    for lam in sorted(set(roots), reverse=True):
        shifted = [{i: M[i][j] - (lam if i == j else 0)
                    for i in range(dim) if M[i][j] - (lam if i == j else 0)}
                   for j in range(dim)]
        pairs += [(lam, _dense(row, g.n)) for row in kernel_basis(shifted, images)]
    return pairs


def _char_poly(M):
    """Coefficients [c_0, ..., c_n] of det(lam*I - M), Faddeev-LeVerrier."""
    n = len(M)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    Mk = [row[:] for row in M]
    for k in range(1, n + 1):
        trace = sum(Mk[i][i] for i in range(n))
        c = exact(Fraction(-trace, k))
        coeffs[n - k] = c
        if k == n:
            break
        for i in range(n):
            Mk[i][i] += c
        Mk = [[sum(M[i][r] * Mk[r][j] for r in range(n)) for j in range(n)]
              for i in range(n)]
    return coeffs


def _rational_roots(coeffs):
    """All roots with multiplicity; raises if any root is irrational.

    With integer coefficients a_0..a_n, the rational roots are r/a_n for the
    integer roots r of the monic sum of a_k a_n^(n-1-k) y^k, which
    :func:`_integer_roots` finds without factoring any coefficient.
    """
    poly = list(coeffs)
    while len(poly) > 1 and not poly[-1]:
        poly.pop()
    scale = lcm(*(c.denominator for c in poly))
    ints = [int(c * scale) for c in poly]
    n, lead = len(ints) - 1, ints[-1]
    roots = []
    for r in _integer_roots([c * lead ** (n - 1 - k) for k, c in enumerate(ints[:-1])]
                            + [1]):
        root = exact(Fraction(r, lead))
        while not _eval_poly(poly, root):
            roots.append(root)
            poly = _deflate(poly, root)
    if len(poly) > 1:
        raise UnsupportedFieldError("characteristic polynomial has an irrational root")
    return roots


def _integer_roots(q):
    """The distinct integer roots of a monic integer polynomial ``q``
    (coefficients from the constant up).

    Sturm bisection over intervals whose ends are half-integers, so never a
    root, within the Cauchy bound: a unit interval still holding a real root
    holds one integer, which is tested.
    """
    seq = [q, [k * c for k, c in enumerate(q)][1:]]
    while len(seq[-1]) > 1:  # Sturm's chain: minus the remainder of the last two
        rem, b = list(seq[-2]), seq[-1]
        while len(rem) >= len(b):
            f = Fraction(rem[-1], b[-1])
            for k, c in enumerate(b, len(rem) - len(b)):
                rem[k] -= f * c
            rem.pop()
        while rem and not rem[-1]:
            rem.pop()
        if not rem:
            break
        seq.append([-c for c in rem])

    def changes(e):  # sign changes of the sequence at e - 1/2
        signs = [v > 0 for v in (_eval_poly(p, Fraction(2 * e - 1, 2)) for p in seq) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    bound = 1 + max(abs(c) for c in q)
    roots, stack = [], [(-bound, bound + 1)]
    while stack:
        lo, hi = stack.pop()
        if changes(lo) == changes(hi):
            continue
        if hi - lo > 1:
            mid = (lo + hi) // 2
            stack += [(lo, mid), (mid, hi)]
        elif not _eval_poly(q, lo):
            roots.append(lo)
    return roots


def _eval_poly(poly, x):
    acc = 0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _deflate(poly, root):
    """Synthetic division by (lam - root); assumes root is exact."""
    out = [0] * (len(poly) - 1)
    carry = 0
    for k in range(len(poly) - 1, 0, -1):
        carry = poly[k] + carry * root
        out[k - 1] = carry
    return out


# -- definition files ----------------------------------------------------------------


def load_algebra_file(path) -> LieSuperAlgebra:
    """Read a structured-text algebra definition.

    Format: a ``[generators]`` section with lines ``name parity [zdegree]``,
    each name an identifier of the expression grammar, followed by a
    ``[brackets]`` section with lines ``a b = <expr>`` where the expression
    is in the ``normalize`` grammar (:mod:`exprs`) and of degree exactly 1 in
    the names listed so far, read as commuting variables.  Each ordered pair
    is stated at most once.  Omitted brackets default to zero (the reversed
    orientation of a stated bracket is filled in by super antisymmetry).
    ``#`` starts a comment.
    """
    basis = {}  # name -> Generator, in file order
    brackets = {}
    section = None
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        raise LineError("not UTF-8 text", data.count(b"\n", 0, exc.start) + 1) from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[]").strip().lower()
            if section not in ("generators", "brackets"):
                raise LineError(f"unknown section {section!r}", lineno)
            continue
        if section == "generators":
            parts = line.split()
            if len(parts) not in (2, 3):
                raise LineError(f"bad generator line {line!r}", lineno)
            name, parity = parts[0], parts[1]
            if not is_name(name):
                raise LineError(f"generator name {name!r} is not an identifier "
                                "(a letter or _, then letters, digits or _)", lineno)
            if parity not in ("0", "1"):
                raise LineError(f"parity must be 0 or 1, got {parity!r}", lineno)
            try:
                z = int(parts[2]) if len(parts) == 3 else None
            except ValueError:
                raise LineError(f"z-degree must be an integer, got {parts[2]!r}", lineno) from None
            if name in basis:
                raise LineError(f"generator {name} is defined twice", lineno)
            basis[name] = Generator(name, int(parity), len(basis), z_degree=z)
        elif section == "brackets":
            if "=" not in line:
                raise LineError(f"bracket line needs '=': {line!r}", lineno)
            lhs, rhs = line.split("=", 1)
            pair = lhs.split()
            if len(pair) != 2:
                raise LineError(f"bracket left side needs two names: {lhs!r}", lineno)
            try:
                i, j = basis[pair[0]].pbw_index, basis[pair[1]].pbw_index
            except KeyError as exc:
                raise LineError(f"unknown basis name {exc.args[0]!r}", lineno)
            if (i, j) in brackets:
                raise LineError(f"bracket {pair[0]} {pair[1]} is already stated", lineno)
            try:
                brackets[(i, j)] = parse_linear_combination(rhs.strip(), list(basis))
            except ParseError as exc:
                text = rhs.strip()
                if len(text) > 60:
                    text = text[:60] + "..."
                raise ParseError(f"{exc.message} on line {lineno}, in {text!r}",
                                 exc.position) from None
        else:
            raise LineError("content before any section header", lineno)
    if not basis:
        raise ParseError("no generators defined")
    return LieSuperAlgebra(list(basis.values()), brackets, name="file-algebra")
