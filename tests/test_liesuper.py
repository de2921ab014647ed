"""Structure constants, validation, subalgebras, and exact eigenpairs."""

from fractions import Fraction

import pytest

from superhopf import (SubSuperSpace, ad_eigen, liesuper, matrix_superalgebra, pl11,
                       subalgebra_generated, upper_triangular_subalgebra)
from superhopf.algebra import Generator
from superhopf.errors import AlgebraError, UnsupportedFieldError
from superhopf.hopf import enveloping
from superhopf.liesuper import LieSuperAlgebra, _char_poly, _rational_roots
from superhopf.linalg import kernel_basis

F = Fraction


@pytest.fixture(scope="module")
def g():
    return pl11()


def index(g, name):
    return [b.name for b in g.basis].index(name)


def vec(g, name):
    return g.unit(index(g, name))


def test_matrix_brackets_match_the_table(g):
    # brackets computed from 2x2 super-commutators against the known table
    expected = {
        ("y", "u"): {"u": 1},
        ("y", "v"): {"v": -1},
        ("u", "v"): {"x": 1},
        ("u", "u"): {},
        ("v", "v"): {},
        ("x", "y"): {}, ("x", "u"): {}, ("x", "v"): {}, ("x", "x"): {},
        ("y", "y"): {},
    }
    for (a, b), coords in expected.items():
        br = g.bracket(vec(g, a), vec(g, b))
        want = [F(0)] * g.n
        for name, c in coords.items():
            want[index(g, name)] = F(c)
        assert br == tuple(want), (a, b)


def test_validate_pl11_and_abelian(g):
    assert g.validate().ok
    abelian = LieSuperAlgebra(
        [Generator("a", 0, 0), Generator("b", 0, 1)], {}, name="abelian2")
    assert abelian.validate().ok


def dense_violations(g):
    """The violations in the order of the validation loop that read every
    structure constant: per pair parity, z-grading and antisymmetry, then three
    dense brackets per basis triple for the Jacobi identity."""
    violations, n, names = [], g.n, [b.name for b in g.basis]
    for i in range(n):
        for j in range(n):
            br = g.table[i][j]
            target = (g.parity(i) + g.parity(j)) % 2
            for k, c in enumerate(br):
                if c and g.parity(k) != target:
                    violations.append(f"parity: [{names[i]},{names[j]}] "
                                      f"has a component of wrong parity ({names[k]})")
            zi, zj = g.basis[i].z_degree, g.basis[j].z_degree
            if zi is not None and zj is not None:
                for k, c in enumerate(br):
                    zk = g.basis[k].z_degree
                    if c and zk is not None and zk != zi + zj:
                        violations.append(f"z-grading: [{names[i]},{names[j]}] "
                                          f"is not homogeneous of degree {zi + zj}")
            sign = 1 if (g.parity(i) * g.parity(j)) % 2 else -1
            if br != tuple(sign * c for c in g.table[j][i]):
                violations.append(f"antisymmetry fails on ({names[i]},{names[j]})")
    units, table = [g.unit(i) for i in range(n)], g.table
    for i in range(n):
        for j in range(n):
            sign = -1 if (g.parity(i) * g.parity(j)) % 2 else 1
            for k in range(n):
                lhs = g.bracket(units[i], table[j][k])
                rhs1 = g.bracket(table[i][j], units[k])
                rhs2 = g.bracket(units[j], table[i][k])
                if lhs != tuple(x + sign * y for x, y in zip(rhs1, rhs2)):
                    violations.append(f"jacobi fails on ({names[i]},{names[j]},{names[k]})")
    return violations


def corrupted(g, changes, name="corrupted"):
    """``g`` with the brackets ``(a, b) -> {c: coefficient}`` of ``changes``
    replaced, every other ordered pair kept as stated."""
    brackets = {(i, j): {k: c for k, c in enumerate(g.table[i][j]) if c}
                for i in range(g.n) for j in range(g.n)}
    for (a, b), coords in changes.items():
        brackets[(index(g, a), index(g, b))] = {index(g, c): v for c, v in coords.items()}
    return LieSuperAlgebra(g.basis, brackets, name=name)


CORRUPTED_PL11 = {  # label -> (changed brackets, one violation they cause)
    "u-v-to-y": ({("u", "v"): {"y": 1}, ("v", "u"): {"y": 1}},
                 "jacobi fails on (u,u,v)"),  # [u,[u,v]] = -u, not u
    "antisymmetry": ({("u", "y"): {"u": 2}},  # [y,u] = u but [u,y] = 2u
                     "antisymmetry fails on (y,u)"),
    "wrong-parity": ({("y", "u"): {"u": 1, "x": 1}, ("u", "y"): {"u": -1, "x": -1}},
                     "parity: [y,u] has a component of wrong parity (x)"),
}


def test_validate_catches_a_corrupted_bracket(g):
    changes, violation = CORRUPTED_PL11["u-v-to-y"]
    report = corrupted(g, changes).validate()
    assert not report.ok
    assert violation in report.violations


def one_inner_bracket():
    """[a,c] = b and [d,b] = b, all even: in the (a,d,c) instance of the
    Jacobi identity only the inner bracket [a,c] is nonzero, and it fails."""
    basis = [Generator(name, 0, i) for i, name in enumerate("abcd")]
    return LieSuperAlgebra(basis, {(0, 2): {1: 1}, (3, 1): {1: 1}}, name="one-inner")


def outer_bracket_only():
    """[a,b] = d and [d,c] = d, all even: in the (a,b,c) instance of the
    Jacobi identity only the outer bracket [[a,b],c] is nonzero, and it fails."""
    basis = [Generator(name, 0, i) for i, name in enumerate("abcd")]
    return LieSuperAlgebra(basis, {(0, 1): {3: 1}, (3, 2): {3: 1}}, name="outer-only")


def validation_cases():
    """label -> (builder, one violation it reports, or None for a valid table)."""
    from test_products import gl, osp12
    cases = {"pl11": (pl11, None), "b": (upper_triangular_subalgebra, None),
             "gl(2|1)": (lambda: gl(2, 1), None), "gl(2|2)": (lambda: gl(2, 2), None),
             "osp(1|2)": (osp12, None),
             "one-inner": (one_inner_bracket, "jacobi fails on (a,d,c)"),
             "outer-only": (outer_bracket_only, "jacobi fails on (a,b,c)")}
    for label, (changes, violation) in CORRUPTED_PL11.items():
        cases[label] = (lambda changes=changes: corrupted(pl11(), changes)), violation
    return cases


@pytest.mark.parametrize("label", sorted(validation_cases()))
def test_validation_reads_the_same_violations_as_the_dense_loop(label):
    build, violation = validation_cases()[label]
    alg = build()
    violations = alg.validate().violations
    assert violations == dense_violations(alg)
    assert violation in violations if violation else not violations


def test_z_grading_is_declared_and_additive(g):
    degrees = {"x": 2, "y": 0, "u": 1, "v": 1}
    for name, d in degrees.items():
        assert g.basis[index(g, name)].z_degree == d
    # every bracket is z-homogeneous of the summed degree (checked by validate)
    assert g.validate().ok


def test_subalgebra_generated(g):
    b = subalgebra_generated(g, [vec(g, "y"), vec(g, "u")])
    assert b.dim == 2
    assert b.contains(vec(g, "y")) and b.contains(vec(g, "u"))

    closed = subalgebra_generated(g, [vec(g, "u"), vec(g, "v")])
    assert closed.dim == 3
    assert closed.contains(vec(g, "x"))

    center = subalgebra_generated(g, [vec(g, "x")])
    assert center.dim == 1


def test_subalgebra_generated_idempotent_and_monotone(g):
    small = subalgebra_generated(g, [vec(g, "u")])
    again = subalgebra_generated(g, list(small.vectors))
    assert again.vectors == small.vectors
    bigger = subalgebra_generated(g, [vec(g, "u"), vec(g, "v")])
    for v in small.vectors:
        assert bigger.contains(v)


def test_non_homogeneous_seed_rejected(g):
    mixed = tuple(a + b for a, b in zip(vec(g, "y"), vec(g, "u")))
    with pytest.raises(AlgebraError):
        subalgebra_generated(g, [mixed])


def test_ad_eigen_on_odd_part(g):
    odd = SubSuperSpace(g, [vec(g, "u"), vec(g, "v")])
    pairs = ad_eigen(g, vec(g, "y"), odd)
    assert pairs == [(F(1), vec(g, "u")), (F(-1), vec(g, "v"))]
    pairs = ad_eigen(g, vec(g, "x"), odd)
    assert pairs == [(F(0), vec(g, "u")), (F(0), vec(g, "v"))]


def test_ad_eigen_on_even_part(g):
    even = SubSuperSpace(g, [vec(g, "x"), vec(g, "y")])
    pairs = ad_eigen(g, vec(g, "y"), even)
    assert [lam for lam, _ in pairs] == [F(0), F(0)]
    assert {v for _, v in pairs} == {vec(g, "x"), vec(g, "y")}


def test_a_multi_dimensional_eigenspace_is_fully_reduced():
    # ad(e12 + 2*e22) on gl(2) kills the identity and itself; found one
    # kernel vector at a time, e11 - 1/2*e12 held the pivot of e12 + 2*e22
    gl2 = matrix_superalgebra("gl(2)", [(f"e{r + 1}{c + 1}", 0, 0, {(r, c): 1})
                                        for r in range(2) for c in range(2)])
    h = tuple(a + 2 * b for a, b in zip(vec(gl2, "e12"), vec(gl2, "e22")))
    whole = SubSuperSpace(gl2, [gl2.unit(i) for i in range(gl2.n)])
    pairs = ad_eigen(gl2, h, whole)
    assert [lam for lam, _ in pairs] == [F(2), F(0), F(0), F(-2)]
    vectors = [v for lam, v in pairs if lam == 0]
    pivots = [next(i for i, c in enumerate(v) if c) for v in vectors]
    assert pivots == sorted(pivots)
    for v, p in zip(vectors, pivots):
        assert v[p] == 1 and not any(v[q] for q in pivots if q != p)
        assert not any(gl2.bracket(h, v))
    assert [gl2.format_vector(v) for v in vectors] == ["e11 + e22", "e12 + 2*e22"]


def test_ad_eigen_requires_invariance(g):
    just_u = SubSuperSpace(g, [vec(g, "u")])
    with pytest.raises(AlgebraError):
        ad_eigen(g, vec(g, "v"), just_u)  # [v, u] = x leaves span{u}
    u_plus_v = tuple(a + b for a, b in zip(vec(g, "u"), vec(g, "v")))
    with pytest.raises(AlgebraError):  # [y, u+v] = u-v is nonzero at the pivot u
        ad_eigen(g, vec(g, "y"), SubSuperSpace(g, [u_plus_v]))


def test_express_reads_coordinates_at_the_pivots(g):
    x_2y = tuple(a + 2 * b for a, b in zip(vec(g, "x"), vec(g, "y")))
    sub = SubSuperSpace(g, [x_2y, vec(g, "u")])
    assert sub.express(tuple(3 * c for c in x_2y)) == (3, 0)
    assert sub.express(tuple(F(1, 2) * a - b for a, b in zip(x_2y, vec(g, "u")))) \
        == (F(1, 2), -1)
    assert sub.express(vec(g, "x")) is None


def test_irrational_spectrum_is_rejected():
    # [h,a] = b, [h,b] = 2a gives ad(h) eigenvalues +-sqrt(2)
    basis = [Generator("h", 0, 0), Generator("a", 0, 1), Generator("b", 0, 2)]
    alg = LieSuperAlgebra(basis, {(0, 1): {2: F(1)}, (0, 2): {1: F(2)}},
                          name="irrational")
    assert alg.validate().ok
    sub = SubSuperSpace(alg, [alg.unit(index(alg, "a")), alg.unit(index(alg, "b"))])
    with pytest.raises(UnsupportedFieldError):
        ad_eigen(alg, alg.unit(index(alg, "h")), sub)


@pytest.mark.parametrize("coeffs, roots", [
    ([-6, 11, -6, 1], [1, 2, 3]),
    ([4, -4, 1], [2, 2]),  # a double root: no sign change at it
    ([0, 0, 1], [0, 0]),
    ([F(-1, 4), 0, 1], [F(-1, 2), F(1, 2)]),
    ([F(3, 2), 1], [F(-3, 2)]),
    ([-10**36, 0, 1], [-10**18, 10**18]),
    ([1], []),
])
def test_rational_roots_with_multiplicity(coeffs, roots):
    assert sorted(_rational_roots(coeffs)) == roots


@pytest.mark.parametrize("coeffs", [[-2, 0, 1], [1, 0, 1], [-2, 1, -2, 1]])
def test_irrational_or_complex_roots_raise(coeffs):
    with pytest.raises(UnsupportedFieldError):
        _rational_roots(coeffs)


def test_triangular_subalgebra_lie_data(g):
    b = upper_triangular_subalgebra()
    assert b.name == "sub(pl11)"
    assert [(x.name, x.parity, x.z_degree) for x in b.basis] == [("y", 0, 0), ("u", 1, 1)]
    # [y, y] = 0, [y, u] = u, [u, y] = -u, [u, u] = 0
    assert b.table == (((0, 0), (0, 1)), ((0, -1), (0, 0)))
    assert b.validate().ok
    # the brackets of y and u inside pl11, in the coordinates of their span
    span = subalgebra_generated(g, [vec(g, "y"), vec(g, "u")])
    for i, a in enumerate("yu"):
        for j, c in enumerate("yu"):
            assert span.express(g.bracket(vec(g, a), vec(g, c))) == b.table[i][j], (a, c)


def kernel_table(basis):
    """The structure constants of the matrices of ``basis``, one
    :func:`kernel_basis` solve per bracket: the kernel of ``[A, B]`` stacked
    before the basis matrices is spanned by one vector, 1 at ``[A, B]``."""
    mats = [mat for *_, mat in basis]

    def product(left, right):
        out = {}
        for (r, k), x in left.items():
            for (k2, c), y in right.items():
                if k == k2:
                    out[(r, c)] = out.get((r, c), 0) + x * y
        return out

    table = []
    for _, pa, _, A in basis:
        row = []
        for _, pb, _, B in basis:
            comm = product(A, B)
            for key, v in product(B, A).items():
                comm[key] = comm.get(key, 0) + (v if pa * pb % 2 else -v)
            kernel, = kernel_basis([{k: v for k, v in comm.items() if v}] + mats)
            assert kernel[0] == 1
            row.append(tuple(-kernel.get(k + 1, 0) for k in range(len(mats))))
        table.append(tuple(row))
    return tuple(table)


@pytest.mark.parametrize("build", ["pl11", "b", "gl(2|1)", "osp(1|2)"])
def test_matrix_brackets_match_one_kernel_solve_each(monkeypatch, build):
    import test_products
    bases = []

    def recording(name, basis):
        bases.append(basis)
        return matrix_superalgebra(name, basis)

    monkeypatch.setattr(liesuper, "matrix_superalgebra", recording)
    monkeypatch.setattr(test_products, "matrix_superalgebra", recording)
    alg = {"pl11": pl11, "b": upper_triangular_subalgebra,
           "gl(2|1)": test_products.gl21, "osp(1|2)": test_products.osp12}[build]()
    basis, = bases
    assert alg.table == kernel_table(basis)


def test_matrix_superalgebra_rejects_bad_bases():
    y, u, v = {(0, 0): 1}, {(0, 1): 1}, {(1, 0): 1}
    with pytest.raises(AlgebraError, match=r"^no-x: \[u, v\] leaves the span of the basis$"):
        matrix_superalgebra("no-x", [("y", 0, 0, y), ("u", 1, 1, u), ("v", 1, 1, v)])
    with pytest.raises(AlgebraError, match=r"^twice: the basis matrices are linearly dependent$"):
        matrix_superalgebra("twice", [("y", 0, 0, y), ("z", 0, 0, {(0, 0): 2})])
    # the third matrix is the sum of the first two
    with pytest.raises(AlgebraError, match="linearly dependent"):
        matrix_superalgebra("sum", [("y", 0, 0, y), ("w", 0, 0, {(1, 1): 1}),
                                    ("x", 0, 0, {(0, 0): 1, (1, 1): 1}), ("u", 1, 1, u)])


def test_integer_structure_constants_stay_int(g):
    assert all(type(c) is int for row in g.table for br in row for c in br)


def test_odd_squares_are_exact_halves():
    from test_products import osp12
    U = enveloping(osp12())
    pres = U.carrier
    a, b = pres.gen_index("a"), pres.gen_index("b")
    e, f = pres.monomial(e=1), pres.monomial(f=1)
    # [a, a] = 2e and [b, b] = -2f halve to integers
    assert pres.rules[(a, a)] == {e: 1} and pres.rules[(b, b)] == {f: -1}
    assert all(type(c) is int for rule in pres.rules.values()
               for c in rule.values())
    # [a, a] = e halves to a Fraction
    basis = [Generator("e", 0, 0), Generator("a", 1, 1)]
    half = enveloping(LieSuperAlgebra(basis, {(1, 1): {0: 1}})).carrier
    assert half.rules[(1, 1)] == {(1, 0): Fraction(1, 2)}
    assert type(half.rules[(1, 1)][(1, 0)]) is Fraction


def test_char_poly_of_an_integer_matrix_is_exact():
    coeffs = _char_poly([[2, 1, 0], [0, 1, 3], [1, 0, 1]])
    # det(lam*I - M) = lam^3 - 4 lam^2 + 5 lam - 5
    assert coeffs == [-5, 5, -4, 1]
    assert all(type(c) is int for c in coeffs)
    coeffs = _char_poly([[F(1, 2), 0], [0, F(1, 3)]])
    assert coeffs == [F(1, 6), F(-5, 6), 1]
    assert all(type(c) in (int, Fraction) for c in coeffs)
