"""Structure constants, validation, subalgebras, and exact eigenpairs."""

from fractions import Fraction

import pytest

from superhopf import (SubSuperSpace, ad_eigen, matrix_superalgebra, pl11,
                       subalgebra_generated, upper_triangular_subalgebra)
from superhopf.algebra import Generator
from superhopf.errors import AlgebraError, UnsupportedFieldError
from superhopf.hopf import enveloping
from superhopf.liesuper import LieSuperAlgebra, _char_poly, _rational_roots

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


def test_validate_catches_a_corrupted_bracket(g):
    # change [u,v] to y: the (y,u,v) Jacobi instance fails
    brackets = {}
    for i in range(g.n):
        for j in range(g.n):
            brackets[(i, j)] = {k: c for k, c in enumerate(g.table[i][j]) if c}
    brackets[(index(g, "u"), index(g, "v"))] = {index(g, "y"): F(1)}
    brackets[(index(g, "v"), index(g, "u"))] = {index(g, "y"): F(1)}
    bad = LieSuperAlgebra(g.basis, brackets, name="corrupted")
    report = bad.validate()
    assert not report.ok
    assert any("jacobi" in v for v in report.violations)


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


def test_matrix_superalgebra_rejects_bad_bases():
    y, u, v = {(0, 0): 1}, {(0, 1): 1}, {(1, 0): 1}
    with pytest.raises(AlgebraError, match="span"):  # [u, v] is the identity
        matrix_superalgebra("no-x", [("y", 0, 0, y), ("u", 1, 1, u), ("v", 1, 1, v)])
    with pytest.raises(AlgebraError, match="dependent"):
        matrix_superalgebra("twice", [("y", 0, 0, y), ("z", 0, 0, {(0, 0): 2})])


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
