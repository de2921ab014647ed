"""Built-in algebras and the defining-relation startup guard.

Built-ins are constructed in code from the structure constants, never from
shipped definition files; the known relation tables are asserted against
the generated presentations at construction time so the two cannot drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import AlgebraPresentation
from .errors import AlgebraError
from .exprs import parse
from .hopf import BosonizedAlgebra, HopfStructureMaps, bosonize, enveloping
from .liesuper import (Generator, LieSuperAlgebra, load_algebra_file, pl11,
                       upper_triangular_subalgebra)
from .verify import FAIL, PASS, CertificateReport

# the relation table of the bosonized enveloping algebra of pl11
PL11_BOSONIZED_RELATIONS = [
    ("x*y", "y*x"),
    ("x*u", "u*x"),
    ("x*v", "v*x"),
    ("x*t", "t*x"),
    ("y*u - u*y", "u"),
    ("y*v - v*y", "-v"),
    ("u*v + v*u", "x"),
    ("u^2", "0"),
    ("v^2", "0"),
    ("t*x - x*t", "0"),
    ("t*y - y*t", "0"),
    ("t*u", "-u*t"),
    ("t*v", "-v*t"),
    ("t^2", "1"),
]

PL11_RELATIONS = [pair for pair in PL11_BOSONIZED_RELATIONS
                  if "t" not in pair[0] + pair[1]]

TRIANGULAR_BOSONIZED_RELATIONS = [
    ("y*u - u*y", "u"),
    ("u^2", "0"),
    ("t*y - y*t", "0"),
    ("t*u", "-u*t"),
    ("t^2", "1"),
]

BUILTIN_NAMES = ("pl11", "pl11-bosonized", "b-bosonized")


def check_defining_relations(pres: AlgebraPresentation, relations,
                             name: str = "defining-relations") -> CertificateReport:
    """Each relation pair must normalize to the same element."""
    rep = CertificateReport(name, PASS, parameters={"algebra": pres.name,
                                                    "relations": len(relations)})
    for lhs, rhs in relations:
        left = parse(lhs, pres)
        right = parse(rhs, pres)
        if left != right:
            rep.add_witness(f"{lhs} = {rhs}", right, left)
    return rep


@dataclass
class Session:
    """A resolved algebra context for the CLI and the scripts."""

    name: str
    lie: Optional[LieSuperAlgebra]
    u_maps: HopfStructureMaps
    bos: Optional[BosonizedAlgebra]
    relations: list

    @property
    def pres(self) -> AlgebraPresentation:
        return self.bos.carrier if self.bos is not None else self.u_maps.carrier

    @property
    def hopf(self) -> HopfStructureMaps:
        return self.bos.hopf if self.bos is not None else self.u_maps

    def require_bosonized(self) -> BosonizedAlgebra:
        if self.bos is None:
            raise AlgebraError(
                f"algebra {self.name!r} is not bosonized; this operation needs "
                "the grouplike t")
        return self.bos


def _assert_relations(pres, relations):
    rep = check_defining_relations(pres, relations)
    if rep.status == FAIL:
        raise AlgebraError(
            f"generated presentation {pres.name} violates its relation table: "
            f"{rep.witnesses[0]}")


def session_pl11() -> Session:
    g = pl11()
    U = enveloping(g)
    _assert_relations(U.carrier, PL11_RELATIONS)
    return Session("pl11", g, U, None, PL11_RELATIONS)


def session_pl11_bosonized() -> Session:
    g = pl11()
    U = enveloping(g)
    B = bosonize(U)
    _assert_relations(B.carrier, PL11_BOSONIZED_RELATIONS)
    return Session("pl11-bosonized", g, U, B, PL11_BOSONIZED_RELATIONS)


def session_b_bosonized() -> Session:
    b = upper_triangular_subalgebra()
    U = enveloping(b)
    B = bosonize(U)
    _assert_relations(B.carrier, TRIANGULAR_BOSONIZED_RELATIONS)
    return Session("b-bosonized", b, U, B, TRIANGULAR_BOSONIZED_RELATIONS)


def polynomial_presentation(names) -> AlgebraPresentation:
    """The commutative polynomial algebra, as the enveloping algebra of an
    abelian even Lie algebra on the given names."""
    basis = [Generator(name, 0, idx) for idx, name in enumerate(names)]
    abelian = LieSuperAlgebra(basis, {}, name="abelian")
    return enveloping(abelian).carrier


def load_session(source: str, bosonize_file: bool = False) -> Session:
    """Resolve a built-in name or a definition-file path."""
    if source == "pl11":
        return session_pl11()
    if source == "pl11-bosonized":
        return session_pl11_bosonized()
    if source == "b-bosonized":
        return session_b_bosonized()
    g = load_algebra_file(source)
    try:
        U = enveloping(g)  # validates g
    except AlgebraError as exc:
        raise AlgebraError(f"algebra file {source}: {exc}") from None
    if bosonize_file:
        B = bosonize(U)
        return Session(f"file:{source}#k[t]", g, U, B, [])
    return Session(f"file:{source}", g, U, None, [])
