"""Built-in algebras: one table of everything specific to each of them.

``BUILTINS`` maps a built-in name to its Lie constructor, whether it is
bosonized, the relation table its generated presentation is asserted
against at load time (so the two cannot drift), and the ``CheckDefaults``
of its ``check`` cases.  A definition file gets the empty ``CheckDefaults``,
so the CLI suites run only their generic cases on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .algebra import AlgebraPresentation
from .errors import AlgebraError
from .exprs import parse
from .hopf import BosonizedAlgebra, HopfStructureMaps, bosonize, enveloping
from .liesuper import (LieSuperAlgebra, load_algebra_file, pl11,
                       upper_triangular_subalgebra)
from .verify import FAIL, INCONCLUSIVE, PASS, CertificateReport

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


@dataclass(frozen=True)
class CheckDefaults:
    """The algebra-specific cases of the ``check`` suites; empty for a file."""

    eigenvalues: tuple = ()  # (h, w, eigenvalue): ad_l(h)(w) = eigenvalue * w
    normality: tuple = ()  # (label, generator names, expected status)
    biproduct: tuple = ()  # (label, generator names)
    shift_h: Optional[str] = None  # the h of h^n w = w (h +- 1)^n for odd w
    nilpotent_ideal: Optional[tuple] = None  # (label, generator names, expected)
    zero_divisors: Optional[tuple] = None  # (label, expected, degree cap, max_terms)


PL11_CASES = CheckDefaults(
    eigenvalues=(("y", "u", 1), ("y", "v", -1)),
    normality=(("k[x]", ("x",), PASS),),
    biproduct=(("y-u-t", ("y", "u", "t")), ("x-t", ("x", "t"))),
    shift_h="y",
    # <u> holds x = u*v + v*u, and x*u != 0: its square does not vanish
    nilpotent_ideal=("u", ("u",), FAIL),
    # dense random factors give no zero product, and a clean scan is inconclusive
    zero_divisors=("none-found", INCONCLUSIVE, 3, None),
)

TRIANGULAR_CASES = CheckDefaults(
    eigenvalues=(("y", "u", 1),),
    biproduct=(("y-u-t", ("y", "u", "t")),),
    shift_h="y",
    nilpotent_ideal=("u", ("u",), PASS),  # the square of <u> vanishes
    # not semiprime: a scan over near-monomial factors must hit u*u = 0
    zero_divisors=("found", FAIL, 2, 1),
)


@dataclass(frozen=True)
class Builtin:
    """One ``BUILTINS`` entry."""

    lie: Callable[[], LieSuperAlgebra]
    bosonized: bool
    relations: list  # (lhs, rhs) pairs that must normalize to the same element
    defaults: CheckDefaults


BUILTINS = {
    "pl11": Builtin(pl11, False, PL11_RELATIONS, PL11_CASES),
    "pl11-bosonized": Builtin(pl11, True, PL11_BOSONIZED_RELATIONS, PL11_CASES),
    "b-bosonized": Builtin(upper_triangular_subalgebra, True,
                           TRIANGULAR_BOSONIZED_RELATIONS, TRIANGULAR_CASES),
}

DEFAULT_ALGEBRA = "pl11-bosonized"  # the CLI's --algebra when none is given


def check_defining_relations(pres: AlgebraPresentation, relations) -> CertificateReport:
    """Each relation pair must normalize to the same element."""
    rep = CertificateReport("defining-relations", PASS,
                            parameters={"algebra": pres.name, "relations": len(relations)})
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
    lie: LieSuperAlgebra
    u_maps: HopfStructureMaps
    bos: Optional[BosonizedAlgebra]
    defaults: CheckDefaults

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


def load_session(source: str, bosonized: bool = False) -> Session:
    """Resolve a built-in name (a ``BUILTINS`` entry) or a definition-file path,
    bosonized when ``bosonized`` is set or the built-in is a bosonized one."""
    builtin = BUILTINS.get(source)
    if builtin is None:
        g = load_algebra_file(source)
        try:
            U = enveloping(g)  # validates g
        except AlgebraError as exc:
            raise AlgebraError(f"algebra file {source}: {exc}") from None
        name, relations, defaults = f"file:{source}", [], CheckDefaults()
    else:
        g = builtin.lie()
        U = enveloping(g)
        name, relations, defaults = source, builtin.relations, builtin.defaults
        bosonized = bosonized or builtin.bosonized
    sess = Session(name, g, U, bosonize(U) if bosonized else None, defaults)
    rep = check_defining_relations(sess.pres, relations)
    if rep.status == FAIL:
        raise AlgebraError(f"generated presentation {sess.pres.name} violates its "
                           f"relation table: {rep.witnesses[0]}")
    return sess
