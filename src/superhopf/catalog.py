"""Built-in algebras: one table of everything specific to each of them.

``BUILTINS`` maps a built-in name to its Lie constructor, whether it is
bosonized, and the ``CheckDefaults`` of its ``check`` cases.  The
presentation is generated from the Lie structure constants alone; the
paper's relation tables are the tests' oracle for it.  A definition file
gets the empty ``CheckDefaults``, so the CLI suites run only their generic
cases on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .algebra import AlgebraPresentation
from .errors import AlgebraError
from .hopf import BosonizedAlgebra, HopfStructureMaps, bosonize, enveloping
from .liesuper import (LieSuperAlgebra, load_algebra_file, pl11,
                       upper_triangular_subalgebra)
from .verify import FAIL, INCONCLUSIVE, PASS


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
    defaults: CheckDefaults


BUILTINS = {
    "pl11": Builtin(pl11, False, PL11_CASES),
    "pl11-bosonized": Builtin(pl11, True, PL11_CASES),
    "b-bosonized": Builtin(upper_triangular_subalgebra, True, TRIANGULAR_CASES),
}

DEFAULT_ALGEBRA = "pl11-bosonized"  # the CLI's --algebra when none is given


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
        name, defaults = f"file:{source}", CheckDefaults()
    else:
        g = builtin.lie()
        U = enveloping(g)
        name, defaults = source, builtin.defaults
        bosonized = bosonized or builtin.bosonized
    return Session(name, g, U, bosonize(U) if bosonized else None, defaults)
