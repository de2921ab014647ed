"""Linear maps that only the tests use, kept out of the package.

They are oracles for what the package computes another way: a one-leg
tensor read as an element, and the coalgebra projection of a
bosonization onto its coinvariant part.
"""

from superhopf.algebra import Element
from superhopf.errors import PresentationError
from superhopf.linalg import accumulate


def as_element(tensor) -> Element:
    """The element of a one-leg tensor."""
    if tensor.legs != 1:
        raise PresentationError("as_element needs exactly one leg")
    return Element(tensor.alg, {k[0]: c for k, c in tensor.coeffs.items()})


def project_to_coinvariants(bos, a: Element) -> Element:
    """The coalgebra projection of ``bos`` onto the coinvariant part:
    a#h -> a eps(h)."""
    bos.carrier._require_same(a.alg)
    out = {}
    for m, c in a.items():
        accumulate(out, {m[:bos.t_index] + (0,): c})
    return Element(bos.carrier, out)
