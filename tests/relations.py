"""The paper's relation tables of the built-ins, kept as a test oracle.

A built-in's presentation is generated from its Lie structure constants;
these tables write the same relations out by hand, as the paper states
them, so that a change to the generator cannot go unnoticed.
``RELATIONS`` maps each ``catalog.BUILTINS`` name to its table of
``(lhs, rhs)`` pairs that must normalize to the same element.
"""

from superhopf import parse
from superhopf.verify import PASS, CertificateReport

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

RELATIONS = {
    "pl11": PL11_RELATIONS,
    "pl11-bosonized": PL11_BOSONIZED_RELATIONS,
    "b-bosonized": TRIANGULAR_BOSONIZED_RELATIONS,
}


def check_defining_relations(pres, relations) -> CertificateReport:
    """Each relation pair must normalize to the same element."""
    rep = CertificateReport("defining-relations", PASS,
                            parameters={"algebra": pres.name, "relations": len(relations)})
    for lhs, rhs in relations:
        left = parse(lhs, pres)
        right = parse(rhs, pres)
        if left != right:
            rep.add_witness(f"{lhs} = {rhs}", right, left)
    return rep
