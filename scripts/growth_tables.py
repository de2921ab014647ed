#!/usr/bin/env python3
"""Growth tables and module-finiteness demonstrations for the built-ins.

Prints filtration dimension tables with iterated differences for the
bosonized enveloping algebra, its triangular variant, and the polynomial
subalgebra, then contrasts a passing module-finiteness certificate over
k[x,y] with the growth obstruction over k[x].

    python3 scripts/growth_tables.py --n-max 12
"""

import argparse

from superhopf import (growth_obstruction, growth_series, load_session,
                       module_finite_check, parse, polynomial_presentation)


def all_gens(P):
    return [P.gen(g.name) for g in P.generators]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=12)
    args = parser.parse_args()
    n_max = args.n_max

    sess = load_session("pl11-bosonized")
    P = sess.pres
    print(f"== growth of {P.name} ==")
    print(growth_series(P, all_gens(P), n_max).to_text())

    tri = load_session("b-bosonized").pres
    print(f"== growth of {tri.name} ==")
    print(growth_series(tri, all_gens(tri), n_max).to_text())

    kxy = polynomial_presentation(["x", "y"])
    print("== growth of k[x,y] ==")
    print(growth_series(kxy, all_gens(kxy), n_max).to_text())

    print("== module generators over the polynomial part ==")
    pbw = [parse(s, P) for s in ("1", "u", "v", "u*v", "t", "u*t", "v*t", "u*v*t")]
    for side in ("left", "right"):
        cert = module_finite_check(P, [P.gen("x"), P.gen("y")], pbw, side,
                                   min(n_max, 8))
        print(f"finite as a {side} module over k[x,y] with 8 generators: "
              f"{cert.status}")

    rep = growth_obstruction(P, [P.gen("x")], n_max)
    print(f"obstruction over k[x]: {rep.parameters['obstruction']} "
          f"({rep.status})")
    rep = growth_obstruction(P, [P.gen("x"), P.gen("y")], n_max)
    print(f"obstruction over k[x,y]: {rep.parameters['obstruction']} "
          f"({rep.status})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
