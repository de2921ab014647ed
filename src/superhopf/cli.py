"""Command-line front end.

Subcommands: ``normalize``, ``check``, ``growth``, ``module-finite``,
``centralizer``, ``eigen``.  All take ``--algebra`` (a built-in name or a
definition-file path), ``--max-degree``, ``--seed``, and ``--out``.  Reports
are deterministic: two runs with the same configuration produce
byte-identical files, and the exit status is 0 exactly when no emitted
report contains a FAIL line.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import growth as growth_mod
from . import verify
from .catalog import Session, load_session
from .errors import AlgebraError, ParseError
from .exprs import parse, parse_list
from .liesuper import SubSuperSpace, ad_eigen
from .verify import CertificateReport, expect, render_reports, render_summary

SUITES = ("hopf-axioms", "adjoint", "normality", "biproduct",
          "shift-identity", "nilpotency", "zero-divisors", "all")


@dataclass
class SessionConfig:
    algebra: str
    max_degree: int
    seed: int
    out: Optional[Path]
    samples: int
    bosonize_file: bool


def _write_output(text: str, out: Optional[Path]):
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit_reports(reports, config: SessionConfig) -> int:
    text = render_reports(reports)
    _write_output(text, config.out)
    if config.out is not None:
        summary = render_summary(reports, extra={
            "algebra": config.algebra, "seed": config.seed,
            "maxDegree": config.max_degree})
        _write_output(summary, config.out.with_name(config.out.name + ".kv"))
    return 1 if "FAIL" in text else 0


# -- suites --------------------------------------------------------------------------


def suite_hopf_axioms(sess: Session, config: SessionConfig, n_random: int):
    return verify.hopf_axiom_suite(sess.hopf, monomial_degree=3,
                                   n_random=n_random, random_degree=4,
                                   seed=config.seed, prefix="hopf")


def suite_adjoint(sess: Session, config: SessionConfig):
    B = sess.require_bosonized()
    reports = [verify.check_ad_equals_bracket(sess.lie, B)]
    pres = B.carrier
    names = {g.name for g in pres.generators}
    if "y" in names:
        eigen = CertificateReport("adjoint-eigenvalues", verify.PASS,
                                  parameters={"algebra": pres.name})
        y = pres.gen("y")
        for name, lam in (("u", 1), ("v", -1)):
            if name not in names:
                continue
            w = pres.gen(name)
            got = verify.adjoint_left(B.hopf, y, w)
            if got != lam * w:
                eigen.add_witness(f"ad_l(y)({name})", lam * w, got)
        reports.append(eigen)
    return reports


def _default_normality_cases(sess: Session):
    pres = sess.pres
    names = {g.name for g in pres.generators}
    cases = []
    if "x" in names:
        cases.append(("k[x]", [parse("x", pres)], verify.PASS))
    cases.append(("K", [parse("t", pres)], verify.FAIL))
    cases.append(("whole", [pres.gen(g.name) for g in pres.generators], verify.PASS))
    return cases


def suite_normality(sess: Session, config: SessionConfig, sub_spec: Optional[str]):
    B = sess.require_bosonized()
    bound = config.max_degree
    if sub_spec is not None:
        gens = parse_list(sub_spec, B.carrier)
        sub = growth_mod.FiltrationClosure(B.carrier, gens).extend_to(bound + 2)
        return [verify.is_normal(B, sub, bound)]
    reports = []
    for label, gens, expected in _default_normality_cases(sess):
        sub = growth_mod.FiltrationClosure(B.carrier, gens).extend_to(bound + 2)
        inner = verify.is_normal(B, sub, bound)
        reports.append(expect(inner, expected, name=f"normality.{label}"))
    return reports


def suite_biproduct(sess: Session, config: SessionConfig):
    B = sess.require_bosonized()
    pres = B.carrier
    bound = config.max_degree
    names = {g.name for g in pres.generators}
    cases = []
    if {"y", "u"} <= names:
        cases.append(("y-u-t", ["y", "u", "t"]))
    if "x" in names:
        cases.append(("x-t", ["x", "t"]))
    cases.append(("whole", [g.name for g in pres.generators]))
    cases.append(("K", ["t"]))
    reports = []
    for label, gen_names in cases:
        gens = [pres.gen(n) for n in gen_names]
        sub = growth_mod.FiltrationClosure(pres, gens).extend_to(bound)
        rep = verify.biproduct_decomposition(B, sub, bound)
        rep.check_name = f"biproduct.{label}"
        reports.append(rep)
    return reports


def suite_shift_identity(sess: Session, config: SessionConfig, n_max: int = 6):
    B = sess.require_bosonized()
    pres = B.carrier
    reports = []
    for g in pres.generators:
        if g.parity != 1:
            continue
        rep = verify.check_shift_identity(B, pres.gen(g.name), n_max)
        rep.check_name = f"shift-identity.{g.name}"
        reports.append(rep)
    if not reports:
        raise AlgebraError("shift-identity suite needs odd generators")
    return reports


def suite_nilpotency(sess: Session, config: SessionConfig,
                     ideal_spec: Optional[str], power: int):
    pres = sess.pres
    if ideal_spec is not None:
        gens = parse_list(ideal_spec, pres)
        return [verify.check_nilpotent_ideal(pres, gens, power, config.max_degree)]
    if "u" not in {g.name for g in pres.generators}:
        raise AlgebraError("nilpotency suite needs a generator named u "
                           "(or an explicit --ideal-gens)")
    inner = verify.check_nilpotent_ideal(pres, [pres.gen("u")], power,
                                         config.max_degree)
    # the square of <u> vanishes in the triangular case and must not in pl11
    expected = verify.PASS if sess.name == "b-bosonized" else verify.FAIL
    if sess.name in ("b-bosonized", "pl11-bosonized"):
        return [expect(inner, expected, name=f"nilpotency.u-power-{power}")]
    return [inner]


def suite_zero_divisors(sess: Session, config: SessionConfig):
    pres = sess.pres
    bound = min(config.max_degree, 3)
    if sess.name == "b-bosonized":
        # not semiprime: a scan over near-monomial factors must hit u*u = 0
        inner = verify.zero_divisor_scan(pres, min(bound, 2), config.samples,
                                         config.seed, max_terms=1)
        return [expect(inner, verify.FAIL, name="zero-divisors.found")]
    inner = verify.zero_divisor_scan(pres, bound, config.samples, config.seed)
    if sess.name in ("pl11", "pl11-bosonized"):
        return [expect(inner, verify.INCONCLUSIVE, name="zero-divisors.none-found")]
    return [inner]


def cmd_check(sess: Session, config: SessionConfig, args) -> int:
    if args.suite not in SUITES:
        raise AlgebraError(f"unknown suite {args.suite!r}; choose from {SUITES}")
    reports = []
    wanted = SUITES[:-1] if args.suite == "all" else (args.suite,)
    for suite in wanted:
        if args.suite == "all" and sess.bos is None \
                and suite not in ("hopf-axioms", "zero-divisors"):
            continue  # non-bosonized algebras only support the generic suites
        if suite == "hopf-axioms":
            reports.extend(suite_hopf_axioms(sess, config, args.hopf_random))
        elif suite == "adjoint":
            reports.extend(suite_adjoint(sess, config))
        elif suite == "normality":
            reports.extend(suite_normality(sess, config, args.sub))
        elif suite == "biproduct":
            reports.extend(suite_biproduct(sess, config))
        elif suite == "shift-identity":
            reports.extend(suite_shift_identity(sess, config, args.shift_n))
        elif suite == "nilpotency":
            reports.extend(suite_nilpotency(sess, config, args.ideal_gens,
                                            args.power))
        elif suite == "zero-divisors":
            reports.extend(suite_zero_divisors(sess, config))
    return _emit_reports(reports, config)


# -- other commands ---------------------------------------------------------------------


def cmd_normalize(sess: Session, config: SessionConfig, args) -> int:
    element = parse(args.expression, sess.pres)
    _write_output(str(element) + "\n", config.out)
    return 0


def cmd_growth(sess: Session, config: SessionConfig, args) -> int:
    pres = sess.pres
    if args.gens:
        gens = parse_list(args.gens, pres)
    else:
        gens = [pres.gen(g.name) for g in pres.generators]
    report = growth_mod.growth_series(pres, gens, args.n_max)
    _write_output(report.to_text(), config.out)
    return 0


def cmd_module_finite(sess: Session, config: SessionConfig, args) -> int:
    pres = sess.pres
    sub_gens = parse_list(args.sub, pres)
    module_gens = parse_list(args.module_gens, pres)
    sides = ("left", "right") if args.side == "both" else (args.side,)
    reports = [verify.module_finite_check(pres, sub_gens, module_gens, side, args.n_max)
               for side in sides]
    return _emit_reports(reports, config)


def cmd_centralizer(sess: Session, config: SessionConfig, args) -> int:
    pres = sess.pres
    if args.gens:
        gens = parse_list(args.gens, pres)
    else:
        gens = [pres.gen(g.name) for g in pres.generators]
    basis = growth_mod.centralizer_degree_bounded(pres, gens, config.max_degree,
                                                  z_degree=args.z_degree)
    lines = [f"centralizer basis (bound {config.max_degree}"
             + (f", z-degree {args.z_degree}" if args.z_degree is not None else "")
             + f", dimension {len(basis)})"]
    lines.extend(str(e) for e in basis)
    _write_output("\n".join(lines) + "\n", config.out)
    return 0


def cmd_eigen(sess: Session, config: SessionConfig, args) -> int:
    g = sess.lie
    if g is None:
        raise AlgebraError("eigen needs an algebra with Lie data")
    h = _lie_vector(g, args.h)
    if args.sub:
        vectors = [_lie_vector(g, spec) for spec in args.sub.split(",") if spec.strip()]
    else:
        vectors = [g.unit(i) for i in range(g.n)]
    sub = SubSuperSpace(g, vectors)
    pairs = ad_eigen(g, h, sub)
    lines = [f"ad({g.format_vector(h)}) eigenpairs on a {sub.dim}-dimensional subspace"]
    for lam, vec in pairs:
        lines.append(f"eigenvalue {lam}: {g.format_vector(vec)}")
    _write_output("\n".join(lines) + "\n", config.out)
    return 0


def _lie_vector(g, spec: str):
    from .exprs import parse_linear_combination
    combo = parse_linear_combination(spec, [b.name for b in g.basis])
    vec = [0] * g.n
    for name, c in combo.items():
        vec[g.index(name)] = c
    return tuple(vec)


# -- argument plumbing --------------------------------------------------------------------


def _int_at_least(low: int):
    """An argparse type: an integer >= ``low``, so no bound makes a check vacuous."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return convert


NON_NEGATIVE, POSITIVE = _int_at_least(0), _int_at_least(1)


def _add_common(sub):
    sub.add_argument("--algebra", default="pl11-bosonized",
                     help="built-in name (pl11, pl11-bosonized, b-bosonized) "
                          "or a definition-file path")
    sub.add_argument("--bosonize", action="store_true",
                     help="bosonize a file-defined algebra")
    sub.add_argument("--max-degree", type=NON_NEGATIVE, default=6)
    sub.add_argument("--seed", type=int, default=1)
    sub.add_argument("--out", type=Path, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superhopf",
        description="exact computations in finitely presented superalgebras "
                    "and their smash-product Hopf algebras")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("normalize", help="print the normal form of an expression")
    p.add_argument("expression")
    _add_common(p)

    p = commands.add_parser("check", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--sub", default=None,
                   help="normality: comma-separated subalgebra generators")
    p.add_argument("--ideal-gens", default=None,
                   help="nilpotency: comma-separated ideal generators")
    p.add_argument("--power", type=POSITIVE, default=2)
    p.add_argument("--samples", type=POSITIVE, default=200)
    p.add_argument("--hopf-random", type=NON_NEGATIVE, default=100)
    p.add_argument("--shift-n", type=POSITIVE, default=6)
    _add_common(p)

    p = commands.add_parser("growth", help="filtration growth report")
    p.add_argument("--gens", default=None,
                   help="comma-separated generator expressions (default: all)")
    p.add_argument("--n-max", type=NON_NEGATIVE, default=12)
    _add_common(p)

    p = commands.add_parser("module-finite", help="module-finiteness certificate")
    p.add_argument("--sub", required=True)
    p.add_argument("--module-gens", required=True)
    p.add_argument("--side", choices=("left", "right", "both"), default="both")
    p.add_argument("--n-max", type=NON_NEGATIVE, default=8)
    _add_common(p)

    p = commands.add_parser("centralizer", help="degree-bounded centralizer basis")
    p.add_argument("--gens", default=None)
    p.add_argument("--z-degree", type=int, default=None)
    _add_common(p)

    p = commands.add_parser("eigen", help="exact adjoint eigenpairs on a subspace")
    p.add_argument("--h", required=True, help="the acting vector, e.g. 'y'")
    p.add_argument("--sub", default=None,
                   help="comma-separated spanning vectors (default: whole algebra)")
    _add_common(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = SessionConfig(algebra=args.algebra, max_degree=args.max_degree,
                           seed=args.seed, out=args.out,
                           samples=getattr(args, "samples", 200),
                           bosonize_file=args.bosonize)
    try:
        sess = load_session(args.algebra, bosonize_file=args.bosonize)
        if args.command == "normalize":
            return cmd_normalize(sess, config, args)
        if args.command == "check":
            return cmd_check(sess, config, args)
        if args.command == "growth":
            return cmd_growth(sess, config, args)
        if args.command == "module-finite":
            return cmd_module_finite(sess, config, args)
        if args.command == "centralizer":
            return cmd_centralizer(sess, config, args)
        if args.command == "eigen":
            return cmd_eigen(sess, config, args)
        raise AlgebraError(f"unknown command {args.command!r}")
    except (AlgebraError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
