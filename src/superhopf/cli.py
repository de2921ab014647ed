"""Command-line front end.

Subcommands: ``normalize``, ``check``, ``growth``, ``module-finite``,
``centralizer``, ``eigen``.  Each takes ``--algebra`` (a built-in name or a
definition-file path), ``--out``, and those ``SHARED_OPTIONS`` it reads.  Reports
are deterministic: two runs with the same configuration produce
byte-identical files, and the exit status is 0 exactly when no emitted
report has the status FAIL.  The ``check`` suites name no algebra or
generator: their algebra-specific cases come from ``catalog.BUILTINS``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from . import growth as growth_mod
from . import verify
from .algebra import polynomial_presentation
from .catalog import BUILTINS, DEFAULT_ALGEBRA, Session, load_session
from .errors import AlgebraError, ParseError
from .exprs import parse, parse_linear_combination, parse_list
from .liesuper import SubSuperSpace, ad_eigen
from .verify import CertificateReport, expect, render_reports, render_summary


class _NoCase(AlgebraError):
    """The suite has no case to run: the algebra's ``CheckDefaults`` lack one,
    the degree bound leaves nothing to check, or ``--sub`` holds no multiple
    of t for the biproduct.  ``check all`` skips it."""


def _write_output(text: str, out: Optional[Path]):
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _emit_reports(reports, sess: Session, args, **extra) -> int:
    """Write the report, and next to ``--out`` its ``.kv`` summary with the
    checked presentation's name and the ``extra`` options the command read.
    1 exactly when some report's status is FAIL."""
    _write_output(render_reports(reports), args.out)
    if args.out is not None:
        summary = render_summary(reports, {"algebra": sess.pres.name, **extra})
        _write_output(summary, args.out.with_name(args.out.name + ".kv"))
    return 1 if any(rep.status == verify.FAIL for rep in reports) else 0


def _generators(pres):
    return [pres.gen(g.name) for g in pres.generators]


# -- suites: the algebra's CheckDefaults cases first, then the generic ones ---------


def suite_hopf_axioms(sess: Session, args):
    return verify.hopf_axiom_suite(sess.hopf, n_random=args.hopf_random, seed=args.seed)


def suite_adjoint(sess: Session, args):
    B = sess.require_bosonized()
    reports = [verify.check_ad_equals_bracket(sess.lie, B)]
    if sess.defaults.eigenvalues:
        pres = B.carrier
        eigen = CertificateReport("adjoint-eigenvalues", verify.PASS,
                                  parameters={"algebra": pres.name})
        for h, w, lam in sess.defaults.eigenvalues:
            want = lam * pres.gen(w)
            got = verify.adjoint_left(B.hopf, pres.gen(h), pres.gen(w))
            if got != want:
                eigen.add_witness(f"ad_l({h})({w})", want, got)
        reports.append(eigen)
    return reports


def suite_normality(sess: Session, args):
    B = sess.require_bosonized()
    pres, bound = B.carrier, args.max_degree
    if bound < 1:
        # degree 0 holds only 1, and ad(h)(1) = eps(h)*1 lies in every subalgebra
        raise _NoCase("normality suite: degree 0 leaves nothing to check")
    if args.sub is not None:
        return [verify.is_normal(B, parse_list(args.sub, pres), bound)]
    cases = [(label, [pres.gen(n) for n in names], expected)
             for label, names, expected in sess.defaults.normality]
    # t anticommutes with the odd generators and commutes with the even ones,
    # so K = k[t] is normal exactly when there is no odd generator
    k_normal = all(b.parity == 0 for b in sess.lie.basis)
    cases += [("K", [B.t()], verify.PASS if k_normal else verify.FAIL),
              ("whole", _generators(pres), verify.PASS)]
    return [expect(verify.is_normal(B, gens, bound), expected,
                   name=f"normality.{label}")
            for label, gens, expected in cases]


def suite_biproduct(sess: Session, args):
    B = sess.require_bosonized()
    pres, bound = B.carrier, args.max_degree
    if args.sub is not None:
        gens = parse_list(args.sub, pres)
        if B.t().coeffs.keys() not in [g.coeffs.keys() for g in gens]:
            raise _NoCase("biproduct decomposition needs a multiple of t as a generator")
        return [verify.biproduct_decomposition(B, gens, bound)]
    cases = [(label, [pres.gen(n) for n in names])
             for label, names in sess.defaults.biproduct]
    cases += [("whole", _generators(pres)), ("K", [B.t()])]
    reports = []
    for label, gens in cases:
        rep = verify.biproduct_decomposition(B, gens, bound)
        rep.check_name = f"biproduct.{label}"
        reports.append(rep)
    return reports


def suite_shift_identity(sess: Session, args):
    B = sess.require_bosonized()
    if sess.defaults.shift_h is None:
        raise _NoCase("shift-identity suite: this algebra has no default "
                      "h to shift its odd generators by")
    pres = B.carrier
    h = pres.gen(sess.defaults.shift_h)
    reports = []
    for g in pres.generators:
        if g.parity == 1:
            rep = verify.check_shift_identity(B, pres.gen(g.name), args.shift_n, h)
            rep.check_name = f"shift-identity.{g.name}"
            reports.append(rep)
    return reports


def suite_nilpotency(sess: Session, args):
    pres = sess.pres
    if args.ideal_gens is not None:
        gens = parse_list(args.ideal_gens, pres)
        return [verify.check_nilpotent_ideal(pres, gens, args.power,
                                             args.max_degree)]
    if sess.defaults.nilpotent_ideal is None:
        raise _NoCase("nilpotency suite: this algebra has no default "
                      "ideal; pass --ideal-gens")
    label, names, expected = sess.defaults.nilpotent_ideal
    gens = [pres.gen(n) for n in names]
    if any(g.degree() > args.max_degree for g in gens):
        raise _NoCase(f"nilpotency suite: the default ideal's generators lie "
                      f"above the degree bound {args.max_degree}")
    inner = verify.check_nilpotent_ideal(pres, gens, args.power, args.max_degree)
    return [expect(inner, expected, name=f"nilpotency.{label}-power-{args.power}")]


def suite_zero_divisors(sess: Session, args):
    if args.max_degree < 1:
        raise _NoCase("zero-divisors suite: degree 0 holds only scalars")
    # without a default case: the plain scan of dense factors, no expectation
    label, expected, cap, max_terms = sess.defaults.zero_divisors or (None, None, 3, None)
    inner = verify.zero_divisor_scan(sess.pres, min(args.max_degree, cap),
                                     args.samples, args.seed, max_terms=max_terms)
    return [inner if label is None
            else expect(inner, expected, name=f"zero-divisors.{label}")]


SUITE_RUNNERS = {
    "hopf-axioms": suite_hopf_axioms,
    "adjoint": suite_adjoint,
    "normality": suite_normality,
    "biproduct": suite_biproduct,
    "shift-identity": suite_shift_identity,
    "nilpotency": suite_nilpotency,
    "zero-divisors": suite_zero_divisors,
}
SUITES = (*SUITE_RUNNERS, "all")
UNBOSONIZED_SUITES = ("hopf-axioms", "zero-divisors")  # what `all` runs without t


def cmd_check(sess: Session, args) -> int:
    if args.suite != "all":
        reports = SUITE_RUNNERS[args.suite](sess, args)
    else:
        reports = []
        for suite, run in SUITE_RUNNERS.items():
            if sess.bos is None and suite not in UNBOSONIZED_SUITES:
                continue
            try:
                reports.extend(run(sess, args))
            except _NoCase:
                continue  # `all` runs a suite only where it has a case to run
    return _emit_reports(reports, sess, args, seed=args.seed, maxDegree=args.max_degree)


# -- other commands ---------------------------------------------------------------------


def cmd_normalize(sess: Session, args) -> int:
    element = parse(args.expression, sess.pres)
    _write_output(str(element) + "\n", args.out)
    return 0


def cmd_growth(sess: Session, args) -> int:
    pres = sess.pres
    gens = parse_list(args.gens, pres) if args.gens else _generators(pres)
    report = growth_mod.growth_series(pres, gens, args.n_max)
    _write_output(report.to_text(), args.out)
    return 0


def cmd_module_finite(sess: Session, args) -> int:
    pres = sess.pres
    sub_gens = parse_list(args.sub, pres)
    module_gens = parse_list(args.module_gens, pres)
    sides = ("left", "right") if args.side == "both" else (args.side,)
    reports = [verify.module_finite_check(pres, sub_gens, module_gens, side, args.n_max)
               for side in sides]
    return _emit_reports(reports, sess, args)


def cmd_centralizer(sess: Session, args) -> int:
    pres = sess.pres
    gens = parse_list(args.gens, pres) if args.gens else _generators(pres)
    basis = growth_mod.centralizer_degree_bounded(pres, gens, args.max_degree,
                                                  z_degree=args.z_degree)
    lines = [f"centralizer basis (bound {args.max_degree}"
             + (f", z-degree {args.z_degree}" if args.z_degree is not None else "")
             + f", dimension {len(basis)})"]
    lines.extend(str(e) for e in basis)
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


def cmd_eigen(sess: Session, args) -> int:
    g = sess.lie
    variables = polynomial_presentation([b.name for b in g.basis])

    def vector(spec):
        combo = parse_linear_combination(spec, variables)
        return tuple(combo.get(b.name, 0) for b in g.basis)

    h = vector(args.h)
    if args.sub:
        vectors = [vector(spec) for spec in args.sub.split(",") if spec.strip()]
    else:
        vectors = [g.unit(i) for i in range(g.n)]
    sub = SubSuperSpace(g, vectors)
    pairs = ad_eigen(g, h, sub)
    lines = [f"ad({g.format_vector(h)}) eigenpairs on a {sub.dim}-dimensional subspace"]
    for lam, vec in pairs:
        lines.append(f"eigenvalue {lam}: {g.format_vector(vec)}")
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


COMMANDS = {"normalize": cmd_normalize, "check": cmd_check, "growth": cmd_growth,
            "module-finite": cmd_module_finite, "centralizer": cmd_centralizer,
            "eigen": cmd_eigen}


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


SHARED_OPTIONS = {
    "--bosonize": dict(action="store_true",
                       help="adjoin the grouplike t, as the -bosonized built-ins do"),
    "--max-degree": dict(type=NON_NEGATIVE, default=6),
    "--seed": dict(type=int, default=1),
}


def _add_common(sub, *options):
    """``--algebra``, the named ``SHARED_OPTIONS`` and ``--out``."""
    sub.add_argument("--algebra", default=DEFAULT_ALGEBRA,
                     help=f"built-in name ({', '.join(BUILTINS)}) "
                          "or a definition-file path")
    for option in options:
        sub.add_argument(option, **SHARED_OPTIONS[option])
    sub.add_argument("--out", type=Path, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superhopf",
        description="exact computations in finitely presented superalgebras "
                    "and their smash-product Hopf algebras")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("normalize", help="print the normal form of an expression")
    p.add_argument("expression")
    _add_common(p, "--bosonize")

    p = commands.add_parser("check", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--sub", default=None,
                   help="normality, biproduct: comma-separated subalgebra generators")
    p.add_argument("--ideal-gens", default=None,
                   help="nilpotency: comma-separated ideal generators")
    p.add_argument("--power", type=POSITIVE, default=2)
    p.add_argument("--samples", type=POSITIVE, default=200)
    p.add_argument("--hopf-random", type=NON_NEGATIVE, default=100)
    p.add_argument("--shift-n", type=POSITIVE, default=6)
    _add_common(p, "--bosonize", "--max-degree", "--seed")

    p = commands.add_parser("growth", help="filtration growth report")
    p.add_argument("--gens", default=None,
                   help="comma-separated generator expressions (default: all)")
    p.add_argument("--n-max", type=NON_NEGATIVE, default=12)
    _add_common(p, "--bosonize")

    p = commands.add_parser("module-finite", help="module-finiteness certificate")
    p.add_argument("--sub", required=True)
    p.add_argument("--module-gens", required=True)
    p.add_argument("--side", choices=("left", "right", "both"), default="both")
    p.add_argument("--n-max", type=NON_NEGATIVE, default=8)
    _add_common(p, "--bosonize")

    p = commands.add_parser("centralizer", help="degree-bounded centralizer basis")
    p.add_argument("--gens", default=None)
    p.add_argument("--z-degree", type=int, default=None)
    _add_common(p, "--bosonize", "--max-degree")

    p = commands.add_parser("eigen", help="exact adjoint eigenpairs on a subspace")
    p.add_argument("--h", required=True, help="the acting vector, e.g. 'y'")
    p.add_argument("--sub", default=None,
                   help="comma-separated spanning vectors (default: whole algebra)")
    _add_common(p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        sess = load_session(args.algebra, getattr(args, "bosonize", False))
        return COMMANDS[args.command](sess, args)
    except (AlgebraError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
