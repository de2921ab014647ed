"""The four benchmark workloads.

Each workload builds its inputs from a seed (set-up), runs them as a closed
loop of operations through superhopf's public API (the timed region), and
checks every result against an oracle afterwards.  Library functions are
looked up through their modules at call time, so the tracer's wrappers see
every call.

Why these workloads: each layer of superhopf gets one workload where it does
most of the work and at least one where it does almost none.

* ``straighten`` -- cold products only: the rewriting engine on cache misses;
  ``hopf`` and ``linalg`` never run.
* ``hopf-maps`` -- coproducts, antipodes and tensor arithmetic; products are
  mostly cache hits and ``linalg`` does nothing.
* ``dense-span`` -- row reduction with coefficient growth (filtration
  closure, centralizer and skew-primitive kernels).
* ``cli-suite`` -- the user's path through ``superhopf.cli.main``: sessions,
  certificates, growth tables, definition files and report rendering.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import operator
import random
import sys
import tempfile
import traceback
from fractions import Fraction
from math import comb
from pathlib import Path
from time import perf_counter

import fixtures
from superhopf import TensorElement, algebra, catalog, cli, growth, hopf, verify

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "golden"

FAILED = object()  # result of an operation that raised


def calibrate() -> float:
    """Seconds taken by a fixed loop of Fraction and dict work.

    The loop is the benchmark's own code, never superhopf's, so it measures
    only how fast the host runs this kind of Python at the moment.
    """
    start = perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 6000):
        acc += Fraction(i % 7, i % 5 + 1)
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
    return perf_counter() - start


class Operations:
    """Runs the closed loop: times each operation and counts failures.

    The host's speed drifts within a process, so the loop also times
    :func:`calibrate` at the start, at the end and between operations
    whenever ``CALIBRATE_EVERY_S`` of operation time has passed since the
    last calibration; the pauses are not part of any latency.
    """

    CALIBRATE_EVERY_S = 0.3

    def __init__(self):
        self.latencies = []
        self.calibrations = []  # (operations done before it, seconds)
        self.attempted = 0
        self.failed = 0
        self._since = 0.0

    def calibrate(self):
        self.calibrations.append((len(self.latencies), calibrate()))
        self._since = 0.0

    def __call__(self, fn, *args):
        self.attempted += 1
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception:  # a failed operation is counted and the loop goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            result = FAILED
        # every operation gets a latency, so operation k is the same input in
        # every repetition of a run
        latency = perf_counter() - start
        self.latencies.append(latency)
        self._since += latency
        if self._since >= self.CALIBRATE_EVERY_S:
            self.calibrate()
        return result


class Workload:
    """Set-up happens in ``__init__``; ``run`` is the timed region."""

    def bytes_out(self, results) -> int:
        return 0

    def close(self):
        pass


def load_golden(name: str):
    with open(GOLDEN_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(str(line).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def binomial_element(pres, n: int, shift: int, build):
    """sum_k C(n, k) shift^(n-k) * build(k), written out term by term."""
    return pres.element({build(k): comb(n, k) * shift ** (n - k)
                         for k in range(n + 1)})


def fixture_problems(*algebras):
    """Oracle for the matrix fixtures: valid, confluent presentations.

    Bosonized gl(1|1) must reproduce the built-in pl11 growth dimensions,
    which pins the generator against an independently built algebra.  It
    runs with the other oracles, after the timed region, so ``setup_s``
    covers only what a command-line user pays.
    """
    problems = []
    b = hopf.bosonize(hopf.enveloping(fixtures.gl(1, 1))).carrier
    dims = growth.growth_series(b, [b.gen(g.name) for g in b.generators], 5).dims
    if dims != [1, 6, 18, 38, 66, 102]:
        problems.append(f"bosonized gl(1|1) dims {dims}")
    for g in algebras:
        if not g.validate().ok:
            problems.append(f"{g.name} fails validation")
        if not algebra.check_overlaps(hopf.enveloping(g).carrier).confluent:
            problems.append(f"{g.name} is not confluent")
    return problems


# -- straighten ------------------------------------------------------------------


class Straighten(Workload):
    """Cold products: u*y^n on pl11-bosonized, random monomial pairs of
    gl(2|1) and osp(1|2), and a high power of y."""

    SIZES = {"full": {"n": range(8, 16), "pairs": 4000, "degree": 3, "power": 800},
             "smoke": {"n": range(2, 6), "pairs": 8, "degree": 3, "power": 40}}

    def __init__(self, seed: int, size: str):
        p = self.params = self.SIZES[size]
        self.seed, self.size = seed, size
        gl21, osp = self.fixtures = fixtures.gl(2, 1), fixtures.osp12()
        self.pres = catalog.load_session("pl11-bosonized").pres
        self.u = self.pres.gen("u")
        self.y_powers = [(n, self.pres.monomial_element(self.pres.monomial(y=n)))
                         for n in p["n"]]
        self.y = self.pres.gen("y")
        rng = random.Random(seed)
        self.pairs = []  # distinct pairs, so every product is a cache miss
        for g in (gl21, osp):
            pres = hopf.enveloping(g).carrier
            monos = [pres.monomial_element(m)
                     for m in pres.enumerate_monomials(p["degree"])]
            for k in rng.sample(range(len(monos) ** 2), min(p["pairs"], len(monos) ** 2)):
                self.pairs.append((monos[k // len(monos)], monos[k % len(monos)]))

    def run(self, op):
        return {"u_y": [op(operator.mul, self.u, yn) for _, yn in self.y_powers],
                "pairs": [op(operator.mul, a, b) for a, b in self.pairs],
                "power": op(operator.pow, self.y, self.params["power"])}

    def verdicts(self, results):
        return [str(r) for r in results["u_y"] + results["pairs"]
                + [results["power"]]]

    def check(self, results):
        problems = fixture_problems(*self.fixtures)
        pres = self.pres
        for (n, _), got in zip(self.y_powers, results["u_y"]):
            want = binomial_element(pres, n, -1, lambda k: pres.monomial(y=k, u=1))
            if got is not FAILED and got != want:
                problems.append(f"u*y^{n} != (y-1)^{n}*u")
        power = self.params["power"]
        if results["power"] not in (FAILED, pres.monomial_element(pres.monomial(y=power))):
            problems.append(f"y**{power} is not the monomial y^{power}")
        for (a, b), got in zip(self.pairs, results["pairs"]):
            if got is FAILED:
                continue
            # associativity oracle: multiply a by the letters of b one at a time
            folded = a
            for idx, e in enumerate(next(iter(b.coeffs))):
                for _ in range(e):
                    folded = folded * b.alg.gen(b.alg.gen_name(idx))
            if folded != got:
                problems.append(f"({a})*({b}) disagrees with the letter-by-letter product")
        recorded = load_golden("straighten_pairs.json")[self.size].get(str(self.seed))
        if recorded is not None and FAILED not in results["pairs"] \
                and recorded != digest(results["pairs"]):
            problems.append("random-pair products differ from the recorded digest")
        return problems


# -- hopf-maps -------------------------------------------------------------------


class HopfMaps(Workload):
    """The Hopf-axiom checks on pl11 (super) and pl11-bosonized (ordinary),
    one element or pair per operation, then one large coproduct and antipode."""

    SIZES = {"full": {"monomial_degree": 3, "random_degree": 4, "randoms": 100,
                      "delta": (24, 24), "antipode": 40},
             "smoke": {"monomial_degree": 2, "random_degree": 2, "randoms": 6,
                       "delta": (3, 2), "antipode": 4}}

    def __init__(self, seed: int, size: str):
        p = self.params = self.SIZES[size]
        rng = random.Random(seed)
        self.suites = []
        self.bos = catalog.load_session("pl11-bosonized").hopf
        for H in (catalog.load_session("pl11").hopf, self.bos):
            pres = H.carrier
            gens = [pres.gen(g.name) for g in pres.generators]
            monomials = [pres.monomial_element(m)
                         for m in pres.enumerate_monomials(p["monomial_degree"])]
            basis = pres.enumerate_monomials(p["random_degree"])
            randoms = [verify.random_element(pres, rng, p["random_degree"], monomials=basis)
                       for _ in range(p["randoms"])]
            pairs = [(a, b) for a in gens for b in gens]
            pairs += [(pres.monomial_element(a), pres.monomial_element(b))
                      for a in basis for b in basis
                      if sum(a) + sum(b) <= p["random_degree"]]
            pairs += list(zip(randoms, randoms[1:]))
            self.suites.append((H, gens + monomials + randoms, pairs))
        pres = self.bos.carrier
        a, b = p["delta"]
        self.delta_arg = pres.monomial_element(pres.monomial(x=a, y=b))
        self.antipode_arg = pres.monomial_element(pres.monomial(y=p["antipode"], u=1))

    def run(self, op):
        reports = []
        for H, elements, pairs in self.suites:
            for check in (verify.check_coassociativity, verify.check_counit,
                          verify.check_antipode):
                reports += [op(check, H, [a]) for a in elements]
            reports += [op(verify.check_bialgebra, H, [pair]) for pair in pairs]
        return {"reports": reports,
                "delta": op(self.bos.coproduct, self.delta_arg),
                "antipode": op(self.bos.antipode, self.antipode_arg)}

    def verdicts(self, results):
        return ([r.status for r in results["reports"] if r is not FAILED]
                + [str(results["delta"]), str(results["antipode"])])

    def check(self, results):
        problems = [f"{r.check_name} {r.status}: {r.witnesses[:1]}"
                    for r in results["reports"]
                    if r is not FAILED and r.status != verify.PASS]
        pres = self.bos.carrier
        a, b = self.params["delta"]
        want = TensorElement(pres, 2, {
            (pres.monomial(x=i, y=j), pres.monomial(x=a - i, y=b - j)):
                Fraction(comb(a, i) * comb(b, j))
            for i in range(a + 1) for j in range(b + 1)})
        delta = results["delta"]
        if delta is not FAILED and (len(delta.coeffs) != (a + 1) * (b + 1)
                                    or delta != want):
            problems.append(f"Delta(x^{a} y^{b}) is not the binomial expansion")
        # S(y^n u) = S(u) S(y)^n = -t*u*y^n = (y-1)^n * u * t in the bosonization
        n = self.params["antipode"]
        want = binomial_element(pres, n, -1, lambda k: pres.monomial(y=k, u=1, t=1))
        if results["antipode"] not in (FAILED, want):
            problems.append(f"S(y^{n} u) != (y-1)^{n} u t")
        return problems


# -- dense-span ------------------------------------------------------------------


class DenseSpan(Workload):
    """Row reduction with coefficient growth on pl11-bosonized: the closure of
    two non-monomial generators level by level, a centralizer kernel and a
    skew-primitive kernel."""

    SIZES = {"full": {"levels": 11, "centralizer": 8, "skew": 7},
             "smoke": {"levels": 4, "centralizer": 3, "skew": 2}}

    def __init__(self, seed: int, size: str):
        self.params = self.SIZES[size]
        self.size = size
        sess = catalog.load_session("pl11-bosonized")
        self.bos = sess.bos
        self.pres = sess.pres
        self.closure_gens = [sess.pres.gen("x") + sess.pres.gen("y")
                             + sess.pres.gen("u") + sess.pres.gen("v"),
                             sess.pres.gen("t")]
        self.all_gens = [self.pres.gen(g.name) for g in self.pres.generators]

    def run(self, op):
        closure = op(growth.FiltrationClosure, self.pres, self.closure_gens)
        levels = [op(closure.extend_to, n) for n in range(1, self.params["levels"] + 1)]
        return {"closure": closure, "levels": levels,
                "centralizer": op(growth.centralizer_degree_bounded, self.pres,
                                  self.all_gens, self.params["centralizer"]),
                "skew": op(verify.find_skew_primitives, self.bos, self.bos.t(),
                           self.params["skew"])}

    def verdicts(self, results):
        if any(results[k] is FAILED for k in ("closure", "centralizer", "skew")):
            return ["failed"]
        return ([f"dims {results['closure'].dims}"]
                + [f"centralizer {e}" for e in results["centralizer"]]
                + [f"skew {e}" for e in results["skew"]])

    def check(self, results):
        verdicts = self.verdicts(results)
        if verdicts == ["failed"]:
            return []  # the failures are counted already; nothing to compare
        problems = []
        if verdicts != load_golden("dense_span.json")[self.size]:
            problems.append("dims or bases differ from the recorded outputs")
        for c in results["centralizer"]:
            if any(c * g != g * c for g in self.all_gens):
                problems.append(f"centralizer element {c} does not commute")
        t, one = self.bos.t(), self.pres.one()
        for p in results["skew"]:
            if self.bos.hopf.coproduct(p) != p.outer(one) + t.outer(p):
                problems.append(f"{p} is not (t,1)-skew-primitive")
        return problems


# -- cli-suite -------------------------------------------------------------------


class CliSuite(Workload):
    """``superhopf`` commands end to end.  The argv lists are fixed, so the
    reports can be compared byte for byte with the recorded ones; the
    workload seed does not change them."""

    SIZES = {"full": {"check": ["--max-degree", "4", "--samples", "150",
                                "--hopf-random", "25"],
                      "growth": 20, "file_growth": 5},
             "smoke": {"check": ["--max-degree", "2", "--samples", "10",
                                 "--hopf-random", "4", "--shift-n", "2"],
                       "growth": 5, "file_growth": 3}}

    def __init__(self, seed: int, size: str):
        p = self.params = self.SIZES[size]
        self.size = size
        gl21 = fixtures.gl(2, 1)
        self.fixtures = (gl21,)
        self._workdir = tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR)
        path = Path(self._workdir.name) / "gl21.alg"
        path.write_text(fixtures.definition_text(gl21), encoding="utf-8")
        self.commands = [
            ["check", "all"] + p["check"],
            ["check", "all", "--algebra", "b-bosonized"] + p["check"],
            ["growth", "--n-max", str(p["growth"])],
            ["growth", "--algebra", str(path), "--n-max", str(p["file_growth"])],
        ]
        self.gl21_dims = fixtures.pbw_dims(5, 4, p["file_growth"])

    def close(self):
        self._workdir.cleanup()

    @staticmethod
    def _main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def run(self, op):
        return [op(self._main, argv) for argv in self.commands]

    def verdicts(self, results):
        return [f"{r[0]}\n{r[1]}" for r in results if r is not FAILED]

    def check(self, results):
        problems = fixture_problems(*self.fixtures)
        golden = load_golden("cli_suite.json")[self.size]
        for argv, result, want in zip(self.commands, results, golden):
            if result is FAILED:
                continue
            code, text = result
            if code != 0:
                problems.append(f"{' '.join(argv[:2])}: exit code {code}")
            if text != want:
                problems.append(f"{' '.join(argv[:4])}: report differs from the golden")
        if results[-1] is not FAILED:
            dims = [int(line.split()[1]) for line in results[-1][1].splitlines()
                    if line[:1].isdigit()]
            if dims != self.gl21_dims:
                problems.append(f"gl(2|1) dims {dims} != PBW count {self.gl21_dims}")
        return problems

    def bytes_out(self, results):
        return sum(len(r[1].encode("utf-8")) for r in results if r is not FAILED)


WORKLOADS = {"straighten": Straighten, "hopf-maps": HopfMaps,
             "dense-span": DenseSpan, "cli-suite": CliSuite}
