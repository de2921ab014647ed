"""Per-layer tracing from outside the package.

:func:`install` wraps the public functions and methods of each superhopf
layer.  Every call records one span (name, start, end, parent span) in
flat arrays that stay in memory until :meth:`Tracer.write` saves them at
the end of the run; the run id goes into the saved file.  A few wrappers
also count work (products, cache misses, inserts, tensor terms) at the
same boundary.

Functions that modules import by name (``from .linalg import
kernel_basis``) are replaced in every superhopf module that holds them;
methods are replaced on their class, so all callers see the wrapper.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from time import perf_counter

from superhopf import algebra, catalog, exprs, growth, hopf, liesuper, linalg, verify

# verify.check_s.<name> metrics: the certificate checks the workloads reach
CHECKS = {
    "check_coassociativity": "coassociativity",
    "check_counit": "counit",
    "check_antipode": "antipode",
    "check_bialgebra": "bialgebra",
    "check_ad_equals_bracket": "ad_equals_bracket",
    "is_normal": "normality",
    "biproduct_decomposition": "biproduct",
    "check_shift_identity": "shift_identity",
    "check_nilpotent_ideal": "nilpotent_ideal",
    "zero_divisor_scan": "zero_divisor_scan",
}


class Tracer:
    """Spans in flat arrays: name index, parent span, start, end, outermost flag."""

    def __init__(self):
        self.names = []
        self.name_layer = []
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outermost = array("b")  # no enclosing span of the same layer
        self.stack = [-1]
        self.active = Counter()  # open spans per layer
        self.counts = Counter()
        self.maxima = Counter()
        self.enabled = True
        self.seen_products = set()
        self.presentations = {}

    def span_name(self, name: str) -> int:
        self.names.append(name)
        self.name_layer.append(name.split(".", 1)[0])
        return len(self.names) - 1

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` counts."""
        nid = self.span_name(name)
        layer = self.name_layer[nid]

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_ix.append(nid)
            self.parent.append(self.stack[-1])
            self.outermost.append(not self.active[layer])
            self.stack.append(idx)
            self.active[layer] += 1
            self.end.append(0.0)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self.active[layer] -= 1
                self.stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def mark(self):
        """Start the timed region: zero the counters, return the next span index.

        Products seen during set-up stay seen, so a timed product that
        set-up already computed counts as a hit, as it is in the memo table.
        """
        self.counts.clear()
        self.maxima.clear()
        return len(self.start)

    # -- counters at the layer boundaries ------------------------------------------

    def _product(self, args, result):
        pres, m1, m2 = args[:3]
        self.counts["algebra.mul_calls"] += 1
        key = (id(pres), m1, m2)
        if key not in self.seen_products:
            self.seen_products.add(key)
            self.presentations[id(pres)] = pres
            self.counts["algebra.mul_misses"] += 1
            self.counts["algebra.terms_out"] += len(result)

    def _coproduct(self, args, result):
        self.counts["hopf.coproduct_calls"] += 1

    def _tensor(self, args, result):
        self.counts["hopf.tensor_terms"] += len(result.coeffs)

    def _insert(self, args, result):
        self.counts["linalg.insert_calls"] += 1
        self.counts["linalg.rows_stored"] += result is not None
        self.maxima["linalg.rank"] = max(self.maxima["linalg.rank"], args[0].rank)

    def _extend(self, args, result):
        self.maxima["growth.levels"] = max(self.maxima["growth.levels"],
                                           len(result.levels) - 1)

    def _check(self, args, result):
        self.counts["verify.checks"] += 1

    def cache_entries(self) -> int:
        """Entries held by the presentations' memo tables (``*_cache`` dicts)."""
        return sum(len(v) for pres in self.presentations.values()
                   for k, v in vars(pres).items()
                   if k.endswith("_cache") and isinstance(v, dict))

    # -- reduction -------------------------------------------------------------------

    def self_times(self, first: int):
        """Self time per span name and inclusive time per layer, spans >= first."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(first, n):
            p = self.parent[i]
            if p >= first:
                child[p] += self.end[i] - self.start[i]
        self_by_name = Counter()
        incl_by_layer = Counter()
        for i in range(first, n):
            dur = self.end[i] - self.start[i]
            nid = self.name_ix[i]
            self_by_name[self.names[nid]] += dur - child[i]
            if self.outermost[i]:
                incl_by_layer[self.name_layer[nid]] += dur
        return self_by_name, incl_by_layer

    def metrics(self, timed_from: int, wall_s: float) -> dict:
        """The per-layer metrics over the timed spans (set-up layers: all spans)."""
        own, incl = self.self_times(timed_from)
        setup_own, _ = self.self_times(0)
        c = self.counts
        m = {
            "algebra.mul_calls": c["algebra.mul_calls"],
            "algebra.mul_misses": c["algebra.mul_misses"],
            "algebra.mul_hit_ratio": (1 - c["algebra.mul_misses"] / c["algebra.mul_calls"]
                                      if c["algebra.mul_calls"] else 0.0),
            "algebra.mul_s": own["algebra.mul_monomials"],
            "algebra.elem_mul_s": own["algebra.Element.__mul__"],
            "algebra.normalize_s": own["algebra.normalize"] + own["algebra.fold_mul"],
            "algebra.terms_out": c["algebra.terms_out"],
            "algebra.cache_entries": self.cache_entries(),
            "algebra.incl_s": incl["algebra"],
            "hopf.coproduct_calls": c["hopf.coproduct_calls"],
            "hopf.coproduct_s": own["hopf.coproduct"],
            "hopf.antipode_s": own["hopf.antipode"] + own["hopf.antipode_monomial"],
            "hopf.delta_monomial_s": own["hopf.delta_monomial"],
            "hopf.tensor_mul_s": own["hopf.tensor_mul"],
            "hopf.tensor_map_s": (own["hopf.apply_element_map"]
                                  + own["hopf.apply_tensor_map"]
                                  + own["hopf.contract_scalar"]),
            "hopf.tensor_terms": c["hopf.tensor_terms"],
            "hopf.incl_s": incl["hopf"],
            "linalg.insert_calls": c["linalg.insert_calls"],
            "linalg.insert_useful_ratio": (c["linalg.rows_stored"] / c["linalg.insert_calls"]
                                           if c["linalg.insert_calls"] else 0.0),
            "linalg.insert_s": own["linalg.insert"],
            "linalg.contains_s": own["linalg.contains"],
            "linalg.kernel_s": own["linalg.kernel_basis"],
            "linalg.reduced_basis_s": own["linalg.reduced_basis"],
            "linalg.rank": self.maxima["linalg.rank"],
            "linalg.incl_s": incl["linalg"],
            "growth.extend_s": own["growth.extend_to"],
            "growth.levels": self.maxima["growth.levels"],
            "growth.centralizer_s": own["growth.centralizer_degree_bounded"],
            "verify.checks": c["verify.checks"],
            "exprs.parse_s": sum(setup_own[f"exprs.{f}"] for f in
                                 ("parse", "parse_list", "parse_linear_combination")),
            "catalog.load_session_s": setup_own["catalog.load_session"],
            "liesuper.validate_s": setup_own["liesuper.validate"],
            "cli.render_s": own["cli.render_reports"],
        }
        for fn, label in CHECKS.items():
            m[f"verify.check_s.{label}"] = own[f"verify.{fn}"]
        for layer in ("algebra", "hopf", "linalg"):
            m[f"{layer}.share"] = incl[layer] / wall_s if wall_s else 0.0
        m["trace.spans"] = len(self.start) - timed_from
        return m

    def write(self, path, run_id: str):
        """Save the spans: a JSON header line, then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": run_id, "names": self.names,
                                 "fields": ["name", "start", "end", "parent"]}) + "\n")
            for i in range(len(self.start)):
                fh.write(f"{self.name_ix[i]} {self.start[i]:.9f} "
                         f"{self.end[i]:.9f} {self.parent[i]}\n")


def _replace_everywhere(original, wrapper):
    """Point every superhopf module attribute bound to ``original`` at ``wrapper``."""
    for name, module in list(sys.modules.items()):
        if name == "superhopf" or name.startswith("superhopf."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def install() -> Tracer:
    """Wrap each layer's public entry points and return the tracer."""
    t = Tracer()
    methods = [
        (algebra.AlgebraPresentation, "mul_monomials", "algebra.mul_monomials", t._product),
        (algebra.AlgebraPresentation, "normalize", "algebra.normalize", None),
        (algebra.Element, "__mul__", "algebra.Element.__mul__", None),
        (algebra.TensorElement, "fold_mul", "algebra.fold_mul", None),
        (algebra.TensorElement, "tensor_mul", "hopf.tensor_mul", t._tensor),
        (algebra.TensorElement, "apply_element_map", "hopf.apply_element_map", None),
        (algebra.TensorElement, "apply_tensor_map", "hopf.apply_tensor_map", None),
        (algebra.TensorElement, "contract_scalar", "hopf.contract_scalar", None),
        (hopf.HopfStructureMaps, "coproduct", "hopf.coproduct", t._coproduct),
        (hopf.HopfStructureMaps, "antipode", "hopf.antipode", None),
        (hopf.HopfStructureMaps, "delta_monomial", "hopf.delta_monomial", None),
        (hopf.HopfStructureMaps, "antipode_monomial", "hopf.antipode_monomial", None),
        (linalg.RowSpace, "insert", "linalg.insert", t._insert),
        (linalg.RowSpace, "contains", "linalg.contains", None),
        (linalg.RowSpace, "reduced_basis", "linalg.reduced_basis", None),
        (growth.FiltrationClosure, "extend_to", "growth.extend_to", t._extend),
        (liesuper.LieSuperAlgebra, "validate", "liesuper.validate", None),
    ]
    for cls, attr, name, after in methods:
        setattr(cls, attr, t.wrap(name, getattr(cls, attr), after))
    functions = [
        (linalg.kernel_basis, "linalg.kernel_basis", None),
        (growth.centralizer_degree_bounded, "growth.centralizer_degree_bounded", None),
        (exprs.parse, "exprs.parse", None),
        (exprs.parse_list, "exprs.parse_list", None),
        (exprs.parse_linear_combination, "exprs.parse_linear_combination", None),
        (catalog.load_session, "catalog.load_session", None),
        (verify.render_reports, "cli.render_reports", None),
    ]
    functions += [(getattr(verify, fn), f"verify.{fn}", t._check) for fn in CHECKS]
    for fn, name, after in functions:
        _replace_everywhere(fn, t.wrap(name, fn, after))
    return t
