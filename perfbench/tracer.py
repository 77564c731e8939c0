"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of posetoperad at the module attributes
the package itself calls through, so no file under src/ is touched.  A
wrapped call records a span (name, start, end, parent, job); self time is
a span's duration minus the time its child spans cover.  lru_cache
wrappers stay in place underneath, and their cache_info stays reachable.

Layer of a span = the first dotted part of its name.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import time

LAYERS = ("cli", "dsl", "poset", "counting", "polynomials", "series", "zeta",
          "catalog")

# (span name, module, attribute path); one name may cover several functions
TARGETS = [
    ("cli.main", "cli", "main"),
    ("dsl.resolve", "dsl", "parse_expr"),
    ("dsl.resolve", "dsl", "resolve"),
    ("poset.construct", "poset", "Poset.__init__"),
    ("poset.construct", "poset", "construct_poset"),
    ("poset.construct", "poset", "chain"),
    ("poset.construct", "poset", "antichain"),
    ("poset.lex_sum", "poset", "lex_sum"),
    ("counting.d_vector", "counting", "d_vector"),
    ("counting.count_maps", "counting", "count_maps"),
    ("counting.reciprocity_check", "counting", "reciprocity_check"),
    ("counting.order_polynomial", "counting", "order_polynomial"),
    ("counting.order_polynomial", "counting", "enumeration_report"),
    ("polynomials.to_monomial", "polynomials", "BinomialPoly.to_monomial"),
    ("polynomials.monomial", "polynomials", "MonomialPoly.__add__"),
    ("polynomials.monomial", "polynomials", "MonomialPoly.__sub__"),
    ("polynomials.monomial", "polynomials", "MonomialPoly.__mul__"),
    ("polynomials.monomial", "polynomials", "MonomialPoly.scale"),
    ("polynomials.monomial", "polynomials", "MonomialPoly.neg_x"),
    ("series.series_of", "series", "series_of"),
    ("series.closed_form", "series", "closed_form"),
    ("series.operad_eval", "series", "operad_eval_series"),
    ("series.product", "series", "hadamard"),
    ("series.product", "series", "ordinal_mul"),
    ("series.identity_check", "series", "series_identity_check"),
    ("zeta.zeta_value", "zeta", "zeta_value"),
    ("zeta.verify_identity", "zeta", "verify_identity"),
    ("zeta.finite_form_identity", "zeta", "finite_form_identity"),
    ("zeta.entry22_check", "zeta", "entry22_check"),
    ("zeta.inverse_power_sum", "zeta", "inverse_power_sum"),
    ("catalog.iso_classes", "catalog", "iso_classes"),
    ("catalog.canonical_key", "catalog", "canonical_key"),
]

_SUMMED_TO = re.compile(r"lhs summed to k=(\d+)")


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job]
        self.self_s = {}         # name -> summed self time
        self.calls = {}          # name -> call count
        self.counts = {"zeta.zeta_value.misses": 0, "zeta.verify.terms": 0,
                       "series.product_terms": 0}
        self.job = 0
        self._stack = []         # [span index, start, child time]
        self._zeta_seen = set()
        self.dv_posets = {}      # distinct posets given to d_vector

    def wrap(self, name, fn, observe=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            frame = [idx, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                spans[idx] = [name, frame[1], end, parent, self.job]
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[2]
                self.calls[name] = self.calls.get(name, 0) + 1
                if stack:
                    stack[-1][2] += dur
            if observe is not None:
                observe(args, result)
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    # observers: counters read from arguments and results, outside the span
    def _zeta(self, args, result):
        ctx = args[1] if len(args) > 1 else None
        key = (args[0], getattr(ctx, "working_digits", None))
        if key not in self._zeta_seen:
            self._zeta_seen.add(key)
            self.counts["zeta.zeta_value.misses"] += 1

    def _verify(self, args, rec):
        for note in rec.notes:
            m = _SUMMED_TO.fullmatch(note)
            if m:
                self.counts["zeta.verify.terms"] += (
                    int(m.group(1)) - rec.start_index + 1)

    def _product(self, args, result):
        self.counts["series.product_terms"] += (len(args[0].coeffs)
                                                * len(args[1].coeffs))

    def _dvector(self, args, result):
        P = args[0]
        if P not in self.dv_posets:
            self.dv_posets[P] = [P.below_mask(i) for i in range(len(P))]

    def install(self):
        """Patch every posetoperad module that binds a target."""
        for modname in {t[1] for t in TARGETS}:
            importlib.import_module(f"posetoperad.{modname}")
        observers = {"zeta.zeta_value": self._zeta,
                     "zeta.verify_identity": self._verify,
                     "series.product": self._product,
                     "counting.d_vector": self._dvector}
        mods = [m for k, m in sys.modules.items()
                if k == "posetoperad" or k.startswith("posetoperad.")]
        for name, modname, path in TARGETS:
            mod = sys.modules[f"posetoperad.{modname}"]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(mod, path)
            traced = self.wrap(name, orig, observers.get(name))
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, traced)
        self._d_vector = sys.modules["posetoperad.counting"].d_vector

    def summary(self):
        """What the parent aggregates: self times, calls, counters, the
        d_vector cache statistics and the distinct posets' down-masks."""
        info = self._d_vector.cache_info()
        return {"self_s": self.self_s, "calls": self.calls,
                "counts": self.counts,
                "dv_cache": [info.hits, info.misses],
                "dv_posets": list(self.dv_posets.values())}
