"""Module-level tracing of the program from outside its source.

:class:`Tracer` rebinds the layer functions named in :data:`SPANNED` in every
loaded ``conic2`` module namespace that binds them (so ``from .geom import
solve_system`` inside ``amcert`` is caught too) and patches the counted
methods on their classes.  Spanned functions record a span (name, start,
end, parent span, op id) and their self time, which is wall time minus the
time spent in spanned children.  Counted methods run too often for a span
and only count calls.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import random
import statistics
import sys
from collections import Counter
from time import perf_counter_ns

from yardstick import YARDSTICK_MS, yardstick_s

SPANNED = {
    "poly": ("substitute", "resultant", "exact_div", "binary_gcd"),
    "factor": ("bivariate_factor", "is_absolutely_irreducible", "univariate_factor"),
    "conic": ("discriminant", "classify_fiber", "flatness_check", "chart_equation",
              "cross_singular_point"),
    "geom": ("solve_system", "singular_points", "intersection_points",
             "ordinary_node_check", "smooth_along_fiber"),
    "amcert": ("surface_criterion", "component_factorization", "am_component_check",
               "nonproduct_witness", "search_spieghiamolo"),
}


MUL_PROBE_DEGREES = (1, 2, 4, 8, 16, 24)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start_ns, end_ns, parent id, span id, op id)
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.cum_ns: Counter = Counter()
        self.mul_calls: Counter = Counter()  # FieldCtx.mul calls by extension degree
        self.results: Counter = Counter()  # outcome counts behind the ratio metrics
        self.op_ns = 0
        self._stack: list = []  # [span id, ns covered by child spans]
        self._ids = itertools.count(1)
        self._op_id = None
        self._undo: list = []

    # -- installation --------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        self._cache_before = self._cache().cache_info()
        try:
            self._install()
            yield self
        finally:
            self._uninstall()
            self._cache_after = self._cache().cache_info()

    @staticmethod
    def _cache():
        """factor's LRU cache behind is_absolutely_irreducible."""
        return sys.modules["conic2.factor"]._abs_irred_bivariate

    def _install(self) -> None:
        from conic2 import amcert, gf2k, poly

        for module, names in SPANNED.items():
            mod = sys.modules["conic2." + module]
            for name in names:
                self._rebind(getattr(mod, name), self._span_wrapper(f"{module}.{name}", getattr(mod, name)))
        self._rebind(gf2k.field_new, self._count_wrapper("gf2k.field_new", gf2k.field_new))
        self._patch(gf2k.FieldCtx, "inv", self._count_wrapper("gf2k.inv", gf2k.FieldCtx.inv))
        self._patch(poly.Poly, "__mul__", self._count_wrapper("poly.Poly.__mul__", poly.Poly.__mul__))
        mul, mul_calls = gf2k.FieldCtx.mul, self.mul_calls

        @functools.wraps(mul)
        def counted_mul(ctx, a, b):
            mul_calls[ctx.k] += 1
            return mul(ctx, a, b)

        self._patch(gf2k.FieldCtx, "mul", counted_mul)
        self._count_outcomes(amcert.nonproduct_witness, lambda r: {
            "nonproduct_witness.returned": 1, "nonproduct_witness.found": int(r is not None)})
        self._count_outcomes(amcert.search_spieghiamolo, lambda r: {
            "search.tried": r.tried, "search.hits": len(r.hits)})

    def _uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _rebind(self, original, replacement) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "conic2" and not modname.startswith("conic2."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def _patch(self, owner, name: str, replacement) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _count_outcomes(self, fn, outcomes) -> None:
        """Add ``outcomes(result)`` of every call of ``fn`` to ``results``."""
        results = self.results

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            r = fn(*args, **kwargs)
            results.update(outcomes(r))
            return r

        self._rebind(fn, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _count_wrapper(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, name: str, fn):
        calls, self_ns, cum_ns = self.calls, self.self_ns, self.cum_ns
        stack, spans, ids, tracer = self._stack, self.spans, self._ids, self
        depth = [0]  # active calls of this function

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [next(ids), 0]
            stack.append(frame)
            depth[0] += 1
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                depth[0] -= 1
                dur = t1 - t0
                calls[name] += 1
                self_ns[name] += dur - frame[1]
                if not depth[0]:
                    cum_ns[name] += dur
                if parent is not None:
                    parent[1] += dur
                spans.append((name, t0, t1, parent[0] if parent else None, frame[0], tracer._op_id))

        return wrapper

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root span named ``op``."""
        self._op_id = op_id
        frame = [next(self._ids), 0]
        self._stack.append(frame)
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter_ns()
            self._stack.pop()
            self.op_ns += t1 - t0
            self.spans.append(("op", t0, t1, None, frame[0], op_id))
            self._op_id = None

    # -- output --------------------------------------------------------------

    def summary(self) -> dict:
        before, after = self._cache_before, self._cache_after
        return {
            "calls": self.calls,
            "self_ns": self.self_ns,
            "cum_ns": self.cum_ns,
            "mul_calls": {str(k): n for k, n in self.mul_calls.items()},
            "results": self.results,
            "op_ns": self.op_ns,
            "abs_irred_cache": {"hits": after.hits - before.hits,
                                "misses": after.misses - before.misses},
        }

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, sid, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "id": sid, "op": op}))
                fh.write("\n")


def mul_probe(seed: str) -> dict:
    """ns per FieldCtx.mul call on seeded random operands, timed from outside
    and rescaled to yardstick speed by a yardstick timed right after each batch."""
    from conic2.gf2k import field_new

    rng = random.Random(f"mul:{seed}")
    out = {}
    for k in MUL_PROBE_DEGREES:
        mul = field_new(k).mul
        pairs = [(rng.randrange(1, 1 << k), rng.randrange(1, 1 << k)) for _ in range(4000)]
        samples = []
        for _ in range(5):
            t0 = perf_counter_ns()
            for a, b in pairs:
                mul(a, b)
            ns = (perf_counter_ns() - t0) / len(pairs)
            samples.append(ns * YARDSTICK_MS / 1000 / yardstick_s())
        out[k] = statistics.median(samples)
    return out
