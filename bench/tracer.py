"""Span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each weylp layer from outside
the package: it replaces the function on its defining module or class and
rebinds every module-level alias of it in ``weylp.*`` (``suites`` and ``cli``
import ``theta``, ``res`` and friends by name), so no call path escapes.

For every wrapped call it records a span (id, parent id, name, start, end,
case id) and adds the call's self time -- its duration minus the time covered
by its child spans -- to the layer's total.  Calls below a Weyl product
(coefficient products, additions) are aggregated per layer rather than
recorded as spans, since one K[t] case makes millions of them.  Field-element
operators are only counted.

Counters kept next to the spans:

* ``weyl.mul.pairs``      sum of |A|*|B| over Weyl products (exact work count)
* ``weyl.mul.terms_out``  sum of output term counts; ``weyl.mul.max_terms``
  the largest operand or result
* ``poly.uni_mul.terms_out``
* ``gfq.elem_ops.calls`` / ``gfq.elem_ops.untabled_calls`` (q > 256)

``check_s`` is the inclusive time spent in the independent oracles and
cross-checks (CHECK_LAYERS, and the cases' own ``check`` spans), nested checks
counted once; ``case_s`` the inclusive time of the benchmark's ``case`` spans,
its base.
"""

from __future__ import annotations

import itertools
import json
import sys
from collections import Counter
from time import perf_counter

# fields with q above this have no lookup tables: their operations are computed
UNTABLED_Q = 256

# (layer name, module, owner attribute or None, function/method names)
LAYERS = (
    ("gfq.spec_init", "weylp.gfq", "FieldSpec", ("__init__",)),
    ("weyl.verify", "weylp.weyl", None,
     ("verify_pth_power_identity", "verify_pth_power_identity_2vars")),
    ("weyl.is_central", "weylp.weyl", "WeylElement", ("is_central",)),
    ("weyl.substitute", "weylp.weyl", "WeylElement", ("substitute_gens",)),
    ("poly.add", "weylp.poly", "UniPoly", ("__add__",)),
    ("poly.add", "weylp.poly", "BiPoly", ("__add__",)),
    ("poly.bi_substitute", "weylp.poly", "BiPoly", ("substitute",)),
    ("theta.theta", "weylp.theta", None, ("theta",)),
    ("theta.inverse", "weylp.theta", None, ("theta_inverse",)),
    ("theta.oracle", "weylp.theta", None, ("theta_inverse_oracle",)),
    ("autgrp.decompose", "weylp.autgrp", None, ("decompose",)),
    ("autgrp.realize", "weylp.autgrp", None, ("realize",)),
    ("autgrp.compose", "weylp.autgrp", None, ("compose",)),
    ("autgrp.validate", "weylp.autgrp", "AutImages", ("validate",)),
    ("resmap.res", "weylp.resmap", None, ("res",)),
    ("resmap.res_inverse", "weylp.resmap", None, ("res_inverse",)),
    ("resmap.res_affine", "weylp.resmap", None, ("res_affine",)),
    ("resmap.res_n_bruteforce", "weylp.resmap", None,
     ("res_n_affine_bruteforce",)),
    ("parsing.parse", "weylp.parsing", None,
     ("parse_field_spec", "parse_field_element", "parse_unipoly",
      "parse_bipoly", "parse_weyl", "parse_word", "parse_images",
      "parse_automorphism")),
    ("suites.gen", "weylp.suites", None,
     ("random_unipoly", "random_xpoly2", "random_word", "random_sl2",
      "random_symplectic4")),
    ("cli.main", "weylp.cli", None, ("main",)),
)

# independent oracles and cross-checks, the numerator of check.share;
# "check" is the span a case opens around its own cross-checks
CHECK_LAYERS = frozenset(("check", "weyl.verify", "theta.oracle",
                          "weyl.is_central", "resmap.res_n_bruteforce",
                          "autgrp.validate"))
# layers called inside products, aggregated instead of recorded as spans
FINE_LAYERS = frozenset(("poly.add", "poly.uni_mul", "poly.bi_mul"))

# prefix of the stderr line on which cli_child.py hands back its totals
TRACE_MARK = "BENCH_TRACE "

# spans kept in memory; later calls still count towards the totals
MAX_SPANS = 100_000

ELEM_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
            "__rmul__", "__neg__", "__truediv__", "__pow__", "inv")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.max_terms = 0
        self.check_s = 0.0
        self.case_s = 0.0
        self.spans = []
        self.record_spans = False
        self.case_id = None
        self._stack = []
        self._in_check = 0
        self._below_product = 0
        self._ids = itertools.count(1)
        self._patches = []

    # -- span core ----------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as a span called ``name``."""
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [0.0, next(self._ids)]
        check = name in CHECK_LAYERS
        outer_check = check and not self._in_check
        product = name == "weyl.mul"
        recorded = (self.record_spans and not self._below_product
                    and name not in FINE_LAYERS)
        self._in_check += check
        self._below_product += product
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self._in_check -= check
            self._below_product -= product
            dur = t1 - t0
            if parent is not None:
                parent[0] += dur
            self.calls[name] += 1
            self.self_s[name] += dur - frame[0]
            if outer_check:
                self.check_s += dur
            if name == "case":
                self.case_s += dur
            if recorded and len(self.spans) < MAX_SPANS:
                self.spans.append((frame[1], parent[1] if parent else None,
                                   name, t0, t1, self.case_id))

    def check(self, fn, *args):
        """Run a case's cross-check fn(*args) as a ``check`` span."""
        return self.call("check", fn, *args)

    # -- wrappers -----------------------------------------------------------

    def _layer(self, name, fn):
        call = self.call

        def wrapper(*args, **kwargs):
            return call(name, fn, *args, **kwargs)
        return wrapper

    def _product(self, name, fn, cls, same_kind):
        """Span and size counters for products; scalings pass through."""
        call, counts = self.call, self.counts

        def wrapper(a, b):
            if not (isinstance(b, cls) and same_kind(a, b)):
                return fn(a, b)
            out = call(name, fn, a, b)
            n_out = len(out.coeffs)
            counts[name + ".terms_out"] += n_out
            if name == "weyl.mul":
                n_a, n_b = len(a.coeffs), len(b.coeffs)
                counts["weyl.mul.pairs"] += n_a * n_b
                self.max_terms = max(self.max_terms, n_a, n_b, n_out)
            return out
        return wrapper

    def _elem_op(self, fn):
        counts = self.counts

        def wrapper(a, *args):
            counts["gfq.elem_ops.calls"] += 1
            if a.spec.q > UNTABLED_Q:
                counts["gfq.elem_ops.untabled_calls"] += 1
            return fn(a, *args)
        return wrapper

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, owner, original, wrapper):
        """Point every name bound to ``original`` at ``wrapper``: all names
        in the owning class, or all module-level aliases in weylp.*."""
        if isinstance(owner, type):
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._set(owner, attr, wrapper)
            return
        for module in _weylp_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self):
        """Wrap every layer of the already-imported weylp package."""
        import weylp.cli  # noqa: F401  (every module must be loaded)
        from weylp.gfq import FieldElement
        from weylp.poly import BiPoly, UniPoly
        from weylp.weyl import WeylElement
        originals = []
        for name, modname, owner_name, attrs in LAYERS:
            module = sys.modules[modname]
            owner = getattr(module, owner_name) if owner_name else module
            for attr in attrs:
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                originals.append(original)
                self._replace(owner, original, self._layer(name, original))
        for name, cls, same_kind in (
                ("weyl.mul", WeylElement, lambda a, b: True),
                ("poly.uni_mul", UniPoly, lambda a, b: a.var == b.var),
                ("poly.bi_mul", BiPoly, lambda a, b: True)):
            original = cls.__mul__
            originals.append(original)
            self._replace(cls, original,
                          self._product(name, original, cls, same_kind))
        seen = set()
        for attr in ELEM_OPS:
            original = vars(FieldElement).get(attr)
            if original is None or id(original) in seen:
                continue
            seen.add(id(original))
            originals.append(original)
            self._replace(FieldElement, original, self._elem_op(original))
        missed = [(module.__name__, attr)
                  for module in _weylp_modules()
                  for attr, value in vars(module).items()
                  if any(value is o for o in originals)]
        if missed:
            raise AssertionError("tracer left unwrapped aliases: %s" % missed)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Plain-dict totals, mergeable across processes."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "max_terms": self.max_terms,
                "check_s": self.check_s, "case_s": self.case_s}

    def merge_reported(self, stderr: str):
        """Merge the totals a cli_child.py process reported on stderr."""
        for line in stderr.splitlines():
            if line.startswith(TRACE_MARK):
                self.merge(json.loads(line[len(TRACE_MARK):]))

    def merge(self, other: dict):
        self.calls.update(other["calls"])
        self.self_s.update(other["self_s"])
        self.counts.update(other["counts"])
        self.max_terms = max(self.max_terms, other["max_terms"])
        self.check_s += other["check_s"]
        self.case_s += other["case_s"]


def _weylp_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and name.split(".")[0] == "weylp"]
