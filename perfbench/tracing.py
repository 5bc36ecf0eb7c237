"""Spans and counters around the package's public functions, installed from outside.

Modules import names from each other directly (cli binds weyl_normal_form,
verify binds weyl_bruteforce, ...), so a wrapper is installed in every
namespace of the package that binds the original object, and on every
class attribute that holds an original method (Scalar.__rmul__ is
Scalar.__mul__).  A target whose name is gone reports None ("absent")
instead of failing, so the harness keeps working while the package is
refactored.
"""
from __future__ import annotations

import sys
from time import perf_counter

# (layer prefix, module, attribute, kind).  "span" times every call,
# "count" only counts calls and "yields" counts the items a generator yields.
TARGETS = (
    ("cli.main", "cli", "main", "span"),
    ("textio.parse_boson_word", "textio", "parse_boson_word", "span"),
    ("textio.render", "textio", "render", "span"),
    ("textio.load_system", "textio", "load_system", "span"),
    ("quantize.quantize_system", "quantize", "quantize_system", "span"),
    ("closedform.weyl_normal_form", "closedform", "weyl_normal_form", "span"),
    ("closedform.h_coeff", "closedform", "h_coeff", "span"),
    ("closedform.zeta_poly", "closedform", "zeta_poly", "span"),
    ("scalar.mul", "scalar", "Scalar.__mul__", "count"),
    ("scalar.add", "scalar", "Scalar.__add__", "count"),
    ("poly.np_mul", "poly", "NormalPoly._np_mul", "span"),
    ("poly.expand_qp_word", "poly", "expand_qp_word", "span"),
    ("poly.normal_order_word", "poly", "normal_order_word", "span"),
    ("enumeration.orderings", "enumeration", "distinct_orderings", "yields"),
    ("enumeration.weyl_bruteforce", "enumeration", "weyl_bruteforce", "span"),
    ("enumeration.weyl_forced", "enumeration", "weyl_forced", "span"),
    ("enumeration.eta_decomposition_check", "enumeration", "eta_decomposition_check",
     "span"),
    ("altroutes.weyl_via_cg", "altroutes", "weyl_via_cg", "span"),
    ("altroutes.blasiak_normal_order", "altroutes", "blasiak_normal_order", "span"),
    ("altroutes.blasiak_coeff", "altroutes", "blasiak_coeff", "count"),
    ("verify.run_checks", "verify", "run_checks", "span"),
)


def _render_bytes(args, result):
    return len(result.encode()) if isinstance(result, str) else 0


def _inner_terms(args, result):
    # len(left) * len(right): the term pairs one _np_mul call visits
    return len(args[0]) * len(args[1])


EXTRAS = {"textio.render": ("bytes", _render_bytes),
          "poly.np_mul": ("inner_terms", _inner_terms)}


class Tracer:
    """Records spans (name, start, end, parent, request, outermost) in memory."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._active = {}
        self._counts = {}
        self._extras = {}
        self.absent = set()

    def _span(self, name, fn, extra):
        spans, stack, active = self.spans, self._stack, self._active
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            depth = active.get(name, 0)
            active[name] = depth + 1
            parent = stack[-1] if stack else None
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] = depth
                spans[index] = (name, start, end, parent, tracer.request, depth == 0)
            if extra is not None:
                tracer._extras[name] += extra(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        cell = self._counts[name] = [0]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _yield_counter(self, name, fn):
        cell = self._counts[name] = [0]

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                cell[0] += 1
                yield item

        return wrapper

    def install(self):
        """Wrap every target in every package namespace that binds it."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "weylorder" or key.startswith("weylorder.")]
        for prefix, module_name, attr, kind in TARGETS:
            module = sys.modules.get(f"weylorder.{module_name}")
            owner_name, _, name = attr.rpartition(".")
            if owner_name:  # a method: wrap it on its class
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(name) if owner is not None else None
            else:
                owner = module
                original = getattr(module, name, None)
            if original is None:
                self.absent.add(prefix)
                continue
            if kind == "span":
                extra = EXTRAS.get(prefix, (None, None))[1]
                if extra is not None:
                    self._extras[prefix] = 0
                wrapper = self._span(prefix, original, extra)
            elif kind == "count":
                wrapper = self._counter(prefix, original)
            else:
                wrapper = self._yield_counter(prefix, original)
            for namespace in ([owner] if owner_name else modules):
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)

    def metrics(self) -> dict:
        """Per-layer totals: calls, inclusive seconds, self seconds and extras."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = {}
        for index, (name, start, end, _, _, outermost) in enumerate(self.spans):
            calls, inclusive, self_s = totals.get(name, (0, 0.0, 0.0))
            duration = end - start
            totals[name] = (calls + 1,
                            inclusive + (duration if outermost else 0.0),
                            self_s + duration - child[index])
        out = {}
        for prefix, _, _, kind in TARGETS:
            gone = prefix in self.absent
            if kind == "span":
                calls, inclusive, self_s = totals.get(prefix, (0, 0.0, 0.0))
                out[f"{prefix}.calls"] = None if gone else calls
                out[f"{prefix}.s"] = None if gone else inclusive
                out[f"{prefix}.self_s"] = None if gone else self_s
                if prefix in EXTRAS:
                    out[f"{prefix}.{EXTRAS[prefix][0]}"] = (
                        None if gone else self._extras[prefix])
            else:
                key = f"{prefix}.calls" if kind == "count" else prefix
                out[key] = None if gone else self._counts[prefix][0]
        return out
