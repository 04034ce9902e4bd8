"""Span tracer for the traced benchmark run.

The tracer wraps public functions and methods of the tangentia modules
from outside the package.  Each wrapped call opens a span (its layer
name, start, end and parent, kept as a frame on a stack); when the span
closes, its duration minus the time of its child spans is added to the
layer's self time, and its duration is added to the parent's child time.
Spans are folded into per-layer totals as they close instead of being
stored, so memory stays flat however many products a workload makes.

A name is patched wherever the package looks it up: on the class for
methods (``Element.__mul__``), and on every tangentia module that holds
the same function object for module functions (``dsl`` and ``wildness``
hold their own references to ``morphism.compose``).  A call made while
the innermost open span already has the same layer name runs unwrapped,
so a layer's recursion (free-Lie ``substitute`` delegating to the
associative one, ``mul_trunc(k=None)`` calling ``__mul__``) is one span.

Work counts (calls, product pairs, rref cells, terms) are computed in
hooks around the calls.  Hook time is excluded from every layer's self
time and reported separately as ``hook_s``.
"""
from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "tangentia"


class Tracer:
    """Per-layer self time and deterministic work counts of one pass."""

    def __init__(self):
        self.stack = []  # open spans: [layer, child_seconds]
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.peaks = defaultdict(int)
        self.hook_s = 0.0
        self._patched = []  # (owner, attribute, original value)

    # -- spans ----------------------------------------------------------------

    def _hook_time(self, t0):
        dt = perf_counter() - t0
        self.hook_s += dt
        if self.stack:
            self.stack[-1][1] += dt

    def wrap(self, layer, fn, before=None, after=None, skip=None):
        """A function that runs ``fn`` inside a span named ``layer``.

        ``skip(args)`` true runs ``fn`` unwrapped; ``before(args, kwargs)``
        and ``after(args, kwargs, result)`` record work counts.
        """
        stack = self.stack

        def traced(*args, **kwargs):
            if (stack and stack[-1][0] == layer) or (skip is not None and skip(args)):
                return fn(*args, **kwargs)
            if before is not None:
                h0 = perf_counter()
                before(args, kwargs)
                self._hook_time(h0)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self.self_s[layer] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                self.counts[layer + ".calls"] += 1
            if after is not None:
                h0 = perf_counter()
                after(args, kwargs, result)
                self._hook_time(h0)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    # -- patching -------------------------------------------------------------

    def patch_method(self, cls, name, wrapper):
        self._patched.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def patch_function(self, original, wrapper):
        """Replace ``original`` by ``wrapper`` in every loaded tangentia module."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


# -- the layers -----------------------------------------------------------------


def _degree_histogram(e, polynomial):
    hist = defaultdict(int)
    for mono in e.coeffs:
        hist[sum(mono) if polynomial else len(mono)] += 1
    return hist


def install(tracer):
    """Wrap the public entry points of every tangentia layer.

    Returns the targets that the loaded package does not have; the run
    counts each as a failed check.
    """
    counts = tracer.counts
    peaks = tracer.peaks
    missing = []

    def module(name):
        return sys.modules.get(f"{PACKAGE}.{name}")

    def function(modname, fname, layer, **hooks):
        original = getattr(module(modname), fname, None)
        if original is None:
            missing.append(f"{modname}.{fname}")
            return
        tracer.patch_function(original, tracer.wrap(layer, original, **hooks))

    def method(modname, clsname, mname, layer, **hooks):
        cls = getattr(module(modname), clsname, None)
        if cls is None or mname not in vars(cls):
            missing.append(f"{modname}.{clsname}.{mname}")
            return
        tracer.patch_method(cls, mname, tracer.wrap(layer, vars(cls)[mname], **hooks))

    def record_terms(coeffs):
        n = len(coeffs)
        if n > peaks["freealg.peak_terms"]:
            peaks["freealg.peak_terms"] = n
        counts["freealg.out_coeffs"] += n
        counts["freealg.int_coeffs"] += sum(1 for c in coeffs.values() if c.denominator == 1)

    def element_result(args, kwargs, result):
        coeffs = getattr(result, "coeffs", None)
        if isinstance(coeffs, dict):
            record_terms(coeffs)

    def not_a_product(args):
        return not hasattr(args[1], "coeffs")

    def mul_pairs(args, kwargs):
        a, b = args[0], args[1]
        pairs = len(a.coeffs) * len(b.coeffs)
        counts["freealg.mul.pairs"] += pairs
        k = args[2] if len(args) > 2 else kwargs.get("k")
        if k is None:
            return
        poly = a.variety.kind.value == "polynomial"
        ha, hb = _degree_histogram(a, poly), _degree_histogram(b, poly)
        counts["freealg.mul.trunc_pairs"] += pairs
        counts["freealg.mul.kept_pairs"] += sum(
            na * nb for da, na in ha.items() for db, nb in hb.items() if da + db <= k
        )

    mul_hooks = dict(before=mul_pairs, after=element_result, skip=not_a_product)
    method("freealg", "Element", "__mul__", "freealg.mul", **mul_hooks)
    method("freealg", "Element", "mul_trunc", "freealg.mul", **mul_hooks)

    def lie_in_terms(args, kwargs):
        counts["freealg.lie_from_assoc.in_terms"] += len(args[0])

    def lie_out_terms(args, kwargs, result):
        record_terms(result)

    function(
        "freealg", "lie_from_assoc", "freealg.lie_from_assoc",
        before=lie_in_terms, after=lie_out_terms,
    )
    method("freealg", "Element", "substitute", "freealg.substitute", after=element_result)
    function("freealg", "element_str", "freealg.render")

    function("morphism", "truncated_inverse", "morphism.truncated_inverse")
    function("morphism", "compose", "morphism.compose")
    function("morphism", "compose_all", "morphism.compose")
    function("morphism", "group_commutator", "morphism.group_commutator")

    function("fox", "fox_derivative", "fox.fox_derivative")
    function("fox", "chain_rule_check", "fox.chain_rule_check")
    function("envelope", "env_mul", "envelope.env_mul")
    function("envelope", "trace_class", "envelope.trace_class")
    function("envelope", "env_str", "envelope.render")
    function("envelope", "trace_str", "envelope.render")
    method("deriv", "Derivation", "apply", "deriv.apply")
    function("deriv", "divergence", "deriv.divergence")

    def rref_cells(args, kwargs):
        rows = args[0]
        counts["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)

    function("linalg", "rref", "linalg.rref", before=rref_cells)

    def span_hits(args, kwargs, report):
        counts["wildness.span.hits"] += report.hits
        counts["wildness.span.samples"] += report.samples_used

    function("wildness", "tangent_span", "wildness.tangent_span", after=span_hits)
    function("wildness", "divergence_kernel_rank", "wildness.divergence_kernel_rank")
    function("wildness", "detect_divergence_wild", "wildness.detect")
    function("wildness", "detect_rank2_associative", "wildness.detect")

    function("dsl", "parse", "dsl.parse")
    method("dsl", "Session", "run", "dsl.session")
    function("cli", "main", "cli.main")
    return missing
