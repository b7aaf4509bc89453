"""Per-layer tracing of symalg, installed from outside the package.

`Tracer.install()` wraps public functions of every symalg layer and rebinds
each wrapped name in every symalg module that imported it, so calls made
inside the package are counted too.  A cached function is wrapped around
its existing `lru_cache` object, so caching behaves exactly as untraced;
its hits and misses are `cache_info()` read at install and at report time.

Each wrapper adds one call and its self time (its duration minus the time
of traced calls nested in it) to its layer.  The `harness.*` figures are
inclusive times instead.  Spans are kept only at coarse boundaries
(load_config, run_suite, each law run, each check_equal, each report call),
each with the id of the span that caused it.

A name that a later version of symalg no longer has is skipped and listed
under `missing`; its metrics read 0, so the traced run keeps working.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

#: The seven primitives whose evaluation is timed on its own.
PRIMITIVES = ("Mu", "Mult", "SymF", "Deriv", "Chi", "ChiInv", "TableNu")

# Functions wrapped per layer: (module, function names).
_FUNCTIONS = {
    "spaces.normalize": ("spaces", ("normalize", "tensor", "direct_sum")),
    "spaces.order": ("spaces", ("monomial",)),
    "spaces.enumerate": ("spaces", ("enumerate_basis",)),
    "spaces.index": ("spaces", ("split_pair", "join_pair", "decompose_sum", "build_sum")),
    "elements.build": ("elements", ("element", "zero_element", "singleton")),
    "elements.add": ("elements", ("elem_add", "elem_sum", "elem_scale")),
    "elements.tensor": ("elements", ("elem_tensor",)),
    "morphisms.apply_basis": ("morphisms", ("apply_basis",)),
    "morphisms.apply": ("morphisms", ("apply",)),
    "morphisms.check_equal": ("morphisms", ("check_equal",)),
    "derivations.validate": ("derivations", (
        "s_algebra", "free_algebra", "table_algebra", "a_module", "derivation",
        "sbar_algebra", "arrow_monoid")),
    "derivations.convert": ("derivations", (
        "derivation_to_algebra", "algebra_to_derivation",
        "derivation_to_monoid", "monoid_to_derivation")),
    "harness.load_config": ("harness", ("load_config",)),
    "harness.run_suite": ("harness", ("run_suite",)),
    "harness.report": ("harness", ("render_summary", "write_report")),
}

# Every public function of these modules belongs to the layer, except the
# listed checks, whose time is check_equal's.
_WHOLE_MODULES = {"arrow.build": ("arrow", {"arrow_check"}), "tangent": ("tangent", set())}

_SPANS = {"load_config", "run_suite", "check_equal", "render_summary", "write_report"}


def _symalg_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "symalg" or n.startswith("symalg."))]


def _rebind(orig, new) -> None:
    """Replace `orig` by `new` wherever a symalg module holds it by name."""
    for mod in _symalg_modules():
        for name, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, name, new)


def _subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.child = [0.0]      # time of traced calls nested in each open call
        self.layers = {}        # layer -> [calls, self_s, inclusive_s]
        self.spans = [{"id": 0, "parent": None, "name": "sample", "start": 0.0}]
        self.open = [0]
        self.missing = []
        self.run_suite_s = []
        self.vectors = {"spaces.enumerate": 0, "morphisms.check_equal": 0}
        self.terms = 0
        self.max_coeff = 0
        self.caches = {}        # layer -> (lru_cache object, cache_info at install)

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, fn, layer, post=None, span=None):
        stat = self.layers.setdefault(layer, [0, 0.0, 0.0])
        child = self.child
        clock = time.perf_counter

        # The lean form keeps the overhead down where calls run into millions.
        if post is None and span is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                child.append(0.0)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stat[0] += 1
                    stat[1] += dt - child.pop()
                    stat[2] += dt
                    child[-1] += dt
            return traced

        spans, open_ = self.spans, self.open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if span is not None:
                sp = {"id": len(spans), "parent": open_[-1], "name": span,
                      "start": clock() - self.origin}
                spans.append(sp)
                open_.append(sp["id"])
            child.append(0.0)
            t0 = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - child.pop()
                stat[2] += dt
                if span is not None:
                    open_.pop()
                    sp["end"] = clock() - self.origin
                if post is not None and ok:
                    post(sp if span is not None else None, args, result, dt)
                child[-1] += clock() - t0
        return traced

    def _wrap_function(self, mod, name, layer, post=None, span=None):
        orig = getattr(mod, name, None)
        if not callable(orig):
            self.missing.append(f"{mod.__name__}.{name}")
            return
        new = self._wrapper(orig, layer, post, span)
        if hasattr(orig, "cache_info"):
            new.cache_info, new.cache_clear = orig.cache_info, orig.cache_clear
            self.caches[layer] = (orig, orig.cache_info())
        _rebind(orig, new)

    def _wrap_methods(self, base, names, layer, post=None, span=None):
        found = False
        for cls in _subclasses(base):
            for name in names:
                fn = vars(cls).get(name)
                if inspect.isfunction(fn):
                    setattr(cls, name, self._wrapper(fn, layer, post, span))
                    found = True
        if not found:
            self.missing.append(f"{base.__name__}.{'/'.join(names)}")

    def _wrap_dispatch(self, mod, name, prefix):
        """Wrap an evaluator whose first argument's type names the layer."""
        orig = getattr(mod, name, None)
        if not callable(orig):
            self.missing.append(f"{mod.__name__}.{name}")
            return
        by_type = {}

        @functools.wraps(orig)
        def traced(m, *args, **kwargs):
            fn = by_type.get(type(m))
            if fn is None:
                fn = by_type[type(m)] = self._wrapper(orig, prefix + type(m).__name__)
            return fn(m, *args, **kwargs)
        _rebind(orig, traced)

    # -- post hooks -------------------------------------------------------

    def _count_terms(self, span, args, result, dt):
        coeffs = getattr(result, "coeffs", ())
        self.terms += len(coeffs)
        for _, c in coeffs:
            m = max(abs(c.numerator), c.denominator)
            if m > self.max_coeff:
                self.max_coeff = m

    def _count_vectors(self, layer, attr):
        def post(span, args, result, dt):
            n = len(result) if attr is None else getattr(result, attr, 0)
            self.vectors[layer] += n
            if span is not None:
                span["status"] = getattr(result, "status", None)
                span["tested"] = n
        return post

    def _law_span(self, span, args, result, dt):
        span["law"] = getattr(args[0], "name", None)

    def _run_suite_time(self, span, args, result, dt):
        self.run_suite_s.append(dt)

    # -- install and report -----------------------------------------------

    def install(self, symalg) -> "Tracer":
        """Wrap the layers of an imported symalg package."""
        mods = {n: getattr(symalg, n) for n in (
            "spaces", "elements", "morphisms", "modality", "arrow",
            "derivations", "tangent", "laws", "harness")
            if getattr(symalg, n, None) is not None}
        if "modality" not in mods:
            __import__("symalg.modality")
            mods["modality"] = sys.modules["symalg.modality"]
        if "spaces" in mods and hasattr(mods["spaces"], "weight"):
            w = mods["spaces"].weight
            if hasattr(w, "cache_info"):
                self.caches["spaces.weight"] = (w, w.cache_info())
        # Elements are counted where they are made: the other constructors
        # return what `element` made.
        posts = {
            "element": self._count_terms,
            "elem_scale": self._count_terms,
            "enumerate_basis": self._count_vectors("spaces.enumerate", None),
            "check_equal": self._count_vectors("morphisms.check_equal", "tested_count"),
            "run_suite": self._run_suite_time,
        }
        for layer, (modname, names) in _FUNCTIONS.items():
            mod = mods.get(modname)
            for name in names:
                if mod is None:
                    self.missing.append(f"{modname}.{name}")
                    continue
                span = name if name in _SPANS else None
                self._wrap_function(mod, name, layer, posts.get(name), span)
        for layer, (modname, skip) in _WHOLE_MODULES.items():
            mod = mods.get(modname)
            if mod is None:
                self.missing.append(modname)
                continue
            for name, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_") and name not in skip):
                    self._wrap_function(mod, name, layer)
        if "spaces" in mods and hasattr(mods["spaces"], "BasisVector"):
            self._wrap_methods(mods["spaces"].BasisVector, ("key",), "spaces.order")
        if "morphisms" in mods and hasattr(mods["morphisms"], "MorExpr"):
            self._wrap_methods(mods["morphisms"].MorExpr, ("dom", "cod"),
                               "morphisms.endpoints")
        if "laws" in mods and hasattr(mods["laws"], "Law"):
            self._wrap_methods(mods["laws"].Law, ("run",), "laws.run",
                               post=self._law_span, span="law")
        if "modality" in mods:
            self._wrap_dispatch(mods["modality"], "eval_primitive", "modality.eval.")
        return self

    def _cache_delta(self, layer):
        if layer not in self.caches:
            return 0, 0, 0
        fn, before = self.caches[layer]
        after = fn.cache_info()
        return after.hits - before.hits, after.misses - before.misses, after.currsize

    def metrics(self) -> dict:
        """Every per-layer metric except trace.overhead_s."""
        self.spans[0]["end"] = time.perf_counter() - self.origin
        lay = lambda k: self.layers.get(k, [0, 0.0, 0.0])
        out = {}
        for layer in ("spaces.normalize", "spaces.order", "spaces.enumerate",
                      "spaces.index", "elements.build", "elements.add",
                      "elements.tensor", "morphisms.apply_basis", "morphisms.apply",
                      "morphisms.endpoints", "morphisms.check_equal", "arrow.build",
                      "derivations.validate", "laws.run"):
            out[layer + ".calls"] = lay(layer)[0]
            out[layer + ".self_s"] = lay(layer)[1]
        out["derivations.convert.self_s"] = lay("derivations.convert")[1]
        out["tangent.self_s"] = lay("tangent")[1]
        out["spaces.enumerate.vectors"] = self.vectors["spaces.enumerate"]
        out["morphisms.check_equal.vectors"] = self.vectors["morphisms.check_equal"]
        out["elements.terms"] = self.terms
        out["elements.max_coeff_bits"] = self.max_coeff.bit_length()
        hits, misses, _ = self._cache_delta("spaces.weight")
        out["spaces.weight.hits"], out["spaces.weight.misses"] = hits, misses
        hits, misses, size = self._cache_delta("morphisms.apply_basis")
        out["morphisms.apply_basis.hits"] = hits
        out["morphisms.apply_basis.misses"] = misses
        out["morphisms.apply_basis.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        out["morphisms.apply_basis.cache_entries"] = size
        for p in PRIMITIVES:
            out[f"modality.eval.{p}.self_s"] = lay("modality.eval." + p)[1]
        out["harness.load_config_s"] = lay("harness.load_config")[2]
        out["harness.run_suite.first_s"] = sum(self.run_suite_s[:1])
        out["harness.run_suite.rest_s"] = sum(self.run_suite_s[1:])
        out["harness.report_s"] = lay("harness.report")[2]
        return out

    def layer_table(self) -> dict:
        """Raw calls, self and inclusive seconds of every traced layer."""
        return {k: {"calls": v[0], "self_s": v[1], "inclusive_s": v[2]}
                for k, v in sorted(self.layers.items())}
