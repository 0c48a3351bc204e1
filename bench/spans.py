"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` replaces each traced function by a wrapper at every
binding site inside the ``toricfg`` package: the defining module, every
module that bound the name with ``from .x import f``, and the class
dictionary for the static method ``RatPolygon.from_halfplanes``.  Patching
only the defining module would miss calls made through those imported
names.  ``Tracer.uninstall`` puts every original object back.

A span is (id, function, parent span, start ns, end ns); spans stay in memory
and are written once the run ends.  A function's self time is the sum over
its spans of the duration minus the part covered by its child spans.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

# (module, attribute path) of every traced public function, grouped by the
# workload whose end-to-end numbers they should move.
TARGETS = (
    # scan
    ("fans", "divisor_polytope"),
    ("fans", "flag_data"),
    ("semigroup", "make_context"),
    ("criterion", "max_segment"),
    ("criterion", "is_finitely_generated"),
    ("geometry", "RatPolygon.from_halfplanes"),
    # analyze
    ("oracles", "lift_search"),
    ("semigroup", "newton_okounkov_body"),
    ("criterion", "vertex_lifts"),
    # semigroup
    ("semigroup", "theta"),
    ("semigroup", "e_bar"),
    ("semigroup", "q_hat"),
    ("geometry", "lattice_points"),
    # allfan
    ("cones", "hilbert_basis"),
    ("cones", "is_strongly_decomposable"),
    ("cones", "exists_pairing_one"),
    ("oracles", "brute_decompose"),
    ("criterion", "fg_for_all_divisors"),
    ("criterion", "construct_bad_divisor"),
    # every workload: parsing, validation, JSON encoding
    ("cli", "main"),
)

PACKAGE = "toricfg"

COUNTERS = (
    "geometry.from_halfplanes.halfplanes_in",
    "geometry.lattice_points.points_out",
    "oracles.lift_search.dilations",
)


def metric_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _package_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    def __init__(self):
        self.names = [metric_name(m, a) for m, a in TARGETS]
        self.calls = [0] * len(TARGETS)
        self.self_ns = [0] * len(TARGETS)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.verdicts = 0
        self.fallbacks = 0
        self.missing = []
        # flat span records: span id (in start order), target index, parent
        # span id (-1 for a root), start ns, end ns
        self.spans = array("q")
        self._next_id = 0
        self._stack = []
        self._paused = False
        self._restore = []
        self._hilbert = None

    # -- installation ---------------------------------------------------

    def install(self):
        modules = _package_modules()
        for idx, (mod_name, attr) in enumerate(TARGETS):
            module = sys.modules.get(f"{PACKAGE}.{mod_name}")
            owner, leaf = module, attr
            if module is not None and "." in attr:
                cls_name, leaf = attr.split(".")
                owner = getattr(module, cls_name, None)
            raw = None if owner is None else vars(owner).get(leaf)
            if raw is None:
                self.missing.append(self.names[idx])
                continue
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapper = self._wrap(idx, fn, self._hook_for(self.names[idx], fn))
            if self.names[idx] == "cones.hilbert_basis":
                self._hilbert = fn
            if is_static:
                self._set(owner, leaf, raw, staticmethod(wrapper))
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._set(m, key, val, wrapper)

    def _set(self, obj, key, original, replacement):
        self._restore.append((obj, key, original))
        setattr(obj, key, replacement)

    def uninstall(self):
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()

    @contextmanager
    def paused(self):
        """Calls inside run untraced (for correctness checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- the wrapper ----------------------------------------------------

    def _wrap(self, idx, fn, hook):
        stack = self._stack
        calls, self_ns, spans = self.calls, self.self_ns, self.spans
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [self._next_id, 0]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                calls[idx] += 1
                self_ns[idx] += dur - frame[1]
                spans.extend((frame[0], idx, parent, start, end))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _hook_for(self, name, fn):
        counters = self.counters
        if name == "geometry.from_halfplanes":
            def hook(args, kwargs, result):
                hps = args[0] if args else kwargs.get("halfplanes", ())
                if hasattr(hps, "__len__"):
                    counters["geometry.from_halfplanes.halfplanes_in"] += len(hps)
            return hook
        if name == "geometry.lattice_points":
            def hook(args, kwargs, result):
                if hasattr(result, "__len__"):
                    counters["geometry.lattice_points.points_out"] += len(result)
            return hook
        if name == "oracles.lift_search":
            params = inspect.signature(fn).parameters
            if "lambda_max" not in params:
                return None
            pos = list(params).index("lambda_max")
            default = params["lambda_max"].default

            def hook(args, kwargs, result):
                # the search stops at the first lambda that lifts, else at the cap
                cap = args[pos] if len(args) > pos else kwargs.get("lambda_max", default)
                counters["oracles.lift_search.dilations"] += (
                    cap if result is None else result
                )
            return hook
        if name == "criterion.is_finitely_generated":
            def hook(args, kwargs, result):
                self.verdicts += 1
                self.fallbacks += bool(getattr(result, "degenerate_side", False))
            return hook
        return None

    # -- results --------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric as {name: (value, unit)}."""
        out = {}
        for name, n, ns in zip(self.names, self.calls, self.self_ns):
            out[f"{name}.calls"] = (n, "count")
            out[f"{name}.self_ms"] = (ns / 1e6, "ms")
        for name, value in self.counters.items():
            out[name] = (value, "count")
        info = getattr(self._hilbert, "cache_info", None)
        ratio = 0.0
        if info is not None:
            ci = info()
            if ci.hits + ci.misses:
                ratio = ci.hits / (ci.hits + ci.misses)
        out["cones.hilbert_basis.cache_hit_ratio"] = (ratio, "ratio")
        out["criterion.fallback_ratio"] = (
            self.fallbacks / self.verdicts if self.verdicts else 0.0, "ratio"
        )
        return out

    def write_spans(self, path):
        """Spans as gzipped TSV: id, function, parent id, start ns, end ns."""
        s = self.spans
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tfunction\tparent\tstart_ns\tend_ns\n")
            for i in range(0, len(s), 5):
                fh.write(f"{s[i]}\t{self.names[s[i + 1]]}\t{s[i + 2]}\t{s[i + 3]}\t{s[i + 4]}\n")
