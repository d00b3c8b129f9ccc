"""Spans around ellgen's public functions and ring methods, from outside.

`Tracer.install()` replaces each function named in `TARGETS` by a wrapper
that records a span (op id, span id, parent span id, name, start, end) in
memory.  Every module attribute that binds the function is patched, so
`from .chern import pair` style imports are traced too; for ring methods
the class attribute is patched under every name that binds it, which
includes `__rmul__`.  Spans are written out by `Tracer.write` when the
traced process ends.

A layer's self time is its span's duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

# (metric prefix, module, attribute path) of every traced callable.
TARGETS = (
    ("series.USeries.mul", "ellgen.series", "USeries.__mul__"),
    ("series.USeries.inverse", "ellgen.series", "USeries.inverse"),
    ("series.USeries.pow", "ellgen.series", "USeries.__pow__"),
    ("theta.theta_factor", "ellgen.theta", "theta_factor"),
    ("theta.genus_root_series", "ellgen.theta", "genus_root_series"),
    ("chern.genus_class", "ellgen.chern", "genus_class"),
    ("chern.pair", "ellgen.chern", "pair"),
    ("chern.RootSeries.mul", "ellgen.chern", "RootSeries.__mul__"),
    ("chern.RootSeries.inverse", "ellgen.chern", "RootSeries.inverse"),
    ("chern.PontPoly.mul", "ellgen.chern", "PontPoly.__mul__"),
    ("chern.PontPoly.exp", "ellgen.chern", "PontPoly.exp"),
    ("genera.genus", "ellgen.genera", "genus"),
    ("genera.hypersurface_pont", "ellgen.genera", "hypersurface_pont"),
    ("bundles.expand_witten", "ellgen.bundles", "expand_witten"),
    ("bundles.ch_virtual", "ellgen.bundles", "ch_virtual"),
    ("bundles.ell2_via_bundles", "ellgen.bundles", "ell2_via_bundles"),
    ("modular.expand_in_basis", "ellgen.modular", "expand_in_basis"),
    ("modular.reconstruct_ell1", "ellgen.modular", "reconstruct_ell1"),
    ("sobolev.sobolev_c", "ellgen.sobolev", "sobolev_c"),
    ("sobolev.xF", "ellgen.sobolev", "_xF"),
)

THETA_CACHES = ("ellgen.theta.theta_factor", "ellgen.theta.genus_root_series")


def _ellgen_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "ellgen" or name.startswith("ellgen."))]


def find_caches() -> dict:
    """Every functools cache in the loaded ellgen modules, by qualified name."""
    caches = {}
    for module in _ellgen_modules():
        for value in vars(module).values():
            for obj in (value, getattr(value, "__wrapped__", None)):
                if callable(getattr(obj, "cache_info", None)):
                    caches[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return caches


def cache_totals(caches) -> dict:
    """Summed hits, misses and entries of the given caches."""
    hits = misses = entries = 0
    for cache in caches:
        info = cache.cache_info()
        hits += info.hits
        misses += info.misses
        entries += info.currsize
    return {"hits": hits, "misses": misses, "entries": entries}


def cache_snapshot(caches: dict) -> dict:
    """Totals over all caches and over the theta caches alone."""
    return {
        "all": cache_totals(caches.values()),
        "theta": cache_totals(c for name, c in caches.items() if name in THETA_CACHES),
    }


class Tracer:
    """In-memory span recorder: records every traced call while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [tracer.op, len(spans), stack[-1] if stack else -1, name, 0, 0]
            spans.append(span)
            stack.append(span[1])
            span[4] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[5] = perf_counter_ns()
                stack.pop()

        return traced

    def _count_class_terms(self, traced):
        # chern.class_terms: partition terms in every class genus_class returns.
        tracer = self

        @functools.wraps(traced)
        def counted(*args, **kwargs):
            result = traced(*args, **kwargs)
            tracer.counts["chern.class_terms"] = tracer.counts.get("chern.class_terms", 0) + sum(1 for _ in result.items())
            return result

        return counted

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; ellgen must already be imported."""
        modules = _ellgen_modules()
        for name, module_name, path in TARGETS:
            owner = sys.modules[module_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if name == "chern.genus_class":
                wrapper = self._count_class_terms(wrapper)
            if cls_path:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, wrapper)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def write(self, path, extra: dict | None = None) -> None:
        """Write spans, counters and `extra` as one JSON document."""
        doc = {"spans": self.spans, "counts": self.counts}
        if extra:
            doc.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def layer_totals(spans) -> dict:
    """Per span name: [calls, inclusive ns, self ns] over the given spans."""
    child_ns: dict[tuple, int] = {}
    for op, _sid, parent, _name, t0, t1 in spans:
        if parent >= 0:
            child_ns[(op, parent)] = child_ns.get((op, parent), 0) + (t1 - t0)
    totals: dict[str, list] = {}
    for op, sid, _parent, name, t0, t1 in spans:
        row = totals.setdefault(name, [0, 0, 0])
        row[0] += 1
        row[1] += t1 - t0
        row[2] += t1 - t0 - child_ns.get((op, sid), 0)
    return totals
