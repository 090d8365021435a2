"""Timing wrappers installed from outside the library, and span bookkeeping.

`Tracer.install()` replaces each traced function in every `bscomb` module
namespace that binds it (the package re-exports some functions and several
modules import others with `from ... import`), and patches methods on their
class.  Each call made while the tracer is enabled records a span (name,
start, end, parent).  Spans stay in memory, in flat arrays, until `dump`.
Self time is a span's duration minus the durations of its direct children;
spans nest because the library runs on one thread.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (span name, module, attribute); a dotted attribute is a method on a class.
TRACED = [
    ("rootsys.weyl_mul", "rootsys", "WeylElement.__mul__"),
    ("rootsys.weyl_inv", "rootsys", "WeylElement.inv"),
    ("rootsys.weyl_apply", "rootsys", "WeylElement.apply"),
    ("rootsys.conjugate_reflection", "rootsys", "conjugate_reflection"),
    ("rootsys.word", "rootsys", "WeylElement.word"),
    ("rootsys.enumerate_weyl", "rootsys", "enumerate_weyl"),
    ("rootsys.build_root_system", "rootsys", "build_root_system"),
    ("gallery.galleries", "gallery", "galleries"),
    ("gallery.prefix", "gallery", "prefix"),
    ("gallery.twist_seq", "gallery", "twist_seq"),
    ("gallery.verify_gallerification", "gallery", "verify_gallerification"),
    ("gallery.is_gallery_type", "gallery", "is_gallery_type"),
    ("nested.fixed_points", "nested", "fixed_points"),
    ("nested.factor_fixed_points", "nested", "factor_fixed_points"),
    ("nested.project", "nested", "project"),
    ("nested.fibre_data", "nested", "fibre_data"),
    ("nested.is_gallery_type_pair", "nested", "is_gallery_type_pair"),
    ("poly.mul", "poly", "Poly.__mul__"),
    ("poly.add", "poly", "Poly.__add__"),
    ("poly.divide_linear", "poly", "divide_linear"),
    ("poly.exact_divide", "poly", "exact_divide"),
    ("poly.weyl_act", "poly", "weyl_act"),
    ("poly.substitute", "poly", "Poly.substitute"),
    ("gkm.fpfunction", "gkm", "FPFunction.__init__"),
    ("gkm.generator", "gkm", "generator"),
    ("gkm.copy", "gkm", "copy"),
    ("gkm.concentrate", "gkm", "concentrate"),
    ("gkm.basis", "gkm", "basis"),
    ("gkm.decompose", "gkm", "decompose"),
    ("gkm.induced_map", "gkm", "induced_map"),
    ("foldcat.enumerate_morphisms", "foldcat", "enumerate_morphisms"),
    ("foldcat.verify_morphism", "foldcat", "verify_morphism"),
    ("foldcat.verify_pointed", "foldcat", "verify_pointed"),
    ("foldcat.compose", "foldcat", "compose"),
    ("formats.parse_sequence", "formats", "parse_sequence"),
    ("formats.parse_plan", "formats", "parse_plan"),
    ("formats.parse_fpfunction", "formats", "parse_fpfunction"),
    ("formats.dumps", "formats", "dumps"),
    ("cli.main", "cli", "main"),
]

SPAN_NAMES = [name for name, _, _ in TRACED]

# Extra per-layer counts, as (metric, numerator counter, denominator counter).
# A ratio's denominator of None marks a plain count.
EXTRAS = [
    ("gallery.galleries.items", "galleries.items", None),
    ("gallery.is_gallery_type.found_ratio", "is_gallery_type.found", "gallery.is_gallery_type"),
    ("gallery.is_gallery_type.repeat_ratio", "is_gallery_type.repeat", "gallery.is_gallery_type"),
    ("nested.fixed_points.yield_ratio", "fixed_points.kept", "fixed_points.enumerated"),
    ("poly.exact_divide.exact_ratio", "exact_divide.exact", "poly.exact_divide"),
    ("gkm.decompose.in_span_ratio", "decompose.in_span", "gkm.decompose"),
    ("foldcat.enumerate_morphisms.found", "enumerate_morphisms.found", None),
    ("foldcat.verify_morphism.accept_ratio", "verify_morphism.accept", "verify_morphism.candidates"),
]


class Tracer:
    """Span recorder; records nothing until `enabled` is set."""

    def __init__(self):
        self.enabled = False
        self.name_id = {name: k for k, name in enumerate(SPAN_NAMES)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self._seen_sequences: set = set()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every loaded bscomb module."""
        import bscomb.cli  # noqa: F401  (loads every module of the package)

        modules = [m for k, m in sys.modules.items()
                   if (k == "bscomb" or k.startswith("bscomb.")) and m is not None]
        for name, module, attr in TRACED:
            owner = sys.modules[f"bscomb.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapped = self._wrap(name, original)
                for alias, value in list(cls.__dict__.items()):
                    if value is original:
                        setattr(cls, alias, wrapped)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for m in modules:
                for alias, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, alias, wrapped)

    def _wrap(self, name: str, fn):
        nid = self.name_id[name]
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            k = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.span_start.append(perf_counter())
            tracer.span_end.append(0.0)
            tracer.stack.append(k)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.span_end[k] = perf_counter()
                tracer.stack.pop()
                if hook is not None:
                    hook(args, None, exc)
                raise
            tracer.span_end[k] = perf_counter()
            tracer.stack.pop()
            if hook is not None:
                hook(args, result, None)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- counters taken where the work happens ------------------------------

    def _after_gallery_galleries(self, args, result, exc):
        if exc is None:
            self._count("galleries.items", len(result))

    def _after_gallery_is_gallery_type(self, args, result, exc):
        s = args[0]
        key = (str(s.rs), tuple(t.root.coords for t in s.entries))
        if key in self._seen_sequences:
            self._count("is_gallery_type.repeat")
        self._seen_sequences.add(key)
        if exc is None and result is not None:
            self._count("is_gallery_type.found")

    def _after_nested_fixed_points(self, args, result, exc):
        if exc is None:
            self._count("fixed_points.kept", len(result))
            self._count("fixed_points.enumerated", 1 << len(args[0].seq))

    def _after_poly_exact_divide(self, args, result, exc):
        if exc is None and result is not None:
            self._count("exact_divide.exact")

    def _after_gkm_decompose(self, args, result, exc):
        if exc is None:
            self._count("decompose.in_span")

    def _after_foldcat_enumerate_morphisms(self, args, result, exc):
        if exc is None:
            self._count("enumerate_morphisms.found", len(result))

    def _after_foldcat_verify_morphism(self, args, result, exc):
        # Only candidates count: calls made directly by enumerate_morphisms,
        # not those of compose, subsequence_morphism or verify_pointed.
        parent = self.stack[-1] if self.stack else -1
        if parent < 0 or self.span_name[parent] != self.name_id["foldcat.enumerate_morphisms"]:
            return
        self._count("verify_morphism.candidates")
        if exc is None and result is None:
            self._count("verify_morphism.accept")

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name call counts and self times, plus the raw counters."""
        n = len(self.span_start)
        child = [0.0] * n
        for k in range(n):
            parent = self.span_parent[k]
            if parent >= 0:
                child[parent] += self.span_end[k] - self.span_start[k]
        calls = [0] * len(SPAN_NAMES)
        self_s = [0.0] * len(SPAN_NAMES)
        for k in range(n):
            nid = self.span_name[k]
            calls[nid] += 1
            self_s[nid] += self.span_end[k] - self.span_start[k] - child[k]
        return {"calls": dict(zip(SPAN_NAMES, calls)),
                "self_s": dict(zip(SPAN_NAMES, self_s)),
                "counters": dict(self.counters)}

    def dump(self, path) -> None:
        """Write every span: a JSON header line, then four packed arrays."""
        with open(path, "wb") as fh:
            header = {"names": SPAN_NAMES, "spans": len(self.span_start),
                      "arrays": ["name:i", "parent:i", "start:d", "end:d"]}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def merge(summaries: list[dict]) -> dict:
    """Sum several summaries (one per traced process)."""
    out = {"calls": dict.fromkeys(SPAN_NAMES, 0),
           "self_s": dict.fromkeys(SPAN_NAMES, 0.0), "counters": {}}
    for s in summaries:
        for key in ("calls", "self_s"):
            for name, v in s[key].items():
                out[key][name] += v
        for name, v in s["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0) + v
    return out


def per_layer_metrics(summary: dict) -> dict:
    """The per-layer metric values, named as in BENCHMARK.json."""
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (summary["calls"][name], "count")
        metrics[f"{name}.self_s"] = (summary["self_s"][name], "s")
    counters = summary["counters"]
    for metric, num, den in EXTRAS:
        value = counters.get(num, 0)
        if den is None:
            metrics[metric] = (value, "count")
            continue
        base = summary["calls"][den] if den in summary["calls"] else counters.get(den, 0)
        metrics[metric] = (value / base if base else 0.0, "ratio")
    return metrics
