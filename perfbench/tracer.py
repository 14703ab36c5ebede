"""Spans around calls into paramedial's layers, recorded from outside the package.

A child process calls :func:`instrument` after importing ``paramedial``.
It replaces each listed public function by a wrapper in every module
namespace that binds it, so calls through ``cli``, through the defining
module's globals, and through function-level ``from .oracle import orbits``
all pass the wrapper.  Spans live in memory and are written once, when the
child ends.

The parent process reads these spans back, adds one root span per request
(spawn to exit, timed on the same monotonic clock), and computes totals,
self times and counters with the functions at the bottom of this file.
Importing this module imports nothing from ``paramedial``.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux, shared by parent and children

# Public functions wrapped per layer module.  The cache helpers are private,
# but they are the only place a cache hit or miss can be observed.
LAYERS = {
    "cli": ("main", "render_records", "_cache_load", "_cache_store"),
    "enum_gl2": ("enumerate_gl2", "conjugacy_classes", "y_phi", "sqrt_set", "coset_reps_for"),
    "enum_cyclic": ("enumerate_cyclic",),
    "affine": ("materialize", "is_latin", "is_paramedial", "is_simple"),
    "oracle": ("orbits", "classify_triples", "classify_tables", "table_isomorphic"),
    "modring": ("unit_group",),
}


class Tracer:
    """Nested spans of one process: [name, start, end, parent index, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, attrs: dict | None = None) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, attrs or {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = clock()
        return rec

    def close(self, rec: list) -> None:
        rec[2] = clock()
        self._stack.pop()

    def wrap(self, name: str, fn, before=None, after=None):
        """``before(args, kwargs) -> attrs``; ``after(result, attrs)`` fills counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self.open(name, before(args, kwargs) if before else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if after:
                after(result, rec[4])
            return result

        return wrapper

    def wrap_orbits(self, fn):
        """``oracle.orbits`` with its point count and the number of ``spec.act`` calls."""

        @functools.wraps(fn)
        def wrapper(spec, *args, **kwargs):
            calls = 0
            act = spec.act

            def counting_act(g, x):
                nonlocal calls
                calls += 1
                return act(g, x)

            rec = self.open("oracle.orbits", {"points": len(spec.points)})
            spec.act = counting_act
            try:
                return fn(spec, *args, **kwargs)
            finally:
                spec.act = act
                self.close(rec)
                rec[4]["act_calls"] = calls

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _attr_hooks(name: str):
    """Counters recorded per span, keyed by span name."""
    if name == "enum_gl2.y_phi":
        return (lambda a, k: {"irred0": a[0].kind == "irreducible" and a[0].b == 0}), None
    if name == "enum_gl2.enumerate_gl2":
        return (lambda a, k: {"p": a[0]}), None
    if name == "enum_cyclic.enumerate_cyclic":
        return (lambda a, k: {"p": a[0].p, "n": a[0].n}), (
            lambda r, attrs: attrs.update(forms=r.count)
        )
    if name == "affine.is_paramedial":
        return (lambda a, k: {"n": a[0].n}), None
    if name == "cli.render_records":
        return None, lambda r, attrs: attrs.update(bytes=len(r))
    if name == "cli._cache_load":  # the path is None when no cache is configured
        return (lambda a, k: {"enabled": a[0] is not None}), (
            lambda r, attrs: attrs.update(hit=r is not None)
        )
    return None, None


def instrument(tracer: Tracer) -> None:
    """Wrap every function in LAYERS wherever a ``paramedial`` module binds it."""
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "paramedial"]
    for layer, names in LAYERS.items():
        source = sys.modules[f"paramedial.{layer}"]
        for fname in names:
            original = getattr(source, fname)
            span = f"{layer}.{fname}"
            if span == "oracle.orbits":
                wrapped = tracer.wrap_orbits(original)
            else:
                before, after = _attr_hooks(span)
                wrapped = tracer.wrap(span, original, before, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
    enum_gl2 = sys.modules["paramedial.enum_gl2"]
    cls = enum_gl2.Gl2Classification
    cls.records = tracer.wrap("enum_gl2.records", cls.records)


# -- analysis in the parent ---------------------------------------------------


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def check_nesting(spans: list[dict]) -> str | None:
    """Every child lies inside its parent and in the same request; None when sound."""
    for i, s in enumerate(spans):
        if s["end"] < s["start"]:
            return f"span {i} {s['name']} ends before it starts"
        if s["parent"] is None:
            continue
        p = spans[s["parent"]]
        if p["request"] != s["request"] or s["start"] < p["start"] or s["end"] > p["end"]:
            return f"span {i} {s['name']} lies outside its parent {p['name']}"
    return None


def fit_exponent(points: dict[int, list[float]]) -> float:
    """Least-squares slope of log(median time) against log(size); 0 with < 3 sizes."""
    xs, ys = [], []
    for size, times in sorted(points.items()):
        times = sorted(times)
        med = times[len(times) // 2]
        if med > 0:
            xs.append(math.log(size))
            ys.append(math.log(med))
    if len(xs) < 3:
        return 0.0
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
