"""Per-layer timing from outside the package.

``Tracer.installed()`` replaces public functions of ``trivalent`` under
the names their callers look them up by (``trivalent.cli.count``,
``trivalent.verify.enumerate_numberings``, ``trivalent.semigraph.validate``
and so on) with timing wrappers, and puts the originals back on exit.
The package itself is not edited.

Coarse calls (a CLI invocation, a verifier, an engine call, a graph
build or validation) become spans: name, start, end, parent span and
request id, kept in memory and written when the run ends.  Calls made
once per numbering (serialisation, the Miura transform, predicates and
each step of an enumeration) are too many to keep one by one; they are
added into per-request totals and counts instead.

A layer's time is inclusive of the wrapped calls it makes.  Self time
is the call's duration minus the time of the wrapped calls inside it.
"""

from __future__ import annotations

import contextlib
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, layer, kind).  kind is "span" for a recorded call,
# "sum" for a call only added into totals, "count" for a backtracking
# count whose report total is the number of solutions walked, and "gen"
# for a generator whose every step is timed.
WRAPS = (
    ("cli", "count", "search.backtrack", "count"),
    ("cli", "count_by_contraction", "search.contract", "span"),
    ("cli", "enumerate_numberings", "search.backtrack", "gen"),
    ("cli", "dumps_numbering", "numbering.dumps", "sum"),
    ("cli", "check_pp004", "miura.pp004", "span"),
    ("cli", "validate", "semigraph.validate", "span"),
    ("cli", "verify_p048", "verify", "span"),
    ("cli", "verify_p048_structure", "verify", "span"),
    ("cli", "verify_miura", "verify", "span"),
    ("cli", "verify_figure_vector", "verify", "span"),
    ("semigraph", "validate", "semigraph.validate", "span"),
    ("semigraph", "cycle_with_legs", "semigraph.build", "span"),
    ("semigraph", "loads_graph", "semigraph.build", "span"),
    ("verify", "count", "search.backtrack", "count"),
    ("verify", "count_by_contraction", "search.contract", "span"),
    ("verify", "enumerate_numberings", "search.backtrack", "gen"),
    ("verify", "miura_transform", "miura.transform", "sum"),
    ("verify", "numbering_to_json_obj", "numbering.to_json", "sum"),
    ("verify", "is_strict", "numbering.predicate", "sum"),
    ("verify", "is_balanced", "numbering.predicate", "sum"),
    ("verify", "exponent_of", "numbering.predicate", "sum"),
    ("verify", "radii_of", "numbering.predicate", "sum"),
    ("miura", "is_strict", "numbering.predicate", "sum"),
)

# Engine entry points as the verify module names them.
ENGINE_CALLS = {"count", "count_by_contraction", "enumerate_numberings"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, request id)
        self.request = None
        self._stack: list[list] = []  # [child seconds, span id or None]
        self._next_id = 0
        self.missing: list[str] = []  # wrapped names the package no longer has
        self.reset()

    def reset(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()

    def take(self) -> dict:
        """Totals since the last reset, then reset."""
        out = {
            "total": dict(self.total),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
        self.reset()
        return out

    def _parent_span(self):
        for frame in reversed(self._stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def call(self, name: str, span: bool, fn, *args, **kwargs):
        span_id = None
        parent = None
        if span:
            span_id = self._next_id
            self._next_id += 1
            parent = self._parent_span()
        frame = [0.0, span_id]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            elapsed = t1 - t0
            if self._stack:
                self._stack[-1][0] += elapsed
            self.total[name] += elapsed
            self.self_time[name] += elapsed - frame[0]
            self.calls[name] += 1
            if span:
                self.spans.append((span_id, name, t0, t1, parent, self.request))

    def _iterate(self, name: str, gen):
        while True:
            try:
                item = self.call(name, False, next, gen)
            except StopIteration:
                return
            self.counts["search.solutions"] += 1
            yield item

    def _wrap(self, module: str, attr: str, layer: str, kind: str, fn):
        engine = module == "verify" and attr in ENGINE_CALLS

        def wrapper(*args, **kwargs):
            if engine:
                self.counts["verify.engine_calls"] += 1
            if kind == "gen":
                return self._iterate(layer, iter(fn(*args, **kwargs)))
            result = self.call(layer, kind != "sum", fn, *args, **kwargs)
            if kind == "count":
                self.counts["search.solutions"] += getattr(result, "total", 0)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap the listed functions for the duration of the block."""
        import trivalent.cli
        import trivalent.miura
        import trivalent.semigraph
        import trivalent.verify

        modules = {
            "cli": trivalent.cli,
            "miura": trivalent.miura,
            "semigraph": trivalent.semigraph,
            "verify": trivalent.verify,
        }
        builtins = getattr(trivalent.cli, "BUILTINS", {})
        builtin_originals = dict(builtins)
        saved = []
        self.missing = []
        try:
            for module, attr, layer, kind in WRAPS:
                target = modules[module]
                original = getattr(target, attr, None)
                if original is None:
                    # A refactor removed this name; its layer reads low.
                    self.missing.append(f"{module}.{attr}")
                    continue
                saved.append((target, attr, original))
                setattr(target, attr, self._wrap(module, attr, layer, kind, original))
            for name, fn in builtin_originals.items():
                builtins[name] = self._wrap("cli", name, "semigraph.build", "span", fn)
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)
            builtins.update(builtin_originals)
