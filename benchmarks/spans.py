"""Spans around the calls into each layer of the package, recorded from the
benchmark's side by patching public functions where their callers look
them up.

A span is (operation, name, start, end, parent, counters).  Spans stay in
memory until the run ends.  A layer is the part of the span name before the
first dot; its self time is the time of its spans minus the part their
child spans cover, and its busy time is the time during which at least one
of its spans is open.
"""

from __future__ import annotations

import contextlib
import time
import types
from collections import defaultdict

import braidtiles
from braidtiles import artin, braid, cli, homs, linalg, tiles, verify


def _letters(args, result):
    return {"letters": len(args[0].letters)}


def _mults(args, result):
    a, b = args
    return {"mults": a.rows * a.cols * b.cols} if isinstance(b, linalg.ExactMatrix) else None


def _snf(args, result):
    m = args[0]
    useful = len({row for row in m.entries if any(row)})
    return {"cells": m.rows * m.cols, "rows": m.rows, "useful_rows": useful}


def _symplectic_letters(args, result):
    return {"letters": len(args[1].letters)}


def _relators(args, result):
    return {"relators": len(result.relators)}


def _atoms(args, result):
    return {"atoms": result.atom_count}


# (span name, defining module, function name, counters).  Every module
# attribute bound to the same function object is patched, so calls made
# through ``from .x import f`` bindings are seen as well.
FUNCTIONS = (
    ("braid.handle_reduce", braid, "handle_reduce", _letters),
    ("braid.is_trivial", braid, "is_trivial", None),
    ("braid.equal", braid, "equal", None),
    ("braid.artin_action", braid, "artin_action", None),
    ("linalg.is_symplectic", linalg, "is_symplectic", None),
    ("linalg.snf", linalg, "smith_normal_form", _snf),
    ("homs.braid_to_symplectic", homs, "braid_to_symplectic", _symplectic_letters),
    ("homs.edge_transvection_image", homs, "edge_transvection_image", None),
    ("homs.half_twist_image", homs, "half_twist_image", None),
    ("homs.wreath_symplectic", homs, "wreath_symplectic", None),
    ("homs.cabling_discrepancy", homs, "cabling_discrepancy", None),
    ("artin.presentation_from_graph", artin, "presentation_from_graph", _relators),
    ("artin.abelianization", artin, "abelianization", None),
    ("artin.certify_nontrivial", artin, "certify_nontrivial", None),
    ("tiles.parse", tiles, "parse_tile_expression", None),
    ("tiles.format", tiles, "format_tile_expression", None),
    ("tiles.normal_form", tiles, "normal_form", _atoms),
    ("tiles.marked_graph_of", tiles, "marked_graph_of", None),
    ("tiles.enumerate", tiles, "enumerate_tiles", None),
    ("verify.paper_suite", verify, "paper_suite", None),
    ("verify.random_suite", verify, "random_suite", None),
    ("cli.main", cli, "main", None),
)

METHODS = (
    ("linalg.matmul", linalg.ExactMatrix, "__mul__", _mults),
    ("linalg.inverse", linalg.ExactMatrix, "inverse", None),
    ("artin.coxeter_image", artin.CoxeterSystem, "image", None),
)

class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.op = None  # (pass, operation index) that new spans belong to

    def _wrap(self, name, fn, counters):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (self.op, name, start, end, parent, None)
            if counters is not None:
                spans[idx] = (self.op, name, start, end, parent, counters(args, result))
            return result

        return traced

    def _wrap_generator(self, name, fn):
        """Generator functions do their work while the caller iterates, so
        each resumption is its own span."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = len(spans)
                spans.append(None)
                parent = stack[-1] if stack else -1
                stack.append(idx)
                start = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    stack.pop()
                    spans[idx] = (self.op, name, start, clock(), parent, None)
                yield item

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced name for the duration of the block."""
        saved = []
        modules = [braidtiles] + [m for m in vars(braidtiles).values() if isinstance(m, types.ModuleType)]
        try:
            for name, module, attr, counters in FUNCTIONS:
                fn = getattr(module, attr)
                if name == "tiles.enumerate":
                    wrapped = self._wrap_generator(name, fn)
                else:
                    wrapped = self._wrap(name, fn, counters)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            saved.append((m, key, value))
                            setattr(m, key, wrapped)
            for name, cls, attr, counters in METHODS:
                fn = cls.__dict__[attr]
                saved.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(name, fn, counters))
            yield self
        finally:
            for owner, key, value in reversed(saved):
                setattr(owner, key, value)


def aggregate(spans, keep, spent=lambda start, end: 0.0) -> dict:
    """Per-name and per-layer totals over the spans whose operation is in
    ``keep``, a set of (pass, operation index) pairs, with per-tag totals
    for the operations' size buckets given as ``keep[op] = tag``.  A span
    lasts its wall time less ``spent(start, end)``, the time in it that was
    not the program's."""
    totals: dict[str, float] = defaultdict(float)
    child_time = defaultdict(float)
    selected = [i for i, s in enumerate(spans) if s[0] in keep]
    for i in selected:
        op, name, start, end, parent, _ = spans[i]
        if parent >= 0:
            child_time[parent] += end - start - spent(start, end)
    for i in selected:
        op, name, start, end, parent, counters = spans[i]
        tag = keep[op]
        dur = end - start - spent(start, end)
        own = dur - child_time[i]
        layer = name.split(".", 1)[0]
        totals[name + ".calls"] += 1
        totals[name + ".self_s"] += own
        totals[f"{name}.{tag}.self_s"] += own
        totals[f"{name}.{tag}.s"] += dur
        totals[layer + ".self_s"] += own
        if not _inside_layer(spans, parent, layer):
            totals[layer + ".busy_s"] += dur
        for key, value in (counters or {}).items():
            totals[f"{name}.{key}"] += value
    return totals


def _inside_layer(spans, idx: int, layer: str) -> bool:
    while idx >= 0:
        span = spans[idx]
        if span[1].split(".", 1)[0] == layer:
            return True
        idx = span[4]
    return False
