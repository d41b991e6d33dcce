"""Spans around the calls into each layer of the package.

A layer is a package module.  :class:`Tracer` wraps every public
function a module exports (its ``__all__``), plus the few public methods
other layers call, and replaces each reference to the original in every
package namespace, so calls between modules and within them both record
a span.  Spans live in memory and are written as JSONL after the pass.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("functions", "optimize", "recursion", "bellman", "chains", "shift",
          "cli")

# Public methods called across layers; other methods are left alone
# because they run millions of times inside the scalar loops.
TRACED_METHODS = (("functions", "FunctionSpec", "inverse"),
                  ("bellman", "ExtremalPolicy", "action"))

# Span record fields: [id, name, layer, start, end, parent, op].
ID, NAME, LAYER, START, END, PARENT, OP = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: str | None = None

    def _open(self, name: str, layer: str) -> list:
        rec = [len(self.spans), name, layer, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else None, self._op]
        self.spans.append(rec)
        self._stack.append(rec[ID])
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str, op: str | None = None):
        """A span around a block; ``op`` labels it and every span under
        it with an operation id."""
        if op is not None:
            self._op = op
        rec = self._open(name, layer)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
        return traced

    @contextlib.contextmanager
    def installed(self, package):
        """Patch the package's layers for the duration of the block."""
        modules = [package] + [getattr(package, m) for m in LAYERS]
        replaced: list[tuple[object, str, object]] = []
        for layer in LAYERS:
            module = getattr(package, layer)
            for name in module.__all__:
                fn = getattr(module, name)
                if not (inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    continue
                traced = self._wrap(fn, f"{layer}.{name}", layer)
                for ns in modules:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            replaced.append((ns, attr, fn))
                            setattr(ns, attr, traced)
        for layer, cls_name, meth in TRACED_METHODS:
            cls = getattr(getattr(package, layer), cls_name)
            fn = cls.__dict__[meth]
            replaced.append((cls, meth, fn))
            setattr(cls, meth,
                    self._wrap(fn, f"{layer}.{cls_name}.{meth}", layer))
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(replaced):
                setattr(owner, attr, fn)

    def write_jsonl(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "id": rec[ID], "name": rec[NAME], "layer": rec[LAYER],
                    "start": rec[START] - origin, "end": rec[END] - origin,
                    "parent": rec[PARENT], "op": rec[OP]}) + "\n")


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[str, float]:
    """Self time per layer: each span's duration minus the part of it
    that its child spans cover."""
    children = defaultdict(list)
    for rec in spans:
        if rec[PARENT] is not None:
            children[rec[PARENT]].append((rec[START], rec[END]))
    totals: dict[str, float] = defaultdict(float)
    for rec in spans:
        own = rec[END] - rec[START]
        totals[rec[LAYER]] += own - _covered(rec[START], rec[END],
                                           children[rec[ID]])
    return dict(totals)
