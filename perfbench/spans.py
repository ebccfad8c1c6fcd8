"""Span tracing from outside the package.

``Tracer`` replaces module attributes with timing wrappers for the
duration of a ``with`` block and restores them afterwards; no source
file changes.  A function imported by name into another module (for
example ``buchberger`` into ``geometry``) is replaced in every module
that holds the same object, and calls that look the name up at call
time (``solve`` importing ``models.focal_from_matrix``, ``dim_degree``
reaching ``buchberger`` through its module globals) see the wrapper too.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int     # index of the enclosing span, -1 at top level


class Tracer:
    """Records a span per call of each target while active.

    ``targets`` is a list of (module, attribute name, span name); the
    span name is ``<layer>.<function>``.  ``on_result`` maps a span name
    to a callback ``f(tracer, result)`` for counters taken at the same
    boundary.
    """

    def __init__(self, targets, modules, on_result=None):
        self.targets = targets
        self.modules = modules
        self.on_result = on_result or {}
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        callback = self.on_result.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(Span(name, time.perf_counter(), 0.0,
                              stack[-1] if stack else -1))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx].end = time.perf_counter()
            if callback is not None:
                callback(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for module, attr, name in self.targets:
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for mod in self.modules:
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([[s.name, s.start, s.end, s.parent] for s in self.spans],
                      fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so children of one parent never overlap
    and their durations can simply be summed.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per span name: ``<name>`` call count, ``<name>_s`` inclusive time
    (nested calls of the same name counted once) and ``<name>_self_s``;
    per layer (the part before the first dot): ``<layer>.self_s``."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        layer = s.name.split(".", 1)[0]
        out[f"{s.name}_calls"] += 1
        out[f"{s.name}_self_s"] += own[i]
        out[f"{layer}.self_s"] += own[i]
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            out[f"{s.name}_s"] += s.end - s.start
    return dict(out)
