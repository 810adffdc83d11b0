"""In-memory spans around calls into drlogit's public functions.

The traced pass replaces each public function at the module attribute
where its callers look it up (``drlogit.simulate.solve_dr``,
``drlogit.estimators.instrument_matrices``, ``drlogit.model.Basis.design``
and so on) with a wrapper that records a span: name, start, end, parent
span and operation id.  Counts observed at the same boundary (rows,
Newton iterations, quadrature nodes) are stored on the span.  Wrappers
are removed when the pass ends; spans are written out afterwards.

A function a later version of the package no longer has, or no longer
calls, is simply not traced, and its metrics read 0.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at the top
    op: int
    counts: dict | None = None


class Tracer:
    """Records spans for one thread of calls; `op` is set by the caller
    to the id of the operation (fit, simulate call, kernel call) under way."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op = 0
        self.warnings: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, observe=None):
        """Wrapper recording a span per call.  `name` is a string or a
        function of (args, kwargs); `observe(args, kwargs, result)` returns
        counts to store on the span."""
        tracer, spans, stack, clock = self, self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else tracer._label(name, args, kwargs)
            index = len(spans)
            spans.append(None)  # filled in when the call returns
            parent = stack[-1] if stack else -1
            op = tracer.op
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(label, start, end, parent, op)
            if observe is not None:
                spans[index] = Span(label, start, end, parent, op,
                                    tracer._observe(observe, args, kwargs, result))
            return result

        return wrapper

    # A later version of a traced function may change its signature; the
    # span then loses its label or counts, but the program keeps running.
    def _label(self, name, args, kwargs) -> str:
        try:
            return name(args, kwargs)
        except Exception as exc:
            self.warnings.append(f"span label {name.__name__} failed: {exc!r}")
            return "unlabelled"

    def _observe(self, observe, args, kwargs, result) -> dict:
        try:
            return observe(args, kwargs, result)
        except Exception as exc:
            self.warnings.append(f"observer {observe.__name__} failed: {exc!r}")
            return {}

    def patch(self, owner, attr: str, name, observe=None) -> bool:
        """Replace owner.attr by a recording wrapper; False when absent."""
        original = vars(owner).get(attr)
        if original is None:
            return False
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, observe))
        return True

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    return [(s.end - s.start)
            - union_length([(spans[c].start, spans[c].end) for c in children[i]],
                           s.start, s.end)
            for i, s in enumerate(spans)]


@dataclass
class LayerTotals:
    """Per span name: calls, time and counts of the outermost spans of
    that name (a nested span of the same name is not counted twice), and
    self time over all of them."""

    calls: dict = field(default_factory=lambda: defaultdict(int))
    seconds: dict = field(default_factory=lambda: defaultdict(float))
    self_seconds: dict = field(default_factory=lambda: defaultdict(float))
    counts: dict = field(default_factory=lambda: defaultdict(lambda: defaultdict(float)))
    top_seconds: float = 0.0


def aggregate(spans: list[Span]) -> LayerTotals:
    out = LayerTotals()
    selfs = self_times(spans)
    for i, s in enumerate(spans):
        out.self_seconds[s.name] += selfs[i]
        if s.parent < 0:
            out.top_seconds += s.end - s.start
        a = s.parent
        while a >= 0 and spans[a].name != s.name:
            a = spans[a].parent
        if a >= 0:
            continue  # inside a span of the same name
        out.calls[s.name] += 1
        out.seconds[s.name] += s.end - s.start
        for k, v in (s.counts or {}).items():
            out.counts[s.name][k] += v
    return out


def attribution(totals: LayerTotals, wall: float) -> tuple[dict, float, bool]:
    """Self seconds per name and the unattributed remainder, which should
    add up to `wall`, the traced wall time measured around the calls; the
    flag says whether they do (to rounding) and no self time is negative."""
    unattributed = wall - totals.top_seconds
    selfs = dict(totals.self_seconds)
    gap = sum(selfs.values()) + unattributed - wall
    ok = (math.isclose(gap, 0.0, abs_tol=1e-9 * max(1.0, wall))
          and min(selfs.values(), default=0.0) >= -1e-9 and unattributed >= -1e-9)
    return selfs, unattributed, ok
