"""The benchmark's own span recorder: spans around calls into each layer.

Spans live in memory while the run measures and are written out once
when it ends.  Each span has a name, start, end, parent and op id; a
layer's self time is its span minus the part its child spans cover.
The program's own tracing (``repro.obs``) is never activated: the
library computes extra health gauges under an active session, so
tracing through it would time different work.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    op_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects nested spans on one thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, op_id: str) -> Iterator[None]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append(Span(span_id, name, start, end, parent, op_id))

    def add(self, name: str, start: float, end: float, op_id: str) -> None:
        """A root span timed by the caller (for interleaved asyncio tasks)."""
        self.spans.append(Span(self._next_id, name, start, end, None, op_id))
        self._next_id += 1

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children[span.span_id], key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.span_id] = span.duration - covered
    return result


def op_roots(spans: list[Span], root_name: str) -> list[Span]:
    return [s for s in spans if s.name == root_name and s.parent is None]


def layer_self_time(spans: list[Span], root_name: str, layer: str) -> float:
    """Median over ops named ``root_name`` of the layer's self time per op."""
    selfs = self_times(spans)
    per_op: dict[str, float] = defaultdict(float)
    roots = op_roots(spans, root_name)
    wanted = {root.op_id for root in roots}
    for span in spans:
        if span.name == layer and span.op_id in wanted:
            per_op[span.op_id] += selfs[span.span_id]
    if not per_op:
        raise ValueError(f"no {layer!r} spans under {root_name!r} ops")
    return statistics.median(per_op.values())


def self_time_coverage(spans: list[Span], root_name: str) -> float:
    """Smallest share of an op covered by its layers' self times.

    The layers' self times add up to the op's duration minus the op's
    own self time (the benchmark's glue between calls).
    """
    selfs = self_times(spans)
    roots = op_roots(spans, root_name)
    if not roots:
        raise ValueError(f"no {root_name!r} ops recorded")
    return min(1.0 - selfs[root.span_id] / root.duration for root in roots)
