"""Tracing core: spans, events, counters, and the active-session stack.

The model is deliberately small:

* A :class:`Trace` is one recording session (one CLI run, one test
  block).  It collects finished :class:`SpanRecord` and
  :class:`EventRecord` objects plus named counters and gauges.
* :func:`span` opens a *hierarchical* timed region.  Parent linkage is
  carried in a :class:`contextvars.ContextVar`, so a span opened three
  stack frames below another attaches to it automatically -- no tracer
  object is threaded through call signatures.
* :func:`event` records a point in time (solver converged, server started)
  attached to whichever span is current.
* :func:`incr` / :func:`set_gauge` maintain the counter/gauge registry
  of every active session.

Several sessions may be active at once (a test fixture inside a traced
CLI run); every record is delivered to all of them.  Ids are allocated
from one process-wide counter so records of the same span agree across
sessions.

When *no* session is active, every instrumentation function returns
after a single ``ContextVar.get()`` -- cheap enough for per-solve hot
paths (``BENCH_obs.json`` prices every call the batch workload makes
at the measured disabled-``span`` rate, and the regression gate holds
the total under 1 % of the untraced wall time).

Timestamps are monotonic ``time.perf_counter`` values (the ``wallclock``
lint rule bans ``time.time()`` in measured paths); exported traces
report times relative to the session start.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

__all__ = [
    "EventRecord",
    "SpanRecord",
    "TimedHandle",
    "Trace",
    "TraceContext",
    "current_trace_context",
    "event",
    "incr",
    "set_gauge",
    "set_gauge_max",
    "set_gauge_min",
    "span",
    "timed_span",
    "trace",
    "tracing_active",
]

#: Process-wide id source shared by spans and events, so ids are unique
#: within any session regardless of how many sessions observed them.
_IDS = itertools.count(1)

#: The stack of active recording sessions (empty tuple = tracing off).
_ACTIVE: ContextVar[tuple["Trace", ...]] = ContextVar(
    "repro_obs_active", default=()
)

#: Id of the innermost open span, for parent linkage; ``None`` at root.
_PARENT: ContextVar[int | None] = ContextVar("repro_obs_parent", default=None)


@dataclass
class SpanRecord:
    """One finished (or still-open) timed region.

    Attributes
    ----------
    span_id, parent_id:
        Process-unique id and the id of the enclosing span (``None``
        for a session root or a span whose parent belongs to an outer
        session).
    name:
        Dotted span name, e.g. ``"stage.weights"``.
    started, ended:
        ``perf_counter`` timestamps; ``ended`` is ``None`` while open.
    attrs:
        Keyword attributes given at open time.
    status:
        ``"ok"``, or ``"error"`` when an exception escaped the span.
    """

    span_id: int
    parent_id: int | None
    name: str
    started: float
    ended: float | None = None
    attrs: dict[str, object] = field(default_factory=dict)
    status: str = "ok"

    @property
    def seconds(self) -> float:
        """Span duration (0.0 while the span is still open)."""
        if self.ended is None:
            return 0.0
        return self.ended - self.started


@dataclass
class EventRecord:
    """One point-in-time record attached to the then-current span."""

    event_id: int
    span_id: int | None
    name: str
    at: float
    fields: dict[str, object] = field(default_factory=dict)


class Trace:
    """One recording session: spans, events, counters, gauges.

    Instances are created by :func:`trace`; tests receive them from the
    ``capture_trace`` fixture and assert on the query helpers below.
    """

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self.started = time.perf_counter()
        self.ended: float | None = None
        self.spans: list[SpanRecord] = []
        self.events: list[EventRecord] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        # Guards every mutation of the four registries above.  Sessions
        # are shared with pool workers via TraceContext.activate(), so
        # counter/gauge read-modify-writes race without it; the lock is
        # uncontended (and cheap) in single-threaded runs.
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------
    def _record_span(self, record: SpanRecord) -> None:
        with self._lock:
            self.spans.append(record)

    def _record_event(self, record: EventRecord) -> None:
        with self._lock:
            self.events.append(record)

    def _add_counter(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def _set_gauge(self, name: str, value: float, mode: str = "set") -> None:
        """Apply one gauge write under the session lock.

        ``mode`` is ``"set"``, ``"max"`` (high-water) or ``"min"``
        (low-water).  For the water marks NaN is the worst value: it
        replaces any finite mark and is kept once written, so a run
        with one bad fold never reads healthy.  Centralised here --
        rather than inlined in the module-level helpers -- so
        subclasses that ship across a process boundary
        (:class:`repro.obs.telemetry.SpanCapture`) can record the
        *operation*, not just the final value, and replay it with
        identical semantics on the driver side.
        """
        with self._lock:
            current = self.gauges.get(name)
            if (
                mode == "set"
                or current is None
                or math.isnan(value)
                or (value > current if mode == "max" else value < current)
            ):
                self.gauges[name] = float(value)

    # -- queries (used by tests, export and the profile tree) -----------
    @property
    def wall_seconds(self) -> float:
        """Session wall time; measured to now while still open."""
        end = self.ended if self.ended is not None else time.perf_counter()
        return end - self.started

    def find_spans(self, name: str) -> list[SpanRecord]:
        """All spans named ``name``, in open order."""
        return [s for s in self.spans if s.name == name]

    def find_events(self, name: str) -> list[EventRecord]:
        """All events named ``name``, in emit order."""
        return [e for e in self.events if e.name == name]

    def span_names(self) -> list[str]:
        """Distinct span names in first-open order."""
        return list(dict.fromkeys(s.name for s in self.spans))

    def span_seconds(self, name: str) -> float:
        """Total seconds across all spans named ``name``."""
        return sum(s.seconds for s in self.find_spans(name))

    def root_spans(self) -> list[SpanRecord]:
        """Spans whose parent is not recorded in *this* session."""
        known = {s.span_id for s in self.spans}
        return [
            s
            for s in self.spans
            if s.parent_id is None or s.parent_id not in known
        ]

    def children_of(self, span_id: int) -> list[SpanRecord]:
        """Direct children of the span with id ``span_id``."""
        return [s for s in self.spans if s.parent_id == span_id]

    def ancestors_of(self, record: SpanRecord) -> list[SpanRecord]:
        """Parent chain of ``record``, innermost first."""
        by_id = {s.span_id: s for s in self.spans}
        chain: list[SpanRecord] = []
        parent_id = record.parent_id
        while parent_id is not None and parent_id in by_id:
            parent = by_id[parent_id]
            chain.append(parent)
            parent_id = parent.parent_id
        return chain

    def __repr__(self) -> str:
        return (
            f"Trace({self.name!r}, spans={len(self.spans)}, "
            f"events={len(self.events)}, counters={len(self.counters)})"
        )


def tracing_active() -> bool:
    """Whether at least one recording session is currently active."""
    return bool(_ACTIVE.get())


@contextmanager
def trace(name: str = "trace", /, **attrs: object) -> Iterator[Trace]:
    """Open a recording session (and its root span) for the block.

    Everything called inside the ``with`` block -- across module
    boundaries -- delivers its spans, events and counter updates to the
    yielded :class:`Trace`.  Sessions nest: an inner ``trace`` records
    alongside (not instead of) any outer ones.
    """
    session = Trace(name)
    token = _ACTIVE.set(_ACTIVE.get() + (session,))
    try:
        with span(name, **attrs):
            yield session
    finally:
        session.ended = time.perf_counter()
        _ACTIVE.reset(token)


@contextmanager
def span(name: str, /, **attrs: object) -> Iterator[SpanRecord | None]:
    """Record a named, timed, hierarchical region of the block.

    Yields the :class:`SpanRecord` (shared by every active session) so
    callers may attach attributes mid-flight, or ``None`` when tracing
    is off.  An exception escaping the block marks the span
    ``status="error"`` before re-raising.
    """
    sessions = _ACTIVE.get()
    if not sessions:
        yield None
        return
    record = SpanRecord(
        span_id=next(_IDS),
        parent_id=_PARENT.get(),
        name=name,
        started=time.perf_counter(),
        attrs=dict(attrs),
    )
    for session in sessions:
        session._record_span(record)
    token = _PARENT.set(record.span_id)
    try:
        yield record
    except BaseException:
        record.status = "error"
        raise
    finally:
        _PARENT.reset(token)
        record.ended = time.perf_counter()


class TimedHandle:
    """Duration carrier for :func:`timed_span`; always populated."""

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds = 0.0


@contextmanager
def timed_span(name: str, /, **attrs: object) -> Iterator[TimedHandle]:
    """A :func:`span` that also measures when tracing is *off*.

    Replaces ad-hoc ``perf_counter`` bookkeeping at call sites that need
    the duration as a return value (cross-validation fold timing, the
    scalability figure) while still contributing a span to any active
    session.
    """
    handle = TimedHandle()
    start = time.perf_counter()
    with span(name, **attrs):
        try:
            yield handle
        finally:
            handle.seconds = time.perf_counter() - start


def event(name: str, /, **fields: object) -> None:
    """Record a point-in-time event on the current span (if tracing)."""
    sessions = _ACTIVE.get()
    if not sessions:
        return
    record = EventRecord(
        event_id=next(_IDS),
        span_id=_PARENT.get(),
        name=name,
        at=time.perf_counter(),
        fields=dict(fields),
    )
    for session in sessions:
        session._record_event(record)


def incr(name: str, amount: float = 1.0) -> None:
    """Add ``amount`` to counter ``name`` in every active session.

    Thread-safe: the read-modify-write runs under the session lock, so
    pool workers carrying a session via :class:`TraceContext` never lose
    increments to interleaving.
    """
    for session in _ACTIVE.get():
        session._add_counter(name, amount)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` in every active session."""
    for session in _ACTIVE.get():
        session._set_gauge(name, float(value), "set")


def set_gauge_max(name: str, value: float) -> None:
    """Raise gauge ``name`` to ``value`` if larger (high-water mark).

    The health monitors emit worst-case-per-run gauges with this: a
    cross-validation run fits many models, and the run's verdict must
    reflect the *worst* volume residual or condition number seen, not
    whichever fit happened to run last.  The compare-and-set runs under
    the session lock so concurrent workers cannot overwrite a higher
    water mark with a lower one.
    """
    for session in _ACTIVE.get():
        session._set_gauge(name, float(value), "max")


def set_gauge_min(name: str, value: float) -> None:
    """Lower gauge ``name`` to ``value`` if smaller (low-water mark).

    Mirror of :func:`set_gauge_max` for lower-is-worse health signals
    (effective number of references under weight degeneracy).
    """
    for session in _ACTIVE.get():
        session._set_gauge(name, float(value), "min")


# ----------------------------------------------------------------------
# Cross-thread propagation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TraceContext:
    """Immutable snapshot of the tracing state of one thread.

    ContextVars do not propagate into ``ThreadPoolExecutor`` workers:
    without help, instrumentation in a worker sees no active sessions
    and is silently dropped.  A single copied ``contextvars.Context``
    cannot be the fix either -- ``Context.run`` raises when entered
    concurrently from several threads.  So the submitting thread takes
    one cheap snapshot::

        ctx = current_trace_context()
        pool.map(lambda item: worker(ctx, item), items)

    and each worker wraps its body in ``with ctx.activate():``, which
    re-points the worker's *own* context at the captured sessions and
    parent span.  Record delivery is safe because every
    :class:`Trace` guards its registries with a lock.
    """

    sessions: tuple[Trace, ...]
    parent_id: int | None

    @contextmanager
    def activate(self) -> Iterator[None]:
        """Make the captured sessions current for this thread's block."""
        active_token = _ACTIVE.set(self.sessions)
        parent_token = _PARENT.set(self.parent_id)
        try:
            yield
        finally:
            _PARENT.reset(parent_token)
            _ACTIVE.reset(active_token)


def current_trace_context() -> TraceContext:
    """Snapshot the calling thread's sessions + current span."""
    return TraceContext(sessions=_ACTIVE.get(), parent_id=_PARENT.get())
