"""Cross-process span propagation: capture in workers, stitch in drivers.

Spans emitted inside a ``ProcessPoolExecutor`` worker are invisible to
the driver's sessions: the worker runs in another address space, so the
contextvar session stack either is empty (spawn) or points at forked
copies whose records die with the child.  This module closes that gap
with a record-and-replay wire format:

* :class:`SpanCapture` is a picklable :class:`~repro.obs.trace.Trace`
  subclass.  A worker activates one for the duration of its body; every
  ``span``/``event``/``incr``/gauge call inside — including nested
  kernel instrumentation — lands in the capture through the normal
  session machinery, at the normal cost (no extra hot-path branches).
  The capture rides back to the driver as one element of the worker's
  result tuple.
* :func:`worker_capture` is the one-liner workers wrap their body in:
  it activates a capture, opens the conventional root span, and hands
  the capture back for shipping.
* :func:`stitch_capture` replays a returned capture into the driver's
  active sessions: span/event ids are re-allocated from the driver's id
  source, the capture's root spans are re-parented under the driver's
  current span, counters are folded additively, and gauge *operations*
  (set/max/min, recorded via the ``Trace._set_gauge`` hook) are
  replayed with their original semantics.

Clock reconciliation: ``perf_counter`` bases are not comparable across
processes.  Each capture notes its own creation time (worker clock);
the driver passes the ``perf_counter`` it read when submitting the task
(driver clock) as the *anchor*, and every stitched timestamp is shifted
by ``anchor - capture.started``.  Queue wait thus shows up as the gap
between the submitting span's start and the worker root span's start,
and sibling shards remain ordered by actual submit time.  Inline
(same-process) execution stitches with no shift, so pooled and inline
runs produce identical span trees up to timing.

Loss is never silent: captures bound their record count, and both the
per-capture overflow count and any capture discarded wholesale (worker
crash, missing return slot) are folded into the
``telemetry.spans_dropped`` counter of the receiving sessions.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Any

from repro.obs.trace import (
    _ACTIVE,
    _IDS,
    _PARENT,
    EventRecord,
    SpanRecord,
    Trace,
    incr,
    span,
)

__all__ = [
    "SPANS_DROPPED",
    "SpanCapture",
    "stitch_capture",
    "worker_capture",
]

#: Counter name under which every form of capture loss is surfaced.
SPANS_DROPPED = "telemetry.spans_dropped"

#: Default bound on records (spans + events) per capture.  A shard
#: worker emits a handful of kernel spans; hitting this means runaway
#: instrumentation, and the overflow is counted, not silently eaten.
MAX_RECORDS = 4096


class SpanCapture(Trace):
    """Picklable recording session for one process-pool worker task.

    A disabled capture (``enabled=False``) is inert: activation clears
    the session stack (so instrumentation no-ops even under ``fork``,
    where the child would otherwise write into doomed copies of the
    parent's sessions) and nothing is recorded or shipped.

    ``gauge_ops`` preserves gauge write *operations* in order so the
    driver can replay high-/low-water semantics exactly; ``n_dropped``
    counts records refused once ``max_records`` is reached.
    """

    def __init__(
        self,
        name: str = "capture",
        *,
        enabled: bool = True,
        max_records: int = MAX_RECORDS,
    ) -> None:
        super().__init__(name)
        self.enabled = bool(enabled)
        self.max_records = int(max_records)
        self.n_dropped = 0
        self.gauge_ops: list[tuple[str, float, str]] = []

    # -- bounded recording ----------------------------------------------
    def _n_records(self) -> int:
        return len(self.spans) + len(self.events)

    def _record_span(self, record: SpanRecord) -> None:
        with self._lock:
            if self._n_records() >= self.max_records:
                self.n_dropped += 1
                return
            self.spans.append(record)

    def _record_event(self, record: EventRecord) -> None:
        with self._lock:
            if self._n_records() >= self.max_records:
                self.n_dropped += 1
                return
            self.events.append(record)

    def _set_gauge(self, name: str, value: float, mode: str = "set") -> None:
        super()._set_gauge(name, value, mode)
        with self._lock:
            self.gauge_ops.append((name, float(value), mode))

    # -- worker-side activation -----------------------------------------
    @contextmanager
    def activate(self) -> Iterator[None]:
        """Make this capture the *only* active session for the block.

        Replacing (not extending) the stack is deliberate: under the
        ``fork`` start method the child inherits the parent's session
        tuple, and records delivered to those copies are lost when the
        worker exits.  Routing everything into the capture keeps the
        worker cheap and the records recoverable.
        """
        active_token = _ACTIVE.set((self,) if self.enabled else ())
        parent_token = _PARENT.set(None)
        try:
            yield
        finally:
            _PARENT.reset(parent_token)
            _ACTIVE.reset(active_token)

    # -- pickling -------------------------------------------------------
    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        del state["_lock"]  # threading locks do not pickle
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()


@contextmanager
def worker_capture(
    name: str, /, *, enabled: bool = True, **attrs: object
) -> Iterator[SpanCapture]:
    """Record a worker task body into a shippable :class:`SpanCapture`.

    Usage in a pool worker::

        def _worker(payload):
            ..., capture_on = payload
            with worker_capture(
                "shard.worker",
                enabled=capture_on,
                shard=3,
                phase="disaggregate",
            ) as capture:
                ...  # instrumented work
            return ..., capture

    The yielded capture contains a root span ``name`` (with ``attrs``)
    wrapping everything recorded inside the block.  When ``enabled`` is
    false the capture is inert and instrumentation inside the block
    no-ops.  The capture is sealed (``ended`` stamped) when the block
    exits, even on error, so a crash that is caught worker-side can
    still ship partial telemetry.
    """
    capture = SpanCapture(name, enabled=enabled)
    try:
        with capture.activate():
            if not capture.enabled:
                yield capture
                return
            with span(name, **attrs):
                yield capture
    finally:
        capture.ended = time.perf_counter()


def stitch_capture(
    capture: SpanCapture | None, *, anchor: float | None = None
) -> int:
    """Replay a worker's capture into the caller's active sessions.

    Parameters
    ----------
    capture:
        The capture returned by the worker, or ``None`` if the result
        slot was lost (counted as a drop).
    anchor:
        Caller-clock ``perf_counter`` taken when the task was submitted.
        Worker-relative timestamps are shifted by
        ``anchor - capture.started`` so they land on the caller's
        timeline at the submit instant.  ``None`` means same-clock
        (inline execution): timestamps pass through unshifted.

    Returns the number of spans stitched.  Ids are re-allocated from
    the caller's process-wide source; the capture's root spans are
    parented under the caller's current span; counters fold additively;
    gauge operations replay with their recorded set/max/min semantics.
    Capture overflow (``n_dropped``) and wholesale loss both surface on
    the ``telemetry.spans_dropped`` counter.
    """
    sessions = _ACTIVE.get()
    if not sessions:
        return 0
    if capture is None:
        incr(SPANS_DROPPED, 1.0)
        return 0
    if not capture.enabled:
        return 0
    shift = 0.0 if anchor is None else anchor - capture.started
    parent = _PARENT.get()
    id_map: dict[int, int] = {}
    stitched = 0
    ordered = sorted(capture.spans, key=lambda s: (s.started, s.span_id))
    for record in ordered:
        ended = record.ended if record.ended is not None else record.started
        new = SpanRecord(
            span_id=next(_IDS),
            parent_id=id_map.get(
                record.parent_id, parent
            ) if record.parent_id is not None else parent,
            name=record.name,
            started=record.started + shift,
            ended=ended + shift,
            attrs=dict(record.attrs),
            status=record.status,
        )
        id_map[record.span_id] = new.span_id
        for session in sessions:
            session._record_span(new)
        stitched += 1
    for event in capture.events:
        owner = (
            id_map.get(event.span_id, parent)
            if event.span_id is not None
            else parent
        )
        new_event = EventRecord(
            event_id=next(_IDS),
            span_id=owner,
            name=event.name,
            at=event.at + shift,
            fields=dict(event.fields),
        )
        for session in sessions:
            session._record_event(new_event)
    for counter_name, amount in capture.counters.items():
        incr(counter_name, amount)
    for gauge_name, value, mode in capture.gauge_ops:
        for session in sessions:
            session._set_gauge(gauge_name, value, mode)
    if capture.n_dropped:
        incr(SPANS_DROPPED, float(capture.n_dropped))
    return stitched
