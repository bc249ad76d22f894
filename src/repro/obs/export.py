"""JSON-lines export (and re-import) of :class:`~repro.obs.trace.Trace`.

The trace file format (consumed by ``--trace FILE``, the ``obs``
analysis subcommands and the test suite) is one JSON object per line,
in three record types:

``{"type": "trace", ...}``
    Session header: name, wall seconds, counters and gauges.  Always
    the first line of a session; several sessions may be appended to
    one file (the CLI's ``all`` command writes one per figure).
``{"type": "span", ...}``
    One span: ``id``, ``parent`` (``null`` at the root), ``name``,
    ``t0``/``t1`` (seconds relative to the session start), ``seconds``,
    ``status`` and ``attrs``.  Spans are sorted by start time, so a
    parent always precedes its children.
``{"type": "event", ...}``
    One event: ``id``, ``span`` (the owning span id), ``name``, ``t``
    and ``fields``.

Every value is JSON-safe: numpy scalars are unwrapped to their Python
equivalents via ``.item()`` (so an ``np.int64`` span attribute stays a
number, not a repr string); non-scalar span attributes and event fields
are serialised via ``repr``.

:func:`read_trace_jsonl` is the inverse of :func:`write_trace_jsonl`:
it reconstructs the recorded sessions (one :class:`Trace` per header
line) with span hierarchy, events, counters and gauges intact, so a
trace written by one process can be analysed — health-checked, diffed,
registered — by another.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.errors import ValidationError
from repro.obs.trace import EventRecord, SpanRecord, Trace

__all__ = [
    "trace_to_records",
    "trace_to_jsonl",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "records_to_traces",
]


def _json_safe(value: object) -> object:
    """Scalars pass through; numpy scalars unwrap; the rest is repr'd.

    Numpy scalar types (``np.int64``, ``np.float32``, ``np.bool_``, …)
    are *not* instances of ``int``/``float``/``bool``, so without the
    ``.item()`` unwrap they would fall through to ``repr`` and a count
    of 12 would serialise as the string ``"12"`` — silently de-typing
    every numpy-valued attribute in the trace.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.generic):
        return _json_safe(value.item())
    return repr(value)


def _safe_mapping(mapping: dict[str, object]) -> dict[str, object]:
    return {str(key): _json_safe(value) for key, value in mapping.items()}


def trace_to_records(session: Trace) -> list[dict[str, object]]:
    """The session as a list of JSON-safe record dicts (header first)."""
    origin = session.started
    records: list[dict[str, object]] = [
        {
            "type": "trace",
            "name": session.name,
            "wall_seconds": session.wall_seconds,
            "spans": len(session.spans),
            "events": len(session.events),
            "counters": _safe_mapping(dict(session.counters)),
            "gauges": _safe_mapping(dict(session.gauges)),
        }
    ]
    for span in sorted(session.spans, key=lambda s: (s.started, s.span_id)):
        ended = span.ended if span.ended is not None else span.started
        records.append(
            {
                "type": "span",
                "id": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "t0": span.started - origin,
                "t1": ended - origin,
                "seconds": span.seconds,
                "status": span.status,
                "attrs": _safe_mapping(span.attrs),
            }
        )
    for event in session.events:
        records.append(
            {
                "type": "event",
                "id": event.event_id,
                "span": event.span_id,
                "name": event.name,
                "t": event.at - origin,
                "fields": _safe_mapping(event.fields),
            }
        )
    return records


def trace_to_jsonl(session: Trace) -> str:
    """The session as JSON-lines text (trailing newline included)."""
    lines = [
        json.dumps(record, sort_keys=True)
        for record in trace_to_records(session)
    ]
    return "\n".join(lines) + "\n"


def write_trace_jsonl(
    session: Trace, path: str, append: bool = False
) -> str:
    """Write (or append) the session's JSON-lines records to ``path``.

    Appends go through one ``os.write`` on an ``O_APPEND`` descriptor:
    POSIX makes each such write land at the (current) end of file as a
    unit, so concurrent writers -- shard workers or parallel CLI runs
    tracing into one shared trace file -- interleave at *session*
    granularity.  No torn lines, no half records, every session block
    contiguous; buffered ``open(...).write`` gives none of that once
    the text outgrows the stdio buffer.
    """
    data = trace_to_jsonl(session).encode("utf-8")
    flags = os.O_WRONLY | os.O_CREAT | (
        os.O_APPEND if append else os.O_TRUNC
    )
    descriptor = os.open(path, flags, 0o644)
    try:
        view = memoryview(data)
        while view:  # pragma: no branch - regular files write whole
            view = view[os.write(descriptor, view) :]
    finally:
        os.close(descriptor)
    return path


def _session_from_header(header: dict[str, object]) -> Trace:
    """A :class:`Trace` shell rebuilt from one ``"trace"`` record.

    Reconstructed sessions anchor their timeline at 0.0, matching the
    relative ``t0``/``t1`` values in the file — re-exporting one yields
    byte-identical records, which is the round-trip contract the test
    suite pins.
    """
    session = Trace(str(header.get("name", "trace")))
    session.started = 0.0
    session.ended = float(header.get("wall_seconds", 0.0))  # type: ignore[arg-type]
    counters = header.get("counters") or {}
    gauges = header.get("gauges") or {}
    if not isinstance(counters, dict) or not isinstance(gauges, dict):
        raise ValidationError("trace header counters/gauges must be mappings")
    session.counters = {str(k): float(v) for k, v in counters.items()}
    session.gauges = {str(k): float(v) for k, v in gauges.items()}
    return session


def records_to_traces(records: list[dict[str, object]]) -> list[Trace]:
    """Rebuild :class:`Trace` sessions from parsed trace records.

    One session per ``"trace"`` header, in file order; span and event
    records attach to the most recent header (the append layout
    ``write_trace_jsonl`` produces).
    """
    sessions: list[Trace] = []
    for record in records:
        kind = record.get("type")
        if kind == "trace":
            sessions.append(_session_from_header(record))
            continue
        if not sessions:
            raise ValidationError(
                "trace file is malformed: span/event record before any "
                "trace header"
            )
        session = sessions[-1]
        if kind == "span":
            parent = record.get("parent")
            span = SpanRecord(
                span_id=int(record["id"]),  # type: ignore[arg-type]
                parent_id=None if parent is None else int(parent),  # type: ignore[arg-type]
                name=str(record["name"]),
                started=float(record["t0"]),  # type: ignore[arg-type]
                ended=float(record["t1"]),  # type: ignore[arg-type]
                attrs=dict(record.get("attrs") or {}),  # type: ignore[call-overload]
                status=str(record.get("status", "ok")),
            )
            session.spans.append(span)
        elif kind == "event":
            span_id = record.get("span")
            event = EventRecord(
                event_id=int(record["id"]),  # type: ignore[arg-type]
                span_id=None if span_id is None else int(span_id),  # type: ignore[arg-type]
                name=str(record["name"]),
                at=float(record["t"]),  # type: ignore[arg-type]
                fields=dict(record.get("fields") or {}),  # type: ignore[call-overload]
            )
            session.events.append(event)
        else:
            raise ValidationError(
                f"trace file contains unknown record type {kind!r}"
            )
    return sessions


def read_trace_jsonl(path: str) -> list[Trace]:
    """Read every session appended to a trace JSONL file.

    The inverse of :func:`write_trace_jsonl`: each ``"trace"`` header
    opens a new reconstructed :class:`Trace`, and subsequent span/event
    lines populate it.  Timestamps come back relative to each session's
    start (``Trace.started`` is 0.0), so durations, hierarchy queries
    and re-export all behave exactly as on the original object.
    """
    records: list[dict[str, object]] = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                parsed = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(
                    f"{path}:{line_number}: not valid JSON ({exc})"
                ) from exc
            if not isinstance(parsed, dict):
                raise ValidationError(
                    f"{path}:{line_number}: expected a JSON object"
                )
            records.append(parsed)
    if not records:
        raise ValidationError(f"{path}: empty trace file")
    return records_to_traces(records)
