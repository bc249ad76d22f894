"""Structured observability for the alignment pipeline (``repro.obs``).

A lightweight, dependency-free tracing layer: hierarchical spans,
point-in-time events, and a counter/gauge registry, recorded per run
into :class:`~repro.obs.trace.Trace` sessions.  Instrumentation calls
(:func:`span`, :func:`event`, :func:`incr`) are no-ops costing one
context-variable read when no session is active, so the hot paths stay
hot; opening a session with :func:`trace` turns them on for everything
the ``with`` block calls, across module boundaries, via contextvars.

Consumers sharing the records:

* the CLI's ``--trace FILE`` (JSON-lines export, :mod:`repro.obs.export`)
  and ``--profile`` (text summary tree, :mod:`repro.obs.profile`) flags,
* the ``geoalign-repro obs`` analysis family — health reports over a
  trace (:mod:`repro.obs.health`) and its counters/gauges as
  Prometheus text (:mod:`repro.obs.promfmt`); a run's durable record
  is its trace file,
* the benchmark harness, which reads the §4.3 stage split from
  ``stage.*`` spans and persists (opt-in, :mod:`repro.obs.memory`)
  allocation peaks for the regression gate, and
* the test suite's ``capture_trace`` fixture, which turns emitted
  spans/events into executable documentation of the engine's promised
  behaviour ("one blend matmul per batch", "one union build per
  stack").

See ``docs/observability.md`` for the span model, event schema and the
health-check catalogue.
"""

# Import order matters: repro.obs.trace must load before repro.obs.health,
# whose repro.core imports come back to repro.obs.trace mid-initialisation.
from repro.obs.trace import (
    EventRecord,
    SpanRecord,
    TimedHandle,
    Trace,
    TraceContext,
    current_trace_context,
    event,
    incr,
    set_gauge,
    set_gauge_max,
    set_gauge_min,
    span,
    timed_span,
    trace,
    tracing_active,
)
from repro.obs.telemetry import (
    SPANS_DROPPED,
    SpanCapture,
    stitch_capture,
    worker_capture,
)
from repro.obs.export import (
    read_trace_jsonl,
    trace_to_jsonl,
    trace_to_records,
    write_trace_jsonl,
)
from repro.obs.promfmt import (
    PROMETHEUS_CONTENT_TYPE,
    Histogram,
    MetricFamily,
    Sample,
    render_prometheus_text,
)
from repro.obs.profile import format_profile, profile_coverage
from repro.obs.health import (
    CheckResult,
    HealthCheck,
    HealthReport,
    all_checks,
    evaluate_health,
    model_gauges,
    register_check,
)
from repro.obs.memory import MemoryHandle, track_memory

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
    "SPANS_DROPPED",
    "SpanCapture",
    "stitch_capture",
    "worker_capture",
    "PROMETHEUS_CONTENT_TYPE",
    "Histogram",
    "MetricFamily",
    "Sample",
    "render_prometheus_text",
    "read_trace_jsonl",
    "trace_to_jsonl",
    "trace_to_records",
    "write_trace_jsonl",
    "format_profile",
    "profile_coverage",
    "CheckResult",
    "HealthCheck",
    "HealthReport",
    "all_checks",
    "evaluate_health",
    "model_gauges",
    "register_check",
    "MemoryHandle",
    "track_memory",
]
