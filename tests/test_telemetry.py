"""Cross-process telemetry: capture, stitch, exposition, export.

Covers the three legs of the telemetry pipeline in isolation:

* ``SpanCapture`` / ``worker_capture`` / ``stitch_capture`` — the wire
  format workers ship their spans home in, including the bounded-buffer
  overflow accounting and the clock-shift applied at stitch time.
* ``repro.obs.promfmt`` — the Prometheus text encoder/parser pair and
  the fixed-bucket histogram behind ``/metrics``.  The round-trip
  ``parse(render(families))`` is pinned here.
* Concurrent JSON-lines export — parallel appenders into one trace
  file must interleave at session granularity (no torn lines), which
  the O_APPEND single-write path guarantees.
"""

import json
import math
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.errors import ValidationError
from repro.obs import (
    SPANS_DROPPED,
    Histogram,
    MetricFamily,
    Sample,
    SpanCapture,
    event,
    incr,
    read_trace_jsonl,
    render_prometheus_text,
    set_gauge,
    set_gauge_max,
    set_gauge_min,
    span,
    stitch_capture,
    trace,
    tracing_active,
    worker_capture,
    write_trace_jsonl,
)
from repro.obs.promfmt import format_sample_value, sanitize_metric_name
from tests.prom_oracles import parse_prometheus_text


# ---------------------------------------------------------------------------
# SpanCapture: the picklable wire format
# ---------------------------------------------------------------------------


class TestSpanCapture:
    def test_records_through_normal_instrumentation(self):
        capture = SpanCapture("cap")
        with capture.activate():
            with span("outer", shard=3):
                with span("inner"):
                    event("converged", iters=4)
                incr("kernel.calls", 2.0)
        names = [s.name for s in capture.spans]
        assert names == ["outer", "inner"]
        assert capture.spans[1].parent_id == capture.spans[0].span_id
        assert capture.counters == {"kernel.calls": 2.0}
        assert [e.name for e in capture.events] == ["converged"]

    def test_activation_replaces_outer_sessions(self):
        # The driver's session must NOT see worker records directly:
        # under fork they would land in doomed copies, so activate()
        # swaps the stack rather than extending it.
        with trace("driver") as outer:
            before = len(outer.spans)
            capture = SpanCapture("cap")
            with capture.activate():
                with span("worker.only"):
                    pass
            assert len(outer.spans) == before
            assert [s.name for s in capture.spans] == ["worker.only"]

    def test_disabled_capture_is_inert(self):
        capture = SpanCapture("cap", enabled=False)
        with capture.activate():
            assert not tracing_active()
            with span("dropped"):
                incr("dropped.counter")
        assert capture.spans == []
        assert capture.counters == {}

    def test_overflow_counts_instead_of_recording(self):
        capture = SpanCapture("cap", max_records=2)
        with capture.activate():
            for i in range(5):
                with span(f"s{i}"):
                    pass
            event("late")
        assert len(capture.spans) == 2
        assert capture.events == []
        assert capture.n_dropped == 4

    def test_gauge_ops_preserve_operation_order(self):
        capture = SpanCapture("cap")
        with capture.activate():
            set_gauge("g", 1.0)
            set_gauge_max("g", 5.0)
            set_gauge_min("g", 3.0)  # lowers the 5.0 (low-water mode)
        assert capture.gauge_ops == [
            ("g", 1.0, "set"),
            ("g", 5.0, "max"),
            ("g", 3.0, "min"),
        ]
        assert capture.gauges == {"g": 3.0}

    def test_pickle_round_trip_recreates_lock(self):
        capture = SpanCapture("cap", max_records=7)
        with capture.activate():
            with span("work", shard=1):
                incr("n")
            set_gauge_max("peak", 2.5)
        clone = pickle.loads(pickle.dumps(capture))
        assert isinstance(clone._lock, type(threading.Lock()))
        assert [s.name for s in clone.spans] == ["work"]
        assert clone.spans[0].attrs == {"shard": 1}
        assert clone.counters == {"n": 1.0}
        assert clone.gauge_ops == [("peak", 2.5, "max")]
        assert clone.max_records == 7
        # The clone still records (the recreated lock works).
        with clone.activate():
            with span("more"):
                pass
        assert [s.name for s in clone.spans] == ["work", "more"]


# ---------------------------------------------------------------------------
# worker_capture + stitch_capture
# ---------------------------------------------------------------------------


def _simulated_worker(shard: int, enabled: bool = True) -> SpanCapture:
    """What a pool worker's task body does, minus the pool."""
    with worker_capture("shard.worker", enabled=enabled, shard=shard) as cap:
        with span("shard.fit"):
            incr("kernel.calls", 3.0)
            event("solved", iters=2)
        set_gauge_max("health.residual", 0.5 * (shard + 1))
    return cap


class TestWorkerCapture:
    def test_root_span_wraps_body(self):
        cap = _simulated_worker(shard=2)
        roots = cap.root_spans()
        assert [s.name for s in roots] == ["shard.worker"]
        assert roots[0].attrs == {"shard": 2}
        children = cap.children_of(roots[0].span_id)
        assert [s.name for s in children] == ["shard.fit"]
        assert cap.ended is not None

    def test_disabled_yields_inert_capture(self):
        cap = _simulated_worker(shard=0, enabled=False)
        assert cap.spans == []
        assert cap.counters == {}
        assert cap.ended is not None

    def test_sealed_even_on_error(self):
        with pytest.raises(RuntimeError):
            with worker_capture("shard.worker") as cap:
                with span("shard.fit"):
                    raise RuntimeError("boom")
        assert cap.ended is not None
        assert cap.find_spans("shard.fit")[0].status == "error"


class TestStitchCapture:
    def test_hierarchy_lands_under_current_span(self):
        cap = _simulated_worker(shard=1)
        with trace("driver") as session:
            with span("submit") as submit:
                stitched = stitch_capture(cap)
        assert stitched == 2
        root = session.find_spans("shard.worker")[0]
        assert root.parent_id == submit.span_id
        fit = session.find_spans("shard.fit")[0]
        assert fit.parent_id == root.span_id
        # Ids were re-allocated, not copied.
        worker_ids = {s.span_id for s in cap.spans}
        assert {root.span_id, fit.span_id}.isdisjoint(worker_ids)

    def test_counters_gauges_events_fold(self):
        caps = [_simulated_worker(shard=i) for i in range(3)]
        with trace("driver") as session:
            for cap in caps:
                stitch_capture(cap)
        assert session.counters["kernel.calls"] == 9.0
        # max-mode gauge ops replay: the high-water mark wins.
        assert session.gauges["health.residual"] == 1.5
        solved = session.find_events("solved")
        assert len(solved) == 3
        fit_ids = {s.span_id for s in session.find_spans("shard.fit")}
        assert {e.span_id for e in solved} == fit_ids

    def test_anchor_shifts_worker_clock(self):
        cap = _simulated_worker(shard=0)
        worker_root = cap.find_spans("shard.worker")[0]
        anchor = 1000.0
        with trace("driver") as session:
            stitch_capture(cap, anchor=anchor)
        stitched_root = session.find_spans("shard.worker")[0]
        expected = worker_root.started + (anchor - cap.started)
        assert stitched_root.started == pytest.approx(expected)
        # Duration is invariant under the shift.
        assert stitched_root.seconds == pytest.approx(worker_root.seconds)

    def test_lost_capture_counts_as_drop(self):
        with trace("driver") as session:
            assert stitch_capture(None) == 0
        assert session.counters[SPANS_DROPPED] == 1.0

    def test_overflow_folds_into_drop_counter(self):
        cap = SpanCapture("cap", max_records=1)
        with cap.activate():
            with span("kept"):
                with span("dropped"):
                    pass
        assert cap.n_dropped == 1
        with trace("driver") as session:
            assert stitch_capture(cap) == 1
        assert session.counters[SPANS_DROPPED] == 1.0

    def test_disabled_capture_stitches_nothing(self):
        cap = _simulated_worker(shard=0, enabled=False)
        with trace("driver") as session:
            assert stitch_capture(cap) == 0
        assert SPANS_DROPPED not in session.counters

    def test_no_active_session_is_a_noop(self):
        cap = _simulated_worker(shard=0)
        assert not tracing_active()
        assert stitch_capture(cap) == 0


# ---------------------------------------------------------------------------
# promfmt: histogram
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_empty_summary_reports_only_count(self):
        assert Histogram().summary() == {"count": 0.0}
        assert Histogram().quantile(0.99) is None

    def test_quantiles_ordered_and_clamped_to_max(self):
        hist = Histogram(bounds=(0.001, 0.01, 0.1, 1.0))
        for value in (0.0005, 0.002, 0.003, 0.05, 0.02, 0.004):
            hist.observe(value)
        stats = hist.summary()
        assert stats["count"] == 6.0
        assert (
            stats["p50_seconds"]
            <= stats["p95_seconds"]
            <= stats["p99_seconds"]
            <= stats["max_seconds"]
        )
        assert stats["max_seconds"] == 0.05
        assert stats["mean_seconds"] == pytest.approx(
            (0.0005 + 0.002 + 0.003 + 0.05 + 0.02 + 0.004) / 6
        )

    def test_observation_beyond_last_bound_lands_in_inf_bucket(self):
        hist = Histogram(bounds=(0.001, 0.01))
        hist.observe(5.0)
        assert hist.bucket_counts == [0, 0, 1]
        assert hist.quantile(0.5) == 5.0  # rank in the +Inf bucket

    def test_bucket_samples_are_cumulative_with_inf_terminator(self):
        hist = Histogram(bounds=(0.001, 0.01))
        for value in (0.0005, 0.002, 0.5):
            hist.observe(value)
        samples = hist.bucket_samples("req_seconds", (("endpoint", "/p"),))
        buckets = [s for s in samples if s.name == "req_seconds_bucket"]
        assert [dict(s.labels)["le"] for s in buckets] == [
            "0.001",
            "0.01",
            "+Inf",
        ]
        assert [s.value for s in buckets] == [1.0, 2.0, 3.0]
        assert all(dict(s.labels)["endpoint"] == "/p" for s in buckets)
        total = [s for s in samples if s.name == "req_seconds_sum"]
        count = [s for s in samples if s.name == "req_seconds_count"]
        assert total[0].value == pytest.approx(0.5025)
        assert count[0].value == 3.0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValidationError):
            Histogram(bounds=(0.01, 0.001))
        with pytest.raises(ValidationError):
            Histogram(bounds=(0.001, 0.001))
        with pytest.raises(ValidationError):
            Histogram(bounds=(0.001, math.inf))
        with pytest.raises(ValidationError):
            Histogram().quantile(0.0)


# ---------------------------------------------------------------------------
# promfmt: text exposition round trip
# ---------------------------------------------------------------------------


def _sample_families() -> list[MetricFamily]:
    counter = MetricFamily(
        name="geoalign_requests_total", kind="counter", help="Requests."
    )
    counter.add(41.0)
    gauge = MetricFamily(
        name="geoalign_models", kind="gauge", help='Loaded "models"\nnow.'
    )
    gauge.add(3.0, labels=(("store", 'path\\with"quotes'),))
    hist = Histogram(bounds=(0.001, 0.01))
    for value in (0.0005, 0.002, 0.5):
        hist.observe(value)
    histogram = MetricFamily(
        name="geoalign_request_seconds", kind="histogram", help="Latency."
    )
    histogram.samples.extend(
        hist.bucket_samples(
            "geoalign_request_seconds", (("endpoint", "/predict"),)
        )
    )
    return [counter, gauge, histogram]


class TestPrometheusText:
    def test_render_parse_round_trip(self):
        families = _sample_families()
        text = render_prometheus_text(families)
        parsed = parse_prometheus_text(text)
        assert set(parsed) == {
            "geoalign_requests_total",
            "geoalign_models",
            "geoalign_request_seconds",
        }
        for family in families:
            clone = parsed[family.name]
            assert clone.kind == family.kind
            assert clone.help == family.help
            assert clone.samples == family.samples
        # Idempotent: re-rendering the parse reproduces the wire text.
        assert render_prometheus_text(list(parsed.values())) == text

    def test_histogram_series_grouped_under_base_family(self):
        text = render_prometheus_text(_sample_families())
        parsed = parse_prometheus_text(text)
        names = {s.name for s in parsed["geoalign_request_seconds"].samples}
        assert names == {
            "geoalign_request_seconds_bucket",
            "geoalign_request_seconds_sum",
            "geoalign_request_seconds_count",
        }

    @pytest.mark.parametrize(
        "text",
        [
            "# TYPE m sideways\nm 1\n",  # unknown type
            "m{label=}1\n",  # malformed label pair
            'm{label="open 1\n',  # unterminated label block
            "m not_a_number\n",  # bad value
            "# TYPE h histogram\n"  # buckets without +Inf terminator
            'h_bucket{le="0.1"} 1\nh_count 1\nh_sum 0.05\n',
            "# TYPE h histogram\n"  # non-cumulative buckets
            'h_bucket{le="0.1"} 3\nh_bucket{le="+Inf"} 1\n',
            "# TYPE h histogram\n"  # +Inf disagrees with _count
            'h_bucket{le="+Inf"} 2\nh_count 5\n',
        ],
    )
    def test_parse_rejects_malformed_text(self, text):
        with pytest.raises(ValidationError):
            parse_prometheus_text(text)

    def test_render_rejects_invalid_names(self):
        bad = MetricFamily(name="geoalign-req", kind="counter")
        with pytest.raises(ValidationError):
            render_prometheus_text([bad])
        with pytest.raises(ValidationError):
            Sample(name="ok", value=1.0, labels=(("0bad", "x"),)).render()
        with pytest.raises(ValidationError):
            render_prometheus_text(
                [MetricFamily(name="ok", kind="weird")]
            )

    def test_sanitize_metric_name(self):
        assert (
            sanitize_metric_name("health.shard_merge.residual-max")
            == "health_shard_merge_residual_max"
        )
        assert sanitize_metric_name("2fast") == "_2fast"
        with pytest.raises(ValidationError):
            sanitize_metric_name("")

    def test_format_sample_value(self):
        assert format_sample_value(41.0) == "41"
        assert format_sample_value(0.25) == "0.25"
        assert format_sample_value(math.inf) == "+Inf"
        assert format_sample_value(-math.inf) == "-Inf"
        assert format_sample_value(math.nan) == "NaN"


# ---------------------------------------------------------------------------
# concurrent JSON-lines export (O_APPEND session-granularity atomicity)
# ---------------------------------------------------------------------------


def _append_session(args: tuple[str, int, int]) -> str:
    """Worker: record one distinctive session and append it to ``path``."""
    path, writer, n_spans = args
    # Record through activation so spans carry real ids/hierarchy.
    capture = SpanCapture(f"writer-{writer}")
    with capture.activate():
        with span("session.root", writer=writer):
            for i in range(n_spans):
                with span("unit", index=i):
                    pass
        incr("writer.units", float(n_spans))
    write_trace_jsonl(capture, path, append=True)
    return capture.name


class TestConcurrentExport:
    def test_truncate_then_append_layout(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        first = SpanCapture("first")
        with first.activate():
            with span("a"):
                pass
        second = SpanCapture("second")
        with second.activate():
            with span("b"):
                pass
        write_trace_jsonl(first, path)
        write_trace_jsonl(second, path, append=True)
        names = [s.name for s in read_trace_jsonl(path)]
        assert names == ["first", "second"]
        # Default mode truncates: re-writing leaves exactly one session.
        write_trace_jsonl(second, path)
        assert [s.name for s in read_trace_jsonl(path)] == ["second"]

    def test_parallel_process_appends_do_not_tear_lines(self, tmp_path):
        path = str(tmp_path / "shared.jsonl")
        n_writers, n_spans = 8, 40
        jobs = [(path, writer, n_spans) for writer in range(n_writers)]
        with ProcessPoolExecutor(max_workers=4) as pool:
            list(pool.map(_append_session, jobs))
        with open(path) as handle:
            lines = handle.read().splitlines()
        # Every line is valid JSON (no torn writes) ...
        records = [json.loads(line) for line in lines]
        headers = [r for r in records if r["type"] == "trace"]
        assert len(headers) == n_writers
        # ... and every session block is contiguous and complete.
        sessions = {s.name: s for s in read_trace_jsonl(path)}
        assert sorted(sessions) == [f"writer-{i}" for i in range(n_writers)]
        for writer in range(n_writers):
            session = sessions[f"writer-{writer}"]
            assert len(session.find_spans("unit")) == n_spans
            assert session.counters["writer.units"] == float(n_spans)
            root = session.find_spans("session.root")[0]
            assert all(
                unit.parent_id == root.span_id
                for unit in session.find_spans("unit")
            )

    def test_parallel_thread_appends_round_trip(self, tmp_path):
        path = str(tmp_path / "threads.jsonl")
        n_writers = 6
        threads = [
            threading.Thread(
                target=_append_session, args=((path, writer, 10),)
            )
            for writer in range(n_writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        names = sorted(s.name for s in read_trace_jsonl(path))
        assert names == sorted(f"writer-{i}" for i in range(n_writers))
