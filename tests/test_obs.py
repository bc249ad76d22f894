"""The observability layer: tracing core, export, profile, and the
spans/events the instrumented pipeline promises to emit.

The ``capture_trace`` fixture (tests/conftest.py) opens a recording
session around pipeline calls; assertions on the captured spans and
events turn the engine's documented behaviour -- "one blend matmul per
batch fit", "the union stack is built once per stack" -- into
executable contracts.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

from repro.core.batch import BatchAligner
from repro.core.geoalign import GeoAlign
from repro.errors import ValidationError
from repro.intervals import IntervalUnitSystem
from repro.metrics.crossval import leave_one_dataset_out
from repro.obs import (
    Trace,
    evaluate_health,
    event,
    format_profile,
    incr,
    read_trace_jsonl,
    set_gauge,
    span,
    timed_span,
    trace,
    trace_to_jsonl,
    trace_to_records,
    tracing_active,
    track_memory,
    write_trace_jsonl,
)
from repro.obs.profile import profile_coverage
from repro.partitions.intersection import build_intersection


# ---------------------------------------------------------------------------
# tracing core
# ---------------------------------------------------------------------------


class TestTraceCore:
    def test_inactive_by_default(self):
        assert not tracing_active()
        with span("anything") as record:
            assert record is None
        event("ignored", x=1)  # must not raise
        incr("ignored")
        set_gauge("ignored", 1.0)

    def test_session_records_spans_and_nesting(self):
        with trace("t") as session:
            assert tracing_active()
            with span("outer") as outer:
                with span("inner") as inner:
                    pass
        assert not tracing_active()
        assert outer is not None and inner is not None
        assert inner.parent_id == outer.span_id
        # The session root span carries the session name.
        (root,) = session.root_spans()
        assert root.name == "t"
        assert outer.parent_id == root.span_id
        chain = session.ancestors_of(inner)
        assert [s.name for s in chain] == ["outer", "t"]

    def test_span_durations_and_queries(self):
        with trace("t") as session:
            with span("work"):
                pass
            with span("work"):
                pass
        assert len(session.find_spans("work")) == 2
        assert session.span_seconds("work") >= 0.0
        assert session.span_names() == ["t", "work"]
        for record in session.spans:
            assert record.ended is not None
            assert record.seconds >= 0.0

    def test_events_attach_to_current_span(self):
        with trace("t") as session:
            with span("solve") as solve:
                event("converged", iterations=3)
        (record,) = session.find_events("converged")
        assert record.span_id == solve.span_id
        assert record.fields == {"iterations": 3}

    def test_counters_and_gauges(self):
        with trace("t") as session:
            incr("hits")
            incr("hits", 2.0)
            set_gauge("size", 7)
        assert session.counters == {"hits": 3.0}
        assert session.gauges == {"size": 7.0}

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_water_marks_keep_a_nan_once_written(self, mode):
        # NaN compares false with everything, so a plain high/low-water
        # update would drop a bad fold that follows a finite one.
        from repro.obs import set_gauge_max, set_gauge_min

        update = set_gauge_max if mode == "max" else set_gauge_min
        with trace("t") as session:
            update("health.probe", 1.0)
            update("health.probe", float("nan"))
            update("health.probe", 2.0)
            update("health.probe", 0.5)
        assert np.isnan(session.gauges["health.probe"])

    def test_error_status_propagates(self):
        with pytest.raises(ValidationError):
            with trace("t") as session:
                with span("doomed"):
                    raise ValidationError("boom")
        (doomed,) = session.find_spans("doomed")
        assert doomed.status == "error"
        assert doomed.ended is not None

    def test_nested_sessions_both_record(self):
        with trace("outer") as outer_session:
            with span("shared-before"):
                pass
            with trace("inner") as inner_session:
                with span("shared") as record:
                    pass
        assert record in outer_session.spans
        assert record in inner_session.spans
        assert not inner_session.find_spans("shared-before")
        # The inner session's root is the "inner" span even though it
        # has a recorded parent chain in the outer session.
        (inner_root,) = inner_session.root_spans()
        assert inner_root.name == "inner"

    def test_timed_span_measures_without_tracing(self):
        assert not tracing_active()
        with timed_span("untraced") as clock:
            pass
        assert clock.seconds > 0.0

    def test_timed_span_contributes_span_when_tracing(self):
        with trace("t") as session:
            with timed_span("timed") as clock:
                pass
        (record,) = session.find_spans("timed")
        assert clock.seconds >= record.seconds > 0.0


# ---------------------------------------------------------------------------
# cross-thread propagation + registry thread safety
# ---------------------------------------------------------------------------


class TestTraceThreadSafety:
    def test_workers_see_no_sessions_without_context(self):
        # The baseline hazard: ContextVars do not propagate into pool
        # workers, so naive worker instrumentation is silently dropped.
        from concurrent.futures import ThreadPoolExecutor

        with trace("t") as session:
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(lambda _: incr("lost"), range(8)))
        assert "lost" not in session.counters

    def test_trace_context_carries_sessions_into_workers(self):
        from concurrent.futures import ThreadPoolExecutor

        from repro.obs import current_trace_context

        with trace("t") as session:
            ctx = current_trace_context()

            def worker(i):
                with ctx.activate():
                    incr("done")
                    with span("work", i=i):
                        pass

            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(worker, range(8)))
        assert session.counters["done"] == 8.0
        assert len(session.find_spans("work")) == 8
        # Worker spans attach under the submitting thread's span.
        root = session.root_spans()[0]
        for record in session.find_spans("work"):
            assert record.parent_id == root.span_id

    def test_concurrent_incr_loses_no_updates(self):
        # Regression: counter updates are read-modify-write; before the
        # per-session lock, concurrent workers interleaved and lost
        # increments nondeterministically.
        from concurrent.futures import ThreadPoolExecutor

        from repro.obs import current_trace_context

        n_threads, n_iter = 8, 2_000
        with trace("race") as session:
            ctx = current_trace_context()

            def hammer(_):
                with ctx.activate():
                    for _ in range(n_iter):
                        incr("hits")

            with ThreadPoolExecutor(max_workers=n_threads) as pool:
                list(pool.map(hammer, range(n_threads)))
        assert session.counters["hits"] == float(n_threads * n_iter)

    def test_concurrent_gauge_max_keeps_high_water_mark(self):
        from concurrent.futures import ThreadPoolExecutor

        from repro.obs import current_trace_context, set_gauge_max

        values = list(range(100))
        with trace("gauges") as session:
            ctx = current_trace_context()

            def push(value):
                with ctx.activate():
                    set_gauge_max("health.peak", float(value))

            with ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(push, values))
        assert session.gauges["health.peak"] == 99.0

    def test_activate_restores_previous_state(self):
        from repro.obs import current_trace_context

        ctx = current_trace_context()  # snapshot with no sessions
        with trace("t") as session:
            with ctx.activate():
                assert not tracing_active()
                incr("invisible")
            assert tracing_active()
            incr("visible")
        assert "invisible" not in session.counters
        assert session.counters["visible"] == 1.0


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


class TestExport:
    def _session(self):
        with trace("sess", flavour="test") as session:
            with span("a", n=2):
                with span("b"):
                    event("tick", ratio=0.5, arr=np.arange(2))
        return session

    def test_records_header_first_then_sorted_spans(self):
        records = trace_to_records(self._session())
        assert records[0]["type"] == "trace"
        assert records[0]["name"] == "sess"
        spans = [r for r in records if r["type"] == "span"]
        assert [s["name"] for s in spans] == ["sess", "a", "b"]
        # Parents precede children.
        seen = set()
        for record in spans:
            assert record["parent"] is None or record["parent"] in seen
            seen.add(record["id"])
        (evt,) = [r for r in records if r["type"] == "event"]
        assert evt["name"] == "tick"
        # Non-scalar fields are serialised via repr, scalars pass.
        assert evt["fields"]["ratio"] == 0.5
        assert isinstance(evt["fields"]["arr"], str)

    def test_jsonl_round_trips_through_json(self):
        text = trace_to_jsonl(self._session())
        assert text.endswith("\n")
        lines = text.strip().split("\n")
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["spans"] == 3
        assert parsed[0]["events"] == 1
        assert parsed[0]["wall_seconds"] > 0.0

    def test_write_and_append(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_trace_jsonl(self._session(), path)
        write_trace_jsonl(self._session(), path, append=True)
        lines = [
            json.loads(line)
            for line in open(path).read().strip().split("\n")
        ]
        headers = [r for r in lines if r["type"] == "trace"]
        assert len(headers) == 2


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------


class TestProfile:
    def test_tree_merges_same_named_siblings(self):
        with trace("run") as session:
            for _ in range(3):
                with span("fold"):
                    with span("solve"):
                        pass
            incr("solver.solves", 2)
            set_gauge("n", 5)
            event("converged")
        text = format_profile(session)
        assert "trace run:" in text
        assert "coverage" in text
        # 3 fold spans merge into one line with count 3.
        (fold_line,) = [
            line for line in text.splitlines() if "fold" in line
        ]
        assert "3x" in fold_line
        assert "solver.solves = 2" in text
        assert "n = 5" in text
        assert "converged x 1" in text

    def test_coverage_full_for_root_spanning_session(self):
        with trace("run") as session:
            with span("inner"):
                sum(range(200_000))  # make the span dominate wall time
        # The session root span covers the whole wall time.
        assert profile_coverage(session) > 0.95

    def test_empty_session_coverage_zero_spans(self):
        session = Trace("empty")
        session.ended = session.started
        assert profile_coverage(session) == 0.0
        assert "0 spans" in format_profile(session)


# ---------------------------------------------------------------------------
# pipeline instrumentation contracts (capture_trace fixture)
# ---------------------------------------------------------------------------


def _objective(references, seed=5):
    rng = np.random.default_rng(seed)
    base = np.vstack([r.source_vector for r in references])
    return base.sum(axis=0) * rng.uniform(0.9, 1.1, base.shape[1])


class TestPipelineTelemetry:
    def test_geoalign_fit_emits_stage_spans(
        self, capture_trace, paired_references
    ):
        objective = _objective(paired_references)
        with capture_trace() as session:
            GeoAlign().fit_predict(paired_references, objective)
        (fit,) = session.find_spans("geoalign.fit")
        assert fit.attrs["n_references"] == len(paired_references)
        # The §4.3 stages are spans nested under the estimator's spans.
        (weights,) = session.find_spans("stage.weights")
        assert fit in session.ancestors_of(weights)
        (disagg,) = session.find_spans("stage.disaggregation")
        (predict,) = session.find_spans("geoalign.predict")
        assert predict in session.ancestors_of(disagg)
        assert session.find_spans("stage.reaggregation")

    def test_solver_converged_event_fields(
        self, capture_trace, paired_references
    ):
        objective = _objective(paired_references)
        with capture_trace() as session:
            GeoAlign().fit(paired_references, objective)
        (record,) = session.find_events("solver.converged")
        assert "method" not in record.fields
        assert record.fields["backend"] in (
            "active-set",
            "projected-gradient",
        )
        assert record.fields["fallback"] == (
            record.fields["backend"] != "active-set"
        )
        assert 1 <= record.fields["iterations"]
        assert record.fields["objective"] >= 0.0
        assert record.fields["n_references"] == len(paired_references)

    def test_batch_fit_single_blend_matmul(
        self, capture_trace, paired_references
    ):
        objectives = np.vstack(
            [r.source_vector for r in paired_references]
        )
        with capture_trace() as session:
            BatchAligner().fit_predict(paired_references, objectives)
        # The batching claim: all attributes go through ONE Eq. 16/17
        # kernel call, not one per attribute.
        (kernel,) = session.find_spans("kernel.rescaled_totals")
        assert kernel.attrs["n_attrs"] == len(paired_references)
        (fit,) = session.find_spans("batch.fit")
        assert fit.attrs["n_attrs"] == len(paired_references)
        assert session.find_spans("batch.predict")
        # Per-attribute solver events still fire, one per attribute.
        converged = session.find_events("solver.converged")
        assert len(converged) == len(paired_references)

    def test_crossval_emits_fold_and_method_spans(
        self, capture_trace, paired_references
    ):
        with capture_trace() as session:
            leave_one_dataset_out(paired_references, engine="loop")
        folds = session.find_spans("crossval.fold")
        assert len(folds) == len(paired_references)
        assert {f.attrs["dataset"] for f in folds} == {
            r.name for r in paired_references
        }
        methods = session.find_spans("crossval.method")
        assert methods and all(
            any(a.name == "crossval.fold" for a in session.ancestors_of(m))
            for m in methods
        )

    def test_crossval_batch_engine_span(
        self, capture_trace, paired_references
    ):
        with capture_trace() as session:
            leave_one_dataset_out(paired_references, engine="batch")
        (batch,) = session.find_spans("crossval.batch")
        assert batch.attrs["n_folds"] == len(paired_references)
        assert session.find_spans("batch.fit")

    def test_intersection_build_span(self, capture_trace):
        source = IntervalUnitSystem([0.0, 1.0, 2.0, 3.0])
        target = IntervalUnitSystem([0.0, 1.5, 3.0])
        with capture_trace() as session:
            build_intersection(source, target)
        (record,) = session.find_spans("intersection.build")
        assert record.attrs == {"n_source": 3, "n_target": 2}


# ---------------------------------------------------------------------------
# telemetry staleness: a cached predict emits no stage work
# ---------------------------------------------------------------------------


class TestRefitTelemetryStaleness:
    def test_geoalign_repeat_predict_does_not_reaccumulate(
        self, capture_trace, paired_references
    ):
        objective = _objective(paired_references)
        estimator = GeoAlign().fit(paired_references, objective)
        with capture_trace() as session:
            first_predict = estimator.predict()
            for _ in range(5):
                assert estimator.predict() is first_predict
        # The cached predict does no stage work again.
        assert len(session.find_spans("stage.reaggregation")) == 1
        assert len(session.find_spans("geoalign.predict")) == 6


# ---------------------------------------------------------------------------
# round-trip fidelity: write -> read -> re-export is lossless
# ---------------------------------------------------------------------------


class TestRoundTrip:
    def _session(self, name="sess"):
        with trace(name, flavour="test") as session:
            with span("a", n=2):
                with span("b"):
                    event("tick", ratio=0.5, count=np.int64(7))
            incr("solver.solves", 3)
            set_gauge("health.volume_residual_max", 1e-12)
        return session

    def test_read_rebuilds_the_session_exactly(self, tmp_path):
        original = self._session()
        path = str(tmp_path / "trace.jsonl")
        write_trace_jsonl(original, path)
        (rebuilt,) = read_trace_jsonl(path)
        assert rebuilt.name == original.name
        assert rebuilt.wall_seconds == pytest.approx(original.wall_seconds)
        assert rebuilt.counters == original.counters
        assert rebuilt.gauges == original.gauges
        assert len(rebuilt.spans) == len(original.spans)
        assert rebuilt.span_names() == original.span_names()
        for name in original.span_names():
            assert rebuilt.span_seconds(name) == pytest.approx(
                original.span_seconds(name)
            )
        # Hierarchy survives: same parent chain for the deepest span.
        (deep,) = rebuilt.find_spans("b")
        assert [s.name for s in rebuilt.ancestors_of(deep)] == ["a", "sess"]
        (evt,) = rebuilt.find_events("tick")
        assert evt.fields["ratio"] == 0.5
        assert evt.fields["count"] == 7  # numpy scalar stayed a number

    def test_non_finite_gauges_round_trip_as_strict_json(self, tmp_path):
        with trace("sess") as original:
            set_gauge("health.volume_residual_max", float("nan"))
            set_gauge("health.gram_condition_max", float("inf"))
        path = str(tmp_path / "trace.jsonl")
        write_trace_jsonl(original, path)

        def refuse(token):
            raise ValueError(f"non-JSON constant {token}")

        with open(path) as handle:
            for line in handle:
                json.loads(line, parse_constant=refuse)
        (rebuilt,) = read_trace_jsonl(path)
        assert math.isnan(rebuilt.gauges["health.volume_residual_max"])
        assert rebuilt.gauges["health.gram_condition_max"] == math.inf
        # The NaN residual still fails its check after the round trip.
        report = evaluate_health(rebuilt)
        assert report.get("volume_preservation").status == "fail"
        assert trace_to_jsonl(rebuilt) == open(path).read()

    def test_reexport_is_byte_identical(self, tmp_path):
        """The round-trip contract: export(read(x)) == x."""
        path = str(tmp_path / "trace.jsonl")
        write_trace_jsonl(self._session(), path)
        first = open(path).read()
        (rebuilt,) = read_trace_jsonl(path)
        assert trace_to_jsonl(rebuilt) == first
        # And the fixed point holds: another cycle changes nothing.
        path2 = str(tmp_path / "again.jsonl")
        write_trace_jsonl(rebuilt, path2)
        assert open(path2).read() == first

    def test_multi_session_appended_file_round_trips(self, tmp_path):
        """An `all`-style file (several appended sessions) is lossless."""
        path = str(tmp_path / "trace.jsonl")
        write_trace_jsonl(self._session("one"), path)
        write_trace_jsonl(self._session("two"), path, append=True)
        write_trace_jsonl(self._session("three"), path, append=True)
        sessions = read_trace_jsonl(path)
        assert [s.name for s in sessions] == ["one", "two", "three"]
        rebuilt_text = "".join(trace_to_jsonl(s) for s in sessions)
        assert rebuilt_text == open(path).read()
        for session in sessions:
            assert session.counters == {"solver.solves": 3.0}
            assert len(session.spans) == 3

    def test_malformed_files_are_validation_errors(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("\n")
        with pytest.raises(ValidationError, match="empty trace file"):
            read_trace_jsonl(str(empty))
        headless = tmp_path / "headless.jsonl"
        headless.write_text(
            '{"type": "span", "id": 0, "parent": null, "name": "x", '
            '"t0": 0.0, "t1": 1.0, "seconds": 1.0, "status": "ok", '
            '"attrs": {}}\n'
        )
        with pytest.raises(ValidationError, match="before any"):
            read_trace_jsonl(str(headless))
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not json\n")
        with pytest.raises(ValidationError, match="not valid JSON"):
            read_trace_jsonl(str(garbage))
        unknown = tmp_path / "unknown.jsonl"
        unknown.write_text(
            '{"type": "trace", "name": "t", "wall_seconds": 0.0}\n'
            '{"type": "mystery"}\n'
        )
        with pytest.raises(ValidationError, match="unknown record type"):
            read_trace_jsonl(str(unknown))

    def test_reconstructed_sessions_health_check(self, tmp_path):
        """A re-read trace feeds evaluate_health like a live one."""
        from repro.obs import evaluate_health

        path = str(tmp_path / "trace.jsonl")
        write_trace_jsonl(self._session(), path)
        (rebuilt,) = read_trace_jsonl(path)
        report = evaluate_health(rebuilt)
        assert report.get("volume_preservation").status == "ok"


# ---------------------------------------------------------------------------
# opt-in memory observability
# ---------------------------------------------------------------------------


class TestTrackMemory:
    def test_disabled_is_a_true_noop(self):
        assert not tracemalloc.is_tracing()
        with track_memory(enabled=False) as mem:
            assert not tracemalloc.is_tracing()
            [0] * 10_000
        assert mem.peak_bytes == 0.0
        assert mem.peak_mib == 0.0

    def test_enabled_measures_the_blocks_peak(self):
        with track_memory() as mem:
            blob = np.zeros(1_000_000)  # ~8 MB
            del blob
        assert not tracemalloc.is_tracing()  # stopped what it started
        assert mem.peak_bytes > 7_000_000
        assert mem.peak_mib == pytest.approx(
            mem.peak_bytes / 1048576.0
        )

    def test_nested_blocks_share_one_tracer(self):
        with track_memory() as outer:
            blob = np.zeros(500_000)
            with track_memory() as inner:
                np.zeros(50_000)
            # Only the innermost-started context stops the tracer.
            assert tracemalloc.is_tracing()
            del blob
        assert not tracemalloc.is_tracing()
        # The inner peak counts the still-live outer allocation plus its
        # own block, so it can never exceed the outer peak.
        assert 0.0 < inner.peak_bytes <= outer.peak_bytes

    def test_gauge_published_into_active_session(self):
        with trace("t") as session:
            with track_memory() as mem:
                np.zeros(100_000)
        assert session.gauges["mem.peak_bytes"] == mem.peak_bytes

    def test_gauge_keeps_the_high_water_mark(self):
        with trace("t") as session:
            with track_memory():
                np.zeros(1_000_000)
            with track_memory() as small:
                np.zeros(1_000)
        assert session.gauges["mem.peak_bytes"] > small.peak_bytes

    def test_no_session_no_gauge_no_error(self):
        with track_memory() as mem:
            np.zeros(10_000)
        assert mem.peak_bytes > 0.0
