"""Concurrent JSON-lines trace export (``repro.obs.export``).

Parallel appenders into one trace file must interleave at session
granularity (no torn lines), which the O_APPEND single-write path
guarantees.
"""

import json
import threading
from concurrent.futures import ProcessPoolExecutor

from repro.obs import incr, read_trace_jsonl, span, trace, write_trace_jsonl


# ---------------------------------------------------------------------------
# concurrent JSON-lines export (O_APPEND session-granularity atomicity)
# ---------------------------------------------------------------------------


def _append_session(args: tuple[str, int, int]) -> str:
    """Worker: record one distinctive session and append it to ``path``."""
    path, writer, n_spans = args
    # Record through a session so spans carry real ids/hierarchy.
    with trace(f"writer-{writer}") as session:
        with span("session.root", writer=writer):
            for i in range(n_spans):
                with span("unit", index=i):
                    pass
        incr("writer.units", float(n_spans))
    write_trace_jsonl(session, path, append=True)
    return session.name


class TestConcurrentExport:
    def test_truncate_then_append_layout(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with trace("first") as first:
            with span("a"):
                pass
        with trace("second") as second:
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
