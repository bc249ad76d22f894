"""Instrumentation overhead gate for the batch hot path (BENCH_obs.json).

The observability contract (``repro.obs.trace``) is that instrumentation
embedded in the hot path is effectively free when no session is active:
every ``span``/``incr``/``event`` call collapses to one
``ContextVar.get()``.  This bench turns that into a gated number:

* ``obs_overhead_ratio`` -- the untraced workload time plus the
  *measured* cost of every instrumentation call it executes, over the
  untraced time alone.  The call cost is micro-benchmarked (min-of-N
  over a large loop, so it is stable where an end-to-end wall-time
  diff of <1% would drown in scheduler noise), priced at the ``span``
  rate -- the most expensive call type -- for every recorded span,
  event *and* counter update, which over-counts cheap ``incr`` calls
  and keeps the estimate conservative.  ``check_regression.py`` holds
  this ratio at most 1% over unity as an *absolute* ceiling: the
  contract is "tracing is effectively free", not "no slower than last
  release".

The printed report also shows the min-of-N interleaved wall times
without and with an active recording session, the call counts and the
per-call cost.  The traced run is *expected* to be slower by design: an
active session turns on the gated health-gauge math (Gram condition
numbers, the Eq. 16 volume re-check) on top of record-keeping, which is
exactly why the 1% gate prices instrumentation calls instead of diffing
these walls.

The traced runs sanity-check that instrumentation actually fired: a
workload recording no spans would gate a vacuous ratio of 1.0.
"""

import time

from repro.core.batch import BatchAligner
from repro.experiments.reporting import save_bench_json
from repro.obs import span, trace
from repro.synth.bigalign import build_big_universe

#: Full-scale unit counts (scaled down by ``REPRO_BENCH_SCALE``).
#: The floors keep the quick-scale (0.1) workload around 10ms: the
#: per-run instrumentation call count is fixed, so too small a
#: denominator would put even a healthy ratio near the 1% ceiling.
FULL_TARGETS = 400_000
FULL_SOURCES = 20_000

#: Interleaved repeats per mode; min-of-N is the reported time.
REPEATS = 5

#: Loop length for the per-call micro-benchmark.
CALL_LOOP = 100_000


def _sized(bench_scale):
    n_targets = max(int(FULL_TARGETS * bench_scale), 40_000)
    n_sources = max(int(FULL_SOURCES * bench_scale), 2_000)
    return n_sources, n_targets


def _disabled_span_cost():
    """Per-call seconds of a ``span`` with no active session (min-of-3)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(CALL_LOOP):
            with span("bench.noop"):
                pass
        best = min(best, (time.perf_counter() - start) / CALL_LOOP)
    return best


def test_obs_overhead(bench_scale, report):
    n_sources, n_targets = _sized(bench_scale)
    references, objectives = build_big_universe(n_sources, n_targets)

    def workload():
        return BatchAligner().fit_predict(references, objectives)

    workload()  # warm the allocator and any lazy imports

    disabled_times = []
    traced_times = []
    n_spans = n_events = n_counter_updates = 0
    for _ in range(REPEATS):
        start = time.perf_counter()
        workload()
        disabled_times.append(time.perf_counter() - start)

        with trace("obs-overhead") as session:
            start = time.perf_counter()
            workload()
            traced_times.append(time.perf_counter() - start)
        n_spans = len(session.spans)
        n_events = len(session.events)
        # Distinct counter names under-counts folded increments, so
        # price the total incremented amount instead (hot-path counters
        # increment by 1, making the sum an upper bound on calls).
        n_counter_updates = int(sum(session.counters.values()))

    # The gate is meaningless unless the traced runs really recorded.
    assert n_spans > 0
    assert n_counter_updates > 0

    disabled_seconds = min(disabled_times)
    traced_seconds = min(traced_times)
    traced_run_ratio = traced_seconds / disabled_seconds

    call_cost = _disabled_span_cost()
    n_calls = n_spans + n_events + n_counter_updates
    overhead_seconds = n_calls * call_cost
    obs_overhead_ratio = 1.0 + overhead_seconds / disabled_seconds
    # In-test ceiling mirrors the regression gate so a local run fails
    # loudly too; the committed gate lives in check_regression.py.
    assert obs_overhead_ratio <= 1.01

    report(
        f"obs overhead: {n_sources:,} x {n_targets:,} units, "
        f"min of {REPEATS} interleaved repeats\n"
        f"  disabled={disabled_seconds * 1e3:.1f}ms "
        f"traced={traced_seconds * 1e3:.1f}ms "
        f"(run ratio {traced_run_ratio:.3f}, incl. gated health math)\n"
        f"  instrumentation: {n_spans} spans + {n_events} events + "
        f"{n_counter_updates} counter updates = {n_calls} calls/run x "
        f"{call_cost * 1e9:.0f}ns = {overhead_seconds * 1e6:.1f}us "
        f"-> overhead ratio {obs_overhead_ratio:.5f} (gate <= 1.01)"
    )
    save_bench_json(
        "obs",
        {"obs_overhead_ratio": obs_overhead_ratio},
        meta={
            "n_sources": n_sources,
            "n_targets": n_targets,
            "repeats": REPEATS,
            "scale": bench_scale,
        },
    )
