"""Batched vs per-attribute alignment on a Fig. 5-style workload.

The tentpole claim of the batching engine: aligning N attributes against
one shared reference set should cost far less than N scalar GeoAlign
runs, because the design/Gram build and the union-DM stack are shared.
This bench times both engines on a 32-attribute workload over the New
York world's reference pool, checks the engines agree numerically, and
records wall times + speedup in ``BENCH_batch.json`` for the regression
gate (``benchmarks/check_regression.py``).
"""

import time

import numpy as np

from repro.cache import PipelineCache
from repro.core.batch import BatchAligner, ReferenceStack
from repro.core.geoalign import GeoAlign
from repro.experiments.reporting import save_bench_json
from repro.obs import Trace, evaluate_health, track_memory
from repro.utils.rng import as_rng

#: Attribute count of the synthetic alignment table (Fig. 5 runs a whole
#: ACS-style table of attributes through one crosswalk).
N_ATTRIBUTES = 32


def _workload(world, n_attributes=N_ATTRIBUTES, seed=20180326):
    """A Fig. 5-style table: N objective attributes over one pool.

    Each synthetic attribute is a random positive mixture of the world's
    dataset source vectors plus multiplicative jitter -- correlated with
    the references (as real ACS columns are) but not identical to any.
    """
    references = world.references()
    rng = as_rng(seed)
    base = np.vstack([ref.source_vector for ref in references])
    mixtures = rng.dirichlet(np.ones(len(references)), size=n_attributes)
    jitter = rng.uniform(0.8, 1.2, size=(n_attributes, base.shape[1]))
    objectives = (mixtures @ base) * jitter
    return references, objectives


def _time_loop(references, objectives):
    start = time.perf_counter()
    estimates = [
        GeoAlign().fit_predict(references, objective)
        for objective in objectives
    ]
    return np.vstack(estimates), time.perf_counter() - start


def _time_batch(references, objectives, cache=None):
    aligner = BatchAligner(cache=cache)
    start = time.perf_counter()
    estimates = aligner.fit_predict(references, objectives)
    return aligner, estimates, time.perf_counter() - start


def test_batch_vs_loop_speedup(benchmark, ny_world, bench_scale, report):
    """Engines agree to 1e-9; batch beats the loop on 32 attributes."""
    references, objectives = _workload(ny_world)
    cache = PipelineCache()

    loop_estimates, loop_seconds = _time_loop(references, objectives)
    aligner, batch_estimates, batch_seconds = _time_batch(
        references, objectives, cache=cache
    )
    # The allocation peak of the batch path is part of the scalability
    # story (the union-pattern value matrix dominates at full scale).
    # It is measured on a separate, untimed run: tracemalloc slows
    # allocation-heavy code enough to distort the speedup ratio above.
    with track_memory() as mem:
        BatchAligner().fit_predict(references, objectives)

    scale = float(np.abs(loop_estimates).max())
    max_abs_diff = float(np.abs(batch_estimates - loop_estimates).max())
    assert max_abs_diff <= 1e-9 * max(scale, 1.0)

    speedup = loop_seconds / max(batch_seconds, 1e-12)
    report(
        f"batch engine: {N_ATTRIBUTES} attributes, "
        f"loop={loop_seconds:.4f}s batch={batch_seconds:.4f}s "
        f"speedup={speedup:.1f}x max|diff|={max_abs_diff:.2e} "
        f"peak={mem.peak_mib:.1f}MiB"
    )
    # Numerical-health verdicts of the fitted batch, recomputed from the
    # model itself (no trace session was active during the timed run);
    # a fail here makes check_regression.py exit non-zero outright.
    health = evaluate_health(Trace("bench-batch"), model=aligner).verdicts()
    assert "fail" not in health.values()
    save_bench_json(
        "batch",
        {
            "loop_seconds": loop_seconds,
            "batch_seconds": batch_seconds,
            "speedup": speedup,
            "max_abs_diff": max_abs_diff,
        },
        meta={
            "n_attributes": N_ATTRIBUTES,
            "universe": ny_world.name,
            "scale": bench_scale,
        },
        # Stage decomposition + cache counters of the timed batch run:
        # the regression gate compares each stage under the wall-time
        # tolerance and the derived hit rate as higher-is-better.
        stages=aligner.timer_.totals,
        cache_stats=cache.stats.as_dict(),
        memory={"batch_peak_bytes": mem.peak_bytes},
        health=health,
    )
    # The shared-work claim: strict at paper scale, where per-attribute
    # DM conversion dominates; still required (just softer) on the tiny
    # worlds a quick pass uses.
    floor = 2.0 if bench_scale >= 0.25 else 1.2
    assert speedup >= floor

    benchmark(
        lambda: BatchAligner().fit_predict(references, objectives)
    )


def test_stack_cache_reuse(benchmark, ny_world, report):
    """Repeat alignments through one cache skip the stack build."""
    references, objectives = _workload(ny_world, n_attributes=8)
    cache = PipelineCache()
    ReferenceStack.build(references, cache=cache)  # warm

    def aligned():
        return (
            BatchAligner(cache=cache)
            .fit_predict(references, objectives)
        )

    # One deterministic warm-then-reuse round before the benchmark
    # loop: exactly 1 miss (the warm build) + 1 hit, so the persisted
    # hit rate is stable across machines and benchmark round counts.
    aligned()
    save_bench_json(
        "stack-cache",
        {},
        meta={"universe": ny_world.name},
        cache_stats=cache.stats.as_dict(),
    )
    assert cache.stats.hits == 1 and cache.stats.misses == 1

    estimates = benchmark(aligned)
    assert estimates.shape == (8, len(ny_world.counties))
    assert cache.stats.hits >= 1
    report(
        f"stack cache: {cache.stats.hits} hits / "
        f"{cache.stats.misses} misses over the benchmark run"
    )
