"""Fig. 6 extension: sharded map-reduce alignment at million-unit scale.

The paper's scalability ladder (``test_fig6_scalability.py``) stops at
the United States rung (~30k x 3k units).  This bench pushes past it on
a banded sparse universe (:func:`repro.synth.bigalign.build_big_universe`)
with **one million target units** at full scale, and times the sharded
engine against the monolithic batch engine on the identical workload
(printed in the report; perfbench's ``million`` workload owns the wall
time).

Recorded in ``BENCH_shard.json`` for the regression gate:

* ``max_rel_diff`` -- sharded vs monolithic predictions (must sit at
  float-reassociation noise; the engines are algebraically identical);
* ``merge_residual`` -- the post-merge Eq. 17 re-aggregation check;
* the sharded path's allocation peak and numerical-health verdicts (any
  ``fail`` verdict fails ``check_regression.py`` outright).

No speedup floor is asserted: at CI scale (0.1) the process-pool spawn
overhead dominates the map phases, and the equivalence + health story is
what the gate protects.  The full-scale run is the >= 1M-target-unit
acceptance evidence.
"""

import time

import numpy as np

from repro.core.batch import BatchAligner
from repro.core.shard import ShardedAligner
from repro.experiments.reporting import save_bench_json
from repro.obs import Trace, evaluate_health, track_memory
from repro.synth.bigalign import build_big_universe

#: Full-scale unit counts (scaled down by ``REPRO_BENCH_SCALE``).
FULL_TARGETS = 1_000_000
FULL_SOURCES = 50_000

N_SHARDS = 8

#: Pool size of the timed sharded run; fixed so the record's inputs do
#: not depend on the host's core count.
MAX_WORKERS = 2


def _sized(bench_scale):
    n_targets = max(int(FULL_TARGETS * bench_scale), 1_000)
    n_sources = max(int(FULL_SOURCES * bench_scale), 100)
    return n_sources, n_targets


def test_sharded_million_targets(benchmark, bench_scale, report):
    """Sharded == monolithic at scale; volume preservation holds merged."""
    n_sources, n_targets = _sized(bench_scale)

    build_start = time.perf_counter()
    references, objectives = build_big_universe(n_sources, n_targets)
    build_seconds = time.perf_counter() - build_start

    mono_start = time.perf_counter()
    mono = BatchAligner()
    mono_estimates = mono.fit_predict(references, objectives)
    monolithic_seconds = time.perf_counter() - mono_start

    aligner = ShardedAligner(n_shards=N_SHARDS, max_workers=MAX_WORKERS)
    shard_start = time.perf_counter()
    estimates = aligner.fit_predict(references, objectives)
    sharded_seconds = time.perf_counter() - shard_start

    # Allocation peak of the sharded path, on a separate untimed run
    # (tracemalloc distorts wall times; see test_batch.py).
    with track_memory() as mem:
        ShardedAligner(n_shards=N_SHARDS).fit_predict(
            references, objectives
        )

    scale = float(np.abs(mono_estimates).max())
    max_rel_diff = float(
        np.abs(estimates - mono_estimates).max() / max(scale, 1.0)
    )
    assert max_rel_diff <= 1e-9
    assert aligner.merge_residual_ is not None
    merge_residual = aligner.merge_residual_
    assert merge_residual <= 1e-9

    plan = aligner.plan_
    report(
        f"sharded engine: {n_sources:,} x {n_targets:,} units, "
        f"{N_SHARDS} shards ({plan.n_boundary_rows:,} boundary rows), "
        f"{MAX_WORKERS} workers\n"
        f"  build={build_seconds:.2f}s "
        f"monolithic={monolithic_seconds:.2f}s "
        f"sharded={sharded_seconds:.2f}s\n"
        f"  max|rel diff|={max_rel_diff:.2e} "
        f"merge residual={merge_residual:.2e} "
        f"peak={mem.peak_mib:.1f}MiB"
    )
    # Global volume preservation (Eq. 16) over the *merged* result plus
    # the shard-merge check, recomputed from the fitted model; a fail
    # verdict makes check_regression.py exit non-zero outright.
    health = evaluate_health(Trace("bench-shard"), model=aligner).verdicts()
    assert health["shard_merge_preservation"] == "ok"
    assert "fail" not in health.values()
    save_bench_json(
        "shard",
        {"max_rel_diff": max_rel_diff, "merge_residual": merge_residual},
        meta={
            "n_sources": n_sources,
            "n_targets": n_targets,
            "n_shards": N_SHARDS,
            "boundary_rows": plan.n_boundary_rows,
            "max_workers": MAX_WORKERS,
            "scale": bench_scale,
        },
        memory={"sharded_peak_bytes": mem.peak_bytes},
        health=health,
    )

    benchmark(
        lambda: ShardedAligner(n_shards=N_SHARDS).fit_predict(
            references, objectives
        )
    )
