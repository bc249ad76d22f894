"""Figure 6 and §4.3: runtime vs unit counts over the universe ladder.

Prints the six-universe runtime table (mean over cross-validated folds,
averaged over trials like the paper's ten-trial protocol) and verifies
the linear-scaling claim.  The benchmarked kernel is a full GeoAlign
fold at the largest (United States) rung -- the paper's headline
"< 0.15 s even for 30,238 x 3,142 units" measurement.
"""

import os

import numpy as np
import pytest

from repro.core.geoalign import GeoAlign
from repro.experiments.scalability import (
    STAGES,
    run_scalability,
    stage_fraction,
    traced_stage_seconds,
)
from repro.synth.universes import build_united_states_world

#: The tier-1 suite's figure-shape scale (``SHAPE_SCALE`` in
#: ``tests/test_experiments.py``), where one fold takes ~1-3 ms.
SHAPE_SCALE = max(float(os.environ.get("REPRO_TEST_SCALE", "0.06")), 0.12)

#: Traced folds behind the §4.3 decomposition; its bounds hold on their
#: median, as a single ~10 ms fold is at the mercy of the scheduler.
DECOMPOSITION_FOLDS = 5


@pytest.fixture(scope="module")
def shape_scale_ladder():
    world = build_united_states_world(scale=SHAPE_SCALE)
    return run_scalability(scale=SHAPE_SCALE, trials=3, world=world)


def test_ladder_runtimes_at_shape_scale(shape_scale_ladder):
    """The tier-1 ladder's wall-clock check, kept out of tier-1."""
    r_src, r_tgt = shape_scale_ladder.linearity()
    # Positive scaling with unit counts.  At test scale folds take
    # ~1-3 ms, so scheduler noise is material; the strict r > 0.9
    # check is test_fig6_runtime_ladder's, where folds are big enough
    # to time reliably.
    assert r_src > 0.5 and r_tgt > 0.5


def test_runtime_stable_across_datasets_at_shape_scale(shape_scale_ladder):
    """§4.3: runtime within a universe does not depend on the data
    magnitudes, only (mildly) on DM sparsity."""
    top = shape_scale_ladder.timings[-1]
    values = np.array(list(top.per_dataset_runtimes.values()))
    assert values.max() / values.min() < 5.0


def test_fig6_runtime_ladder(benchmark, us_world, bench_scale, report):
    result = run_scalability(
        scale=bench_scale, trials=5, world=us_world
    )
    report(result.to_text())

    r_src, r_tgt = result.linearity()
    assert r_src > 0.9, "runtime is not linear in source units"
    assert r_tgt > 0.9, "runtime is not linear in target units"

    references = us_world.references()
    test, pool = references[0], references[1:]
    benchmark(
        lambda: GeoAlign().fit_predict(pool, test.source_vector)
    )


def test_runtime_decomposition(benchmark, us_world, report):
    """§4.3: where does GeoAlign's time go at full US scale?

    The paper attributes >90 % of runtime to disaggregation-matrix
    construction.  We report our measured decomposition (weights /
    disaggregation / re-aggregation), read from the ``stage.*`` spans
    of traced folds -- see EXPERIMENTS.md for the comparison
    discussion.
    """
    references = us_world.references()
    test, pool = references[0], references[1:]

    splits = [
        traced_stage_seconds(pool, test.source_vector)
        for _ in range(DECOMPOSITION_FOLDS)
    ]
    lines = [
        f"Runtime decomposition (median of {DECOMPOSITION_FOLDS} "
        "US-scale folds):"
    ]
    fractions = {}
    for stage in STAGES:
        fractions[stage] = float(
            np.median([stage_fraction(split, stage) for split in splits])
        )
        seconds = float(np.median([split[stage] for split in splits]))
        lines.append(
            f"  {stage:16s} {seconds * 1e3:8.2f} ms "
            f"({100 * fractions[stage]:5.1f} %)"
        )
    report("\n".join(lines))
    # Disaggregation dominates weight learning and re-aggregation is
    # negligible; the DM stage carries the bulk of the work.
    assert fractions["disaggregation"] > 0.3
    assert fractions["reaggregation"] < 0.2

    benchmark(lambda: GeoAlign().fit_predict(pool, test.source_vector))


def test_runtime_stable_across_datasets(benchmark, us_world, report):
    """§4.3: runtime within one universe is stable across datasets
    (differences trace to DM sparsity, not data magnitude)."""
    import time

    references = us_world.references()
    rows = []
    for test in references:
        pool = [r for r in references if r.name != test.name]
        start = time.perf_counter()
        GeoAlign().fit_predict(pool, test.source_vector)
        rows.append((test.name, time.perf_counter() - start))
    lines = ["Per-dataset GeoAlign runtime (United States):"]
    for name, seconds in rows:
        lines.append(f"  {name:28s} {seconds * 1e3:8.2f} ms")
    report("\n".join(lines))
    values = np.array([seconds for _, seconds in rows])
    assert values.max() / values.min() < 6.0

    test, pool = references[0], references[1:]
    benchmark(lambda: GeoAlign().fit(pool, test.source_vector))
