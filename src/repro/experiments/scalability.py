"""Figure 6 and §4.3: runtime scalability across the universe ladder.

The paper averages GeoAlign's runtime over ten trials of the
cross-validated experiments in each of six nested universes and shows it
growing linearly with both the number of source units (zip codes) and
target units (counties), staying under 0.15 s at full US scale on the
authors' laptop.  §4.3 also claims that over 90 % of the runtime is
spent constructing the disaggregation matrix after the weights are
estimated, and that runtime is stable across datasets of one universe.

``run_scalability`` reproduces the measurement protocol; the result
records per-universe mean runtime, the stage decomposition (read from
the engine's ``stage.*`` spans), and the least-squares linearity fit
against unit counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.geoalign import GeoAlign
from repro.metrics.errors import pearson_correlation
from repro.obs.trace import span as _span
from repro.obs.trace import timed_span as _timed_span
from repro.obs.trace import trace as _trace
from repro.synth.universes import build_united_states_world, ladder_universes


@dataclass
class UniverseTiming:
    """Timing of one ladder rung."""

    universe: str
    n_source_units: int
    n_target_units: int
    mean_runtime: float
    std_runtime: float
    per_dataset_runtimes: dict
    disaggregation_fraction: float


@dataclass
class ScalabilityResult:
    """All rungs plus linearity diagnostics."""

    timings: list = field(default_factory=list)

    def linearity(self):
        """Pearson correlation of runtime with source and target counts.

        The paper's linear-scaling claim corresponds to correlations
        close to 1 (unit counts grow together along the ladder, so both
        correlations are informative of joint linear growth).
        """
        runtimes = np.array([t.mean_runtime for t in self.timings])
        sources = np.array(
            [t.n_source_units for t in self.timings], dtype=float
        )
        targets = np.array(
            [t.n_target_units for t in self.timings], dtype=float
        )
        return (
            pearson_correlation(sources, runtimes),
            pearson_correlation(targets, runtimes),
        )

    def max_runtime(self):
        return max(t.mean_runtime for t in self.timings)

    def to_text(self):
        lines = [
            "Figure 6: GeoAlign mean runtime per universe "
            "(cross-validated, averaged over trials)",
            f"{'universe':28s}{'zips':>8s}{'counties':>10s}"
            f"{'runtime(s)':>12s}{'std':>9s}{'dm-frac':>9s}",
        ]
        for t in self.timings:
            lines.append(
                f"{t.universe:28s}{t.n_source_units:8d}"
                f"{t.n_target_units:10d}{t.mean_runtime:12.4f}"
                f"{t.std_runtime:9.4f}{t.disaggregation_fraction:9.2f}"
            )
        r_src, r_tgt = self.linearity()
        lines.append(
            f"runtime correlation: vs zips {r_src:.4f}, "
            f"vs counties {r_tgt:.4f} (linear scaling => ~1)"
        )
        lines.append(f"max mean runtime: {self.max_runtime():.4f}s")
        return "\n".join(lines)


#: The paper's §4.3 stages, as named by the engine's ``stage.*`` spans.
STAGES = ("weights", "disaggregation", "reaggregation")


def traced_stage_seconds(pool, objective):
    """Seconds per §4.3 stage of one GeoAlign fold, from its spans.

    The fold runs in a private recording session and each stage's time
    is the sum of its ``stage.<name>`` spans.  An active session also
    switches on the health-gauge math; that work runs outside the stage
    spans, so the split is faithful, but the fold's wall time is not.
    """
    with _trace("scalability.stages") as session:
        GeoAlign().fit_predict(pool, objective)
    return {stage: session.span_seconds(f"stage.{stage}") for stage in STAGES}


def stage_fraction(stage_seconds, stage):
    """Share of ``stage`` in a :func:`traced_stage_seconds` split."""
    total = sum(stage_seconds.values())
    return stage_seconds[stage] / total if total > 0.0 else 0.0


def time_geoalign_fold(references, test_reference, repeats=1):
    """Seconds for one full GeoAlign fold (fit + predict), best effort.

    A fresh estimator is built per repeat over the same reference DMs,
    which build their row sums and operators once
    (:meth:`~repro.partitions.dm.DisaggregationMatrix.linear_arrays`),
    so the repeats after a pool's first fold reuse them, as the folds of
    one cross-validated run do.  The timed repeats open no session of
    their own; the disaggregation share comes from one more fold,
    traced (:func:`traced_stage_seconds`).  Returns ``(mean_seconds,
    disaggregation_fraction)``.
    """
    pool = [r for r in references if r.name != test_reference.name]
    objective = test_reference.source_vector
    durations = []
    for _ in range(repeats):
        with _timed_span(
            "scalability.fold", dataset=test_reference.name
        ) as clock:
            GeoAlign().fit_predict(pool, objective)
        durations.append(clock.seconds)
    split = traced_stage_seconds(pool, objective)
    return float(np.mean(durations)), stage_fraction(split, "disaggregation")


def run_scalability(scale=1.0, seed=1776, trials=10, world=None):
    """Reproduce Fig. 6 over the six-universe ladder.

    Parameters
    ----------
    scale:
        World scale (1.0 = paper scale: 30,238 zips at the top rung).
    trials:
        Runtime trials averaged per fold (paper: ten).
    world:
        Optionally reuse an existing US world (e.g. a session fixture).
    """
    if world is None:
        world = build_united_states_world(scale, seed)
    result = ScalabilityResult()
    with _span("experiment.scalability", scale=scale, trials=trials):
        for spec, universe in ladder_universes(world, scale):
            references = universe.references()
            per_dataset = {}
            fractions = []
            with _span("scalability.universe", universe=spec.name):
                for test in references:
                    seconds, dm_fraction = time_geoalign_fold(
                        references, test, repeats=trials
                    )
                    per_dataset[test.name] = seconds
                    fractions.append(dm_fraction)
            runtimes = np.array(list(per_dataset.values()))
            result.timings.append(
                UniverseTiming(
                    universe=spec.name,
                    n_source_units=len(universe.zips),
                    n_target_units=len(universe.counties),
                    mean_runtime=float(runtimes.mean()),
                    std_runtime=float(runtimes.std()),
                    per_dataset_runtimes=per_dataset,
                    disaggregation_fraction=float(np.mean(fractions)),
                )
            )
    return result
