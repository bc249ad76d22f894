"""Figure 7 / §4.4.1: robustness to inaccurate reference attributes.

The paper perturbs every reference attribute's *source-level* aggregate
vector with x % multiplicative noise (the disaggregation matrices stay
intact -- crosswalk files are separate artefacts from published
aggregate tables), at levels 1, 2, 5, 10, 20, 30 and 50 %, replicating
each experiment 20 times to average over random noise signs.  The
reported statistic is RMSE(perturbed references) / RMSE(original
references); a ratio near 1 means GeoAlign's prediction is invariant to
the noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.core.batch import BatchAligner, ReferenceStack
from repro.metrics.errors import rmse
from repro.obs.trace import span as _span
from repro.synth.universes import build_united_states_world
from repro.utils.arrays import is_zero
from repro.utils.rng import as_rng

#: The paper's noise levels, in percent.
PAPER_NOISE_LEVELS = (1, 2, 5, 10, 20, 30, 50)


def perturb_reference(reference, level_percent, rng):
    """Reference with ±x % multiplicative noise on its source vector.

    Following §4.4.1: an x % noise level for value ``y`` is ``±x*y/100``;
    each entry independently gets a random sign, so a replicate draws a
    new sign pattern.  The DM is left untouched.
    """
    if level_percent < 0:
        raise ValidationError("noise level must be non-negative")
    signs = rng.choice((-1.0, 1.0), size=len(reference.source_vector))
    factor = 1.0 + signs * (level_percent / 100.0)
    return reference.with_source_vector(reference.source_vector * factor)


@dataclass
class NoiseResult:
    """Prediction-deviation ratios per dataset and noise level.

    ``ratios[dataset][level]`` is the list of
    RMSE(perturbed)/RMSE(original) values over replicates.
    """

    levels: tuple
    replicates: int
    ratios: dict = field(default_factory=dict)

    def summary(self):
        """``{dataset: {level: (mean, q1, median, q3)}}`` box-plot stats."""
        out = {}
        for dataset, by_level in self.ratios.items():
            out[dataset] = {}
            for level, values in by_level.items():
                arr = np.asarray(values)
                out[dataset][level] = (
                    float(arr.mean()),
                    float(np.quantile(arr, 0.25)),
                    float(np.median(arr)),
                    float(np.quantile(arr, 0.75)),
                )
        return out

    def worst_mean_deviation(self):
        """Largest |mean ratio - 1| over all datasets and levels.

        The paper reports that even the most affected datasets (area,
        population) keep the mean deviation under 1.1.
        """
        worst = 0.0
        for by_level in self.ratios.values():
            for values in by_level.values():
                worst = max(worst, abs(float(np.mean(values)) - 1.0))
        return worst

    def to_text(self):
        lines = [
            "Figure 7: RMSE(perturbed)/RMSE(original) by noise level "
            f"(mean over {self.replicates} replicates)",
            f"{'dataset':28s}"
            + "".join(f"{level:>7d}%" for level in self.levels),
        ]
        for dataset, by_level in self.ratios.items():
            row = f"{dataset:28s}"
            for level in self.levels:
                row += f"{np.mean(by_level[level]):8.3f}"
            lines.append(row)
        lines.append(
            "worst |mean ratio - 1| = "
            f"{self.worst_mean_deviation():.3f} (paper: < 0.1)"
        )
        return "\n".join(lines)


def run_noise_robustness(
    scale=1.0,
    seed=1776,
    levels=PAPER_NOISE_LEVELS,
    replicates=20,
    noise_seed=404,
    world=None,
):
    """Reproduce Fig. 7 on the United States dataset pool.

    For each cross-validated fold, every reference's source vector is
    perturbed at each level; GeoAlign re-fits and the RMSE ratio against
    the unperturbed run is recorded.

    Each fold builds its reference stack once and every replicate reuses
    its DM-derived arrays via
    :meth:`~repro.core.batch.ReferenceStack.with_references` -- noise
    only touches source vectors, never the crosswalk DMs, so only the
    cheap design/Gram piece is rebuilt per replicate.
    """
    if world is None:
        world = build_united_states_world(scale, seed)
    references = world.references()
    rng = as_rng(noise_seed)
    result = NoiseResult(levels=tuple(levels), replicates=replicates)

    with _span("experiment.noise", replicates=replicates):
        for test in references:
            with _span("noise.fold", dataset=test.name):
                _run_noise_fold(
                    test, references, levels, replicates, rng, result
                )
    return result


def _run_noise_fold(test, references, levels, replicates, rng, result):
    """One held-out dataset's noise-ratio sweep (all levels/replicates)."""
    truth = test.dm.col_sums()
    pool = [r for r in references if r.name != test.name]
    objective = test.source_vector[np.newaxis, :]
    stack = ReferenceStack.build(pool)
    baseline_estimate = BatchAligner().fit(stack, objective).predict()[0]
    baseline_rmse = rmse(baseline_estimate, truth)
    by_level = {level: [] for level in levels}
    for level in levels:
        for _ in range(replicates):
            noisy_pool = [
                perturb_reference(ref, level, rng) for ref in pool
            ]
            estimate = (
                BatchAligner()
                .fit(stack.with_references(noisy_pool), objective)
                .predict()[0]
            )
            noisy_rmse = rmse(estimate, truth)
            if is_zero(baseline_rmse):
                ratio = 1.0 if is_zero(noisy_rmse) else float("inf")
            else:
                ratio = noisy_rmse / baseline_rmse
            by_level[level].append(ratio)
    result.ratios[test.name] = by_level
