"""Figure 8 / §4.4.2: robustness to the choice of reference attributes.

The paper ranks the candidate references by their source-level
correlation with the test attribute and repeats the cross-validated US
experiments with five reference subsets:

* all references (the Fig. 5 setting),
* leave out the 1 / 2 *least* correlated references, and
* leave out the 1 / 2 *most* correlated references.

Expected shape: leaving out poorly related references changes nothing
(GeoAlign already down-weights them); leaving out the best references
hurts exactly the attributes with no well-related reference left (area,
uninhabited places) -- and is harmless where the top two references are
mutually redundant (the ~96 %-correlated USPS pair covering for each
other on the business-address dataset).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ValidationError
from repro.core.batch import BatchAligner, ReferenceStack
from repro.metrics.errors import nrmse
from repro.obs.trace import span as _span
from repro.synth.universes import build_united_states_world

#: Series names in paper order.
SERIES = (
    "leave 1 least related out",
    "leave 2 least related out",
    "leave 1 most related out",
    "leave 2 most related out",
    "using all references",
)


def rank_by_correlation(references, objective_source):
    """References sorted from most to least |corr| with the objective."""
    scored = [
        (abs(ref.correlation_with(objective_source)), i, ref)
        for i, ref in enumerate(references)
    ]
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [ref for _, _, ref in scored]


def subset_for_series(ranked, series):
    """The reference subset a Fig. 8 series uses, given the ranking."""
    if series == "using all references":
        return list(ranked)
    parts = series.split()
    n = int(parts[1])
    if n >= len(ranked):
        raise ValidationError(
            f"cannot leave {n} references out of {len(ranked)}"
        )
    if "least" in series:
        return list(ranked[:-n])
    return list(ranked[n:])


@dataclass
class ReferenceSelectionResult:
    """NRMSE per dataset per series, plus the correlation rankings."""

    nrmse: dict = field(default_factory=dict)  # dataset -> series -> value
    rankings: dict = field(default_factory=dict)  # dataset -> [names]
    correlations: dict = field(default_factory=dict)  # dataset -> [corr]

    def degradation(self, dataset, series):
        """NRMSE(series) / NRMSE(all references) for one dataset."""
        baseline = self.nrmse[dataset]["using all references"]
        if baseline == 0:
            return float("nan")
        return self.nrmse[dataset][series] / baseline

    def to_text(self):
        lines = [
            "Figure 8: NRMSE by reference subset",
            f"{'dataset':28s}"
            + "".join(f"{s.split(' out')[0][:14]:>16s}" for s in SERIES),
        ]
        for dataset, by_series in self.nrmse.items():
            row = f"{dataset:28s}"
            for series in SERIES:
                row += f"{by_series[series]:16.4f}"
            lines.append(row)
        return "\n".join(lines)


def run_reference_selection(scale=1.0, seed=1776, world=None):
    """Reproduce Fig. 8 on the United States dataset pool.

    Every (fold, series) pair is one attribute row of a single
    :class:`~repro.core.batch.BatchAligner` pass over one shared
    reference stack: the series subsets become per-row reference masks,
    so the |folds| x 5 GeoAlign runs share one design/Gram build.
    """
    if world is None:
        world = build_united_states_world(scale, seed)
    references = world.references()
    result = ReferenceSelectionResult()

    subset_names: dict = {}
    for test in references:
        pool = [r for r in references if r.name != test.name]
        ranked = rank_by_correlation(pool, test.source_vector)
        result.rankings[test.name] = [ref.name for ref in ranked]
        result.correlations[test.name] = [
            ref.correlation_with(test.source_vector) for ref in ranked
        ]
        subset_names[test.name] = {
            series: {ref.name for ref in subset_for_series(ranked, series)}
            for series in SERIES
        }

    with _span("experiment.reference_selection"):
        index_of = {ref.name: i for i, ref in enumerate(references)}
        rows = [(test, series) for test in references for series in SERIES]
        objectives = np.vstack([test.source_vector for test, _ in rows])
        masks = np.zeros((len(rows), len(references)), dtype=bool)
        for row, (test, series) in enumerate(rows):
            for name in subset_names[test.name][series]:
                masks[row, index_of[name]] = True
        stack = ReferenceStack.build(references)
        estimates = (
            BatchAligner().fit(stack, objectives, masks=masks).predict()
        )
        truths = {test.name: test.dm.col_sums() for test in references}
        for row, (test, series) in enumerate(rows):
            result.nrmse.setdefault(test.name, {})[series] = nrmse(
                estimates[row], truths[test.name]
            )
    return result
