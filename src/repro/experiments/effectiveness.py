"""Figure 5: effectiveness (NRMSE) of GeoAlign vs the baselines.

The paper's §4.2 compares GeoAlign with the dasymetric method using the
three population-level references, under leave-one-dataset-out
cross-validation, reporting NRMSE per test dataset.  Areal weighting is
excluded from the figure because it loses by >15x (NY) / >50x (US); we
compute it anyway and report the ratios so the claim is checkable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.metrics.crossval import leave_one_dataset_out
from repro.obs.trace import span as _span
from repro.synth.datasets import POPULATION_LEVEL_REFERENCES
from repro.synth.universes import (
    build_new_york_world,
    build_united_states_world,
)


@dataclass
class EffectivenessResult:
    """Figure-5-shaped result for one universe."""

    universe: str
    crossval: object  # CrossValidationResult
    areal_ratio_mean: float
    areal_ratio_max: float

    def nrmse_table(self):
        return self.crossval.nrmse_table()

    def geoalign_max_nrmse(self):
        """The paper's headline number (<0.13 NY, <0.26 US)."""
        return max(
            score.nrmse
            for score in self.crossval.scores
            if score.method == "GeoAlign"
        )

    def to_text(self):
        lines = [
            f"Figure 5 ({self.universe}): NRMSE by test dataset",
            self.crossval.to_text(),
            "",
            f"GeoAlign max NRMSE: {self.geoalign_max_nrmse():.4f}",
            (
                "areal weighting / GeoAlign NRMSE ratio: "
                f"mean {self.areal_ratio_mean:.1f}x, "
                f"max {self.areal_ratio_max:.1f}x"
            ),
        ]
        return "\n".join(lines)


def run_effectiveness(
    world,
    area_reference=None,
    geoalign_factory=None,
    cache=None,
):
    """Cross-validated Fig. 5 comparison over one world's dataset pool.

    Parameters
    ----------
    world:
        A :class:`~repro.synth.world.SyntheticWorld`.
    area_reference:
        Reference for areal weighting.  Defaults to the "Area (Sq.
        Miles)" dataset when the pool has one, else the world's raster
        intersection areas.
    geoalign_factory:
        Optional estimator factory forwarded to the harness (ablations);
        its configuration applies to every fold.
    cache:
        Optional :class:`~repro.cache.PipelineCache` for the shared
        reference stack.

    All folds run through one shared
    :class:`~repro.core.batch.BatchAligner` pass.
    """
    references = world.references()
    by_name = {ref.name: ref for ref in references}
    if area_reference is None:
        area_reference = by_name.get(
            "Area (Sq. Miles)", None
        ) or world.area_reference()
    dasymetric_names = [
        name for name in POPULATION_LEVEL_REFERENCES if name in by_name
    ]
    kwargs = {}
    if geoalign_factory is not None:
        kwargs["geoalign_factory"] = geoalign_factory
    with _span("experiment.effectiveness", universe=world.name):
        crossval = leave_one_dataset_out(
            references,
            dasymetric_reference_names=dasymetric_names,
            areal_reference=area_reference,
            engine="batch",
            cache=cache,
            **kwargs,
        )
    table = crossval.nrmse_table()
    ratios = [
        row["areal-weighting"] / row["GeoAlign"]
        for row in table.values()
        if "areal-weighting" in row and row["GeoAlign"] > 0
    ]
    return EffectivenessResult(
        universe=world.name,
        crossval=crossval,
        areal_ratio_mean=float(np.mean(ratios)) if ratios else float("nan"),
        areal_ratio_max=float(np.max(ratios)) if ratios else float("nan"),
    )


def run_figure5a(scale=1.0, seed=2018):
    """Fig. 5a: the New York State universe (eight datasets)."""
    return run_effectiveness(build_new_york_world(scale, seed))


def run_figure5b(scale=1.0, seed=1776):
    """Fig. 5b: the United States universe (ten datasets)."""
    return run_effectiveness(build_united_states_world(scale, seed))
