"""The ``geoalign-repro align`` workload: align a whole dataset pool.

Every dataset of a synthetic world in turn plays the objective attribute
against the remaining datasets -- the paper's Fig. 5 setting without the
baseline methods -- in one shared :class:`~repro.core.batch.BatchAligner`
pass (one design/Gram build, N small solves, two matmuls and one
Eq. 16/17 kernel call).  It reports per-dataset NRMSE and total wall
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ValidationError
from repro.metrics.crossval import leave_one_dataset_out
from repro.obs.trace import span as _span
from repro.synth.universes import (
    build_new_york_world,
    build_united_states_world,
)

#: Default world seeds per universe (matching Fig. 5a / 5b).
_UNIVERSES = {
    "ny": (build_new_york_world, 2018),
    "us": (build_united_states_world, 1776),
}


@dataclass
class AlignmentResult:
    """Per-dataset alignment quality plus wall time."""

    universe: str
    seconds: float
    rows: list = field(default_factory=list)  # (dataset, rmse, nrmse)

    def to_text(self):
        lines = [
            f"Alignment ({self.universe}): NRMSE by dataset",
            f"{'dataset':32s}{'rmse':>14s}{'nrmse':>10s}",
        ]
        for name, rmse_value, nrmse_value in self.rows:
            lines.append(
                f"{name:32s}{rmse_value:14.4f}{nrmse_value:10.4f}"
            )
        lines.append(
            f"total GeoAlign wall time: {self.seconds:.3f}s "
            f"({len(self.rows)} attributes)"
        )
        return "\n".join(lines)


def run_alignment(scale=1.0, seed=None, universe="ny", world=None):
    """Align every dataset of a world against the rest.

    Parameters
    ----------
    scale, seed:
        World generation parameters (seed defaults per universe to the
        Fig. 5 seeds).
    universe:
        ``"ny"`` or ``"us"``; ignored when ``world`` is given.
    world:
        Optional prebuilt :class:`~repro.synth.world.SyntheticWorld`.
    """
    if world is None:
        if universe not in _UNIVERSES:
            raise ValidationError(
                f"universe must be one of {tuple(_UNIVERSES)}, got "
                f"{universe!r}"
            )
        builder, default_seed = _UNIVERSES[universe]
        world = builder(scale, default_seed if seed is None else seed)
    with _span("experiment.align", universe=world.name):
        crossval = leave_one_dataset_out(world.references(), engine="batch")
    rows = [
        (score.dataset, score.rmse, score.nrmse)
        for score in crossval.scores
    ]
    seconds = sum(score.runtime_seconds for score in crossval.scores)
    return AlignmentResult(universe=world.name, seconds=seconds, rows=rows)
