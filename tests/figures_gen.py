"""Generator for the figure pins under fixtures/figures/.

Every cell of the paper's Fig. 5a, 5b, 7 and 8 tables, computed at
tier-1's figure-shape scale (:data:`SCALE`), is written to one JSON file
per figure.  Each file records the figure, its universe, the scale, the
seeds and the run's parameters, and holds the cells as
``{dataset: {method or series: value}}``:

* Fig. 5a / 5b -- NRMSE per (test dataset, method) from
  :func:`~repro.experiments.run_effectiveness` on the New York / United
  States world (GeoAlign, the three dasymetric methods, areal weighting);
* Fig. 7 -- RMSE(perturbed)/RMSE(original) per (dataset, noise level,
  replicate) from :func:`~repro.experiments.run_noise_robustness`;
* Fig. 8 -- NRMSE per (dataset, reference subset series) from
  :func:`~repro.experiments.run_reference_selection`.

``tests/test_experiments.py`` replays every cell from its own module
fixtures at rtol 1e-9 and reports each moved cell on its own line, plus
the cells missing in the fixture or in the run.  Where the goldens pin
the solver on five toy worlds, these pins hold the figures themselves:
the method-by-method comparison the paper draws.

All four tables are byte-identical under ``OPENBLAS_NUM_THREADS=1`` and
``=2``.  Regenerate only with a change that claims a numerical effect,
and list every moved cell with it::

    PYTHONPATH=src python tests/figures_gen.py
"""

from __future__ import annotations

import json
import math
import os

from repro.experiments import (
    run_effectiveness,
    run_noise_robustness,
    run_reference_selection,
)
from repro.synth.universes import (
    build_new_york_world,
    build_united_states_world,
)

FIGURES_DIR = os.path.join(os.path.dirname(__file__), "fixtures", "figures")

#: The figure-shape scale tier-1 runs the figure experiments at.
SCALE = 0.12

#: World seeds: the universe builders' defaults.
NY_SEED = 2018
US_SEED = 1776

#: Fig. 7's pinned run: two noise levels, three replicates each.
NOISE_LEVELS = (5, 20)
NOISE_REPLICATES = 3
NOISE_SEED = 404

FIGURES = ("fig5a", "fig5b", "fig7", "fig8")


def run_figures(scale=SCALE):
    """``{figure: result}`` for the four pinned figures at ``scale``."""
    ny = build_new_york_world(scale=scale, seed=NY_SEED)
    us = build_united_states_world(scale=scale, seed=US_SEED)
    return {
        "fig5a": run_effectiveness(ny),
        "fig5b": run_effectiveness(us),
        "fig7": run_noise_robustness(
            levels=NOISE_LEVELS,
            replicates=NOISE_REPLICATES,
            noise_seed=NOISE_SEED,
            world=us,
        ),
        "fig8": run_reference_selection(world=us),
    }


def figure_cells(figure, result):
    """``{dataset: {method or series: value}}`` for one figure's result."""
    if figure in ("fig5a", "fig5b"):
        return result.nrmse_table()
    if figure == "fig7":
        return {
            dataset: {
                f"{level}% replicate {i + 1}": ratio
                for level, ratios in by_level.items()
                for i, ratio in enumerate(ratios)
            }
            for dataset, by_level in result.ratios.items()
        }
    if figure == "fig8":
        return result.nrmse
    raise ValueError(f"unknown figure {figure!r}")


def _spec(figure):
    """The universe, seeds and parameters a figure's cells depend on."""
    if figure == "fig5a":
        return "New York State", {"world": NY_SEED}, {}
    if figure == "fig7":
        return (
            "United States",
            {"world": US_SEED, "noise": NOISE_SEED},
            {
                "levels": list(NOISE_LEVELS),
                "replicates": NOISE_REPLICATES,
            },
        )
    return "United States", {"world": US_SEED}, {}


def payload(figure, result, scale=SCALE):
    """The fixture document of one figure."""
    universe, seeds, params = _spec(figure)
    return {
        "figure": figure,
        "universe": universe,
        "scale": scale,
        "seeds": seeds,
        "params": params,
        "cells": figure_cells(figure, result),
    }


def fixture_path(figure, directory=FIGURES_DIR):
    return os.path.join(directory, f"{figure}.json")


def load(figure, directory=FIGURES_DIR):
    with open(fixture_path(figure, directory)) as handle:
        return json.load(handle)


def compare_cells(figure, expected, actual, rtol):
    """One report line per cell that moved or is missing on either side.

    ``expected`` and ``actual`` are ``{dataset: {series: value}}``.  A
    cell moves when ``|actual - expected| > rtol * |expected|``; an
    empty list means every cell replays.
    """
    report = []
    datasets = list(dict.fromkeys([*expected, *actual]))
    for dataset in datasets:
        want = expected.get(dataset, {})
        got = actual.get(dataset, {})
        for series in dict.fromkeys([*want, *got]):
            cell = f"{figure} | {dataset} | {series}"
            if series not in got:
                report.append(f"{cell}: missing in run")
            elif series not in want:
                report.append(f"{cell}: missing in fixture")
            elif not math.isclose(got[series], want[series], rel_tol=rtol):
                change = abs(got[series] - want[series])
                if want[series]:
                    change /= abs(want[series])
                report.append(
                    f"{cell}: fixture {want[series]!r}, run "
                    f"{got[series]!r} (relative change {change:.3g})"
                )
    return report


def generate(directory=FIGURES_DIR, scale=SCALE):
    """Write every figure fixture; returns the file paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for figure, result in run_figures(scale).items():
        path = fixture_path(figure, directory)
        with open(path, "w") as handle:
            json.dump(
                payload(figure, result, scale),
                handle,
                indent=1,
                allow_nan=False,
            )
            handle.write("\n")
        paths.append(path)
    return paths


if __name__ == "__main__":
    for path in generate():
        print(path)
