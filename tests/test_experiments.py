"""End-to-end tests of the four figure experiments at test scale.

These assert the paper's qualitative *shapes* (who wins, what fails,
what stays flat); :class:`TestFigurePins` then holds every cell of the
same Fig. 5a, 5b, 7 and 8 runs to ``fixtures/figures/`` (written by
``tests/figures_gen.py``).  EXPERIMENTS.md records the paper-scale
measurements from the benchmark harness.
"""

import numpy as np
import pytest

from repro.experiments import (
    run_effectiveness,
    run_noise_robustness,
    run_reference_selection,
    run_scalability,
)
from repro.experiments.noise import perturb_reference
from repro.experiments.reference_selection import (
    rank_by_correlation,
    subset_for_series,
)
from repro.errors import ValidationError
from tests import figures_gen
from tests.conftest import TEST_SCALE


@pytest.fixture(scope="module")
def fig5a(ny_world_module):
    return run_effectiveness(ny_world_module)


#: Figure-shape assertions need enough units for the heavy-tailed
#: statistics to settle; run these (and only these) a bit larger.
SHAPE_SCALE = max(TEST_SCALE, 0.12)


@pytest.fixture(scope="module")
def ny_world_module():
    from repro.synth.universes import build_new_york_world

    return build_new_york_world(scale=SHAPE_SCALE)


@pytest.fixture(scope="module")
def us_world_module():
    from repro.synth.universes import build_united_states_world

    return build_united_states_world(scale=SHAPE_SCALE)


@pytest.fixture(scope="module")
def fig5b(us_world_module):
    return run_effectiveness(us_world_module)


@pytest.fixture(scope="module")
def fig7(us_world_module):
    return run_noise_robustness(
        levels=figures_gen.NOISE_LEVELS,
        replicates=figures_gen.NOISE_REPLICATES,
        noise_seed=figures_gen.NOISE_SEED,
        world=us_world_module,
    )


@pytest.fixture(scope="module")
def fig8(us_world_module):
    return run_reference_selection(world=us_world_module)


class TestFigure5:
    def test_all_datasets_scored(self, fig5a, ny_world_module):
        assert set(fig5a.crossval.datasets()) == set(
            ny_world_module.dataset_names()
        )

    def test_geoalign_competitive_overall(self, fig5a):
        """GeoAlign's mean NRMSE beats every dasymetric method's mean."""
        table = fig5a.nrmse_table()
        methods = fig5a.crossval.methods()
        means = {}
        for method in methods:
            values = [
                row[method] for row in table.values() if method in row
            ]
            means[method] = np.mean(values)
        for method, mean in means.items():
            if method != "GeoAlign":
                assert means["GeoAlign"] <= mean + 1e-12, (method, means)

    def test_areal_weighting_much_worse(self, fig5a):
        assert fig5a.areal_ratio_mean > 2.0

    def test_to_text_mentions_all_methods(self, fig5a):
        text = fig5a.to_text()
        assert "GeoAlign" in text and "areal weighting" in text.lower()

    def test_us_pool_dasymetric_fails_on_area_and_uninhabited(self, fig5b):
        table = fig5b.nrmse_table()
        for dataset in ("Area (Sq. Miles)", "USA Uninhabited Places"):
            row = table[dataset]
            dasy = [
                v for k, v in row.items() if k.startswith("dasymetric")
            ]
            assert min(dasy) > 2.0 * row["GeoAlign"]


class TestFigure6:
    """The Fig. 6 ladder's shape, without wall-clock assertions.

    At test scale a fold takes ~1-3 ms, so scheduler noise decides any
    comparison of runtimes; the linearity and per-dataset stability
    assertions run in ``benchmarks/test_fig6_scalability.py``.
    """

    def test_ladder_runtimes(self, us_world_module):
        result = run_scalability(
            scale=SHAPE_SCALE, trials=3, world=us_world_module
        )
        assert len(result.timings) == 6
        text = result.to_text()
        assert "United States" in text

    def test_runtime_stable_across_datasets(self, us_world_module):
        """§4.3: the top rung times one fold per dataset."""
        result = run_scalability(
            scale=SHAPE_SCALE, trials=3, world=us_world_module
        )
        top = result.timings[-1]
        assert set(top.per_dataset_runtimes) == {
            ref.name for ref in us_world_module.references()
        }
        values = np.array(list(top.per_dataset_runtimes.values()))
        assert np.all(np.isfinite(values))


class TestFigure7:
    def test_perturbation_levels(self, us_world_module, rng):
        ref = us_world_module.references()[0]
        noisy = perturb_reference(ref, 50, rng)
        factors = noisy.source_vector / np.where(
            ref.source_vector == 0, 1, ref.source_vector
        )
        nonzero = ref.source_vector > 0
        assert set(np.round(factors[nonzero], 6)) <= {0.5, 1.5}
        # DM untouched.
        assert noisy.dm is ref.dm

    def test_zero_level_is_identity(self, us_world_module, rng):
        ref = us_world_module.references()[0]
        noisy = perturb_reference(ref, 0, rng)
        assert np.allclose(noisy.source_vector, ref.source_vector)

    def test_negative_level_rejected(self, us_world_module, rng):
        with pytest.raises(ValidationError):
            perturb_reference(us_world_module.references()[0], -1, rng)

    def test_ratios_near_one(self, fig7):
        summary = fig7.summary()
        # At 5 % noise the median deviation is small for every dataset.
        for dataset, by_level in summary.items():
            _, _, median, _ = by_level[5]
            assert 0.7 < median < 1.3, (dataset, median)
        assert fig7.replicates == 3
        assert "Figure 7" in fig7.to_text()


class TestFigure8:
    def test_ranking_is_sorted_by_abs_correlation(self, us_world_module):
        refs = us_world_module.references()
        objective = refs[0]
        pool = refs[1:]
        ranked = rank_by_correlation(pool, objective.source_vector)
        corrs = [
            abs(r.correlation_with(objective.source_vector))
            for r in ranked
        ]
        assert corrs == sorted(corrs, reverse=True)

    def test_subset_for_series(self, us_world_module):
        refs = us_world_module.references()[:5]
        assert len(subset_for_series(refs, "using all references")) == 5
        assert subset_for_series(refs, "leave 1 most related out") == refs[1:]
        assert (
            subset_for_series(refs, "leave 2 least related out")
            == refs[:3]
        )
        with pytest.raises(ValidationError):
            subset_for_series(refs[:1], "leave 1 most related out")

    def test_leave_least_out_is_harmless(self, fig8):
        for dataset in fig8.nrmse:
            assert fig8.degradation(
                dataset, "leave 1 least related out"
            ) == pytest.approx(1.0, abs=0.25)

    def test_leave_most_out_hurts_somewhere(self, fig8):
        worst = max(
            fig8.degradation(d, "leave 2 most related out")
            for d in fig8.nrmse
        )
        assert worst > 1.5


class TestFigurePins:
    """Every figure cell replays its pinned value at rtol 1e-9.

    The results are the module fixtures the shape tests above already
    use, so the pins build no world of their own.  A failure lists every
    moved cell, and every cell missing in the fixture or in the run.
    """

    RTOL = 1e-9

    @pytest.mark.parametrize("figure", figures_gen.FIGURES)
    def test_cells_match_fixture(self, figure, request):
        if SHAPE_SCALE != figures_gen.SCALE:
            pytest.skip(
                f"REPRO_TEST_SCALE={TEST_SCALE} moves the figure scale to "
                f"{SHAPE_SCALE}; the pins hold scale {figures_gen.SCALE}"
            )
        fixture = figures_gen.load(figure)
        assert fixture["scale"] == SHAPE_SCALE
        result = request.getfixturevalue(figure)
        report = figures_gen.compare_cells(
            figure,
            fixture["cells"],
            figures_gen.figure_cells(figure, result),
            rtol=self.RTOL,
        )
        assert not report, (
            f"{len(report)} {figure} cell(s) moved:\n" + "\n".join(report)
        )

    def test_report_names_each_moved_and_missing_cell(self):
        expected = {"A": {"GeoAlign": 0.1, "areal": 0.5}, "B": {"x": 1.0}}
        actual = {"A": {"GeoAlign": 0.1 * (1 + 1e-7), "dasy": 0.2}}
        report = figures_gen.compare_cells("fig", expected, actual, 1e-9)
        assert report == [
            "fig | A | GeoAlign: fixture 0.1, run 0.10000001000000001 "
            "(relative change 1e-07)",
            "fig | A | areal: missing in run",
            "fig | A | dasy: missing in fixture",
            "fig | B | x: missing in run",
        ]
        assert figures_gen.compare_cells("fig", expected, expected, 0) == []
