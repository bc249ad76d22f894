"""End-to-end tests of the four figure experiments at test scale.

These assert the paper's qualitative *shapes* (who wins, what fails,
what stays flat), not absolute numbers; EXPERIMENTS.md records the
paper-scale measurements from the benchmark harness.
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

    def test_us_pool_dasymetric_fails_on_area_and_uninhabited(
        self, us_world_module
    ):
        result = run_effectiveness(us_world_module)
        table = result.nrmse_table()
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

    def test_ratios_near_one(self, us_world_module):
        result = run_noise_robustness(
            levels=(5, 20),
            replicates=3,
            world=us_world_module,
        )
        summary = result.summary()
        # At 5 % noise the median deviation is small for every dataset.
        for dataset, by_level in summary.items():
            _, _, median, _ = by_level[5]
            assert 0.7 < median < 1.3, (dataset, median)
        assert result.replicates == 3
        assert "Figure 7" in result.to_text()


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

    def test_leave_least_out_is_harmless(self, us_world_module):
        result = run_reference_selection(world=us_world_module)
        for dataset in result.nrmse:
            assert result.degradation(
                dataset, "leave 1 least related out"
            ) == pytest.approx(1.0, abs=0.25)

    def test_leave_most_out_hurts_somewhere(self, us_world_module):
        result = run_reference_selection(world=us_world_module)
        worst = max(
            result.degradation(d, "leave 2 most related out")
            for d in result.nrmse
        )
        assert worst > 1.5
