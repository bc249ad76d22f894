"""Unit and property tests for the GeoAlign estimator (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import DisaggregationMatrix, GeoAlign, Reference
from repro.core.validation import (
    check_volume_preserving,
    mass_conservation_error,
    volume_preservation_error,
)
from repro.errors import (
    NotFittedError,
    ShapeMismatchError,
    ValidationError,
)
from tests.dm_oracles import blend

SRC = [f"s{i}" for i in range(8)]
TGT = [f"t{j}" for j in range(4)]


def _reference(seed, name, density=0.6):
    rng = np.random.default_rng(seed)
    matrix = rng.random((8, 4)) * (rng.random((8, 4)) < density)
    matrix[:, 0] += 0.01  # no all-zero rows
    return Reference.from_dm(name, DisaggregationMatrix(matrix, SRC, TGT))


@pytest.fixture
def refs():
    return [_reference(1, "a"), _reference(2, "b"), _reference(3, "c")]


class TestFitValidation:
    def test_requires_references(self):
        with pytest.raises(ValidationError, match="at least one"):
            GeoAlign().fit([], np.ones(8))

    def test_requires_reference_type(self):
        with pytest.raises(ValidationError, match="Reference"):
            GeoAlign().fit([object()], np.ones(8))

    def test_requires_matching_labels(self, refs):
        alien = Reference.from_dm(
            "alien",
            DisaggregationMatrix(np.ones((8, 4)), SRC, ["a", "b", "c", "d"]),
        )
        with pytest.raises(ShapeMismatchError, match="different"):
            GeoAlign().fit(refs + [alien], np.ones(8))

    def test_requires_matching_objective_length(self, refs):
        with pytest.raises(ShapeMismatchError):
            GeoAlign().fit(refs, np.ones(5))

    def test_rejects_negative_objective(self, refs):
        bad = np.ones(8)
        bad[0] = -1
        with pytest.raises(ValidationError, match="non-negative"):
            GeoAlign().fit(refs, bad)

    def test_rejects_zero_objective(self, refs):
        with pytest.raises(ValidationError, match="zero"):
            GeoAlign().fit(refs, np.zeros(8))

    def test_rejects_bad_denominator(self):
        with pytest.raises(ValidationError, match="denominator"):
            GeoAlign(denominator="bananas")

    def test_predict_before_fit(self):
        with pytest.raises(NotFittedError):
            GeoAlign().predict()
        with pytest.raises(NotFittedError):
            GeoAlign().weight_report()


class TestAlgorithm:
    def test_weights_on_simplex(self, refs):
        ga = GeoAlign().fit(refs, refs[0].source_vector * 3)
        assert ga.weights_.sum() == pytest.approx(1.0)
        assert (ga.weights_ >= 0).all()

    def test_exact_recovery_when_objective_is_reference(self, refs):
        """Objective distributed exactly like one reference: the weight
        concentrates there and target estimates are exact."""
        ga = GeoAlign().fit(refs, refs[1].source_vector * 5.0)
        assert ga.weight_report()["b"] > 0.99
        estimate = ga.predict()
        assert np.allclose(
            estimate, refs[1].dm.col_sums() * 5.0, rtol=1e-6
        )

    def test_volume_preservation(self, refs):
        objective = refs[0].source_vector + refs[2].source_vector
        ga = GeoAlign().fit(refs, objective)
        check_volume_preserving(ga.predict_dm(), objective, rtol=1e-9)

    def test_mass_conservation(self, refs):
        objective = refs[0].source_vector * 2 + 1.0
        ga = GeoAlign().fit(refs, objective)
        assert mass_conservation_error(ga.predict_dm(), objective) < 1e-9

    def test_single_reference_equals_dasymetric(self, refs):
        from repro.core.baselines import Dasymetric

        objective = refs[1].source_vector * 0.5 + 3.0
        ga_estimate = GeoAlign().fit_predict([refs[0]], objective)
        dasy_estimate = Dasymetric(refs[0]).fit_predict(objective)
        assert np.allclose(ga_estimate, dasy_estimate)

    def test_scale_invariance_of_weights(self, refs):
        """Scaling the objective leaves the learned weights unchanged."""
        objective = refs[0].source_vector + 0.3 * refs[1].source_vector
        w1 = GeoAlign().fit(refs, objective).weights_
        w2 = GeoAlign().fit(refs, objective * 1000.0).weights_
        assert np.allclose(w1, w2, atol=1e-9)

    def test_reference_scale_invariance(self, refs):
        """Scaling a reference's data leaves predictions unchanged
        (the paper's normalisation rationale)."""
        objective = refs[0].source_vector + refs[1].source_vector
        scaled = Reference(
            refs[1].name,
            refs[1].source_vector * 500.0,
            DisaggregationMatrix(
                refs[1].dm.to_dense() * 500.0, SRC, TGT
            ),
        )
        base = GeoAlign().fit_predict(refs, objective)
        alt = GeoAlign().fit_predict(
            [refs[0], scaled, refs[2]], objective
        )
        assert np.allclose(base, alt, rtol=1e-6)

    def test_prediction_total_matches_source_total(self, refs):
        objective = refs[2].source_vector + 1.0
        estimate = GeoAlign().fit_predict(refs, objective)
        assert estimate.sum() == pytest.approx(objective.sum(), rel=1e-9)

    def test_zero_reference_rows_drop_mass(self):
        """Rows where every reference is zero follow the paper's
        'otherwise 0' branch: their mass cannot be placed."""
        dm = DisaggregationMatrix(
            [[1.0, 0.0], [0.0, 0.0]], ["s0", "s1"], ["t0", "t1"]
        )
        ref = Reference.from_dm("r", dm)
        ga = GeoAlign().fit([ref], [4.0, 6.0])
        estimated = ga.predict_dm()
        assert estimated.row_sums()[1] == 0.0
        assert volume_preservation_error(estimated, [4.0, 6.0]) > 0

    def test_denominator_modes_agree_on_consistent_data(self, refs):
        objective = refs[0].source_vector * 2
        a = GeoAlign(denominator="row-sums").fit_predict(refs, objective)
        b = GeoAlign(denominator="source-vectors").fit_predict(
            refs, objective
        )
        assert np.allclose(a, b, rtol=1e-9)

    def test_denominator_modes_differ_under_noise(self, refs):
        noisy = [
            ref.with_source_vector(ref.source_vector * 1.5)
            for ref in refs
        ]
        objective = refs[0].source_vector
        a = GeoAlign(denominator="row-sums").fit_predict(noisy, objective)
        b = GeoAlign(denominator="source-vectors").fit_predict(
            noisy, objective
        )
        # Uniform inflation cancels in row-sums mode but scales the
        # source-vectors denominator, shrinking every estimate by 1.5.
        assert np.allclose(a, b * 1.5, rtol=1e-9)

    def test_unnormalized_mode_runs(self, refs):
        objective = refs[0].source_vector
        estimate = GeoAlign(normalize=False).fit_predict(refs, objective)
        assert estimate.shape == (4,)

    def test_fit_predict_emits_stage_spans(self, refs, capture_trace):
        with capture_trace() as session:
            ga = GeoAlign().fit(refs, refs[0].source_vector)
            ga.predict()
        stages = {
            name for name in session.span_names() if name.startswith("stage.")
        }
        assert stages == {
            "stage.weights",
            "stage.disaggregation",
            "stage.reaggregation",
        }

    def test_predict_dm_is_cached(self, refs):
        ga = GeoAlign().fit(refs, refs[0].source_vector)
        assert ga.predict_dm() is ga.predict_dm()

    def test_refit_clears_cache(self, refs):
        ga = GeoAlign()
        first = ga.fit(refs, refs[0].source_vector).predict_dm()
        second = ga.fit(refs, refs[1].source_vector).predict_dm()
        assert first is not second

    def test_refit_resets_blend_weights(self, refs):
        """Regression: fit() must drop blend_weights_ from a previous
        predict_dm(), not leave the stale Eq. 14 coefficients behind."""
        ga = GeoAlign()
        ga.fit(refs, refs[0].source_vector).predict_dm()
        stale = ga.blend_weights_.copy()
        ga.fit(refs[:2], refs[1].source_vector * 2.0)
        assert ga.blend_weights_ is None
        ga.predict_dm()
        fresh = GeoAlign().fit(refs[:2], refs[1].source_vector * 2.0)
        fresh.predict_dm()
        np.testing.assert_allclose(ga.blend_weights_, fresh.blend_weights_)
        assert ga.blend_weights_.shape != stale.shape

    def test_repr_shows_state(self, refs):
        ga = GeoAlign()
        assert "unfitted" in repr(ga)
        ga.fit(refs, refs[0].source_vector)
        assert "fitted" in repr(ga)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_volume_preservation_property(self, seed):
        """Random references + random positive objective: Eq. 16 holds
        wherever the blended row is non-empty."""
        rng = np.random.default_rng(seed)
        n_refs = int(rng.integers(1, 5))
        refs = [
            _reference(int(rng.integers(1e9)), f"r{k}")
            for k in range(n_refs)
        ]
        objective = rng.random(8) * 10 + 0.1
        ga = GeoAlign().fit(refs, objective)
        dm = ga.predict_dm()
        rows = dm.row_sums()
        blended_rows = blend(
            [r.dm for r in refs], ga.weights_
        ).row_sums()
        occupied = blended_rows > 0
        assert np.allclose(rows[occupied], objective[occupied], rtol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_estimates_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        refs = [_reference(int(rng.integers(1e9)), "x")]
        objective = rng.random(8) + 0.01
        estimate = GeoAlign().fit_predict(refs, objective)
        assert (estimate >= -1e-12).all()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0.1, 100.0))
    def test_prediction_scales_linearly_with_objective(self, seed, factor):
        """With fixed weights structure, doubling the objective doubles
        the estimates (homogeneity of the crosswalk)."""
        rng = np.random.default_rng(seed)
        refs = [
            _reference(int(rng.integers(1e9)), "p"),
            _reference(int(rng.integers(1e9)), "q"),
        ]
        objective = rng.random(8) + 0.05
        base = GeoAlign().fit_predict(refs, objective)
        scaled = GeoAlign().fit_predict(refs, objective * factor)
        assert np.allclose(scaled, base * factor, rtol=1e-7)
