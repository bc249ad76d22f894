"""Tests for error metrics and the cross-validation harness."""

import numpy as np
import pytest

from repro import DisaggregationMatrix, GeoAlign, Reference
from repro.errors import ShapeMismatchError, ValidationError
from repro.metrics import (
    leave_one_dataset_out,
    mae,
    mean_absolute_percentage_error,
    nrmse,
    pearson_correlation,
    rmse,
)


class TestErrorMetrics:
    def test_rmse_zero_for_identical(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_rmse_known_value(self):
        assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(
            np.sqrt(12.5)
        )

    def test_nrmse_normalises_by_actual_mean(self):
        assert nrmse([0.0, 0.0], [4.0, 4.0]) == pytest.approx(1.0)

    def test_nrmse_scale_invariant(self):
        a = np.array([1.0, 3.0, 5.0])
        b = np.array([2.0, 2.0, 4.0])
        assert nrmse(a, b) == pytest.approx(nrmse(a * 10, b * 10))

    def test_nrmse_rejects_zero_mean(self):
        with pytest.raises(ValidationError, match="zero mean"):
            nrmse([1.0], [0.0])

    def test_mae(self):
        assert mae([0.0, 2.0], [1.0, 0.0]) == pytest.approx(1.5)

    def test_mape_skips_zero_actuals(self):
        value = mean_absolute_percentage_error(
            [2.0, 5.0], [1.0, 0.0]
        )
        assert value == pytest.approx(1.0)

    def test_mape_all_zero_rejected(self):
        with pytest.raises(ValidationError):
            mean_absolute_percentage_error([1.0], [0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            rmse([1.0], [1.0, 2.0])

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            rmse([float("nan")], [1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            rmse([], [])

    def test_pearson_basics(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson_correlation(x, 2 * x) == pytest.approx(1.0)
        assert pearson_correlation(x, -x) == pytest.approx(-1.0)
        assert pearson_correlation(x, np.ones(3)) == 0.0


def _pool(n_datasets=4, n_src=12, n_tgt=3, seed=0):
    rng = np.random.default_rng(seed)
    src = [f"s{i}" for i in range(n_src)]
    tgt = [f"t{j}" for j in range(n_tgt)]
    refs = []
    for k in range(n_datasets):
        matrix = rng.random((n_src, n_tgt)) * (
            rng.random((n_src, n_tgt)) < 0.7
        )
        matrix[:, 0] += 0.05
        refs.append(
            Reference.from_dm(
                f"ds{k}", DisaggregationMatrix(matrix, src, tgt)
            )
        )
    return refs


class TestCrossValidation:
    def test_scores_every_fold(self):
        refs = _pool()
        result = leave_one_dataset_out(refs)
        geoalign_scores = [
            s for s in result.scores if s.method == "GeoAlign"
        ]
        assert len(geoalign_scores) == len(refs)
        assert result.datasets() == [r.name for r in refs]

    def test_dasymetric_skips_own_fold(self):
        refs = _pool()
        result = leave_one_dataset_out(
            refs, dasymetric_reference_names=["ds0"]
        )
        ds0_scores = [
            s for s in result.scores if s.method == "dasymetric[ds0]"
        ]
        assert {s.dataset for s in ds0_scores} == {
            "ds1",
            "ds2",
            "ds3",
        }

    def test_areal_reference_included(self):
        refs = _pool()
        area = refs[0].dm.row_shares()
        area_ref = Reference("area", area.row_sums(), area)
        result = leave_one_dataset_out(refs, areal_reference=area_ref)
        assert "areal-weighting" in result.methods()

    def test_unknown_dasymetric_name_rejected(self):
        with pytest.raises(ValidationError, match="not in the dataset"):
            leave_one_dataset_out(
                _pool(), dasymetric_reference_names=["missing"]
            )

    def test_needs_two_datasets(self):
        with pytest.raises(ValidationError, match="at least two"):
            leave_one_dataset_out(_pool(n_datasets=1))

    def test_duplicate_names_rejected(self):
        refs = _pool(2)
        clone = Reference.from_dm(refs[0].name, refs[1].dm)
        with pytest.raises(ValidationError, match="unique"):
            leave_one_dataset_out([refs[0], clone])

    def test_reference_selector_hook(self):
        refs = _pool()
        chosen = []

        def selector(test, pool):
            chosen.append(test.name)
            return pool[:1]

        leave_one_dataset_out(refs, reference_selector=selector)
        assert chosen == [r.name for r in refs]

    def test_empty_selector_rejected(self):
        refs = _pool()
        with pytest.raises(ValidationError, match="no references"):
            leave_one_dataset_out(
                refs, reference_selector=lambda t, p: []
            )

    def test_score_lookup_and_table(self):
        refs = _pool()
        result = leave_one_dataset_out(refs)
        score = result.score_for("ds1", "GeoAlign")
        assert score.nrmse >= 0
        table = result.nrmse_table()
        assert table["ds1"]["GeoAlign"] == score.nrmse
        with pytest.raises(KeyError):
            result.score_for("ds1", "nope")

    def test_to_text_contains_all(self):
        refs = _pool()
        text = leave_one_dataset_out(refs).to_text()
        for ref in refs:
            assert ref.name in text
        assert "GeoAlign" in text

    def test_one_call_builds_each_operator_once(self, count_dm_builds):
        """Every fold weights k-1 of the same k DMs, and each DM builds
        its ``R`` row and operator once for all of them.  The scores of
        a cold call, a warm one and a call on fresh DM copies agree bit
        for bit, for GeoAlign and the dasymetric baseline alike."""
        refs = _pool(n_datasets=5)
        built = count_dm_builds()
        cold = leave_one_dataset_out(refs, dasymetric_reference_names=["ds0"])
        assert 0 < len(built) <= len(refs)
        assert len({id(matrix) for matrix in built}) == len(built)
        del built[:]
        warm = leave_one_dataset_out(refs, dasymetric_reference_names=["ds0"])
        assert built == []
        copies = [
            Reference(
                ref.name,
                ref.source_vector,
                DisaggregationMatrix(
                    ref.dm.matrix.copy(),
                    ref.dm.source_labels,
                    ref.dm.target_labels,
                ),
            )
            for ref in refs
        ]
        fresh = leave_one_dataset_out(
            copies, dasymetric_reference_names=["ds0"]
        )

        def bits(result):
            return [
                (s.method, s.dataset, s.rmse.hex(), s.nrmse.hex())
                for s in result.scores
            ]

        assert bits(cold) == bits(warm) == bits(fresh)
        assert len(cold.scores) == 2 * len(refs) - 1

    def test_one_call_compares_and_normalises_each_reference_once(
        self, count_reference_memos
    ):
        """Every fold stacks k-1 of the same k references: the k DMs
        compare their labels k-1 times in all, joining one label class,
        and each reference normalises its source vector once for all
        folds.  A second call does neither again."""
        refs = _pool(n_datasets=5)
        compared, normalised = count_reference_memos()
        leave_one_dataset_out(refs, dasymetric_reference_names=["ds0"])
        assert len(compared) == len(refs) - 1
        assert {id(dm) for pair in compared for dm in pair} == {
            id(ref.dm) for ref in refs
        }
        assert sorted(map(id, normalised)) == sorted(
            id(ref.source_vector) for ref in refs
        )
        leave_one_dataset_out(refs, dasymetric_reference_names=["ds0"])
        assert len(compared) == len(refs) - 1
        assert len(normalised) == len(refs)

    def test_scores_equal_the_metric_functions(self):
        refs = _pool()
        result = leave_one_dataset_out(refs)
        for score in result.scores:
            test = next(r for r in refs if r.name == score.dataset)
            estimate = GeoAlign().fit_predict(
                [r for r in refs if r is not test], test.source_vector
            )
            truth = test.dm.col_sums()
            assert score.rmse == rmse(estimate, truth)
            assert score.nrmse == nrmse(estimate, truth)

    def test_self_consistent_fold_near_perfect(self):
        """A dataset identical to another gets crosswalked ~exactly."""
        refs = _pool(3)
        twin_dm = DisaggregationMatrix(
            refs[0].dm.to_dense() * 2.0,
            refs[0].dm.source_labels,
            refs[0].dm.target_labels,
        )
        twin = Reference.from_dm("twin", twin_dm)
        result = leave_one_dataset_out(refs + [twin])
        assert result.score_for("twin", "GeoAlign").nrmse < 1e-6
