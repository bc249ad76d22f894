"""Tests for the areal weighting and dasymetric baselines."""

import numpy as np
import pytest

from repro import (
    ArealWeighting,
    Dasymetric,
    DisaggregationMatrix,
    Reference,
    build_intersection,
)
from repro.errors import (
    NotFittedError,
    ShapeMismatchError,
    ValidationError,
)
from repro.intervals import IntervalUnitSystem

SRC = ["s0", "s1", "s2"]
TGT = ["t0", "t1"]


@pytest.fixture
def population_ref():
    dm = DisaggregationMatrix(
        [[10.0, 0.0], [6.0, 4.0], [0.0, 20.0]], SRC, TGT
    )
    return Reference.from_dm("population", dm)


class TestDasymetric:
    def test_redistributes_by_reference_shares(self, population_ref):
        estimate = Dasymetric(population_ref).fit_predict(
            [100.0, 50.0, 200.0]
        )
        # s0 -> t0 fully; s1 60/40; s2 -> t1 fully.
        assert np.allclose(estimate, [100 + 30, 20 + 200])

    def test_volume_preserving_dm(self, population_ref):
        method = Dasymetric(population_ref).fit([100.0, 50.0, 200.0])
        dm = method.predict_dm()
        assert np.allclose(dm.row_sums(), [100.0, 50.0, 200.0])

    def test_zero_reference_row_drops_mass(self):
        dm = DisaggregationMatrix(
            [[1.0, 1.0], [0.0, 0.0], [0.0, 5.0]], SRC, TGT
        )
        ref = Reference("r", [2.0, 0.0, 5.0], dm)
        estimate = Dasymetric(ref).fit_predict([10.0, 99.0, 10.0])
        assert estimate.sum() == pytest.approx(20.0)  # s1's 99 dropped

    def test_requires_reference_type(self):
        with pytest.raises(ValidationError):
            Dasymetric("population")

    def test_shape_mismatch(self, population_ref):
        with pytest.raises(ShapeMismatchError):
            Dasymetric(population_ref).fit([1.0, 2.0])

    def test_predict_before_fit(self, population_ref):
        with pytest.raises(NotFittedError):
            Dasymetric(population_ref).predict()

    def test_name(self, population_ref):
        assert Dasymetric(population_ref).name == "dasymetric[population]"

    def test_exact_when_objective_follows_reference(self, population_ref):
        """If the objective is a multiple of the reference, dasymetric
        is exact."""
        objective = population_ref.source_vector * 7.0
        estimate = Dasymetric(population_ref).fit_predict(objective)
        assert np.allclose(estimate, population_ref.dm.col_sums() * 7.0)


class TestArealWeighting:
    def test_homogeneous_case_exact(self):
        """Uniformly distributed attribute: areal weighting is exact."""
        narrow = IntervalUnitSystem.uniform(0, 12, 6)
        wide = IntervalUnitSystem([0, 5, 12])
        overlay = build_intersection(narrow, wide)
        # Mass proportional to bin width (perfectly homogeneous).
        objective = narrow.measures() * 3.0
        estimate = ArealWeighting(overlay).fit_predict(objective)
        assert np.allclose(estimate, wide.measures() * 3.0)

    def test_name(self):
        narrow = IntervalUnitSystem.uniform(0, 10, 5)
        wide = IntervalUnitSystem([0, 4, 10])
        overlay = build_intersection(narrow, wide)
        assert ArealWeighting(overlay).name == "areal-weighting"

    def test_errs_on_concentrated_mass(self):
        """Mass concentrated at bin edges: areal weighting misallocates."""
        narrow = IntervalUnitSystem([0, 4, 8])
        wide = IntervalUnitSystem([0, 2, 8])
        overlay = build_intersection(narrow, wide)
        # All of source bin 0's mass is near x=0 in reality, so the true
        # wide-bin totals are [10, 0]; areal weighting says [5, 5].
        estimate = ArealWeighting(overlay).fit_predict([10.0, 0.0])
        assert np.allclose(estimate, [5.0, 5.0])

