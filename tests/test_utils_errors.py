"""Tests for utils (rng, arrays), errors and Reference."""

import numpy as np
import pytest

from repro import DisaggregationMatrix, Reference
from repro.core.validation import (
    check_volume_preserving,
    mass_conservation_error,
    reference_consistency_error,
    volume_preservation_error,
)
from repro.errors import (
    CrosswalkError,
    GeometryError,
    NotFittedError,
    PartitionError,
    ReproError,
    ShapeMismatchError,
    SolverError,
    ValidationError,
)
from repro.utils import (
    as_float_vector,
    as_nonnegative_vector,
    as_rng,
    check_finite,
    is_zero,
    spawn_rngs,
)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            ValidationError,
            PartitionError,
            ShapeMismatchError,
            GeometryError,
            SolverError,
            NotFittedError,
            CrosswalkError,
        ):
            assert issubclass(exc, ReproError)

    def test_validation_errors_are_value_errors(self):
        assert issubclass(ValidationError, ValueError)
        assert issubclass(PartitionError, ValidationError)

    def test_not_fitted_is_runtime_error(self):
        assert issubclass(NotFittedError, RuntimeError)


class TestRng:
    def test_int_seed_reproducible(self):
        assert as_rng(5).random() == as_rng(5).random()

    def test_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_rng(gen) is gen

    def test_none_gives_fresh(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_spawn_independent_streams(self):
        a, b = spawn_rngs(7, 2)
        assert a.random() != b.random()

    def test_spawn_reproducible(self):
        first = [g.random() for g in spawn_rngs(9, 3)]
        second = [g.random() for g in spawn_rngs(9, 3)]
        assert first == second

    def test_spawn_from_generator(self):
        children = spawn_rngs(np.random.default_rng(1), 2)
        assert len(children) == 2

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestArrays:
    def test_as_float_vector(self):
        arr = as_float_vector([1, 2, 3])
        assert arr.dtype == float and arr.shape == (3,)

    def test_scalar_rejected(self):
        with pytest.raises(ValidationError, match="scalar"):
            as_float_vector(3.0)

    def test_matrix_rejected(self):
        with pytest.raises(ValidationError, match="1-dimensional"):
            as_float_vector(np.ones((2, 2)))

    def test_check_finite(self):
        with pytest.raises(ValidationError, match="non-finite"):
            check_finite(np.array([1.0, np.inf]))

    def test_nonnegative(self):
        with pytest.raises(ValidationError, match="non-negative"):
            as_nonnegative_vector([1.0, -0.5])
        assert (as_nonnegative_vector([0.0, 1.0]) >= 0).all()

    @pytest.mark.parametrize("atol", [1e-12, 0.0, 1e-9])
    def test_is_zero_scalars_agree_with_isclose(self, atol):
        """Float scalars skip ``np.isclose``; the answer is its answer,
        as a plain ``bool``."""
        values = [0.0, -0.0, 5e-13, -5e-13, 1e-12, -1e-12, 1e-9, 5e-324,
                  np.inf, -np.inf, np.nan, np.float64(3e-13), 2.0]
        for value in values:
            got = is_zero(value, atol=atol)
            assert type(got) is bool
            assert got == bool(np.isclose(value, 0.0, rtol=0.0, atol=atol))
        np.testing.assert_array_equal(
            is_zero(np.array(values), atol=atol),
            np.isclose(values, 0.0, rtol=0.0, atol=atol),
        )


class TestReference:
    def test_from_dm_source_vector_is_row_sums(self, small_dm):
        ref = Reference.from_dm("x", small_dm)
        assert np.allclose(ref.source_vector, small_dm.row_sums())
        assert np.allclose(ref.target_vector, small_dm.col_sums())

    def test_rejects_non_dm(self):
        with pytest.raises(ValidationError, match="DisaggregationMatrix"):
            Reference("x", [1.0], dm=np.ones((1, 1)))

    def test_rejects_length_mismatch(self, small_dm):
        with pytest.raises(ShapeMismatchError):
            Reference("x", [1.0], small_dm)

    def test_rejects_zero_vector(self, small_dm):
        with pytest.raises(ValidationError, match="zero"):
            Reference("x", [0.0, 0.0, 0.0], small_dm)

    def test_normalized_source_peaks_at_one(self, small_dm):
        ref = Reference.from_dm("x", small_dm)
        assert ref.normalized_source().max() == pytest.approx(1.0)

    def test_with_source_vector(self, small_dm):
        ref = Reference.from_dm("x", small_dm)
        bumped = ref.with_source_vector(ref.source_vector * 2)
        assert bumped.dm is ref.dm
        assert np.allclose(
            bumped.source_vector, ref.source_vector * 2
        )

    def test_correlation_with(self, small_dm):
        ref = Reference.from_dm("x", small_dm)
        assert ref.correlation_with(
            ref.source_vector
        ) == pytest.approx(1.0)
        assert ref.correlation_with(np.ones(3)) == 0.0
        with pytest.raises(ShapeMismatchError):
            ref.correlation_with(np.ones(2))


class TestValidationHelpers:
    def test_volume_preservation_error_zero_when_exact(self, small_dm):
        assert volume_preservation_error(
            small_dm, small_dm.row_sums()
        ) == 0.0

    def test_volume_preservation_detects_gap(self, small_dm):
        wrong = small_dm.row_sums() + 1.0
        assert volume_preservation_error(small_dm, wrong) > 0
        with pytest.raises(ValidationError, match="violated"):
            check_volume_preserving(small_dm, wrong)

    def test_mass_conservation(self, small_dm):
        assert mass_conservation_error(
            small_dm, small_dm.row_sums()
        ) == pytest.approx(0.0)
        assert mass_conservation_error(
            small_dm, small_dm.row_sums() * 2
        ) == pytest.approx(0.5)

    def test_reference_consistency(self, small_dm):
        good = Reference.from_dm("x", small_dm)
        assert reference_consistency_error(good) == 0.0
        noisy = good.with_source_vector(good.source_vector * 1.5)
        assert reference_consistency_error(noisy) > 0
