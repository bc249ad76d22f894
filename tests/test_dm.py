"""Tests for the labelled sparse DisaggregationMatrix."""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from repro.errors import ShapeMismatchError, ValidationError
from repro.partitions.dm import DisaggregationMatrix
from tests.dm_oracles import blend

SRC = ["s0", "s1", "s2"]
TGT = ["t0", "t1"]
LABELS = st.text(st.sampled_from("ab\x1f"), max_size=3)


@st.composite
def random_dms(draw):
    seed = draw(st.integers(0, 100_000))
    rng = np.random.default_rng(seed)
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 8))
    matrix = rng.random((m, n)) * (rng.random((m, n)) < 0.6)
    src = [f"s{i}" for i in range(m)]
    tgt = [f"t{j}" for j in range(n)]
    return DisaggregationMatrix(matrix, src, tgt)


class TestConstruction:
    def test_from_dense(self, small_dm):
        assert small_dm.shape == (3, 2)
        assert small_dm.nnz == 4

    def test_labels_must_match_shape(self):
        with pytest.raises(ShapeMismatchError):
            DisaggregationMatrix(np.ones((2, 2)), SRC, TGT)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="non-negative"):
            DisaggregationMatrix([[1.0, -2.0]], ["s"], TGT)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="non-finite"):
            DisaggregationMatrix([[1.0, float("nan")]], ["s"], TGT)

    def test_from_pairs_sums_duplicates(self):
        dm = DisaggregationMatrix.from_pairs(
            [0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0], SRC, TGT
        )
        assert dm.to_dense()[0, 0] == 3.0
        assert dm.to_dense()[1, 1] == 5.0

    def test_zeros(self):
        dm = DisaggregationMatrix.zeros(SRC, TGT)
        assert dm.nnz == 0
        assert dm.total() == 0.0

    def test_wrapping_a_csr_with_an_explicit_zero_leaves_it_untouched(self):
        # A float CSR is adopted without a copy; dropping its explicit
        # zero in place would compact the caller's buffers.
        caller = sparse.csr_matrix(
            (
                np.array([1.0, 0.0, 2.0, 3.0]),
                np.array([0, 1, 1, 0]),
                np.array([0, 2, 3, 4]),
            ),
            shape=(3, 2),
        )
        before = [
            getattr(caller, name).copy()
            for name in ("data", "indices", "indptr")
        ]
        dm = DisaggregationMatrix(caller, SRC, TGT)
        assert dm.nnz == 3
        np.testing.assert_array_equal(dm.to_dense(), [[1, 0], [0, 2], [3, 0]])
        for name, original in zip(("data", "indices", "indptr"), before):
            after = getattr(caller, name)
            assert after.dtype == original.dtype, name
            assert after.tobytes() == original.tobytes(), name


class TestSums:
    def test_row_and_col_sums(self, small_dm):
        assert np.allclose(small_dm.row_sums(), [2.0, 4.0, 4.0])
        assert np.allclose(small_dm.col_sums(), [3.0, 7.0])

    def test_total_consistency(self, small_dm):
        assert small_dm.total() == pytest.approx(
            small_dm.row_sums().sum()
        )
        assert small_dm.total() == pytest.approx(
            small_dm.col_sums().sum()
        )

    @settings(max_examples=30, deadline=None)
    @given(random_dms())
    def test_sum_identities_hold(self, dm):
        assert dm.row_sums().sum() == pytest.approx(dm.total())
        assert dm.col_sums().sum() == pytest.approx(dm.total())

    def test_col_sums_are_memoised_read_only(self, small_dm):
        sums = small_dm.col_sums()
        assert small_dm.col_sums() is sums
        assert not sums.flags.writeable
        with pytest.raises(ValueError):
            sums[0] = 1.0


class TestSameLabels:
    def test_equal_labels_compare_once(self, count_reference_memos):
        compared, _ = count_reference_memos()
        dms = [
            DisaggregationMatrix(np.eye(3, 2) * (i + 1), SRC, TGT)
            for i in range(4)
        ]
        for left in dms:
            for right in dms:
                assert left.same_labels(right)
        assert len(compared) == len(dms) - 1
        clones = pickle.loads(pickle.dumps(dms))
        assert all(clone.same_labels(clones[0]) for clone in clones)
        assert len(compared) == len(dms) - 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(LABELS, min_size=1, max_size=4),
        st.lists(LABELS, min_size=1, max_size=4),
    )
    @example(["a\x1fb", "c"], ["a", "b\x1fc"])
    def test_equal_exactly_when_the_labels_are(self, left, right):
        """A small alphabet with ``"\\x1f"`` in it makes equal lists,
        and unequal lists that join alike, common.  A failed check joins
        nothing, so it fails again."""

        def dm(source):
            return DisaggregationMatrix(
                np.ones((len(source), 1)), source, ["t"]
            )

        first, second = dm(left), dm(right)
        for _ in range(2):
            assert first.same_labels(second) == (left == right)
            assert second.same_labels(first) == (left == right)


class TestLinearArrays:
    def test_built_once_and_read_only(self, small_dm, count_dm_builds):
        built = count_dm_builds()
        row_sums, operator = small_dm.linear_arrays()
        assert small_dm.linear_arrays()[0] is row_sums
        assert small_dm.linear_arrays()[1] is operator
        assert built == [small_dm.matrix]
        assert not small_dm.build_linear_arrays()
        assert not row_sums.flags.writeable
        np.testing.assert_array_equal(row_sums, small_dm.row_sums())
        np.testing.assert_array_equal(
            operator.toarray(), small_dm.to_dense().T
        )
        assert operator.data is small_dm.matrix.data
        assert operator.row is small_dm.matrix.indices

    def test_pickle_keeps_the_built_arrays(self, small_dm, count_dm_builds):
        small_dm.col_sums()
        row_sums, operator = small_dm.linear_arrays()
        clone = pickle.loads(pickle.dumps(small_dm))
        built = count_dm_builds()
        clone_rows, clone_operator = clone.linear_arrays()
        assert built == []
        assert clone_rows.tobytes() == row_sums.tobytes()
        assert clone_operator.data is clone.matrix.data
        assert clone.col_sums().tobytes() == small_dm.col_sums().tobytes()
        assert clone.fingerprint() == small_dm.fingerprint()

    def test_unbuilt_copy_builds_under_its_own_lock(self, count_dm_builds):
        dm = DisaggregationMatrix([[1.0, 0.0], [2.0, 3.0]], SRC[:2], TGT)
        clone = pickle.loads(pickle.dumps(dm))
        built = count_dm_builds()
        assert clone.build_linear_arrays()
        assert built == [clone.matrix]
        assert dm.build_linear_arrays()
        assert len(built) == 2


class TestAlgebra:
    def test_blend_weights(self, small_dm):
        other = DisaggregationMatrix(
            [[0.0, 2.0], [2.0, 0.0], [1.0, 1.0]], SRC, TGT
        )
        blended = blend(
            [small_dm, other], [0.25, 0.75]
        )
        expected = 0.25 * small_dm.to_dense() + 0.75 * other.to_dense()
        assert np.allclose(blended.to_dense(), expected)

    def test_blend_requires_same_labels(self, small_dm):
        other = DisaggregationMatrix(
            np.ones((3, 2)), SRC, ["x", "y"]
        )
        with pytest.raises(ShapeMismatchError):
            blend([small_dm, other], [0.5, 0.5])

    def test_blend_empty_rejected(self):
        with pytest.raises(ValidationError):
            blend([], [])

    def test_blend_weight_count_mismatch(self, small_dm):
        with pytest.raises(ShapeMismatchError):
            blend([small_dm], [0.5, 0.5])

    def test_rescale_rows_hits_new_totals(self, small_dm):
        new_totals = np.array([10.0, 20.0, 30.0])
        rescaled = small_dm.rescale_rows(new_totals)
        assert np.allclose(rescaled.row_sums(), new_totals)

    def test_rescale_rows_zero_denominator_zeroes_row(self):
        dm = DisaggregationMatrix([[0.0, 0.0], [1.0, 1.0]], ["a", "b"], TGT)
        rescaled = dm.rescale_rows([5.0, 8.0])
        assert rescaled.row_sums()[0] == 0.0  # nothing to scale up
        assert rescaled.row_sums()[1] == pytest.approx(8.0)

    def test_rescale_rows_custom_denominator(self, small_dm):
        rescaled = small_dm.rescale_rows(
            [1.0, 1.0, 1.0], denominators=[2.0, 4.0, 4.0]
        )
        assert np.allclose(rescaled.row_sums(), [1.0, 1.0, 1.0])

    def test_rescale_rows_shape_check(self, small_dm):
        with pytest.raises(ShapeMismatchError):
            small_dm.rescale_rows([1.0, 2.0])
        with pytest.raises(ShapeMismatchError):
            small_dm.rescale_rows(
                [1.0, 2.0, 3.0], denominators=[1.0]
            )

    def test_row_shares_are_stochastic(self, small_dm):
        shares = small_dm.row_shares()
        assert np.allclose(shares.row_sums(), 1.0)

    def test_transposed(self, small_dm):
        t = small_dm.transposed()
        assert t.shape == (2, 3)
        assert t.source_labels == TGT
        assert np.allclose(t.to_dense(), small_dm.to_dense().T)

    def test_allclose(self, small_dm):
        assert small_dm.allclose(small_dm)
        bumped = DisaggregationMatrix(
            small_dm.to_dense() + 1e-15, SRC, TGT
        )
        assert small_dm.allclose(bumped)
        different = DisaggregationMatrix(
            small_dm.to_dense() * 2.0, SRC, TGT
        )
        assert not small_dm.allclose(different)

    @settings(max_examples=30, deadline=None)
    @given(random_dms(), st.floats(0.1, 10.0))
    def test_rescale_preserves_shares(self, dm, scale):
        """Rescaling rows never changes within-row proportions."""
        totals = dm.row_sums() * scale
        rescaled = dm.rescale_rows(totals)
        original = dm.to_dense()
        new = rescaled.to_dense()
        for i in range(dm.shape[0]):
            if original[i].sum() > 0:
                assert np.allclose(
                    new[i] / max(new[i].sum(), 1e-300),
                    original[i] / original[i].sum(),
                    atol=1e-9,
                )
