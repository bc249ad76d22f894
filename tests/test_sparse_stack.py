"""Property-based tests (hypothesis) pinning the sparse kernels.

Every :class:`~repro.core.sparse_stack.SparseDMStack` kernel --
``blend`` (Eq. 14), ``row_sums`` / ``scale_rows_inplace`` (Eq. 16),
``reaggregate`` (Eq. 17) -- and the linear-predict pair the
:class:`~repro.core.batch.ReferenceStack` owns, ``ref_row_sums`` /
``rescaled_totals`` (Eq. 16/17), must match the dense oracle computed
from the raw reference matrices to 1e-12, in every storage mode, across
random union patterns that include empty rows, single-entry rows and
fully dense matrices.  The oracle is recomputed here from scratch (no
stack code on the oracle side), so a kernel bug cannot cancel out.
"""

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.core.batch import BatchAligner, ReferenceStack
from repro.core.reference import Reference
from repro.core.sparse_stack import (
    DENSE_DENSITY_THRESHOLD,
    EntrySlice,
    SparseDMStack,
)
from repro.errors import ShapeMismatchError, ValidationError
from repro.partitions.dm import DisaggregationMatrix

TOL = dict(rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def stack_cases(draw):
    """(matrices, m, t, force_dense) covering the pattern spectrum.

    ``style`` steers the union pattern: ``random`` mixes empty and
    single-entry rows, ``aligned`` shares one support across all
    references (the zero-copy fast path), ``full`` is fully dense so
    the density heuristic kicks in.  ``force`` exercises all three
    storage modes on the same data.
    """
    seed = draw(st.integers(0, 10**6))
    rng = np.random.default_rng(seed)
    m = draw(st.integers(1, 10))
    t = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    style = draw(st.sampled_from(["random", "aligned", "full"]))
    force = draw(st.sampled_from([None, True, False]))
    mats = []
    if style == "aligned":
        pattern = rng.random((m, t)) < rng.uniform(0.15, 0.9)
        pattern[rng.integers(m), rng.integers(t)] = True
        for _ in range(k):
            values = np.where(pattern, rng.random((m, t)) + 0.1, 0.0)
            mats.append(sparse.csr_matrix(values))
    elif style == "full":
        for _ in range(k):
            mats.append(sparse.csr_matrix(rng.random((m, t)) + 0.1))
    else:
        for _ in range(k):
            keep = rng.random((m, t)) < rng.uniform(0.1, 0.6)
            mats.append(sparse.csr_matrix(rng.random((m, t)) * keep))
        if not any(mat.nnz for mat in mats):
            mats[0] = sparse.csr_matrix(
                ([1.0], ([rng.integers(m)], [rng.integers(t)])),
                shape=(m, t),
            )
    return mats, m, t, force


def reference_stack(mats, m, t, dense=None):
    """A :class:`ReferenceStack` over the raw matrices as reference DMs."""
    source_labels = [f"s{i}" for i in range(m)]
    target_labels = [f"t{j}" for j in range(t)]
    references = []
    for i, mat in enumerate(mats):
        dm = DisaggregationMatrix(mat, source_labels, target_labels)
        references.append(Reference(f"r{i}", dm.row_sums() + 1.0, dm))
    return ReferenceStack(references, dense=dense)


def oracle_values(stack, mats):
    """Dense (k, nnz) union values straight from the raw matrices."""
    out = np.zeros((len(mats), stack.nnz))
    for i, mat in enumerate(mats):
        dense = np.asarray(mat.todense())
        out[i] = dense[stack.entry_rows, stack.entry_cols]
    return out


# ---------------------------------------------------------------------------
# kernels == dense oracle
# ---------------------------------------------------------------------------


class TestKernelsMatchDenseOracle:
    @settings(max_examples=60, deadline=None)
    @given(stack_cases(), st.integers(0, 10**6))
    def test_union_pattern_and_values(self, case, seed):
        mats, m, t, force = case
        stack = SparseDMStack.from_matrices(mats, m, t, dense=force)
        expected = {
            (int(r), int(c))
            for mat in mats
            for r, c in zip(*mat.nonzero())
        }
        got = set(
            zip(stack.entry_rows.tolist(), stack.entry_cols.tolist())
        )
        assert got == expected
        # CSR (row-major) ordering of the union entries.
        keys = stack.entry_rows * t + stack.entry_cols
        assert np.all(np.diff(keys) > 0) or stack.nnz <= 1
        np.testing.assert_array_equal(
            stack.values, oracle_values(stack, mats)
        )

    @settings(max_examples=60, deadline=None)
    @given(stack_cases(), st.integers(0, 10**6))
    def test_blend(self, case, seed):
        mats, m, t, force = case
        stack = SparseDMStack.from_matrices(mats, m, t, dense=force)
        rng = np.random.default_rng(seed)
        weights = rng.random((3, len(mats)))
        oracle = weights @ oracle_values(stack, mats)
        np.testing.assert_allclose(stack.blend(weights), oracle, **TOL)

    @settings(max_examples=60, deadline=None)
    @given(stack_cases(), st.integers(0, 10**6))
    def test_row_sums(self, case, seed):
        mats, m, t, force = case
        stack = SparseDMStack.from_matrices(mats, m, t, dense=force)
        rng = np.random.default_rng(seed)
        entry_values = rng.random((3, stack.nnz))
        oracle = np.zeros((3, m))
        np.add.at(oracle, (slice(None), stack.entry_rows), entry_values)
        np.testing.assert_allclose(
            stack.row_sums(entry_values), oracle, **TOL
        )

    @settings(max_examples=60, deadline=None)
    @given(stack_cases(), st.integers(0, 10**6))
    def test_scale_rows_inplace(self, case, seed):
        mats, m, t, force = case
        stack = SparseDMStack.from_matrices(mats, m, t, dense=force)
        rng = np.random.default_rng(seed)
        entry_values = rng.random((3, stack.nnz))
        factors = rng.random((3, m)) + 0.5
        oracle = entry_values * factors[:, stack.entry_rows]
        result = stack.scale_rows_inplace(entry_values, factors)
        assert result is entry_values  # in place is the contract
        np.testing.assert_allclose(result, oracle, **TOL)

    @settings(max_examples=60, deadline=None)
    @given(stack_cases(), st.integers(0, 10**6))
    def test_reaggregate(self, case, seed):
        mats, m, t, force = case
        stack = SparseDMStack.from_matrices(mats, m, t, dense=force)
        rng = np.random.default_rng(seed)
        entry_values = rng.random((3, stack.nnz))
        oracle = np.zeros((3, t))
        np.add.at(oracle, (slice(None), stack.entry_cols), entry_values)
        np.testing.assert_allclose(
            stack.reaggregate(entry_values), oracle, **TOL
        )

    @settings(max_examples=60, deadline=None)
    @given(
        stack_cases(),
        st.integers(0, 10**6),
        st.integers(1, 4),
        st.sampled_from([0.0, 0.4, 1.0]),
    )
    def test_ref_row_sums_and_rescaled_totals(
        self, case, seed, n, zero_share
    ):
        """The reference stack's R and Eq. 16/17 kernel against blend ->
        rescale -> column sums on dense matrices, and against the union
        stack's per-entry kernels in the drawn storage mode; zero weights
        leave rows with a zero denominator (all rows when ``zero_share``
        is 1)."""
        mats, m, t, force = case
        stack = reference_stack(mats, m, t, dense=force)
        dense = np.array([np.asarray(mat.todense()) for mat in mats])
        np.testing.assert_allclose(
            stack.ref_row_sums, dense.sum(axis=2), **TOL
        )
        rng = np.random.default_rng(seed)
        weights = rng.random((n, len(mats)))
        weights[rng.random(weights.shape) < zero_share] = 0.0
        objectives = rng.random((n, m)) + 0.1
        blended = np.einsum("ij,jrc->irc", weights, dense)
        denominators = blended.sum(axis=2)
        covered = denominators > 0.0
        factors = np.where(
            covered, objectives / np.where(covered, denominators, 1.0), 0.0
        )
        oracle = (blended * factors[:, :, np.newaxis]).sum(axis=1)
        linear = weights @ stack.ref_row_sums
        np.testing.assert_array_equal(linear > 0.0, covered)
        np.testing.assert_allclose(linear, denominators, **TOL)
        totals = stack.rescaled_totals(weights, factors)
        np.testing.assert_allclose(totals, oracle, **TOL)
        union = stack.dm_stack
        per_entry = union.reaggregate(
            union.scale_rows_inplace(union.blend(weights), factors)
        )
        np.testing.assert_allclose(totals, per_entry, **TOL)

    @settings(max_examples=60, deadline=None)
    @given(stack_cases(), st.integers(0, 10**6))
    def test_entry_mass_and_ref_entry_values(self, case, seed):
        mats, m, t, force = case
        stack = SparseDMStack.from_matrices(mats, m, t, dense=force)
        oracle = oracle_values(stack, mats)
        np.testing.assert_allclose(
            stack.entry_mass(), oracle.sum(axis=0), **TOL
        )
        for i in range(len(mats)):
            values, positions = stack.ref_entry_values(i)
            rebuilt = np.zeros(stack.nnz)
            rebuilt[positions] = values
            np.testing.assert_array_equal(rebuilt, oracle[i])


class TestEntrySliceMatchesStack:
    @settings(max_examples=60, deadline=None)
    @given(stack_cases(), st.integers(0, 10**6))
    def test_sliced_blend_equals_blend_slice(self, case, seed):
        mats, m, t, force = case
        stack = SparseDMStack.from_matrices(mats, m, t, dense=force)
        rng = np.random.default_rng(seed)
        keep = rng.random(stack.nnz) < 0.5
        entries = np.flatnonzero(keep).astype(np.int64)
        piece = stack.entry_slice(entries)
        assert isinstance(piece, EntrySlice)
        assert piece.n_entries == len(entries)
        weights = rng.random((2, len(mats)))
        np.testing.assert_allclose(
            piece.blend(weights),
            stack.blend(weights)[:, entries],
            **TOL,
        )


# ---------------------------------------------------------------------------
# mode selection
# ---------------------------------------------------------------------------


def _ring_matrices(k=2, m=6, t=5, seed=7):
    """Unaligned low-density matrices (one rotated entry per row)."""
    rng = np.random.default_rng(seed)
    mats = []
    for r in range(k):
        dense = np.zeros((m, t))
        dense[np.arange(m), (np.arange(m) + r) % t] = rng.random(m) + 0.1
        mats.append(sparse.csr_matrix(dense))
    return mats


class TestModeSelection:
    def test_aligned_pattern_picks_aligned_mode(self):
        rng = np.random.default_rng(0)
        pattern = rng.random((5, 4)) < 0.5
        pattern[0, 0] = True
        mats = [
            sparse.csr_matrix(np.where(pattern, rng.random((5, 4)) + 0.1, 0))
            for _ in range(3)
        ]
        stack = SparseDMStack.from_matrices(mats, 5, 4)
        assert stack.mode == "aligned"
        assert stack.density == 1.0

    def test_low_density_unaligned_picks_sparse(self):
        stack = SparseDMStack.from_matrices(_ring_matrices(), 6, 5)
        assert stack.mode == "sparse"
        assert stack.density <= DENSE_DENSITY_THRESHOLD

    def test_high_density_unaligned_picks_dense(self):
        rng = np.random.default_rng(3)
        mats = [
            sparse.csr_matrix(rng.random((4, 4)) + 0.1),
            sparse.csr_matrix(
                (rng.random((4, 4)) + 0.1)
                * (rng.random((4, 4)) < 0.9)
            ),
        ]
        stack = SparseDMStack.from_matrices(mats, 4, 4)
        assert stack.mode == "dense"

    def test_dense_flag_forces_and_forbids(self):
        mats = _ring_matrices()
        assert SparseDMStack.from_matrices(mats, 6, 5, dense=True).mode == (
            "dense"
        )
        assert SparseDMStack.from_matrices(mats, 6, 5, dense=False).mode == (
            "sparse"
        )

    def test_single_entry_and_empty_rows(self):
        # Row 0 has one entry, rows 1-2 are empty everywhere.
        mat = sparse.csr_matrix(([2.0], ([0], [1])), shape=(3, 3))
        stack = SparseDMStack.from_matrices([mat], 3, 3, dense=False)
        weights = np.array([[1.5]])
        np.testing.assert_array_equal(
            stack.blend(weights), np.array([[3.0]])
        )
        sums = stack.row_sums(np.array([[4.0]]))
        np.testing.assert_array_equal(sums, np.array([[4.0, 0.0, 0.0]]))
        np.testing.assert_array_equal(
            stack.reaggregate(np.array([[4.0]])),
            np.array([[0.0, 4.0, 0.0]]),
        )


def _refuse_densify(monkeypatch):
    """Make every scipy ``toarray``/``todense`` and the stack's dense
    ``values`` view raise, so a path that densifies fails loudly."""

    def refuse(*args, **kwargs):
        raise AssertionError("the sparse path densified")

    public = [getattr(sparse, name) for name in dir(sparse)]
    classes = {
        base
        for cls in public
        if isinstance(cls, type)
        and issubclass(cls, (sparse.spmatrix, sparse.sparray))
        for base in cls.__mro__
    }
    for cls in classes:
        for name in ("toarray", "todense"):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, refuse)
    monkeypatch.setattr(SparseDMStack, "values", property(refuse))


@pytest.mark.parametrize("denominator", ["row-sums", "source-vectors"])
def test_sparse_mode_fit_predict_and_dms_never_densify(
    monkeypatch, denominator
):
    mats = _ring_matrices(k=3, m=8, t=6)
    references = reference_stack(mats, 8, 6).references
    objectives = np.vstack([ref.source_vector for ref in references])
    _refuse_densify(monkeypatch)
    with pytest.raises(AssertionError, match="densified"):
        mats[0].toarray()
    aligner = BatchAligner(denominator=denominator)
    predictions = aligner.fit_predict(references, objectives)
    dms = aligner.predict_dms()
    assert aligner.stack_.dm_stack.mode == "sparse"
    assert np.all(np.isfinite(predictions))
    assert len(dms) == len(objectives)


class TestLinearPredictArrays:
    """``R`` and the operators live on the reference stack, built from
    the reference DMs on first use; the union stack only on demand."""

    @pytest.mark.parametrize("aligned", [False, True])
    def test_resident_bytes_counts_r_and_operators(self, aligned):
        mats = _ring_matrices()
        if aligned:  # one pattern: the operators share index buffers
            mats = [mats[0], mats[0] * 2.0]
        stack = reference_stack(mats, 6, 5)
        assert stack.resident_bytes == 0  # nothing built yet
        weights = np.array([[0.25, 0.75]])
        stack.rescaled_totals(weights, np.ones((1, 6)))
        assert stack.built_dm_stack is None
        operators = stack.operators
        index_bytes = [op.indices.nbytes + op.indptr.nbytes for op in operators]
        built = (
            stack.ref_row_sums.nbytes
            + sum(op.data.nbytes for op in operators)
            + (index_bytes[0] if aligned else sum(index_bytes))
        )
        assert stack.resident_bytes == built
        assert all(op.indices.dtype == np.int32 for op in operators)
        union = stack.dm_stack
        assert union.mode == ("aligned" if aligned else "sparse")
        assert stack.resident_bytes == built + union.resident_bytes

    def test_pickle_round_trip_keeps_built_arrays(self):
        stack = reference_stack(_ring_matrices(), 6, 5)
        weights = np.array([[0.25, 0.75]])
        factors = np.linspace(0.5, 2.0, 6)[np.newaxis, :]
        expected = stack.rescaled_totals(weights, factors)
        clone = pickle.loads(pickle.dumps(stack))
        assert np.array_equal(clone.rescaled_totals(weights, factors), expected)
        assert np.array_equal(clone.ref_row_sums, stack.ref_row_sums)
        assert clone.resident_bytes == stack.resident_bytes

    @staticmethod
    def _first_use_from_threads(stack, read):
        # A caller may share one stack across threads: every thread
        # racing on first use must get the one built object.
        barrier = threading.Barrier(8)
        seen = []

        def first_use():
            barrier.wait(timeout=10)
            seen.append(read(stack))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_use) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8
        return seen

    def test_one_build_under_concurrent_first_use(self):
        stack = reference_stack(_ring_matrices(k=4, m=300, t=40), 300, 40)
        seen = self._first_use_from_threads(
            stack, lambda s: (s.ref_row_sums, s.operators)
        )
        assert all(r is seen[0][0] and ops is seen[0][1] for r, ops in seen)

    def test_one_union_build_under_concurrent_first_use(self):
        stack = reference_stack(_ring_matrices(k=4, m=300, t=40), 300, 40)
        seen = self._first_use_from_threads(stack, lambda s: s.dm_stack)
        assert all(union is seen[0] for union in seen)


class TestValidation:
    def test_empty_matrix_list_rejected(self):
        with pytest.raises(ValidationError):
            SparseDMStack.from_matrices([], 2, 2)

    def test_shape_mismatch_rejected(self):
        mats = [sparse.csr_matrix(np.ones((2, 3)))]
        with pytest.raises(ShapeMismatchError):
            SparseDMStack.from_matrices(mats, 2, 2)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValidationError):
            SparseDMStack(
                1,
                1,
                np.array([0, 1], dtype=np.int64),
                np.array([0], dtype=np.int64),
                "zarr",
            )
