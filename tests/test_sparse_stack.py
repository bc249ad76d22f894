"""Property-based tests (hypothesis) pinning the sparse kernels.

Every :class:`~repro.core.sparse_stack.SparseDMStack` kernel --
``blend`` (Eq. 14), ``row_sums`` / ``scale_rows_inplace`` (Eq. 16),
``reaggregate`` (Eq. 17) -- and the linear-predict pair the
:class:`~repro.core.batch.ReferenceStack` owns, ``ref_row_sums`` /
``rescaled_totals`` (Eq. 16/17), must match the dense oracle computed
from the raw reference matrices to 1e-12, in both storage layouts,
across random union patterns that include empty rows, single-entry rows
and fully dense matrices.  The oracle is recomputed here from scratch (no
stack code on the oracle side), so a kernel bug cannot cancel out.
"""

import itertools
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse

from repro.core.batch import BatchAligner, ReferenceStack
from repro.core.reference import Reference
from repro.core.sparse_stack import EntrySlice, SparseDMStack
from repro.errors import ShapeMismatchError, ValidationError
from repro.partitions.dm import DisaggregationMatrix
from tests import dm_oracles

TOL = dict(rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


@st.composite
def stack_cases(draw):
    """(matrices, m, t) covering the pattern spectrum.

    ``style`` steers the union pattern: ``random`` mixes empty and
    single-entry rows (the CSR layout), ``aligned`` shares one support
    across all references (the zero-copy layout), ``full`` is fully
    dense (aligned too).
    """
    seed = draw(st.integers(0, 10**6))
    rng = np.random.default_rng(seed)
    m = draw(st.integers(1, 10))
    t = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    style = draw(st.sampled_from(["random", "aligned", "full"]))
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
    return mats, m, t


def _non_canonical(mat, rng):
    """``mat`` as CSR with each row's entries shuffled and some split
    into duplicate pairs: the same matrix, not in canonical form."""
    data, indices, indptr = [], [], [0]
    for r in range(mat.shape[0]):
        row = []
        for jj in range(mat.indptr[r], mat.indptr[r + 1]):
            col, value = int(mat.indices[jj]), float(mat.data[jj])
            if rng.random() < 0.3:
                share = rng.uniform(0.2, 0.8)
                row += [(col, value * share), (col, value * (1.0 - share))]
            else:
                row.append((col, value))
        rng.shuffle(row)
        indices += [col for col, _ in row]
        data += [value for _, value in row]
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (
            np.array(data, dtype=float),
            np.array(indices, dtype=np.int32),
            np.array(indptr, dtype=np.int32),
        ),
        shape=mat.shape,
    )


@st.composite
def operator_cases(draw):
    """(matrices, m, t) for the Eq. 17 operators.

    Both weight sides (``m < t`` and ``m > t``), one shared pattern or
    one per reference, forced empty rows and columns, and matrices
    handed over in non-canonical CSR (unsorted and duplicate entries).
    """
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    small, large = draw(
        st.lists(st.integers(1, 12), min_size=2, max_size=2, unique=True)
        .map(sorted)
    )
    m, t = (small, large) if draw(st.booleans()) else (large, small)
    k = draw(st.integers(1, 4))
    aligned = draw(st.booleans())
    canonical = draw(st.booleans())
    empty_row, empty_col = draw(st.booleans()), draw(st.booleans())

    def pattern():
        keep = rng.random((m, t)) < rng.uniform(0.2, 0.9)
        if empty_row:
            keep[rng.integers(m)] = False
        if empty_col:
            keep[:, rng.integers(t)] = False
        return keep

    shared = pattern()
    mats = []
    for _ in range(k):
        keep = shared if aligned else pattern()
        mat = sparse.csr_matrix(np.where(keep, rng.random((m, t)) + 0.1, 0.0))
        mats.append(mat if canonical else _non_canonical(mat, rng))
    return mats, m, t


def reference_stack(mats, m, t):
    """A :class:`ReferenceStack` over the raw matrices as reference DMs."""
    source_labels = [f"s{i}" for i in range(m)]
    target_labels = [f"t{j}" for j in range(t)]
    references = []
    for i, mat in enumerate(mats):
        dm = DisaggregationMatrix(mat, source_labels, target_labels)
        references.append(Reference(f"r{i}", dm.row_sums() + 1.0, dm))
    return ReferenceStack(references)


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
        mats, m, t = case
        stack = SparseDMStack.from_matrices(mats, m, t)
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
        mats, m, t = case
        stack = SparseDMStack.from_matrices(mats, m, t)
        rng = np.random.default_rng(seed)
        weights = rng.random((3, len(mats)))
        oracle = weights @ oracle_values(stack, mats)
        np.testing.assert_allclose(stack.blend(weights), oracle, **TOL)

    @settings(max_examples=60, deadline=None)
    @given(stack_cases(), st.integers(0, 10**6))
    def test_row_sums(self, case, seed):
        mats, m, t = case
        stack = SparseDMStack.from_matrices(mats, m, t)
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
        mats, m, t = case
        stack = SparseDMStack.from_matrices(mats, m, t)
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
        mats, m, t = case
        stack = SparseDMStack.from_matrices(mats, m, t)
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
        stack's per-entry kernels in the drawn layout; zero weights
        leave rows with a zero denominator (all rows when ``zero_share``
        is 1)."""
        mats, m, t = case
        stack = reference_stack(mats, m, t)
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
    def test_entry_mass(self, case, seed):
        mats, m, t = case
        stack = SparseDMStack.from_matrices(mats, m, t)
        np.testing.assert_allclose(
            stack.entry_mass(), oracle_values(stack, mats).sum(axis=0), **TOL
        )


class TestRescaledTotalsMatchTransposedOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        operator_cases(),
        st.sampled_from([1, 2, 64]),
        st.integers(0, 10**6),
    )
    def test_bitwise_equal(self, case, n_attrs, seed):
        """Eq. 17 through the stack's operators equals the transposed-CSR
        oracle bit for bit, with references weighted zero in every
        attribute; each DM's column sums equal SciPy's bit for bit."""
        mats, m, t = case
        stack = reference_stack(mats, m, t)
        k = len(mats)
        rng = np.random.default_rng(seed)
        weights = rng.random((n_attrs, k))
        weights[rng.random(weights.shape) < 0.2] = 0.0
        weights[:, rng.random(k) < 0.4] = 0.0
        factors = rng.random((n_attrs, m)) * (rng.random((n_attrs, m)) < 0.9)
        matrices = [ref.dm.matrix for ref in stack.references]
        expected = dm_oracles.rescaled_totals(matrices, weights, factors)
        got = stack.rescaled_totals(weights, factors)
        assert got.shape == (n_attrs, t)
        assert got.tobytes() == expected.tobytes()
        for matrix, ref in zip(matrices, stack.references):
            scipy_sums = np.asarray(matrix.sum(axis=0), dtype=float).ravel()
            assert ref.dm.col_sums().tobytes() == scipy_sums.tobytes()


class TestEntrySliceMatchesStack:
    @settings(max_examples=60, deadline=None)
    @given(stack_cases(), st.integers(0, 10**6))
    def test_sliced_blend_equals_blend_slice(self, case, seed):
        mats, m, t = case
        stack = SparseDMStack.from_matrices(mats, m, t)
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


def union_state(union, entries, weights):
    """What a union stack's consumers read: its resident bytes, the bits
    of ``entry_mass``, and the form and blend bits of one entry slice."""
    piece = union.entry_slice(entries)
    return (
        union.resident_bytes,
        union.entry_mass().tobytes(),
        piece.dense is None,
        piece.blend(weights).tobytes(),
    )


@pytest.mark.parametrize("aligned", [False, True], ids=["sparse", "aligned"])
def test_values_read_leaves_the_stack_as_it_was(aligned):
    """``values`` is an oracle view that caches nothing, so the kernels,
    and the slices a sharded run ships, never depend on whether anything
    read it first."""
    mats = _ring_matrices(k=3, m=40, t=30)
    if aligned:
        mats = [mats[0] * scale for scale in (1.0, 2.0, 0.5)]
    stack = SparseDMStack.from_matrices(mats, 40, 30)
    assert stack.mode == ("aligned" if aligned else "sparse")
    entries = np.arange(0, stack.nnz, 3, dtype=np.int64)
    weights = np.random.default_rng(5).random((2, 3))
    before = union_state(stack, entries, weights)
    np.testing.assert_array_equal(stack.values, oracle_values(stack, mats))
    assert union_state(stack, entries, weights) == before


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
        assert stack.density <= 0.5

    def test_high_density_unaligned_picks_sparse(self):
        # Density does not pick the layout: only a shared pattern does.
        rng = np.random.default_rng(3)
        mats = [
            sparse.csr_matrix(rng.random((4, 4)) + 0.1),
            sparse.csr_matrix(
                (rng.random((4, 4)) + 0.1)
                * (rng.random((4, 4)) < 0.9)
            ),
        ]
        stack = SparseDMStack.from_matrices(mats, 4, 4)
        assert stack.mode == "sparse"
        assert stack.density > 0.5

    def test_single_entry_and_empty_rows(self):
        # Row 0 has one entry, rows 1-2 are empty everywhere.
        mat = sparse.csr_matrix(([2.0], ([0], [1])), shape=(3, 3))
        stack = SparseDMStack.from_matrices([mat], 3, 3)
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
        """An operator views its DM's own values and target indices, so
        the stack counts ``R`` and the expanded source indices only."""
        mats = _ring_matrices()
        if aligned:  # one pattern: the union stack picks the aligned layout
            mats = [mats[0], mats[0] * 2.0]
        stack = reference_stack(mats, 6, 5)
        assert stack.resident_bytes == 0  # nothing built yet
        weights = np.array([[0.25, 0.75]])
        stack.rescaled_totals(weights, np.ones((1, 6)))
        assert stack.built_dm_stack is None
        operators = stack.operators
        for op, ref in zip(operators, stack.references):
            assert op.data is ref.dm.matrix.data
            assert op.row is ref.dm.matrix.indices
            assert op.col.dtype == np.int32
        built = stack.ref_row_sums.nbytes + sum(
            op.col.nbytes for op in operators
        )
        assert stack.resident_bytes == built
        union = stack.dm_stack
        assert union.mode == ("aligned" if aligned else "sparse")
        assert stack.resident_bytes == built + union.resident_bytes

    def test_resident_bytes_counts_a_canonical_copy(self):
        """A DM stored out of canonical order is viewed through the
        canonical copy the build makes, and the stack counts that copy."""
        mats = _ring_matrices()
        mats[1] = _non_canonical(mats[0] + mats[1], np.random.default_rng(2))
        stack = reference_stack(mats, 6, 5)
        assert not stack.references[1].dm.matrix.has_canonical_format
        own, copied = stack.operators
        assert own.data is stack.references[0].dm.matrix.data
        assert copied.data is not stack.references[1].dm.matrix.data
        assert stack.resident_bytes == (
            stack.ref_row_sums.nbytes
            + own.col.nbytes
            + copied.data.nbytes
            + copied.row.nbytes
            + copied.col.nbytes
        )

    def test_pickle_round_trip_keeps_built_arrays(self):
        stack = reference_stack(_ring_matrices(), 6, 5)
        weights = np.array([[0.25, 0.75]])
        factors = np.linspace(0.5, 2.0, 6)[np.newaxis, :]
        expected = stack.rescaled_totals(weights, factors)
        clone = pickle.loads(pickle.dumps(stack))
        assert np.array_equal(clone.rescaled_totals(weights, factors), expected)
        assert np.array_equal(clone.ref_row_sums, stack.ref_row_sums)
        assert clone.resident_bytes == stack.resident_bytes
        # The copied DMs keep their built arrays, still shared with the
        # copied stack.
        for op, ref in zip(clone.operators, clone.references):
            assert op is ref.dm.linear_arrays()[1]

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

    @staticmethod
    def _positions(stack, built):
        """Reference positions of the DM matrices ``built`` records."""
        matrices = [ref.dm.matrix for ref in stack.references]
        return [
            next(j for j, mat in enumerate(matrices) if mat is matrix)
            for matrix in built
        ]

    def test_one_build_under_concurrent_first_use(self, count_dm_builds):
        stack = reference_stack(_ring_matrices(k=4, m=300, t=40), 300, 40)
        built = count_dm_builds(pause=0.02)
        seen = self._first_use_from_threads(
            stack, lambda s: (s.ref_row_sums, s.operators)
        )
        assert all(r is seen[0][0] and ops is seen[0][1] for r, ops in seen)
        assert sorted(self._positions(stack, built)) == [0, 1, 2, 3]

    def test_stacks_over_the_same_dms_share_each_operator(
        self, capture_trace, count_dm_builds
    ):
        """A second stack over the same DMs fills its ``R`` and operators
        from the first stack's builds: each operator is one object, each
        DM is built once, and the second ``stack.operators`` span builds
        nothing.  Each stack still counts its own ``R`` and the source
        indices of the operators it holds."""
        first = reference_stack(_ring_matrices(k=3), 6, 5)
        second = ReferenceStack(first.references)
        built = count_dm_builds()
        with capture_trace() as session:
            ops_first = first.operators
            ops_second = second.operators
        assert all(a is b for a, b in zip(ops_first, ops_second))
        assert self._positions(first, built) == [0, 1, 2]
        spans = session.find_spans("stack.operators")
        assert [(s.attrs["k"], s.attrs["built"]) for s in spans] == [
            (3, 3),
            (3, 0),
        ]
        assert first.ref_row_sums is not second.ref_row_sums
        assert first.ref_row_sums.tobytes() == second.ref_row_sums.tobytes()
        assert second.resident_bytes == first.resident_bytes

    def test_one_build_per_dm_with_threads_racing_on_two_stacks(
        self, count_dm_builds
    ):
        first = reference_stack(_ring_matrices(k=4, m=300, t=40), 300, 40)
        second = ReferenceStack(first.references)
        built = count_dm_builds(pause=0.02)
        draws = itertools.count()

        def read(stacks):
            stack = stacks[next(draws) % 2]
            return stack, stack.operators

        seen = self._first_use_from_threads((first, second), read)
        assert {id(stack) for stack, _ in seen} == {id(first), id(second)}
        for _, operators in seen:
            assert all(
                op is ref.dm.linear_arrays()[1]
                for op, ref in zip(operators, first.references)
            )
        assert sorted(self._positions(first, built)) == [0, 1, 2, 3]
        assert first.ref_row_sums.tobytes() == second.ref_row_sums.tobytes()

    def test_one_union_build_under_concurrent_first_use(self):
        stack = reference_stack(_ring_matrices(k=4, m=300, t=40), 300, 40)
        seen = self._first_use_from_threads(stack, lambda s: s.dm_stack)
        assert all(union is seen[0] for union in seen)

    def test_predict_builds_only_the_weighted_references(
        self, capture_trace
    ):
        """A one-row fit that weights references 0 and 2 of 3 builds
        their ``R`` rows and operators and nothing for reference 1, in
        one ``stack.operators`` span; forcing the rest adds exactly
        reference 1's source-index bytes."""
        mats = _ring_matrices(k=3)
        stack = reference_stack(mats, 6, 5)
        objective = stack.references[0].source_vector + 1.0
        aligner = BatchAligner()
        with capture_trace() as session:
            aligner.fit(stack, [objective], masks=[[True, False, True]])
            aligner.predict()
        (build,) = session.find_spans("stack.operators")
        assert (build.attrs["k"], build.attrs["built"]) == (2, 2)
        weighted = aligner.blend_weights_[0] != 0.0
        assert weighted.tolist() == [True, False, True]
        row_sums, operators = stack.linear_for(aligner.blend_weights_)
        assert operators[1] is None
        assert not row_sums[1].any()
        partial = stack.resident_bytes

        def operator_bytes(op):
            return op.col.nbytes  # the rest is the DM's own arrays

        assert partial == row_sums.nbytes + sum(
            operator_bytes(operators[j]) for j in (0, 2)
        )
        with capture_trace() as session:
            full = stack.operators
        (build,) = session.find_spans("stack.operators")
        assert (build.attrs["k"], build.attrs["built"]) == (1, 1)
        assert stack.resident_bytes == partial + operator_bytes(full[1])
        np.testing.assert_array_equal(
            row_sums[1], np.asarray(mats[1].sum(axis=1)).ravel()
        )

    def test_one_row_fits_with_different_supports_from_threads(
        self, count_dm_builds
    ):
        """One-row fits weighting different references, racing on one
        fresh stack, answer what each fit answers alone on a fresh
        stack, bit for bit; every weighted reference is built exactly
        once, and the reference no fit weights stays unbuilt."""
        mats = _ring_matrices(k=5, m=300, t=40)
        supports = ([0], [1], [0, 1], [2, 3], [1, 2, 3], [3])
        masks = np.zeros((len(supports), 5), dtype=bool)
        for row, support in zip(masks, supports):
            row[support] = True
        stack = reference_stack(mats, 300, 40)
        objective = stack.source_vectors[:4].sum(axis=0)

        def one_row(shared, i):
            return BatchAligner().fit(
                shared, [objective], masks=masks[i : i + 1]
            ).predict()

        serial = [
            one_row(reference_stack(mats, 300, 40), i)
            for i in range(len(supports))
        ]
        draws = itertools.count()
        built = count_dm_builds(pause=0.02)

        def race(shared):
            i = next(draws) % len(supports)
            return i, one_row(shared, i)

        seen = self._first_use_from_threads(stack, race)
        assert {i for i, _ in seen} == set(range(len(supports)))
        for i, predictions in seen:
            assert predictions.tobytes() == serial[i].tobytes()
        assert sorted(self._positions(stack, built)) == [0, 1, 2, 3]
        row_sums, operators = stack.linear_for(np.zeros((1, 5)))
        assert [op is None for op in operators] == [False] * 4 + [True]
        assert not row_sums[4].any()


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
