"""BatchAligner / ReferenceStack: unit tests + N-row == N one-row fits.

There is one engine: :class:`~repro.core.geoalign.GeoAlign` is a
one-attribute :class:`~repro.core.batch.BatchAligner`.  The load-bearing
invariant is that an N-row fit equals N one-row fits to float tolerance
-- including the degenerate corners (single reference, zero-volume
source rows, N=1, masked reference subsets).  With more references than
source units a one-row fit is GeoAlign's bit for bit, and each row of an
N-row fit reaches the same Eq. 15 optimum.  Hypothesis drives randomised
worlds at those invariants; the unit tests pin the API contract
(validation, staleness, caching, untouched caller inputs, which work a
fit and a predict do).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.batch import BatchAligner, ReferenceStack, _rescale_factors
from repro.core.geoalign import GeoAlign
from repro.core.reference import Reference
from repro.errors import (
    NotFittedError,
    ShapeMismatchError,
    ValidationError,
)
from repro.partitions.dm import DisaggregationMatrix

RTOL = 1e-9
ATOL = 1e-10


def _world(seed, m=10, t=6, k=3, n_attrs=4, density=0.5, zero_row=False):
    rng = np.random.default_rng(seed)
    source_labels = [f"s{i}" for i in range(m)]
    target_labels = [f"t{j}" for j in range(t)]
    references = []
    for idx in range(k):
        dense = rng.uniform(0.5, 4.0, size=(m, t))
        dense *= rng.uniform(size=(m, t)) < density
        if dense.sum() <= 0:
            dense[0, 0] = 1.0
        dm = DisaggregationMatrix(dense, source_labels, target_labels)
        vector = dm.row_sums() * rng.uniform(0.7, 1.4, size=m)
        if vector.sum() <= 0:
            vector[0] = 1.0
        references.append(Reference(f"ref-{idx}", vector, dm))
    objectives = rng.uniform(1.0, 9.0, size=(n_attrs, m))
    if zero_row and m > 1:
        objectives[:, 1] = 0.0  # a zero-volume source row in every attr
    return references, objectives


def _assert_rows_agree(references, objectives, denominator="row-sums"):
    batch = BatchAligner(denominator=denominator).fit(
        references, objectives
    )
    predictions = batch.predict()
    dms = batch.predict_dms()
    for j, objective in enumerate(objectives):
        scalar = GeoAlign(denominator=denominator).fit(
            references, objective
        )
        np.testing.assert_allclose(
            batch.weights_[j], scalar.weights_, rtol=RTOL, atol=ATOL
        )
        np.testing.assert_allclose(
            predictions[j], scalar.predict(), rtol=RTOL, atol=ATOL
        )
        assert dms[j].allclose(scalar.predict_dm(), rtol=RTOL, atol=ATOL)


# ----------------------------------------------------------------------
# Hypothesis: N-row fit == N one-row fits on randomised worlds
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@example(
    seed=326990, m=2, t=4, k=3, n_attrs=1, density=0.5,
    denominator="row-sums",
)
@given(
    seed=st.integers(0, 10**6),
    m=st.integers(2, 14),
    t=st.integers(1, 8),
    k=st.integers(1, 5),
    n_attrs=st.integers(1, 6),
    density=st.floats(0.2, 1.0),
    denominator=st.sampled_from(("row-sums", "source-vectors")),
)
def test_batch_equals_loop(seed, m, t, k, n_attrs, density, denominator):
    references, objectives = _world(
        seed, m=m, t=t, k=k, n_attrs=n_attrs, density=density
    )
    _assert_rows_agree(references, objectives, denominator)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    m=st.integers(2, 5),
    extra=st.integers(1, 4),
    t=st.integers(1, 6),
    n_attrs=st.integers(1, 4),
    density=st.floats(0.2, 1.0),
    denominator=st.sampled_from(("row-sums", "source-vectors")),
)
def test_more_references_than_sources(
    seed, m, extra, t, n_attrs, density, denominator
):
    """k > m, so rank(A) < k and Eq. 15 has a family of minimisers.

    A one-row fit is GeoAlign's fit bit for bit, and every row of an
    N-row fit attains its one-row fit's Eq. 15 optimum.  Which minimiser
    a row lands on can still differ between the two (``A^T b`` comes
    from gemm in one and gemv in the other); a canonical tie-break is
    the ROADMAP's identifiability item.
    """
    references, objectives = _world(
        seed, m=m, t=t, k=m + extra, n_attrs=n_attrs, density=density
    )
    batch = BatchAligner(denominator=denominator).fit(references, objectives)
    for j, objective in enumerate(objectives):
        one_row = BatchAligner(denominator=denominator).fit(
            references, objective[np.newaxis, :]
        )
        scalar = GeoAlign(denominator=denominator).fit(references, objective)
        assert scalar.weights_.tobytes() == one_row.weights_[0].tobytes()
        assert scalar.predict().tobytes() == one_row.predict()[0].tobytes()
        np.testing.assert_allclose(
            batch.solver_results_[j].objective,
            scalar.solver_result_.objective,
            rtol=RTOL,
            atol=ATOL,
        )


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_batch_equals_loop_with_zero_volume_rows(seed):
    references, objectives = _world(seed, zero_row=True)
    _assert_rows_agree(references, objectives)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), n_attrs=st.integers(1, 4))
def test_batch_equals_loop_single_reference(seed, n_attrs):
    """k=1: the solver's constraint-pinned shortcut."""
    references, objectives = _world(seed, k=1, n_attrs=n_attrs)
    _assert_rows_agree(references, objectives)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), k=st.integers(2, 5))
def test_masked_batch_equals_loop_on_subset(seed, k):
    """A masked attribute matches the scalar fit on the masked subset."""
    rng = np.random.default_rng(seed + 1)
    references, objectives = _world(seed, k=k, n_attrs=3)
    masks = np.ones((3, k), dtype=bool)
    masks[0, rng.integers(k)] = False
    if not masks[0].any():
        masks[0, 0] = True
    keep_one = rng.integers(k)
    masks[1] = False
    masks[1, keep_one] = True
    batch = BatchAligner().fit(references, objectives, masks=masks)
    predictions = batch.predict()
    for j in range(3):
        subset = [r for r, keep in zip(references, masks[j]) if keep]
        scalar = GeoAlign().fit(subset, objectives[j])
        np.testing.assert_allclose(
            predictions[j], scalar.predict(), rtol=RTOL, atol=ATOL
        )
        # Masked-out references carry exactly zero weight.
        dropped = batch.weights_[j][~masks[j]]
        assert np.all(dropped == 0.0)  # repro-lint: allow[float-eq] masked-out weights are set to exact literal zero, not computed


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    m=st.integers(2, 14),
    t=st.integers(1, 8),
    k=st.integers(1, 5),
    n_attrs=st.integers(1, 5),
    denominator=st.sampled_from(("row-sums", "source-vectors")),
    zero_row=st.booleans(),
    masked=st.booleans(),
)
def test_predict_equals_column_sums_of_predict_dms(
    seed, m, t, k, n_attrs, denominator, zero_row, masked
):
    """predict() (by linearity) vs the materialised Eq. 14/16 DMs."""
    references, objectives = _world(
        seed, m=m, t=t, k=k, n_attrs=n_attrs, density=0.4, zero_row=zero_row
    )
    masks = None
    if masked:
        rng = np.random.default_rng(seed + 2)
        masks = rng.random((n_attrs, k)) < 0.5
        masks[np.arange(n_attrs), rng.integers(k, size=n_attrs)] = True
    aligner = BatchAligner(denominator=denominator).fit(
        references, objectives, masks=masks
    )
    column_sums = np.vstack([dm.col_sums() for dm in aligner.predict_dms()])
    np.testing.assert_allclose(
        aligner.predict(), column_sums, rtol=1e-12, atol=1e-12
    )


def test_rescale_factors_bitwise_equal_masked_where():
    rng = np.random.default_rng(3)
    denominators = rng.random((6, 40))
    denominators[rng.random(denominators.shape) < 0.3] = 0.0
    objectives = rng.random((6, 40)) * 9.0
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = np.where(
            denominators > 0.0, objectives / denominators, 0.0
        )
    got = _rescale_factors(objectives, denominators)
    assert got.tobytes() == expected.tobytes()


# ----------------------------------------------------------------------
# ReferenceStack mechanics
# ----------------------------------------------------------------------
def test_stack_union_pattern_and_gram():
    references, _ = _world(3)
    stack = ReferenceStack(references)
    design = np.column_stack(
        [ref.normalized_source() for ref in references]
    )
    np.testing.assert_allclose(stack.gram, design.T @ design)
    union_nnz = (
        sum(abs(ref.dm.to_dense()) for ref in references) > 0
    ).sum()
    assert stack.nnz == union_nnz
    for i, ref in enumerate(references):
        dense = np.zeros(ref.dm.shape)
        dense[stack.entry_rows, stack.entry_cols] = stack.values[i]
        np.testing.assert_allclose(dense, ref.dm.to_dense())


def test_stack_rejects_mismatched_labels():
    references, _ = _world(5)
    other = DisaggregationMatrix(
        np.ones((10, 6)),
        [f"x{i}" for i in range(10)],
        [f"t{j}" for j in range(6)],
    )
    bad = Reference("bad", other.row_sums(), other)
    with pytest.raises(ShapeMismatchError):
        ReferenceStack(references + [bad])
    with pytest.raises(ValidationError):
        ReferenceStack([])


def test_stack_with_references_shares_union_structure():
    references, objectives = _world(11)
    stack = ReferenceStack(references)
    noisy = [
        ref.with_source_vector(ref.source_vector * 1.05)
        for ref in references
    ]
    clone = stack.with_references(noisy)
    assert clone.values is stack.values
    assert clone.entry_rows is stack.entry_rows
    # Numerics match a fresh stack over the noisy pool exactly.
    fresh = ReferenceStack(noisy)
    np.testing.assert_array_equal(clone.gram, fresh.gram)
    left = BatchAligner().fit(clone, objectives).predict()
    right = BatchAligner().fit(fresh, objectives).predict()
    np.testing.assert_array_equal(left, right)


def test_stack_with_references_gram_update_matches_recompute():
    # Perturbing a single reference takes the symmetric column-
    # replacement path; the updated Gram must match a from-scratch
    # rebuild to 1e-12 and reuse the untouched block bit-for-bit.
    references, _ = _world(19)
    stack = ReferenceStack(references)
    noisy = list(references)
    noisy[1] = references[1].with_source_vector(
        references[1].source_vector * 1.07
    )
    clone = stack.with_references(noisy)
    fresh = ReferenceStack(noisy)
    np.testing.assert_allclose(
        clone.gram, fresh.gram, rtol=1e-12, atol=1e-12
    )
    untouched = [i for i in range(len(references)) if i != 1]
    np.testing.assert_array_equal(
        clone.gram[np.ix_(untouched, untouched)],
        stack.gram[np.ix_(untouched, untouched)],
    )
    assert np.allclose(clone.gram, clone.gram.T)
    # Untouched sources keep sharing the parent's arrays wholesale.
    same = stack.with_references(list(references))
    assert same.gram is stack.gram
    assert same.design is stack.design
    assert same.dm_stack is stack.dm_stack


def test_stack_with_references_rejects_different_dms():
    references, _ = _world(13)
    stack = ReferenceStack(references)
    other_refs, _ = _world(14)
    with pytest.raises(ValidationError):
        stack.with_references(other_refs)
    with pytest.raises(ShapeMismatchError):
        stack.with_references(references[:-1])


# ----------------------------------------------------------------------
# BatchAligner API contract
# ----------------------------------------------------------------------
def test_validation_errors():
    references, objectives = _world(17)
    with pytest.raises(ValidationError):
        BatchAligner(denominator="nope")
    with pytest.raises(NotFittedError):
        BatchAligner().predict()
    with pytest.raises(ShapeMismatchError):
        BatchAligner().fit(references, objectives[:, :-1])
    with pytest.raises(ValidationError):
        BatchAligner().fit(references, np.zeros_like(objectives))
    with pytest.raises(ValidationError):
        BatchAligner().fit(references, -objectives)
    with pytest.raises(ShapeMismatchError):
        BatchAligner().fit(
            references, objectives, attribute_names=["just-one"]
        )
    with pytest.raises(ShapeMismatchError):
        BatchAligner().fit(
            references, objectives, masks=np.ones((2, 2), dtype=bool)
        )
    with pytest.raises(ValidationError):
        empty = np.zeros(
            (len(objectives), len(references)), dtype=bool
        )
        BatchAligner().fit(references, objectives, masks=empty)


def test_duplicate_attribute_names_rejected():
    # Repeated names would collapse the weight report and leave the
    # first row unreachable by name in the served model.
    references, objectives = _world(17, n_attrs=2)
    with pytest.raises(ValidationError, match="unique"):
        BatchAligner().fit(
            references, objectives, attribute_names=["a", "a"]
        )


def _input_bytes(references, objectives, masks):
    """Every caller-owned array a fit reads, as raw bytes."""
    arrays = [objectives, masks]
    for ref in references:
        matrix = ref.dm.matrix
        arrays += [
            ref.source_vector, matrix.data, matrix.indices, matrix.indptr
        ]
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("denominator", ["row-sums", "source-vectors"])
def test_fit_and_predict_leave_caller_inputs_bit_identical(denominator):
    references, objectives = _world(31, n_attrs=5)
    masks = np.ones((len(objectives), len(references)), dtype=bool)
    masks[np.arange(len(objectives)), np.arange(len(objectives)) % 3] = False
    before = _input_bytes(references, objectives, masks)

    ReferenceStack.build(references)
    assert _input_bytes(references, objectives, masks) == before
    aligner = BatchAligner(denominator=denominator).fit(
        references, objectives, masks=masks
    )
    assert _input_bytes(references, objectives, masks) == before
    aligner.predict()
    aligner.predict_dms()
    assert _input_bytes(references, objectives, masks) == before
    GeoAlign(denominator=denominator).fit_predict(references, objectives[0])
    assert _input_bytes(references, objectives, masks) == before


def test_prebuilt_stack_normalize_mismatch():
    references, objectives = _world(19)
    stack = ReferenceStack(references, normalize=False)
    with pytest.raises(ValidationError):
        BatchAligner(normalize=True).fit(stack, objectives)


def test_single_vector_objective_promotes_to_one_row():
    references, objectives = _world(23)
    batch = BatchAligner().fit(references, objectives[0])
    assert batch.predict().shape == (1, references[0].dm.shape[1])


def test_refit_resets_derived_state():
    references, objectives = _world(29)
    aligner = BatchAligner()
    first = aligner.fit(references, objectives[:2]).predict()
    assert aligner.blend_weights_ is not None
    second = aligner.fit(references, objectives[2:]).predict()
    assert second.shape[0] == objectives.shape[0] - 2
    assert not np.allclose(first[0], second[0])
    # blend weights were recomputed for the new fit, not served stale
    scalar = GeoAlign().fit(references, objectives[2])
    scalar.predict()
    np.testing.assert_allclose(
        aligner.blend_weights_[0], scalar.blend_weights_,
        rtol=RTOL, atol=ATOL,
    )


def test_weight_report_and_stage_spans(capture_trace):
    references, objectives = _world(37, n_attrs=2)
    with capture_trace() as session:
        aligner = BatchAligner().fit(
            references, objectives, attribute_names=["alpha", "beta"]
        )
        aligner.predict()
    report = aligner.weight_report()
    assert set(report) == {"alpha", "beta"}
    for weights in report.values():
        assert set(weights) == {ref.name for ref in references}
        assert sum(weights.values()) == pytest.approx(1.0)
    for stage in ("weights", "disaggregation", "reaggregation"):
        assert session.find_spans(f"stage.{stage}")


# ----------------------------------------------------------------------
# One engine: what a fit and a predict build
# ----------------------------------------------------------------------
def test_fit_predict_builds_no_union_stack(capture_trace):
    references, objectives = _world(41)
    with capture_trace() as session:
        BatchAligner().fit_predict(references, objectives)
        GeoAlign().fit_predict(references, objectives[0])
    assert session.find_spans("batch.predict")
    assert not session.find_spans("stack.union")


def test_predict_dms_builds_union_stack_once(capture_trace):
    references, objectives = _world(43)
    aligner = BatchAligner().fit(references, objectives)
    aligner.predict()
    assert aligner.stack_.built_dm_stack is None
    with capture_trace() as session:
        first = aligner.predict_dms()
        second = aligner.predict_dms()
    assert len(session.find_spans("stack.union")) == 1
    assert aligner.stack_.built_dm_stack is aligner.stack_.dm_stack
    for left, right in zip(first, second):
        assert (left.matrix != right.matrix).nnz == 0


def test_repeated_predict_dms_keep_the_objective(paired_references):
    # Weights [0, 1] leave exact zeros in the one-row value cache, and a
    # row that long is wrapped without a copy: wrapping must not compact
    # the cache, or the second call returns extra mass.
    objective = np.array([[1.0, 0.0, 0.0, 0.0, 0.0, 5.0]])
    aligner = BatchAligner().fit(paired_references, objective)
    assert aligner.weights_.tolist() == [[0.0, 1.0]]
    (first,), (second,) = aligner.predict_dms(), aligner.predict_dms()
    for name in ("data", "indices", "indptr"):
        left, right = getattr(first.matrix, name), getattr(second.matrix, name)
        assert left.tobytes() == right.tobytes(), name
    for dm in (first, second):
        np.testing.assert_allclose(
            dm.row_sums(), objective[0], rtol=RTOL, atol=ATOL
        )


@pytest.mark.parametrize("denominator", ["row-sums", "source-vectors"])
def test_geoalign_is_row_zero_of_one_row_batch(denominator):
    references, objectives = _world(47, k=4)
    objective = objectives[0]
    scalar = GeoAlign(denominator=denominator).fit(references, objective)
    batch = BatchAligner(denominator=denominator).fit(
        references, objective[np.newaxis, :]
    )
    assert scalar.weights_.tobytes() == batch.weights_[0].tobytes()
    result, row = scalar.solver_result_, batch.solver_results_[0]
    assert result.weights.tobytes() == row.weights.tobytes()
    fields = ("objective", "iterations", "method", "converged")
    assert [getattr(result, f) for f in fields] == [
        getattr(row, f) for f in fields
    ]
    assert scalar.predict().tobytes() == batch.predict()[0].tobytes()
    assert (
        scalar.blend_weights_.tobytes() == batch.blend_weights_[0].tobytes()
    )
    dm, row_dm = scalar.predict_dm(), batch.predict_dms()[0]
    assert dm.matrix.shape == row_dm.matrix.shape
    for name in ("data", "indices", "indptr"):
        left, right = getattr(dm.matrix, name), getattr(row_dm.matrix, name)
        assert left.tobytes() == right.tobytes()
