"""Shard-equivalence harness: sharded == monolithic on the golden suite.

Replays every pinned world under ``fixtures/golden/`` through
:class:`~repro.core.shard.ShardedAligner` at shard counts {1, 2, 4, 7}
(uneven tiles included: most golden worlds' target counts do not
divide by 4 or 7) and holds weights and predictions to the stored values at
1e-9 -- the *same* fixtures and tolerance the scalar and batch engines
are pinned to, so all three engines are mutually tolerance-equal.  On
top of the pinned values, the sharded run is compared directly against
a monolithic :class:`~repro.core.batch.BatchAligner`: the weights come
from the same solve on the same Gram matrix, so they are equal bit for
bit, and the predictions differ only by float reassociation in the
merge of partial column sums.
"""

import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.batch import BatchAligner
from repro.core.shard import ShardedAligner, _column_map
from repro.synth.bigalign import build_big_universe
from tests.test_golden import (
    ATOL,
    DENOMINATORS,
    GOLDEN_PATHS,
    RTOL,
    _load,
)

SHARD_COUNTS = (1, 2, 4, 7)

GOLDEN_IDS = [os.path.basename(p) for p in GOLDEN_PATHS]


@pytest.mark.parametrize("path", GOLDEN_PATHS, ids=GOLDEN_IDS)
@pytest.mark.parametrize("denominator", DENOMINATORS)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_sharded_matches_golden(path, denominator, n_shards):
    spec, references, objectives = _load(path)
    expected = spec["expected"][denominator]
    aligner = ShardedAligner(
        n_shards=n_shards, denominator=denominator
    ).fit(references, objectives)
    predictions = aligner.predict()
    np.testing.assert_allclose(
        aligner.weights_, expected["weights"], rtol=RTOL, atol=ATOL
    )
    np.testing.assert_allclose(
        predictions, expected["predictions"], rtol=RTOL, atol=ATOL
    )


@pytest.mark.parametrize("path", GOLDEN_PATHS, ids=GOLDEN_IDS)
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_sharded_matches_monolithic_tightly(path, n_shards):
    """Engine-vs-engine, far below the golden tolerance.

    The weights are the monolithic ones bit for bit; the predictions
    differ only in the float accumulation order of the merge, so the
    engines agree to ~1e-13 relative -- four orders tighter than the
    1e-9 the fixtures pin.  Every shard count must hold it, uneven
    splits included.
    """
    _spec, references, objectives = _load(path)
    expected = BatchAligner().fit(references, objectives)
    sharded = ShardedAligner(n_shards=n_shards).fit(references, objectives)
    np.testing.assert_array_equal(sharded.weights_, expected.weights_)
    np.testing.assert_allclose(
        sharded.predict(), expected.predict(), rtol=1e-12, atol=1e-13
    )


@pytest.mark.parametrize("path", GOLDEN_PATHS, ids=GOLDEN_IDS)
def test_merge_residual_negligible_on_golden(path):
    """The post-merge Eq. 17 re-aggregation check sits at float noise."""
    _spec, references, objectives = _load(path)
    aligner = ShardedAligner(n_shards=4).fit(references, objectives)
    aligner.predict()
    assert aligner.merge_residual_ is not None
    assert aligner.merge_residual_ < 1e-12


@pytest.fixture(scope="module")
def banded_world():
    """A 2,000 x 20,000 banded universe: rows straddle every tile edge."""
    return build_big_universe(2_000, 20_000)


@pytest.fixture(scope="module")
def banded_monolithic(banded_world):
    references, objectives = banded_world
    return BatchAligner().fit(references, objectives)


@pytest.mark.parametrize("max_workers", [1, 2], ids=["inline", "pool"])
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_weights_bitwise_equal_to_monolithic(
    banded_world, banded_monolithic, n_shards, max_workers
):
    """The fit solves on the stack's own Gram matrix, so the weights
    cannot depend on the plan or the pool."""
    references, objectives = banded_world
    sharded = ShardedAligner(
        n_shards=n_shards, max_workers=max_workers
    ).fit(references, objectives)
    np.testing.assert_array_equal(
        sharded.weights_, banded_monolithic.weights_
    )


@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_pooled_predictions_bitwise_equal_inline(banded_world, n_shards):
    """Same worker arithmetic, same shard-order fold: the pool changes
    where the shards run, never a bit of the answer."""
    references, objectives = banded_world
    inline, pooled = (
        ShardedAligner(n_shards=n_shards, max_workers=workers).fit_predict(
            references, objectives
        )
        for workers in (1, 2)
    )
    np.testing.assert_array_equal(pooled, inline)


def test_merge_check_sees_a_small_attribute(banded_world):
    """Each attribute is checked against its own scale.

    With one attribute a billion times smaller than the other, dropping
    the small attribute's largest merged column must read as a full
    relative error, not as 1e-9 of the large attribute's scale (which
    sits below the health check's warn level).
    """
    references, objectives = banded_world
    scaled = objectives[:2] * np.array([[1e-6], [1e3]])
    model = ShardedAligner(n_shards=4).fit(references, scaled)
    merged = model.predict().copy()
    assert model.merge_residual_ is not None
    assert model.merge_residual_ < 1e-12
    merged[0, np.argmax(merged[0])] = 0.0
    covered = model.blend_weights_ @ model.stack_.ref_row_sums > 0.0
    residual = model._verify_merge(merged, model.blend_weights_, covered)
    assert residual == pytest.approx(1.0, rel=1e-9)


@st.composite
def index_arrays(draw):
    """Integer arrays whose value span may dwarf their length."""
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    low = draw(st.integers(-(10**6), 10**6))
    span = draw(st.integers(1, 10**5))
    values = draw(
        st.lists(st.integers(low, low + span - 1), min_size=0, max_size=50)
    )
    return np.asarray(values, dtype=dtype)


@settings(max_examples=200, deadline=None)
@given(index_arrays())
@example(np.empty(0, dtype=np.int32))
@example(np.empty(0, dtype=np.int64))
@example(np.array([7], dtype=np.int32))
@example(np.array([3, 3, 3], dtype=np.int64))
@example(np.array([0, 999_999, 5, 0], dtype=np.int64))
def test_column_map_equals_unique_inverse(values):
    distinct, inverse = _column_map(values)
    expected, expected_inverse = np.unique(values, return_inverse=True)
    assert distinct.dtype == np.int64
    assert inverse.dtype == np.int64
    np.testing.assert_array_equal(distinct, expected)
    np.testing.assert_array_equal(inverse, expected_inverse.reshape(-1))
