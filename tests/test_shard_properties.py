"""Property-based tests (hypothesis) for the sharded engine's invariants.

Three global properties on randomly generated universes with rows that
straddle tile boundaries:

* **Ownership is a partition** -- every source row and union entry is
  owned by exactly one shard, for any shard count; a row's owner is the
  tile holding its mass majority.
* **Global volume preservation (Eq. 16)** -- covered attribute mass is
  conserved by the *merged* sharded disaggregation, exactly as the
  monolithic engine guarantees it.
* **Shard-count invariance** -- predictions do not depend on the shard
  count (the map-reduce is an implementation detail).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import (
    BatchAligner,
    DisaggregationMatrix,
    Reference,
    ShardedAligner,
    plan_shards,
)
from repro.core.batch import ReferenceStack


@st.composite
def universes(draw):
    """(references, objectives) with cross-tile mass on most rows."""
    seed = draw(st.integers(0, 10**6))
    rng = np.random.default_rng(seed)
    m = draw(st.integers(4, 24))
    n = draw(st.integers(2, 10))
    k = draw(st.integers(1, 3))
    n_attrs = draw(st.integers(1, 3))
    src = [f"s{i}" for i in range(m)]
    tgt = [f"t{j}" for j in range(n)]
    references = []
    for r in range(k):
        matrix = rng.random((m, n)) * (rng.random((m, n)) < 0.6)
        # Every row keeps one entry plus one in a rotated column, so
        # rows straddle tile edges at any tile split.
        matrix[np.arange(m), np.arange(m) % n] += 0.1
        matrix[np.arange(m), (np.arange(m) + 1) % n] += 0.05
        references.append(
            Reference.from_dm(
                f"ref{r}", DisaggregationMatrix(matrix, src, tgt)
            )
        )
    objectives = rng.random((n_attrs, m)) * 50.0
    return references, objectives


shard_counts = st.integers(1, 9)


class TestOwnershipPartition:
    @settings(max_examples=40, deadline=None)
    @given(universes(), shard_counts)
    def test_rows_and_entries_owned_exactly_once(self, universe, n_shards):
        references, _ = universe
        stack = ReferenceStack.build(references)
        plan = plan_shards(stack, n_shards)
        plan.validate()  # raises unless rows/entries partition exactly

        row_owned = np.zeros(stack.n_sources, dtype=int)
        entry_owned = np.zeros(stack.nnz, dtype=int)
        for spec in plan.shards:
            row_owned[spec.rows] += 1
            entry_owned[spec.entries] += 1
            assert np.all(plan.owner[spec.rows] == spec.shard_id)
        assert np.all(row_owned == 1)
        assert np.all(entry_owned == 1)

    @settings(max_examples=40, deadline=None)
    @given(universes(), shard_counts)
    def test_tile_owner_is_the_mass_majority_tile(self, universe, n_shards):
        """Each row goes to the tile holding most of its reference mass,
        votes summed entry by entry in CSR order (ties to the lowest
        tile, entry-less rows to shard 0)."""
        references, _ = universe
        stack = ReferenceStack.build(references)
        plan = plan_shards(stack, n_shards)
        tile_of_col = np.zeros(stack.n_targets, dtype=np.int64)
        for tile, cols in enumerate(
            np.array_split(np.arange(stack.n_targets), n_shards)
        ):
            tile_of_col[cols] = tile
        votes = np.zeros((stack.n_sources, n_shards))
        np.add.at(
            votes,
            (stack.entry_rows, tile_of_col[stack.entry_cols]),
            stack.dm_stack.entry_mass(),
        )
        np.testing.assert_array_equal(plan.owner, np.argmax(votes, axis=1))

    @settings(max_examples=40, deadline=None)
    @given(universes(), shard_counts)
    def test_boundary_rows_exact(self, universe, n_shards):
        """boundary_rows is exactly the rows writing cross-shard columns."""
        references, _ = universe
        stack = ReferenceStack.build(references)
        plan = plan_shards(stack, n_shards)
        entry_owner = plan.owner[stack.entry_rows]
        expected = set()
        for col in range(stack.n_targets):
            owners = np.unique(entry_owner[stack.entry_cols == col])
            if len(owners) > 1:
                expected.update(
                    stack.entry_rows[stack.entry_cols == col].tolist()
                )
        assert set(plan.boundary_rows.tolist()) == expected


class TestGlobalVolumePreservation:
    @settings(max_examples=30, deadline=None)
    @given(universes(), shard_counts)
    def test_covered_mass_is_conserved(self, universe, n_shards):
        """Eq. 16 globally: each attribute's covered source mass equals
        the total of its merged target estimates."""
        references, objectives = universe
        model = ShardedAligner(n_shards=n_shards).fit(
            references, objectives
        )
        predictions = model.predict()
        stack = model.stack_
        blended = model.blend_weights_ @ stack.dm_stack.values
        row_sums = stack.row_sums(blended)
        covered = row_sums > 0.0
        objectives = np.asarray(objectives, dtype=float)
        covered_mass = np.where(covered, objectives, 0.0).sum(axis=1)
        np.testing.assert_allclose(
            predictions.sum(axis=1),
            covered_mass,
            rtol=1e-9,
            atol=1e-9,
        )


class TestShardCountInvariance:
    @settings(max_examples=30, deadline=None)
    @given(universes(), shard_counts)
    def test_predictions_independent_of_layout(self, universe, n_shards):
        references, objectives = universe
        baseline = BatchAligner().fit(references, objectives).predict()
        sharded = (
            ShardedAligner(n_shards=n_shards)
            .fit(references, objectives)
            .predict()
        )
        np.testing.assert_allclose(
            sharded, baseline, rtol=1e-9, atol=1e-9
        )
