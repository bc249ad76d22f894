"""Tests for the sharded map-reduce aligner (``repro.core.shard``).

The equivalence harness proper lives in ``test_shard_equivalence.py``
(golden replay) and ``test_shard_properties.py`` (Hypothesis); this
module covers the planner's partition semantics, the aligner contract
(validation, staleness, drop-in parity with :class:`BatchAligner`,
process-pool path), the obs surface, and the retired sharding surfaces.
"""

import importlib

import numpy as np
import pytest

from repro import (
    BatchAligner,
    DisaggregationMatrix,
    Reference,
    ShardedAligner,
    plan_shards,
)
from repro.cli import build_parser
from repro.core.batch import ReferenceStack
from repro.errors import NotFittedError, ValidationError
from repro.metrics.crossval import leave_one_dataset_out
from repro.obs import evaluate_health
from repro.obs.health import FAIL, OK, SKIP, WARN


def make_universe(seed=0, m=40, n=12, k=3, n_attrs=4):
    """Random sparse universe; every source row keeps >= 1 entry."""
    rng = np.random.default_rng(seed)
    src = [f"s{i}" for i in range(m)]
    tgt = [f"t{j}" for j in range(n)]
    references = []
    for r in range(k):
        matrix = rng.random((m, n)) * (rng.random((m, n)) < 0.45)
        matrix[np.arange(m), rng.integers(0, n, size=m)] += 0.05
        references.append(
            Reference.from_dm(
                f"ref{r}", DisaggregationMatrix(matrix, src, tgt)
            )
        )
    objectives = rng.random((n_attrs, m)) * 10.0 + 0.1
    return references, objectives


class TestPlanShards:
    def test_tile_ownership_is_a_partition(self):
        references, _ = make_universe(seed=5)
        stack = ReferenceStack.build(references)
        plan = plan_shards(stack, 4)
        plan.validate()
        counts = np.zeros(stack.n_sources, dtype=int)
        for spec in plan.shards:
            counts[spec.rows] += 1
        assert np.all(counts == 1)

    def test_entries_follow_their_rows_owner(self):
        references, _ = make_universe(seed=2)
        stack = ReferenceStack.build(references)
        plan = plan_shards(stack, 3)
        for spec in plan.shards:
            assert np.all(
                np.isin(stack.entry_rows[spec.entries], spec.rows)
            )

    def test_single_shard_has_no_boundary_rows(self):
        references, _ = make_universe()
        stack = ReferenceStack.build(references)
        plan = plan_shards(stack, 1)
        assert plan.n_boundary_rows == 0
        assert np.all(plan.owner == 0)

    def test_dense_universe_boundary_rows_nonempty(self):
        # Every row writes every dense column, so once two shards own
        # rows, every row is a boundary row.
        rng = np.random.default_rng(9)
        matrix = rng.random((12, 5)) + 0.01
        ref = Reference.from_dm(
            "dense",
            DisaggregationMatrix(
                matrix,
                [f"s{i}" for i in range(12)],
                [f"t{j}" for j in range(5)],
            ),
        )
        stack = ReferenceStack.build([ref])
        plan = plan_shards(stack, 3)
        assert sum(spec.n_rows > 0 for spec in plan.shards) >= 2
        assert plan.n_boundary_rows == 12

    def test_more_shards_than_rows_leaves_empty_shards(self):
        references, _ = make_universe(m=4)
        stack = ReferenceStack.build(references)
        plan = plan_shards(stack, 7)
        plan.validate()
        assert len(plan.shards) == 7
        assert sum(spec.n_rows == 0 for spec in plan.shards) >= 3

    def test_invalid_inputs_rejected(self):
        references, _ = make_universe(m=6)
        stack = ReferenceStack.build(references)
        with pytest.raises(ValidationError):
            plan_shards(stack, 0)

    def test_repr_mentions_layout(self):
        references, _ = make_universe(m=6)
        stack = ReferenceStack.build(references)
        text = repr(plan_shards(stack, 2))
        assert "n_shards=2" in text


class TestShardedMatchesMonolithic:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 7])
    def test_weights_and_predictions_match(self, n_shards):
        references, objectives = make_universe(seed=3)
        expected = BatchAligner().fit(references, objectives)
        sharded = ShardedAligner(n_shards=n_shards).fit(
            references, objectives
        )
        np.testing.assert_allclose(
            sharded.weights_, expected.weights_, rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(
            sharded.predict(), expected.predict(), rtol=1e-9, atol=1e-9
        )

    @pytest.mark.parametrize("denominator", ["row-sums", "source-vectors"])
    def test_denominator_modes_match(self, denominator):
        references, objectives = make_universe(seed=11)
        expected = BatchAligner(denominator=denominator).fit(
            references, objectives
        )
        sharded = ShardedAligner(n_shards=3, denominator=denominator).fit(
            references, objectives
        )
        np.testing.assert_allclose(
            sharded.predict(), expected.predict(), rtol=1e-9, atol=1e-9
        )

    def test_masks_match(self):
        references, objectives = make_universe(seed=4, k=4)
        rng = np.random.default_rng(0)
        masks = rng.random((len(objectives), 4)) < 0.6
        masks[:, 0] = True  # every attribute keeps >= 1 reference
        expected = BatchAligner().fit(references, objectives, masks=masks)
        sharded = ShardedAligner(n_shards=4).fit(
            references, objectives, masks=masks
        )
        np.testing.assert_allclose(
            sharded.weights_, expected.weights_, rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(
            sharded.predict(), expected.predict(), rtol=1e-9, atol=1e-9
        )

    def test_process_pool_matches_inline(self):
        references, objectives = make_universe(seed=6)
        inline = ShardedAligner(n_shards=3, max_workers=1).fit(
            references, objectives
        )
        pooled = ShardedAligner(n_shards=3, max_workers=3).fit(
            references, objectives
        )
        np.testing.assert_array_equal(pooled.weights_, inline.weights_)
        np.testing.assert_array_equal(pooled.predict(), inline.predict())

    def test_prebuilt_stack_accepted(self):
        references, objectives = make_universe(seed=8)
        stack = ReferenceStack.build(references)
        direct = ShardedAligner(n_shards=2).fit(references, objectives)
        via_stack = ShardedAligner(n_shards=2).fit(stack, objectives)
        np.testing.assert_allclose(
            via_stack.predict(), direct.predict(), rtol=1e-12, atol=1e-12
        )

    def test_paired_references_fixture(self, paired_references):
        objectives = np.array([[3.0, 1.0, 4.0, 1.0, 5.0, 9.0]])
        expected = BatchAligner().fit(paired_references, objectives)
        sharded = ShardedAligner(n_shards=7).fit(
            paired_references, objectives
        )
        np.testing.assert_allclose(
            sharded.predict(), expected.predict(), rtol=1e-9, atol=1e-9
        )


class TestShardedAlignerContract:
    def test_invalid_constructor_args(self):
        with pytest.raises(ValidationError):
            ShardedAligner(n_shards=0)
        with pytest.raises(ValidationError):
            ShardedAligner(max_workers=0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            ShardedAligner().predict()

    def test_fit_exposes_plan_and_predict_sets_residual(self):
        references, objectives = make_universe(seed=1)
        model = ShardedAligner(n_shards=4).fit(references, objectives)
        assert model.plan_ is not None
        assert model.plan_.n_shards == 4
        assert model.merge_residual_ is None  # not predicted yet
        model.predict()
        assert model.merge_residual_ is not None
        assert model.merge_residual_ < 1e-12

    def test_refit_resets_merge_residual(self):
        references, objectives = make_universe(seed=1)
        model = ShardedAligner(n_shards=2).fit(references, objectives)
        model.predict()
        assert model.merge_residual_ is not None
        model.fit(references, objectives)
        assert model.merge_residual_ is None

    def test_repr_mentions_shards(self):
        text = repr(ShardedAligner(n_shards=5, max_workers=2))
        assert "n_shards=5" in text
        assert "max_workers=2" in text


class TestShardObservability:
    def test_spans_gauges_and_health(self, capture_trace):
        references, objectives = make_universe(seed=7)
        model = ShardedAligner(n_shards=4)
        with capture_trace("shard-obs") as session:
            model.fit(references, objectives).predict()
        assert session.find_spans("shard.plan")
        assert session.find_spans("shard.fit")
        assert session.find_spans("shard.predict")
        # One map phase: the disaggregation (the fit is not mapped).
        maps = session.find_spans("shard.map")
        assert [s.attrs["phase"] for s in maps] == ["disaggregate"]
        assert session.gauges["shard.count"] == 4.0
        assert session.gauges["shard.boundary_rows"] >= 0.0
        assert session.gauges["health.shard_merge_residual_max"] < 1e-9

        report = evaluate_health(session, model=model)
        verdicts = report.verdicts()
        assert verdicts["shard_merge_preservation"] == OK
        assert verdicts["volume_preservation"] in (OK, WARN)
        assert FAIL not in verdicts.values()

    def test_inline_worker_spans_cover_every_nonempty_shard(
        self, capture_trace
    ):
        references, objectives = make_universe(seed=7)
        with capture_trace() as session:
            ShardedAligner(n_shards=3).fit(references, objectives).predict()
        workers = session.find_spans("shard.worker")
        # 3 non-empty shards x 1 disaggregate phase, all inline at
        # max_workers=1, each under the caller's shard.map span.
        assert len(workers) == 3
        assert {s.attrs["phase"] for s in workers} == {"disaggregate"}
        map_ids = {s.span_id for s in session.find_spans("shard.map")}
        assert all(s.parent_id in map_ids for s in workers)

    def test_monolithic_run_skips_shard_check(self, capture_trace):
        references, objectives = make_universe(seed=7)
        model = BatchAligner()
        with capture_trace() as session:
            model.fit(references, objectives).predict()
        report = evaluate_health(session, model=model)
        assert report.get("shard_merge_preservation").status == SKIP


class TestRetiredSurfaces:
    """Sharding keeps one tile planner, the pool and the merge check;
    span stitching, the block strategy, the sharded crossval engine and
    the ``align --shard*`` flags are gone."""

    def test_telemetry_module_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.obs.telemetry")

    @pytest.mark.parametrize(
        "flag",
        [["--shards", "3"], ["--shard-strategy", "tile"],
         ["--shard-workers", "2"]],
        ids=["shards", "shard-strategy", "shard-workers"],
    )
    def test_align_shard_flags_exit_two(self, flag):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["align", *flag])
        assert excinfo.value.code == 2

    def test_crossval_has_no_sharded_engine(self):
        references, _ = make_universe(m=6)
        with pytest.raises(ValidationError):
            leave_one_dataset_out(references, engine="sharded")

    def test_no_strategy_argument(self):
        references, _ = make_universe(m=6)
        stack = ReferenceStack.build(references)
        with pytest.raises(TypeError):
            ShardedAligner(strategy="tile")
        with pytest.raises(TypeError):
            plan_shards(stack, 2, "block")
