"""Sharded map-reduce alignment: million-unit universes, one shard at a time.

The batched engine (:mod:`repro.core.batch`) fits a whole universe in one
address space; Fig. 6 scalability tops out where that single process does.
This module shards the universe spatially and runs the disaggregation as
a map over a process pool, reducing back to *exactly* the monolithic
answer:

**Weights (Eq. 15).**  The fit solves on the stack's own Gram matrix
through :meth:`repro.core.batch.BatchAligner._solve_weights`, the call
the monolithic engine makes, so sharded weights are the monolithic ones
bit for bit at every shard count.  Only the plan is extra.

**Disaggregation (Eq. 14/16).**  Source rows are wholly owned by exactly
one shard (see *boundary-row ownership* below), so the per-row rescale —
the step that makes volume preservation hold — is shard-local and exact.
Target columns are the hazard: a column near a shard edge receives mass
from rows owned by different shards, so each shard returns *partial*
column aggregates which the reduce phase merges.  This is precisely the
partial-aggregate trap the related work warns about; merging partials is
safe for sums, and a post-merge re-aggregation pass recomputes Eq. 17
monolithically over the assembled entry values and checks the merged
result against it (``health.shard_merge_residual_max``), with the global
Eq. 16 check (``health.volume_residual_max``) run over the *merged*
disaggregation, not per shard.

**Boundary-row ownership.**  ``plan_shards`` assigns every source row to
exactly one shard (a partition — property-tested): target columns are
split into contiguous tiles and each row goes to the tile holding the
majority of its reference mass (ties to the lowest tile; rows with no
entries to shard 0).  Rows whose target columns are also written by
rows of *other* shards are counted as boundary rows
(``shard.boundary_rows``): they are the rows whose column aggregates
only become correct after the merge.

The worker is a module-level pure function on plain NumPy payloads, so
it pickles cleanly into a :class:`~concurrent.futures.ProcessPoolExecutor`
and never touches shared state (writes would be silently lost at the
process boundary; ``test_pooled_predictions_bitwise_equal_inline`` pins
pooled predictions to inline ones).  ``max_workers=1`` runs the
identical code inline, which is both the deterministic test path and
the zero-overhead default.  A worker failure is wrapped into
:class:`~repro.errors.ShardError` carrying the shard id and phase, after
draining the pool.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.core.batch import (
    BatchAligner,
    ReferenceStack,
    _emit_volume_health_gauges,
    _emit_weight_health_gauges,
    _rescale_factors,
)
from repro.core.reference import Reference
from repro.core.sparse_stack import EntrySlice
from repro.errors import ShardError, ValidationError
from repro.obs.trace import (
    event as _obs_event,
    set_gauge as _set_gauge,
    set_gauge_max as _gauge_max,
    span as _span,
    tracing_active as _tracing_active,
)

FloatArray = NDArray[np.float64]
IntArray = NDArray[np.int64]
BoolArray = NDArray[np.bool_]

#: The one map phase; named in worker spans and in :class:`ShardError`.
_PHASE = "disaggregate"

#: Chaos hook for the fault-injection suite: set to ``"<phase>:<shard>"``
#: (e.g. ``"disaggregate:1"``) to make that shard's worker raise.  An
#: environment variable rather than a monkeypatch because the child
#: processes of a pool inherit the parent environment under every start
#: method.
FAULT_ENV = "REPRO_SHARD_FAULT"


def _raise_injected_fault(phase: str, shard_id: int) -> None:
    spec = os.environ.get(FAULT_ENV)
    if spec is not None and spec == f"{phase}:{shard_id}":
        # The chaos hook raises a foreign exception on purpose: the
        # fault-injection tests prove arbitrary worker crashes get
        # wrapped into ShardError.
        raise RuntimeError(  # repro-lint: allow[error-types] deliberate foreign error
            f"injected shard fault ({spec}); set by {FAULT_ENV}"
        )


def _shard_error(shard_id: int, exc: BaseException | None) -> ShardError:
    return ShardError(
        f"shard {shard_id} failed during the {_PHASE!r} map phase: {exc}",
        shard_id=shard_id,
        phase=_PHASE,
    )


# ---------------------------------------------------------------------------
# shard planning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardSpec:
    """One shard's owned slice of the universe.

    Attributes
    ----------
    shard_id:
        Position in the plan (also the index into ``ShardPlan.shards``).
    rows:
        Owned source-row indices, ascending.  Every row belongs to
        exactly one shard.
    entries:
        Indices into the stack's union entry arrays whose source row is
        owned by this shard.  Because entries follow their row's owner,
        the per-row rescale is shard-local and exact.
    """

    shard_id: int
    rows: IntArray
    entries: IntArray

    @property
    def n_rows(self) -> int:
        return int(len(self.rows))

    @property
    def n_entries(self) -> int:
        return int(len(self.entries))


@dataclass(frozen=True)
class ShardPlan:
    """A partition of the universe's source rows into shards.

    Attributes
    ----------
    owner:
        ``(n_sources,)`` owning shard id per source row.
    shards:
        One :class:`ShardSpec` per shard; shards may be empty when the
        universe is smaller than the shard count.
    boundary_rows:
        Source rows whose target columns also receive entries from rows
        owned by a different shard — the rows whose column aggregates
        are only correct after the reduce-phase merge.
    """

    n_shards: int
    n_sources: int
    n_entries: int
    owner: IntArray
    shards: tuple[ShardSpec, ...]
    boundary_rows: IntArray

    @property
    def n_boundary_rows(self) -> int:
        return int(len(self.boundary_rows))

    def validate(self) -> None:
        """Check the ownership partition invariants; raise on violation.

        Every source row and every union entry must be owned exactly
        once across the shard specs — the property the equivalence of
        the sharded and monolithic engines rests on.
        """
        if len(self.owner) != self.n_sources:
            raise ValidationError(
                f"owner covers {len(self.owner)} rows, plan declares "
                f"{self.n_sources}"
            )
        if self.owner.size and (
            self.owner.min() < 0 or self.owner.max() >= self.n_shards
        ):
            raise ValidationError(
                "owner assigns a row to a shard outside the plan"
            )
        all_rows = np.concatenate(
            [spec.rows for spec in self.shards]
            or [np.empty(0, dtype=np.int64)]
        )
        if not np.array_equal(np.sort(all_rows), np.arange(self.n_sources)):
            raise ValidationError(
                "shard row sets do not partition the source rows"
            )
        all_entries = np.concatenate(
            [spec.entries for spec in self.shards]
            or [np.empty(0, dtype=np.int64)]
        )
        if not np.array_equal(
            np.sort(all_entries), np.arange(self.n_entries)
        ):
            raise ValidationError(
                "shard entry sets do not partition the union entries"
            )

    def __repr__(self) -> str:
        return (
            f"ShardPlan(n_shards={self.n_shards}, "
            f"n_sources={self.n_sources}, "
            f"boundary_rows={self.n_boundary_rows})"
        )


def _split_labels(n_items: int, n_parts: int) -> IntArray:
    """Part index of each item under ``np.array_split`` semantics."""
    size, extra = divmod(n_items, n_parts)
    sizes = np.full(n_parts, size)
    sizes[:extra] += 1
    return np.repeat(np.arange(n_parts, dtype=np.int64), sizes)


def plan_shards(stack: ReferenceStack, n_shards: int) -> ShardPlan:
    """Partition the stack's source rows into ``n_shards`` owned shards.

    The target columns are split into contiguous tiles
    (``np.array_split`` semantics, so uneven counts are fine), and each
    source row is owned by the tile carrying the majority of the row's
    reference mass (ties go to the lowest tile; rows without entries to
    shard 0), which keeps the reduce-phase column merge local to tile
    edges.
    """
    if n_shards < 1:
        raise ValidationError(f"n_shards must be >= 1, got {n_shards}")
    with _span("shard.plan", n_shards=n_shards) as span:
        entry_rows, entry_cols = stack.entry_rows, stack.entry_cols
        # Majority vote over reference mass: how much of each row's
        # union-entry mass (summed over references) lands in each tile,
        # accumulated per (row, tile) code in entry order.  argmax ties
        # break to the lowest tile, and rows with no entries (all-zero
        # votes) land on shard 0.
        codes = entry_rows * n_shards
        codes += _split_labels(stack.n_targets, n_shards)[entry_cols]
        votes = np.bincount(
            codes,
            weights=stack.dm_stack.entry_mass(),
            minlength=stack.n_sources * n_shards,
        )
        # Prompt frees: these entry-length temporaries are the planner's
        # peak at million-target scale, and the sharded engine's whole
        # point is a low memory ceiling.
        del codes
        owner = np.argmax(
            votes.reshape(stack.n_sources, n_shards), axis=1
        ).astype(np.int64)
        del votes

        entry_owner = owner[entry_rows].astype(np.int32)
        shards = tuple(
            ShardSpec(
                shard_id=shard_id,
                rows=np.flatnonzero(owner == shard_id).astype(np.int64),
                entries=np.flatnonzero(entry_owner == shard_id).astype(
                    np.int64
                ),
            )
            for shard_id in range(n_shards)
        )
        del entry_owner

        # Boundary rows: rows writing into target columns that entries
        # of more than one shard write to.  One boolean scratch marks
        # each shard's columns in turn; entry_rows is sorted, so the
        # selected rows dedupe by adjacent difference.
        shard_count = np.zeros(stack.n_targets, dtype=np.int32)
        seen = np.zeros(stack.n_targets, dtype=bool)
        for spec in shards:
            cols = entry_cols[spec.entries]
            seen[cols] = True
            shard_count += seen
            seen[cols] = False
        shared_rows = entry_rows[(shard_count > 1)[entry_cols]]
        del shard_count, seen
        boundary_rows = shared_rows[np.diff(shared_rows, prepend=-1) != 0]
        if span is not None:
            span.attrs["boundary_rows"] = int(len(boundary_rows))
        return ShardPlan(
            n_shards=n_shards,
            n_sources=stack.n_sources,
            n_entries=stack.nnz,
            owner=owner,
            shards=shards,
            boundary_rows=boundary_rows,
        )


# ---------------------------------------------------------------------------
# the map-phase worker (module level: picklable into a process pool; pure:
# results travel back as return values, never through shared state)
# ---------------------------------------------------------------------------

#: (shard_id, blend weights, entry-value slice, entries per owned row,
#:  entry cols, objectives slice, source-vector slice or None,
#:  denominator).  The entry values travel as an
#: :class:`~repro.core.sparse_stack.EntrySlice` -- CSR triplets for
#: sparse-mode stacks -- so worker transfer volume scales with the
#: shard's *stored* entries, not ``k * n_entries``; the entries' local
#: rows travel as one count per owned row, since a shard's entries are
#: in CSR order.
_DisaggregatePayload = tuple[
    int,
    FloatArray,
    EntrySlice,
    IntArray,
    NDArray[Any],
    FloatArray,
    "FloatArray | None",
    str,
]
#: (shard_id, covered rows, touched cols, partial sums).
#: The scaled entry values themselves stay inside the worker: the
#: reduce only needs the partial column sums, and the merge check
#: recomputes the disaggregation independently (see
#: ``ShardedAligner.predict``), so the per-shard result transfer is
#: column-sized, not entry-sized.
_DisaggregatePartial = tuple[int, BoolArray, IntArray, FloatArray]


def _column_map(values: NDArray[Any]) -> tuple[IntArray, IntArray]:
    """Sorted distinct ``values`` and each value's index among them.

    ``np.unique(values, return_inverse=True)`` as int64, without a sort
    or a hash: a presence mask over the ``[min, max]`` span marks the
    distinct values and a running count over it numbers them.  Linear
    in ``len(values)`` plus the span, which for a shard's target
    columns is a narrow band of the universe.
    """
    if values.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    low = int(values.min())
    offsets = values - low
    present = np.zeros(int(offsets.max()) + 1, dtype=bool)
    present[offsets] = True
    rank = np.cumsum(present, dtype=np.int64)
    rank -= 1
    distinct: IntArray = np.flatnonzero(present).astype(np.int64)
    distinct += low
    return distinct, rank[offsets]


def _disaggregate_shard_worker(
    payload: _DisaggregatePayload,
) -> _DisaggregatePartial:
    """Blend + Eq. 16 rescale over one shard, plus partial column sums.

    The shard owns whole source rows, so denominators and rescale
    factors here are identical to the monolithic computation for those
    rows.  Column sums are *partial* (other shards may write the same
    target columns); they come back compressed to the touched columns
    so transfer volume scales with the shard, not the universe.

    The ``shard.worker`` span records into whatever sessions are active
    where the worker runs: the caller's on the inline path, none (or a
    forked copy that dies with the child) in a pool worker.
    """
    (
        shard_id,
        blend_weights,
        values,
        row_counts,
        entry_cols,
        objectives,
        source_vectors,
        denominator,
    ) = payload
    with _span("shard.worker", shard=shard_id, phase=_PHASE):
        _raise_injected_fault(_PHASE, shard_id)
        n_rows = len(row_counts)
        entry_local_rows = np.repeat(np.arange(n_rows), row_counts)
        blended = values.blend(blend_weights)
        if denominator == "source-vectors":
            assert source_vectors is not None
            denominators = blend_weights @ source_vectors
        else:
            denominators = np.vstack(
                [
                    np.bincount(
                        entry_local_rows, weights=row, minlength=n_rows
                    )
                    for row in blended
                ]
            )
        factors = _rescale_factors(objectives, denominators)
        scaled = blended * factors[:, entry_local_rows]
        touched, local_cols = _column_map(entry_cols)
        partial = np.vstack(
            [
                np.bincount(local_cols, weights=row, minlength=len(touched))
                for row in scaled
            ]
        )
        covered: BoolArray = denominators > 0.0
    return shard_id, covered, touched, partial


# ---------------------------------------------------------------------------
# the sharded aligner
# ---------------------------------------------------------------------------


class ShardedAligner(BatchAligner):
    """Map-reduce :class:`~repro.core.batch.BatchAligner` over shards.

    Same interface and fitted attributes as the monolithic engine — a
    drop-in — plus the plan and the merge residual.  Its weights are the
    monolithic engine's bit for bit, and its predictions match to
    reassociation noise at every shard count (the equivalence harness
    pins both for {1, 2, 4, 7}).

    Parameters
    ----------
    n_shards:
        Number of shards to partition the universe into (see
        :func:`plan_shards`).
    max_workers:
        Process-pool width for the disaggregation map.  1 (default)
        runs the identical shard code inline on the calling process —
        deterministic and overhead-free for small universes.
    normalize, denominator:
        As in :class:`~repro.core.batch.BatchAligner`.

    Attributes (after :meth:`fit` / :meth:`predict`)
    ------------------------------------------------
    plan_:
        The :class:`ShardPlan` used by the last fit.
    merge_residual_:
        Post-merge re-aggregation residual: merged partial column sums
        vs a monolithic Eq. 17 pass over the assembled entries, each
        attribute relative to its own largest target aggregate, worst
        attribute reported.  Also emitted as the
        ``health.shard_merge_residual_max`` gauge.
    """

    def __init__(
        self,
        n_shards: int = 2,
        normalize: bool = True,
        denominator: str = "row-sums",
        max_workers: int = 1,
    ) -> None:
        super().__init__(normalize=normalize, denominator=denominator)
        if n_shards < 1:
            raise ValidationError(f"n_shards must be >= 1, got {n_shards}")
        if max_workers < 1:
            raise ValidationError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.n_shards = n_shards
        self.max_workers = max_workers
        self.plan_: ShardPlan | None = None
        self.merge_residual_: float | None = None

    # ------------------------------------------------------------------
    def _map_shards(
        self, payloads: Iterable[_DisaggregatePayload]
    ) -> Iterator[_DisaggregatePartial]:
        """Run the disaggregate map; partials arrive in shard-id order.

        With ``max_workers == 1`` this is the memory-bounded path: each
        payload is *built, mapped and consumed* before the next one is
        materialised, so at no point do all shards' payloads or partials
        coexist -- the reducer folds results as they stream past.  With
        a process pool the payloads must be materialised for pickling
        anyway; results are collected and sorted by shard id, because
        completion order varies run to run and float accumulation is
        order-sensitive.  Any worker exception is re-raised as a
        :class:`ShardError` naming the shard and phase, after cancelling
        queued work and draining the pool (no orphaned children, no
        hang).  Inline workers' ``shard.worker`` spans nest under
        ``shard.map``; pooled workers' spans stay in their processes.
        """
        count = 0
        with _span(
            "shard.map", phase=_PHASE, max_workers=self.max_workers
        ) as map_span:
            partials: Iterable[_DisaggregatePartial]
            if self.max_workers == 1:
                partials = map(self._inline, payloads)
            else:
                batch = list(payloads)
                if len(batch) > 1:
                    partials = self._pooled(batch)
                else:
                    partials = map(self._inline, batch)
            for partial in partials:
                count += 1
                yield partial
            if map_span is not None:
                map_span.attrs["n_shards"] = count

    @staticmethod
    def _inline(payload: _DisaggregatePayload) -> _DisaggregatePartial:
        try:
            return _disaggregate_shard_worker(payload)
        except Exception as exc:
            raise _shard_error(int(payload[0]), exc) from exc

    def _pooled(
        self, payloads: Sequence[_DisaggregatePayload]
    ) -> list[_DisaggregatePartial]:
        results: list[_DisaggregatePartial] = []
        with ProcessPoolExecutor(
            max_workers=min(self.max_workers, len(payloads))
        ) as pool:
            futures = {
                pool.submit(_disaggregate_shard_worker, payload): int(
                    payload[0]
                )
                for payload in payloads
            }
            done, _pending = wait(futures, return_when=FIRST_EXCEPTION)
            failed = next(
                (f for f in done if f.exception() is not None), None
            )
            if failed is not None:
                # Drain before raising: queued shards are cancelled,
                # running ones finish, children exit.
                pool.shutdown(wait=True, cancel_futures=True)
                exc = failed.exception()
                raise _shard_error(futures[failed], exc) from exc
            for future, shard_id in futures.items():
                results.append(future.result())
                _obs_event("shard.collect", shard=shard_id, phase=_PHASE)
        results.sort(key=lambda partial: partial[0])
        return results

    # ------------------------------------------------------------------
    def fit(
        self,
        references: Iterable[Reference] | ReferenceStack,
        objectives: ArrayLike,
        attribute_names: Sequence[str] | None = None,
        masks: ArrayLike | None = None,
    ) -> "ShardedAligner":
        """Plan the shards, then solve Eq. 15 as the monolithic engine does.

        Accepts exactly the inputs of
        :meth:`~repro.core.batch.BatchAligner.fit`.  The weights come
        from the same solve on the stack's own Gram matrix, so they do
        not depend on the plan; only :meth:`predict` is mapped.
        """
        with _span("shard.fit", n_shards=self.n_shards) as fit_span:
            stack, objective_matrix, mask_matrix, names = (
                self._coerce_fit_inputs(
                    references, objectives, attribute_names, masks
                )
            )
            plan = plan_shards(stack, self.n_shards)
            _set_gauge("shard.count", float(plan.n_shards))
            _set_gauge(
                "shard.boundary_rows", float(plan.n_boundary_rows)
            )
            if fit_span is not None:
                fit_span.attrs["n_attrs"] = objective_matrix.shape[0]
                fit_span.attrs["n_references"] = stack.n_references
                fit_span.attrs["boundary_rows"] = plan.n_boundary_rows
            weights = self._solve_weights(
                stack, objective_matrix, mask_matrix, names
            )
            _emit_weight_health_gauges(weights, stack.gram)
        self.plan_ = plan
        self.merge_residual_ = None
        return self

    # ------------------------------------------------------------------
    def predict(self) -> FloatArray:
        """Map per-shard disaggregations, merge, re-aggregate, verify.

        The reduce phase accumulates each shard's partial target-column
        sums (shard order, so repeated runs are bitwise-identical).  The
        merge check then recomputes every attribute's disaggregation
        *monolithically* -- blend, Eq. 16 rescale, Eq. 17 re-aggregation
        -- one attribute at a time and compares the columns against the
        merged result (``merge_residual_``); anything beyond
        reassociation noise means a shard boundary dropped or
        double-counted a column.  Neither phase materialises the
        assembled ``(n_attrs, nnz)`` scaled value matrix: the map folds
        shard partials as they stream in, the check holds one
        attribute's entry values at a time, and ``predict_dms`` /
        serving recompute the full matrix lazily through the monolithic
        kernels only when asked.  The global Eq. 16 gauges are computed
        over the merged result, not per shard.
        """
        stack, weights, objectives = self._require_fitted()
        if self._predictions is not None:
            return self._predictions
        plan = self.plan_
        assert plan is not None
        n_attrs = objectives.shape[0]
        dm_stack = stack.dm_stack
        row_counts = np.diff(dm_stack.indptr)

        def payload_for(spec: ShardSpec) -> _DisaggregatePayload:
            return (
                spec.shard_id,
                blend_weights,
                dm_stack.entry_slice(spec.entries),
                row_counts[spec.rows],
                dm_stack.entry_cols[spec.entries],
                objectives[:, spec.rows],
                stack.source_vectors[:, spec.rows]
                if self.denominator == "source-vectors"
                else None,
                self.denominator,
            )

        with _span("shard.predict", n_shards=plan.n_shards):
            blend_weights = weights / stack.scales[np.newaxis, :]
            self.blend_weights_ = blend_weights
            covered = np.zeros((n_attrs, stack.n_sources), dtype=bool)
            merged = np.zeros((n_attrs, stack.n_targets))
            # Lazy payloads + streaming fold: each shard's value slice
            # and partials exist only while that shard is in flight (on
            # the inline path), so peak memory carries the merged output
            # plus one shard's transient state -- never all shards, and
            # never an assembled entry-value matrix.
            partials = self._map_shards(
                payload_for(spec) for spec in plan.shards if spec.n_rows
            )
            for sid, covered_s, touched, partial in partials:
                spec = plan.shards[sid]
                covered[:, spec.rows] = covered_s
                merged[:, touched] += partial
            residual = self._verify_merge(merged, blend_weights, covered)
            self.merge_residual_ = residual
            _gauge_max("health.shard_merge_residual_max", residual)
            self._predictions = merged
        return merged

    def _verify_merge(
        self,
        merged: FloatArray,
        blend_weights: FloatArray,
        covered: BoolArray,
    ) -> float:
        """Independent monolithic recompute of the merged Eq. 17 pass.

        One attribute at a time: blend that attribute's entry values
        through the shared CSR kernels, rescale (Eq. 16), re-aggregate
        (Eq. 17), and compare against the shard-merged columns.  The
        recompute shares no arithmetic with the map-phase workers or
        the partial-sum reduce, so a dropped or double-counted boundary
        column surfaces here no matter which side lost it -- while peak
        memory carries a single ``(1, nnz)`` value row instead of the
        full ``(n_attrs, nnz)`` matrix.  Each attribute's error is
        relative to its own largest re-aggregated column (absolute for
        an attribute with no mass), so a small-valued attribute is not
        drowned out by a large one; the worst attribute is returned.
        Also emits the merged-volume Eq. 16 gauges (computed over the
        merged result, never per shard) when tracing is active.

        ``_scaled_values`` is deliberately *not* populated here;
        :meth:`predict_dms` and serving inherit the monolithic
        lazy-recompute path from :class:`BatchAligner`.
        """
        stack, _, objectives = self._require_fitted()
        n_attrs = objectives.shape[0]
        residual = 0.0
        achieved = (
            np.zeros_like(objectives) if _tracing_active() else None
        )
        for j in range(n_attrs):
            blended_j = stack.dm_stack.blend(blend_weights[j : j + 1])
            if self.denominator == "source-vectors":
                denominators = (
                    blend_weights[j : j + 1] @ stack.source_vectors
                )
            else:
                denominators = stack.row_sums(blended_j)
            factors = _rescale_factors(
                objectives[j : j + 1], denominators
            )
            scaled_j = stack.dm_stack.scale_rows_inplace(
                blended_j, factors
            )
            reaggregated_j = np.bincount(
                stack.entry_cols,
                weights=scaled_j[0],
                minlength=stack.n_targets,
            )
            if achieved is not None:
                achieved[j] = stack.row_sums(scaled_j)[0]
            # Free the entry row and diff in place: this loop is the
            # sharded engine's memory high-water mark at million-target
            # scale, so the comparison must not stack fresh
            # column-length temporaries on top of the merged output.
            del blended_j, scaled_j
            scale = max(
                float(reaggregated_j.max()), -float(reaggregated_j.min())
            )
            np.subtract(reaggregated_j, merged[j], out=reaggregated_j)
            np.abs(reaggregated_j, out=reaggregated_j)
            error = float(reaggregated_j.max())
            residual = max(residual, error / scale if scale > 0.0 else error)
            del reaggregated_j
        if achieved is not None:
            _emit_volume_health_gauges(objectives, covered, achieved)
        return residual

    def __repr__(self) -> str:
        status = (
            f"fitted[{self.weights_.shape[0]} attrs]"
            if self.weights_ is not None
            else "unfitted"
        )
        return (
            f"ShardedAligner(n_shards={self.n_shards}, "
            f"max_workers={self.max_workers}, "
            f"denominator={self.denominator!r}, {status})"
        )
