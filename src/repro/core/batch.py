"""Batched multi-attribute alignment: N objectives, one pass of shared work.

The paper's Algorithm 1 aligns one attribute; :class:`BatchAligner` runs
it for N attributes against one reference set, and the scalar
:class:`~repro.core.geoalign.GeoAlign` estimator is its one-attribute
front.  Everything attribute-independent lives in a
:class:`ReferenceStack`, built once per reference set:

1. the max-normalised reference source vectors stacked into the design
   matrix ``A`` and the Gram matrix ``A^T A`` of Eq. 15.  Each reference
   normalises its own row once and keeps it
   (:meth:`~repro.core.reference.Reference.normalized_source`), and DMs
   found to share their labels remember it
   (:meth:`~repro.partitions.dm.DisaggregationMatrix.same_labels`), so
   a stack build over references seen before copies the rows and forms
   ``A^T A``;
2. ``R``, the ``(k, m)`` row sums of each reference disaggregation matrix
   ``D_j``, and the per-reference ``(t, m)`` operators ``D_j^T``
   (Eq. 16 / Eq. 17), COO views of each DM's own CSR entries, filled per
   reference by the first ``predict`` that weights it: Eq. 15's simplex
   leaves many weights at exactly zero, and a reference no fit weights
   is never filled.  Each DM builds its row sums and operator once
   (:meth:`~repro.partitions.dm.DisaggregationMatrix.linear_arrays`),
   so stacks over the same DMs -- the cross-validation folds, repeated
   fits -- share them;
3. the :class:`~repro.core.sparse_stack.SparseDMStack` holding the K
   reference DMs over the *union* of their sparsity patterns, built only
   when a consumer first asks for per-entry values.

:class:`BatchAligner` fits N attributes with N small simplex solves over
the shared Gram matrix (:func:`~repro.core.solver.simplex_lstsq_from_gram`).

For fixed weights the disaggregation is linear in the reference DMs, so
:meth:`BatchAligner.predict` never forms the ``(N, nnz)`` blend: the
Eq. 16 denominators are one ``(N, k) @ (k, m)`` product with ``R``, the
factors one masked divide, and the Eq. 17 totals one
:meth:`ReferenceStack.rescaled_totals` call.
:meth:`BatchAligner.predict_dms` materialises the N estimated DMs
through the union stack's blend and in-place rescale kernels.

Per-attribute reference masks make leave-one-out cross-validation and the
reference-selection series batchable against a single stack: the solve
for a masked attribute uses the sub-Gram ``G[mask][:, mask]``, and its
excluded references get an exactly-zero blend weight -- a no-op in the
blend, matching a fit on the subset.

An N-row fit matches N one-row fits to tolerance (the golden suite pins
1e-9), not bitwise: BLAS computes ``A^T b`` by one gemm for N rows and
by gemv for one.
"""

from __future__ import annotations

import copy
import threading
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np
from numpy.typing import ArrayLike, NDArray
from scipy import sparse

from repro.core.diagnostics import (
    effective_references,
    gram_condition_number,
    simplex_violation,
    weight_entropy,
)
from repro.core.reference import Reference
from repro.core.solver import SimplexLstsqResult, simplex_lstsq_from_gram
from repro.core.sparse_stack import SparseDMStack
from repro.obs.trace import event as _obs_event
from repro.obs.trace import (
    set_gauge as _set_gauge,
    set_gauge_max as _gauge_max,
    set_gauge_min as _gauge_min,
    span as _span,
    tracing_active as _tracing_active,
)
from repro.errors import (
    NotFittedError,
    ShapeMismatchError,
    ValidationError,
)
from repro.partitions.dm import DisaggregationMatrix
from repro.utils.arrays import as_float_array, as_nonnegative_vector
from repro.utils.fingerprint import combine_fingerprints

FloatArray = NDArray[np.float64]
IntArray = NDArray[np.int64]
BoolArray = NDArray[np.bool_]

_DENOMINATORS = ("source-vectors", "row-sums")


def _validated_references(references: Iterable[Reference]) -> list[Reference]:
    refs = list(references)
    if not refs:
        raise ValidationError("a reference stack needs at least one reference")
    for ref in refs:
        if not isinstance(ref, Reference):
            raise ValidationError(
                f"references must be Reference instances, got "
                f"{type(ref).__name__}"
            )
    first = refs[0].dm
    for ref in refs[1:]:
        if not first.same_labels(ref.dm):
            raise ShapeMismatchError(
                f"reference {ref.name!r} is labelled over different units "
                "than the others"
            )
    return refs


def _coerce_objectives_matrix(objectives: ArrayLike, n_sources: int) -> FloatArray:
    """Validate objectives into an ``(n_attrs, n_sources)`` float matrix.

    Shared by :class:`BatchAligner` and the sharded engine
    (:mod:`repro.core.shard`) so both paths reject exactly the same
    malformed inputs.
    """
    if isinstance(objectives, (list, tuple)):
        rows = [
            as_nonnegative_vector(row, name=f"objectives[{i}]")
            for i, row in enumerate(objectives)
        ]
        if not rows:
            raise ValidationError("objectives must not be empty")
        if len({len(row) for row in rows}) > 1:
            raise ValidationError("objectives rows differ in length")
        matrix = np.vstack(rows)
    else:
        matrix = as_float_array(objectives, name="objectives")
        if matrix.ndim == 1:
            matrix = matrix[np.newaxis, :]
        if matrix.ndim != 2:
            raise ValidationError(
                f"objectives must be (n_attrs, n_sources), got shape "
                f"{matrix.shape}"
            )
        if not np.all(np.isfinite(matrix)):
            raise ValidationError("objectives contain non-finite entries")
        if matrix.size and matrix.min() < 0:
            raise ValidationError(
                "objective aggregates must be non-negative"
            )
    if matrix.shape[1] != n_sources:
        raise ShapeMismatchError(
            f"objectives cover {matrix.shape[1]} source units but the "
            f"references cover {n_sources}"
        )
    if matrix.shape[0] == 0:
        raise ValidationError("objectives must not be empty")
    sums = matrix.sum(axis=1)
    if np.any(sums <= 0):
        bad = int(np.flatnonzero(sums <= 0)[0])
        raise ValidationError(
            f"objective {bad} is identically zero; every attribute "
            "must carry positive total mass"
        )
    return matrix


def _coerce_mask_matrix(
    masks: ArrayLike | None, n_attrs: int, n_refs: int
) -> BoolArray:
    """Validate per-attribute reference masks (default: all-true).

    Every entry must be a boolean or exactly 0 or 1: casting anything
    else to ``bool`` would read ``"false"`` or ``0.5`` as "use this
    reference".
    """
    if masks is None:
        return np.ones((n_attrs, n_refs), dtype=bool)
    try:
        raw = np.asarray(masks)
    except ValueError as exc:  # ragged nesting
        raise ValidationError(f"masks must be a matrix: {exc}") from None
    if raw.dtype.kind not in "biuf" or not np.isin(raw, (0, 1)).all():
        raise ValidationError(
            "every mask entry must be a boolean or exactly 0 or 1"
        )
    mask_matrix = raw.astype(bool)
    if mask_matrix.shape != (n_attrs, n_refs):
        raise ShapeMismatchError(
            f"masks must have shape ({n_attrs}, {n_refs}), got "
            f"{mask_matrix.shape}"
        )
    counts = mask_matrix.sum(axis=1)
    if np.any(counts == 0):
        bad = int(np.flatnonzero(counts == 0)[0])
        raise ValidationError(
            f"attribute {bad} masks out every reference; each needs "
            "at least one"
        )
    return mask_matrix


def _normalized_rhs(objective_matrix: FloatArray, normalize: bool) -> FloatArray:
    """Eq. 15 right-hand sides: per-attribute max-normalised objectives."""
    if normalize:
        result: FloatArray = objective_matrix / objective_matrix.max(
            axis=1, keepdims=True
        )
        return result
    return objective_matrix


def _solve_masked_weights(
    gram: FloatArray,
    atb_all: FloatArray,
    btb_all: FloatArray,
    mask_matrix: BoolArray,
) -> tuple[FloatArray, list[SimplexLstsqResult]]:
    """Per-attribute Eq. 15 simplex solves over one shared Gram matrix.

    ``atb_all`` is ``(k, n_attrs)`` (column j is ``A^T b_j``), ``btb_all``
    is ``(n_attrs,)``.  Masked-out references get weight exactly 0.0 via
    the sub-Gram solve.  Returns the ``(n_attrs, k)`` weight matrix plus
    the per-attribute solver results.  Every engine reaches it through
    :meth:`BatchAligner._solve_weights` on the stack's own ``gram``.
    """
    n_attrs, n_refs = mask_matrix.shape
    results: list[SimplexLstsqResult] = []
    weights = np.zeros((n_attrs, n_refs))
    for j in range(n_attrs):
        idx = np.flatnonzero(mask_matrix[j])
        subgram = gram if len(idx) == n_refs else gram[np.ix_(idx, idx)]
        result = simplex_lstsq_from_gram(
            subgram, atb_all[idx, j], btb=float(btb_all[j])
        )
        weights[j, idx] = result.weights
        results.append(result)
    return weights, results


def _rescale_factors(
    objectives: FloatArray, denominators: FloatArray
) -> FloatArray:
    """Eq. 16 factors: ``objectives / denominators`` where the denominator
    is positive, exactly 0.0 elsewhere (no inf/nan temporaries)."""
    factors = np.zeros_like(denominators)
    np.divide(objectives, denominators, out=factors, where=denominators > 0.0)
    return factors


def _emit_volume_health_gauges(
    objectives: FloatArray,
    covered: BoolArray,
    achieved_row_sums: FloatArray,
) -> None:
    """Eq. 16 residual and uncovered-mass gauges over covered rows.

    ``covered`` marks rows where the blend gave the rescale a positive
    denominator; mass in uncovered rows is a reference-coverage property
    (its own gauge), not a rescale defect, so the residual is measured
    over coverable rows only.  Residuals are relative to each
    attribute's largest covered source aggregate; the gauges keep the
    worst case.  Callers gate on :func:`tracing_active` before computing
    ``achieved_row_sums`` so the untraced path pays nothing.
    """
    _gauge_max(
        "health.uncovered_mass_max",
        float(
            (
                np.where(covered, 0.0, objectives).sum(axis=1)
                / objectives.sum(axis=1)
            ).max()
        ),
    )
    masked = np.where(covered, objectives, 0.0)
    achieved = np.where(covered, achieved_row_sums, 0.0)
    scale_per_attr = masked.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        per_attr = np.where(
            scale_per_attr > 0.0,
            np.abs(achieved - masked).max(axis=1) / scale_per_attr,
            0.0,
        )
    _gauge_max("health.volume_residual_max", float(per_attr.max()))


def _emit_weight_health_gauges(weights: FloatArray, gram: FloatArray) -> None:
    """Post-solve health gauges, worst case over the batch.

    Gated on an active trace so the untraced path pays nothing beyond
    the contextvar read.
    """
    if not _tracing_active():
        return
    _gauge_max(
        "health.simplex_violation_max",
        simplex_violation(weights),
    )
    _gauge_max(
        "health.gram_condition_max",
        gram_condition_number(gram),
    )
    _gauge_min(
        "health.effective_references_min",
        min(effective_references(row) for row in weights),
    )
    _gauge_min(
        "health.weight_entropy_min",
        min(weight_entropy(row) for row in weights),
    )


def _fill_linear(
    dms: Sequence[DisaggregationMatrix],
    refs: Sequence[int],
    row_sums: FloatArray,
    operators: list[Any],
) -> None:
    """Fill row ``R[j]`` and operator ``D_j^T`` for each ``j`` in ``refs``.

    Both come from the DM (:meth:`DisaggregationMatrix.linear_arrays`),
    which builds them once and keeps them, so every stack over a DM
    shares its operator object.  The ``stack.operators`` span counts the
    references filled (``k``) and the DMs this call built (``built``).
    """
    with _span("stack.operators", k=len(refs)) as fill_span:
        built = 0
        for j in refs:
            built += dms[j].build_linear_arrays()
            row_sums[j], operators[j] = dms[j].linear_arrays()
        if fill_span is not None:
            fill_span.attrs["built"] = built


class _DMArrays:
    """What a stack reads from its reference DMs, each filled once.

    ``R`` and the operators serve :meth:`BatchAligner.predict`, filled
    per reference: a reference's ``R`` row and operator on the first
    call that asks for that reference, so a reference no fit weights
    keeps an all-zero ``R`` row and no operator.  Each DM builds its
    row sums and operator once and keeps them, so a stack fills from
    the DM and builds nothing a stack over the same DM built before.
    An operator is a COO view of its DM's own CSR arrays and holds only
    its source index besides.  The union-pattern
    :class:`~repro.core.sparse_stack.SparseDMStack` serves the per-entry
    consumers.  Both are filled or built on first use under one lock,
    so a caller may share one stack across threads.  A stack and its
    :meth:`ReferenceStack.with_references` copies share one instance,
    so a member filled through any of them is filled for all.
    """

    def __init__(
        self,
        dms: list[DisaggregationMatrix],
        n_sources: int,
        n_targets: int,
    ) -> None:
        self.dms = dms
        self.n_sources = n_sources
        self.n_targets = n_targets
        self.dm_stack: SparseDMStack | None = None
        #: ``R``, allocated (all zero) by the first fill.
        self.row_sums: FloatArray | None = None
        #: Operator per reference, ``None`` until that reference is filled.
        self.operators: list[Any] = [None] * len(dms)
        self.lock = threading.Lock()

    def __getstate__(self) -> dict[str, Any]:
        # Locks do not pickle; the copy gets a fresh one.
        state = dict(self.__dict__)
        del state["lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.lock = threading.Lock()

    def union(self) -> SparseDMStack:
        """The union-pattern value stack, built on the first call."""
        if self.dm_stack is None:
            with self.lock:
                if self.dm_stack is None:
                    dm_stack = SparseDMStack.from_matrices(
                        [dm.matrix for dm in self.dms],
                        self.n_sources,
                        self.n_targets,
                    )
                    _set_gauge("health.stack_density", dm_stack.density)
                    self.dm_stack = dm_stack
        return self.dm_stack

    def _unfilled(self, refs: Iterable[int]) -> list[int]:
        return [j for j in refs if self.operators[j] is None]

    def linear_arrays(
        self, refs: Sequence[int] | None = None
    ) -> tuple[FloatArray, list[Any]]:
        """``(R, operators)`` with the members of ``refs`` filled.

        ``refs`` are ascending reference positions, every reference when
        ``None``.  Each unfilled one is filled once, in one
        ``stack.operators`` span per call that fills any.
        """
        wanted = range(len(self.dms)) if refs is None else refs
        row_sums = self.row_sums
        if row_sums is None or self._unfilled(wanted):
            with self.lock:
                if self.row_sums is None:
                    self.row_sums = np.zeros((len(self.dms), self.n_sources))
                row_sums = self.row_sums
                missing = self._unfilled(wanted)
                if missing:
                    _fill_linear(self.dms, missing, row_sums, self.operators)
        return row_sums, self.operators

    @property
    def resident_bytes(self) -> int:
        """``R`` and what the filled operators hold beyond their DMs' own
        arrays (the source indices, and any canonical copy), plus the
        union stack, once built."""
        total = 0
        if self.row_sums is not None:
            total += int(self.row_sums.nbytes)
            for op, dm in zip(self.operators, self.dms):
                if op is not None:
                    own = (id(dm.matrix.data), id(dm.matrix.indices))
                    total += sum(
                        int(array.nbytes)
                        for array in (op.data, op.row, op.col)
                        if id(array) not in own
                    )
        if self.dm_stack is not None:
            total += self.dm_stack.resident_bytes
        return total


class ReferenceStack:
    """All attribute-independent work for one reference set, done once.

    Parameters
    ----------
    references:
        Same-labelled :class:`~repro.core.reference.Reference` sequence.
    normalize:
        Whether the design matrix holds max-normalised source vectors
        (must match the aligner's ``normalize`` setting).

    Attributes
    ----------
    design:
        ``(m, k)`` stacked (normalised) reference source vectors.
    gram:
        ``design.T @ design`` -- shared across every attribute's Eq. 15
        solve.
    scales:
        Per-reference source maxima (1.0 each when ``normalize=False``);
        divides the learned weights back to raw-DM scale before blending.
    source_vectors:
        ``(k, m)`` raw reference source vectors, stacked on first read.
    ref_row_sums, operators:
        ``R`` and the per-reference ``D_j^T`` behind
        :meth:`rescaled_totals`, every reference's filled from its DM
        on first access; a predict fills only the references it weights
        (:meth:`linear_for`).
    dm_stack:
        The :class:`~repro.core.sparse_stack.SparseDMStack` holding the
        reference DM entries over the union sparsity pattern (zero-copy
        rows when every reference has that pattern, CSR otherwise),
        built on first access for the per-entry blend / rescale /
        re-aggregation kernels.
    entry_rows, entry_cols:
        ``(nnz,)`` source-row / target-column index of each union entry,
        sorted by ``(row, col)`` (CSR order); read through ``dm_stack``.
    """

    def __init__(
        self,
        references: Iterable[Reference],
        normalize: bool = True,
    ) -> None:
        refs = _validated_references(references)
        self.references = refs
        self.normalize = normalize
        self.source_labels = refs[0].dm.source_labels
        self.target_labels = refs[0].dm.target_labels
        self.n_sources = len(self.source_labels)
        self.n_targets = len(self.target_labels)

        if normalize:
            rows = [ref.normalized_source() for ref in refs]
            self.scales = np.array([ref.peak for ref in refs])
        else:
            rows = [ref.source_vector for ref in refs]
            self.scales = np.ones(len(refs))
        self.design = np.vstack(rows).T.copy()
        self.gram = self.design.T @ self.design
        self._source_vectors: FloatArray | None = None
        self._dms = _DMArrays(
            [ref.dm for ref in refs], self.n_sources, self.n_targets
        )
        self._fingerprint: str | None = None

    @property
    def n_references(self) -> int:
        return len(self.references)

    @property
    def source_vectors(self) -> FloatArray:
        """``(k, m)`` raw reference source vectors, stacked on first read.

        The ``source-vectors`` denominator, the store and the sharded
        engine read them; a fit reads only :attr:`design`.
        """
        if self._source_vectors is None:
            self._source_vectors = np.vstack(
                [ref.source_vector for ref in self.references]
            )
        return self._source_vectors

    @property
    def dm_stack(self) -> SparseDMStack:
        """The union-pattern value stack (built on first access)."""
        return self._dms.union()

    @property
    def built_dm_stack(self) -> SparseDMStack | None:
        """The union-pattern value stack if built, else ``None`` (reading
        it builds nothing)."""
        return self._dms.dm_stack

    @property
    def entry_rows(self) -> NDArray[Any]:
        return self.dm_stack.entry_rows

    @property
    def entry_cols(self) -> NDArray[Any]:
        return self.dm_stack.entry_cols

    @property
    def nnz(self) -> int:
        """Entries in the union sparsity pattern."""
        return self.dm_stack.nnz

    @property
    def ref_row_sums(self) -> FloatArray:
        """``R``: ``(k, m)`` row sums of each reference DM.

        ``blend_weights @ R`` equals the row sums of the blended DMs --
        the Eq. 16 ``row-sums`` denominators -- without forming them.
        """
        return self._dms.linear_arrays()[0]

    @property
    def operators(self) -> list[Any]:
        """Per-reference ``(t, m)`` COO operators ``D_j^T``, views of the
        reference DMs' canonical CSR entries."""
        return self._dms.linear_arrays()[1]

    def linear_for(
        self, blend_weights: FloatArray
    ) -> tuple[FloatArray, list[Any]]:
        """``(R, operators)`` built for the references ``blend_weights``
        weights in some attribute.

        A reference weighted zero for every attribute reads as an
        all-zero ``R`` row and a ``None`` operator until a call that
        weights it (or :attr:`ref_row_sums` / :attr:`operators`) builds
        it.  Its zero weight times the zero row adds the same ``+0.0``
        as times its real row, so the result is the same bits either
        way -- also while another thread fills rows this call weights
        zero.
        """
        return self._dms.linear_arrays(
            np.flatnonzero(blend_weights.any(axis=0)).tolist()
        )

    @property
    def resident_bytes(self) -> int:
        """Bytes held by ``R`` and the operators plus the union stack,
        each once built."""
        return self._dms.resident_bytes

    def rescaled_totals(
        self, blend_weights: FloatArray, factors: FloatArray
    ) -> FloatArray:
        """Eq. 16/17 by linearity: ``(n, t)`` totals of the rescaled blend.

        The column sums of each blended DM after source row ``r`` is
        multiplied by ``factors[:, r]``, computed as ``sum_j
        blend_weights[:, j] * (factors @ D_j)`` over the ``D_j^T``
        operators, so no ``(n, nnz)`` matrix exists.  A reference
        weighted zero for every attribute adds nothing: it is skipped,
        and its operator is not built.
        The association of the weights follows the stack's shape, so
        one stack always computes the same bits.
        """
        _, operators = self.linear_for(blend_weights)
        with _span("kernel.rescaled_totals", n_attrs=int(factors.shape[0])):
            rhs = np.ascontiguousarray(factors.T)
            # Weight whichever side of the product is smaller: the
            # (m, n) factors or the (t, n) partial totals.
            weight_rhs = self.n_sources < self.n_targets
            totals: FloatArray | None = None
            for j, operator in enumerate(operators):
                weights = blend_weights[:, j]
                if not weights.any():
                    continue
                if weight_rhs:
                    part: FloatArray = operator @ (rhs * weights)
                else:
                    part = operator @ rhs
                    part *= weights
                if totals is None:
                    totals = part
                else:
                    totals += part
            if totals is None:
                return np.zeros((factors.shape[0], self.n_targets))
            return np.ascontiguousarray(totals.T)

    def fingerprint(self) -> str:
        """Content fingerprint: the references plus the normalise flag."""
        if self._fingerprint is None:
            self._fingerprint = combine_fingerprints(
                "reference-stack",
                repr(bool(self.normalize)),
                *[ref.fingerprint() for ref in self.references],
            )
        return self._fingerprint

    @classmethod
    def build(
        cls, references: Iterable[Reference], normalize: bool = True
    ) -> "ReferenceStack":
        """Build a stack under a ``stack.build`` span.

        This is how a reference set is reused: build its stack once and
        pass it to every :meth:`BatchAligner.fit` over that set, as the
        server's ``/align``, the cross-validation folds and the Fig. 8
        series do.  What the stack builds on first use (``R``, the
        operators, the union stack) is then built once for all of them,
        and :meth:`with_references` carries it over to perturbed source
        vectors (Fig. 7).
        """
        with _span("stack.build"):
            return cls(references, normalize=normalize)

    def with_references(
        self, references: Iterable[Reference]
    ) -> "ReferenceStack":
        """A stack over references with the *same DMs*, new source vectors.

        The noise experiment (Fig. 7) perturbs reference source vectors
        while the crosswalk DMs stay intact, so ``R``, the operators and
        the union stack are shared wholesale (built or not), and the
        Gram matrix is updated rather than rebuilt: only the columns of
        references whose source vector actually changed are recomputed
        (a symmetric column replacement, ``O(m k c)`` for ``c`` changed
        references instead of the dense ``O(m k^2)`` re-product).  Each
        new reference must carry the identical DM object (or an
        equal-fingerprint one) as its positional counterpart.
        """
        refs = _validated_references(references)
        if len(refs) != self.n_references:
            raise ShapeMismatchError(
                f"stack holds {self.n_references} references, got "
                f"{len(refs)}"
            )
        for mine, theirs in zip(self.references, refs):
            if theirs.dm is not mine.dm and (
                theirs.dm.fingerprint() != mine.dm.fingerprint()
            ):
                raise ValidationError(
                    f"reference {theirs.name!r} carries a different DM "
                    "than the stack; build a fresh stack instead"
                )
        changed = [
            i
            for i, (mine, theirs) in enumerate(zip(self.references, refs))
            if theirs.source_vector is not mine.source_vector
            and not np.array_equal(theirs.source_vector, mine.source_vector)
        ]
        # A shallow copy shares the labels, the design/Gram pair (read-only
        # downstream) and the DM-derived arrays with this stack.
        clone = copy.copy(self)
        clone.references = refs
        clone._fingerprint = None
        if changed:
            clone.design = self.design.copy()
            clone.scales = self.scales.copy()
            clone._source_vectors = None
            for i in changed:
                ref = refs[i]
                if self.normalize:
                    clone.design[:, i] = ref.normalized_source()
                    clone.scales[i] = ref.peak
                else:
                    clone.design[:, i] = ref.source_vector
            # Symmetric column replacement: only rows/columns of the
            # changed references are re-projected against the (updated)
            # design; the unchanged (k-c)^2 block is reused bit-for-bit.
            idx = np.array(changed, dtype=np.intp)
            gram = self.gram.copy()
            cross = clone.design.T @ clone.design[:, idx]
            gram[:, idx] = cross
            gram[idx, :] = cross.T
            clone.gram = gram
        return clone

    def row_sums(self, blended: FloatArray) -> FloatArray:
        """Per-source-row sums of ``(n, nnz)`` blended value matrices."""
        return self.dm_stack.row_sums(blended)

    def dm_from_values(self, entry_values: FloatArray) -> DisaggregationMatrix:
        """Materialise one ``(nnz,)`` value vector as a labelled DM."""
        dm_stack = self.dm_stack
        mat = sparse.csr_matrix(
            (
                np.ascontiguousarray(entry_values, dtype=float),
                dm_stack.entry_cols.astype(np.int64, copy=False),
                dm_stack.indptr,
            ),
            shape=(self.n_sources, self.n_targets),
        )
        return DisaggregationMatrix(
            mat, self.source_labels, self.target_labels
        )

    def __repr__(self) -> str:
        return (
            f"ReferenceStack(k={self.n_references}, m={self.n_sources}, "
            f"t={self.n_targets})"
        )


class BatchAligner:
    """GeoAlign for N objective attributes sharing one reference set.

    Algorithm 1 run N times, with everything attribute-independent hoisted
    into a :class:`ReferenceStack`: one design/Gram build, then N small
    simplex solves, one denominator matmul and one Eq. 16/17 kernel
    call.  :class:`~repro.core.geoalign.GeoAlign` is its one-attribute
    front.

    Parameters
    ----------
    normalize, denominator:
        As in :class:`~repro.core.geoalign.GeoAlign`; applied to every
        attribute.

    Attributes (after :meth:`fit`)
    ------------------------------
    stack_:
        The shared :class:`ReferenceStack`.
    weights_:
        ``(n_attrs, k)`` learned simplex weights, zero at masked-out
        references.
    solver_results_:
        Per-attribute :class:`~repro.core.solver.SimplexLstsqResult`.

    A traced run splits the work into the paper's §4.3 stages as
    ``stage.*`` spans: ``stage.weights`` (the stack build and the
    solves), ``stage.disaggregation`` (the ``R`` and operator builds,
    the Eq. 16 denominators and factors) and ``stage.reaggregation``
    (the Eq. 17 operator products).
    """

    def __init__(
        self,
        normalize: bool = True,
        denominator: str = "row-sums",
    ) -> None:
        if denominator not in _DENOMINATORS:
            raise ValidationError(
                f"denominator must be one of {_DENOMINATORS}, "
                f"got {denominator!r}"
            )
        self.normalize = normalize
        self.denominator = denominator
        self.stack_: ReferenceStack | None = None
        self.weights_: FloatArray | None = None
        self.blend_weights_: FloatArray | None = None
        self.masks_: BoolArray | None = None
        self.attribute_names_: list[str] | None = None
        self.objectives_: FloatArray | None = None
        self.solver_results_: list[SimplexLstsqResult] | None = None
        self._scaled_values: FloatArray | None = None
        self._predictions: FloatArray | None = None

    # ------------------------------------------------------------------
    def _resolve_stack(
        self, references: Iterable[Reference] | ReferenceStack
    ) -> ReferenceStack:
        """A prebuilt stack (normalize must agree) or a fresh build."""
        if isinstance(references, ReferenceStack):
            if references.normalize != self.normalize:
                raise ValidationError(
                    "prebuilt ReferenceStack was built with "
                    f"normalize={references.normalize}, aligner has "
                    f"normalize={self.normalize}"
                )
            return references
        return ReferenceStack.build(references, normalize=self.normalize)

    def _coerce_fit_inputs(
        self,
        references: Iterable[Reference] | ReferenceStack,
        objectives: ArrayLike,
        attribute_names: Sequence[str] | None,
        masks: ArrayLike | None,
    ) -> tuple[ReferenceStack, FloatArray, BoolArray, list[str]]:
        """Validate the full fit input set, shared with the sharded engine."""
        stack = self._resolve_stack(references)
        objective_matrix = _coerce_objectives_matrix(objectives, stack.n_sources)
        n_attrs = objective_matrix.shape[0]
        mask_matrix = _coerce_mask_matrix(masks, n_attrs, stack.n_references)
        if attribute_names is None:
            names = [f"attr-{i}" for i in range(n_attrs)]
        else:
            names = [str(n) for n in attribute_names]
            if len(names) != n_attrs:
                raise ShapeMismatchError(
                    f"{n_attrs} objectives but {len(names)} attribute "
                    "names"
                )
            if len(set(names)) != n_attrs:
                raise ValidationError(
                    f"attribute names must be unique, got {names}"
                )
        return stack, objective_matrix, mask_matrix, names

    def fit(
        self,
        references: Iterable[Reference] | ReferenceStack,
        objectives: ArrayLike,
        attribute_names: Sequence[str] | None = None,
        masks: ArrayLike | None = None,
    ) -> "BatchAligner":
        """Learn Eq. 15 weights for every attribute in one shared pass.

        Parameters
        ----------
        references:
            The shared reference set -- a sequence of
            :class:`~repro.core.reference.Reference` or a prebuilt
            :class:`ReferenceStack` (which must match ``normalize``).
        objectives:
            ``(n_attrs, n_sources)`` matrix (or sequence of vectors) of
            source-level aggregates, one row per attribute.
        attribute_names:
            Optional names, used in reports; default ``attr-<i>``.
        masks:
            Optional ``(n_attrs, k)`` boolean matrix restricting which
            references each attribute may use (row of the full stack).
            Masked-out references get weight exactly 0.0.
        """
        with _span("batch.fit") as fit_span:
            with _span("stage.weights"):
                stack, objective_matrix, mask_matrix, names = (
                    self._coerce_fit_inputs(
                        references, objectives, attribute_names, masks
                    )
                )
                if fit_span is not None:
                    fit_span.attrs["n_attrs"] = objective_matrix.shape[0]
                    fit_span.attrs["n_references"] = stack.n_references
                weights = self._solve_weights(
                    stack, objective_matrix, mask_matrix, names
                )
            _emit_weight_health_gauges(weights, stack.gram)
        return self

    def _solve_weights(
        self,
        stack: ReferenceStack,
        objective_matrix: FloatArray,
        mask_matrix: BoolArray,
        names: list[str],
    ) -> FloatArray:
        """Eq. 15 for every attribute on the stack's Gram; store the fit.

        The one weight path of both engines: the sharded fit calls it on
        the same ``stack.gram``, so its weights are these bit for bit.
        Returns the stored weights.
        """
        rhs = _normalized_rhs(objective_matrix, self.normalize)
        # One matmul projects every attribute onto the shared design:
        # column j of atb_all is A^T b_j.
        atb_all = stack.design.T @ rhs.T
        btb_all = np.einsum("ij,ij->i", rhs, rhs)
        weights, results = _solve_masked_weights(
            stack.gram, atb_all, btb_all, mask_matrix
        )
        self.stack_ = stack
        self.weights_ = weights
        self.masks_ = mask_matrix
        self.attribute_names_ = names
        self.objectives_ = objective_matrix
        self.solver_results_ = results
        self.blend_weights_ = None
        self._scaled_values = None
        self._predictions = None
        return weights

    def _require_fitted(self) -> tuple[ReferenceStack, FloatArray, FloatArray]:
        if (
            self.stack_ is None
            or self.weights_ is None
            or self.objectives_ is None
        ):
            raise NotFittedError(
                "this BatchAligner instance is not fitted; call fit() first"
            )
        return self.stack_, self.weights_, self.objectives_

    # ------------------------------------------------------------------
    def _denominators_and_factors(
        self,
    ) -> tuple[FloatArray, FloatArray, FloatArray]:
        """Blend weights, Eq. 16 denominators and factors, all attributes.

        By linearity the blend's row sums are ``blend_weights @ R`` (``R``
        the stack's per-reference DM row sums), so neither policy needs
        the blended entries: ``source-vectors`` is the same product with
        the references' source vectors in place of ``R``.  The ``R`` rows
        and operators of the references these weights use are built here
        if no earlier call on the stack built them.
        """
        stack, weights, objectives = self._require_fitted()
        # The weights were learned on max-normalised vectors; blending
        # the raw DMs takes them back to each reference's own scale.
        blend_weights = weights / stack.scales[np.newaxis, :]
        row_sums, _ = stack.linear_for(blend_weights)
        self.blend_weights_ = blend_weights
        if self.denominator == "source-vectors":
            denominators = blend_weights @ stack.source_vectors
        else:
            denominators = blend_weights @ row_sums
        return (
            blend_weights,
            denominators,
            _rescale_factors(objectives, denominators),
        )

    def _compute_scaled_values(self) -> FloatArray:
        """Eq. 14/16 for all attributes: blend, then per-row rescale.

        Copy-free: the blend kernel allocates the single ``(n_attrs,
        nnz)`` output buffer and the Eq. 16 rescale mutates it in place,
        so the stage allocates exactly one value-sized array.
        """
        stack, _, objectives = self._require_fitted()
        if self._scaled_values is not None:
            return self._scaled_values
        with _span("batch.disaggregate"), _span("stage.disaggregation"):
            blend_weights, denominators, factors = (
                self._denominators_and_factors()
            )
            blended = stack.dm_stack.blend(blend_weights)
            _obs_event(
                "batch.blend_matmul",
                n_attrs=int(blended.shape[0]),
                nnz=stack.nnz,
                mode=stack.dm_stack.mode,
            )
            scaled = stack.dm_stack.scale_rows_inplace(blended, factors)
            if _tracing_active():
                _emit_volume_health_gauges(
                    objectives, denominators > 0.0, stack.row_sums(scaled)
                )
        self._scaled_values = scaled
        return scaled

    def predict_dms(self) -> list[DisaggregationMatrix]:
        """Estimated disaggregation matrices, one per attribute (Eq. 14)."""
        stack, _, _ = self._require_fitted()
        scaled = self._compute_scaled_values()
        return [stack.dm_from_values(row) for row in scaled]

    def predict(self) -> FloatArray:
        """``(n_attrs, n_targets)`` estimated target aggregates (Eq. 17).

        Computed by linearity, without the ``(n_attrs, nnz)`` blend: one
        ``(n, k) @ (k, m)`` product for the Eq. 16 denominators, one
        masked divide for the factors, one
        :meth:`ReferenceStack.rescaled_totals` call for the Eq. 17
        totals.  The union stack is never touched.
        """
        stack, _, objectives = self._require_fitted()
        if self._predictions is not None:
            return self._predictions
        with _span("batch.predict"):
            with _span("stage.disaggregation"):
                blend_weights, denominators, factors = (
                    self._denominators_and_factors()
                )
            with _span("stage.reaggregation"):
                self._predictions = stack.rescaled_totals(
                    blend_weights, factors
                )
            if _tracing_active():
                # Achieved row totals are factors times the blend's row
                # sums: O(n * m), no per-entry pass.
                row_sums = (
                    denominators
                    if self.denominator == "row-sums"
                    else blend_weights @ stack.linear_for(blend_weights)[0]
                )
                _emit_volume_health_gauges(
                    objectives, denominators > 0.0, factors * row_sums
                )
        return self._predictions

    def fit_predict(
        self,
        references: Iterable[Reference] | ReferenceStack,
        objectives: ArrayLike,
        attribute_names: Sequence[str] | None = None,
        masks: ArrayLike | None = None,
    ) -> FloatArray:
        """Convenience: ``fit(...)`` then ``predict()``."""
        return self.fit(
            references, objectives, attribute_names=attribute_names,
            masks=masks,
        ).predict()

    # ------------------------------------------------------------------
    def weight_report(self) -> dict[str, dict[str, float]]:
        """Per attribute, the mapping of reference name to learned weight."""
        stack, weights, _ = self._require_fitted()
        assert self.attribute_names_ is not None
        return {
            name: {
                ref.name: float(w)
                for ref, w in zip(stack.references, weights[j])
            }
            for j, name in enumerate(self.attribute_names_)
        }

    def __repr__(self) -> str:
        status = (
            f"fitted[{self.weights_.shape[0]} attrs]"
            if self.weights_ is not None
            else "unfitted"
        )
        return (
            f"BatchAligner(normalize={self.normalize}, "
            f"denominator={self.denominator!r}, {status})"
        )
