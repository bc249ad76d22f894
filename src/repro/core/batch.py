"""Batched multi-attribute alignment: N objectives, one pass of shared work.

The paper's Algorithm 1 aligns one attribute; :class:`BatchAligner` runs
it for N attributes against one reference set, and the scalar
:class:`~repro.core.geoalign.GeoAlign` estimator is its one-attribute
front.  Everything attribute-independent lives in a
:class:`ReferenceStack`, built once per reference set:

1. the max-normalised reference source vectors stacked into the design
   matrix ``A`` and the Gram matrix ``A^T A`` of Eq. 15;
2. ``R``, the ``(k, m)`` row sums of each reference disaggregation matrix
   ``D_j``, and the per-reference target-major ``(t, m)`` CSR operators
   ``D_j^T`` (Eq. 16 / Eq. 17), built on the first ``predict``;
3. the :class:`~repro.core.sparse_stack.SparseDMStack` holding the K
   reference DMs over the *union* of their sparsity patterns, built only
   when a consumer first asks for per-entry values.

:class:`BatchAligner` fits N attributes with N small simplex solves over
the shared Gram matrix -- each reusing one Cholesky factorization of it
(:func:`~repro.core.solver.simplex_lstsq_from_gram` with a
:class:`~repro.core.solver.GramFactor`).

For fixed weights the disaggregation is linear in the reference DMs, so
:meth:`BatchAligner.predict` never forms the ``(N, nnz)`` blend: the
Eq. 16 denominators are one ``(N, k) @ (k, m)`` product with ``R``, the
factors one masked divide, and the Eq. 17 totals one
:meth:`ReferenceStack.rescaled_totals` call.
:meth:`BatchAligner.predict_dms` materialises the N estimated DMs
through the union stack's sparse-dense blend and in-place rescale
kernels.

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
from repro.core.solver import (
    GramFactor,
    SimplexLstsqResult,
    simplex_lstsq_from_gram,
)
from repro.core.sparse_stack import SparseDMStack, _as_sorted_csr
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
        if (
            ref.dm.source_labels != first.source_labels
            or ref.dm.target_labels != first.target_labels
        ):
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

    The shared Gram matrix is Cholesky-factorized **once** and the
    factor threaded through every active-set solve (per attribute and
    per active-set iteration only triangular solves / rank updates
    remain); masked attributes get per-mask sub-factors, memoised so a
    leave-one-out series factorizes each sub-Gram once rather than per
    attribute.  A factorization failure (collinear references) simply
    falls back to the dense KKT least-squares path inside the solver.
    """
    n_attrs, n_refs = mask_matrix.shape
    results: list[SimplexLstsqResult] = []
    weights = np.zeros((n_attrs, n_refs))
    factor = GramFactor.try_build(gram) if n_refs > 1 else None
    sub_factors: dict[bytes, GramFactor | None] = {}
    for j in range(n_attrs):
        mask = mask_matrix[j]
        if mask.all():
            result = simplex_lstsq_from_gram(
                gram,
                atb_all[:, j],
                btb=float(btb_all[j]),
                factor=factor,
            )
            weights[j] = result.weights
        else:
            idx = np.flatnonzero(mask)
            subgram = gram[np.ix_(idx, idx)]
            sub_factor: GramFactor | None = None
            if len(idx) > 1:
                key = mask.tobytes()
                if key not in sub_factors:
                    sub_factors[key] = GramFactor.try_build(subgram)
                sub_factor = sub_factors[key]
            result = simplex_lstsq_from_gram(
                subgram,
                atb_all[idx, j],
                btb=float(btb_all[j]),
                factor=sub_factor,
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


def _build_linear(
    matrices: Sequence[Any], n_sources: int, n_targets: int
) -> tuple[FloatArray, list[Any]]:
    """``R`` and the target-major operators ``D_j^T`` of K reference DMs.

    ``R[j]`` is one CSR mat-vec of ``D_j`` with a ones vector.  The
    operators are ``(t, m)`` CSR with int32 indices where they fit: the
    CSC form of ``D_j`` is the CSR form of ``D_j^T``, and converting a
    matrix whose values are the entries' own positions yields the
    transposing permutation (SciPy's counting sort keeps source rows
    ascending within each target).  References on one pattern share it
    and the index arrays.
    """
    m, t = n_sources, n_targets
    row_sums = np.empty((len(matrices), m))
    ones = np.ones(t)
    operators: list[Any] = []
    pattern: tuple[Any, NDArray[np.intp], Any] | None = None
    with _span("stack.operators", k=len(matrices)):
        for j, matrix in enumerate(matrices):
            csr = _as_sorted_csr(matrix)
            row_sums[j] = csr @ ones
            if pattern is None or not (
                np.array_equal(pattern[0].indptr, csr.indptr)
                and np.array_equal(pattern[0].indices, csr.indices)
            ):
                index_dtype = (
                    np.int32
                    if max(csr.nnz, m, t) < np.iinfo(np.int32).max
                    else np.int64
                )
                by_target = sparse.csr_matrix(
                    (
                        np.arange(csr.nnz, dtype=float),
                        csr.indices.astype(index_dtype, copy=False),
                        csr.indptr.astype(index_dtype, copy=False),
                    ),
                    shape=(m, t),
                ).tocsc()
                pattern = (csr, by_target.data.astype(np.intp), by_target)
            _, order, by_target = pattern
            operators.append(
                sparse.csr_matrix(
                    (csr.data[order], by_target.indices, by_target.indptr),
                    shape=(t, m),
                )
            )
    return row_sums, operators


class _DMArrays:
    """What a stack derives from its reference DMs, each built once.

    ``R`` and the operators serve :meth:`BatchAligner.predict`; the
    union-pattern :class:`~repro.core.sparse_stack.SparseDMStack`
    serves the per-entry consumers.  Both are built on first use under
    one lock, so a caller may share one stack across threads.  Stacks
    over the same DMs (:meth:`ReferenceStack.with_references`) share
    one instance, so a member built through any of them is built for
    all.
    """

    def __init__(
        self,
        matrices: list[Any],
        n_sources: int,
        n_targets: int,
        dense: bool | None = None,
        dm_stack: SparseDMStack | None = None,
    ) -> None:
        self.matrices = matrices
        self.n_sources = n_sources
        self.n_targets = n_targets
        self.dense = dense
        self.dm_stack = dm_stack
        self.linear: tuple[FloatArray, list[Any]] | None = None
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
                        self.matrices,
                        self.n_sources,
                        self.n_targets,
                        dense=self.dense,
                    )
                    _set_gauge("health.stack_density", dm_stack.density)
                    self.dm_stack = dm_stack
        return self.dm_stack

    def linear_arrays(self) -> tuple[FloatArray, list[Any]]:
        """``(R, operators)``, built together on the first call."""
        if self.linear is None:
            with self.lock:
                if self.linear is None:
                    self.linear = _build_linear(
                        self.matrices, self.n_sources, self.n_targets
                    )
        return self.linear

    @property
    def resident_bytes(self) -> int:
        """``R`` and the operators, plus the union stack, once built."""
        total = 0
        if self.linear is not None:
            row_sums, operators = self.linear
            # Operators on one pattern share their index buffers: count
            # each buffer once, keyed by address.
            buffers = {
                array.ctypes.data: int(array.nbytes)
                for op in operators
                for array in (op.data, op.indices, op.indptr)
            }
            total += int(row_sums.nbytes) + sum(buffers.values())
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
    dense:
        Storage-mode override for the union stack: ``None`` (default)
        auto-selects (CSR below ~0.5 stored density, dense above, the
        zero-copy aligned layout when every reference shares the union
        pattern); ``True``/``False`` force / forbid the dense path.

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
    ref_row_sums, operators:
        ``R`` and the per-reference ``D_j^T`` behind
        :meth:`rescaled_totals`, built together on first use.
    dm_stack:
        The :class:`~repro.core.sparse_stack.SparseDMStack` holding the
        reference DM entries in CSR layout over the union sparsity
        pattern, built on first access for the per-entry blend /
        rescale / re-aggregation kernels.
    entry_rows, entry_cols:
        ``(nnz,)`` source-row / target-column index of each union entry,
        sorted by ``(row, col)`` (CSR order); read through ``dm_stack``.
    """

    def __init__(
        self,
        references: Iterable[Reference],
        normalize: bool = True,
        dense: bool | None = None,
    ) -> None:
        refs = _validated_references(references)
        self.references = refs
        self.normalize = normalize
        self.source_labels = refs[0].dm.source_labels
        self.target_labels = refs[0].dm.target_labels
        self.n_sources = len(self.source_labels)
        self.n_targets = len(self.target_labels)

        if normalize:
            self.design = np.column_stack(
                [ref.normalized_source() for ref in refs]
            )
            self.scales = np.array(
                [float(ref.source_vector.max()) for ref in refs]
            )
        else:
            self.design = np.column_stack(
                [ref.source_vector for ref in refs]
            )
            self.scales = np.ones(len(refs))
        self.gram = self.design.T @ self.design
        self.source_vectors = np.vstack([ref.source_vector for ref in refs])
        self._dms = _DMArrays(
            [ref.dm.matrix for ref in refs],
            self.n_sources,
            self.n_targets,
            dense=dense,
        )
        self._fingerprint: str | None = None

    @property
    def n_references(self) -> int:
        return len(self.references)

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
    def values(self) -> FloatArray:
        """Dense ``(k, nnz)`` oracle view of the value stack (cached)."""
        return self.dm_stack.values

    @property
    def ref_row_sums(self) -> FloatArray:
        """``R``: ``(k, m)`` row sums of each reference DM.

        ``blend_weights @ R`` equals the row sums of the blended DMs --
        the Eq. 16 ``row-sums`` denominators -- without forming them.
        """
        return self._dms.linear_arrays()[0]

    @property
    def operators(self) -> list[Any]:
        """Per-reference ``(t, m)`` CSR operators ``D_j^T``."""
        return self._dms.linear_arrays()[1]

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
        blend_weights[:, j] * (factors @ D_j)`` over the target-major
        operators, so no ``(n, nnz)`` matrix exists.  A reference
        weighted zero for every attribute adds nothing and is skipped.
        The association of the weights follows the stack's shape, so
        one stack always computes the same bits.
        """
        operators = self.operators
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

    @classmethod
    def from_stored(
        cls,
        references: list[Reference],
        normalize: bool,
        source_labels: list[str],
        target_labels: list[str],
        design: FloatArray,
        scales: FloatArray,
        gram: FloatArray,
        source_vectors: FloatArray,
        dm_stack: SparseDMStack,
    ) -> "ReferenceStack":
        """Adopt stored arrays and a built union stack verbatim (the
        store loader's entry point); ``references`` must carry the DMs
        the union stack holds."""
        stack = object.__new__(cls)
        stack.references = references
        stack.normalize = normalize
        stack.source_labels = source_labels
        stack.target_labels = target_labels
        stack.n_sources = len(source_labels)
        stack.n_targets = len(target_labels)
        stack.design = design
        stack.scales = scales
        stack.gram = gram
        stack.source_vectors = source_vectors
        stack._dms = _DMArrays(
            [ref.dm.matrix for ref in references],
            stack.n_sources,
            stack.n_targets,
            dm_stack=dm_stack,
        )
        stack._fingerprint = None
        return stack

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
            clone.source_vectors = self.source_vectors.copy()
            for i in changed:
                ref = refs[i]
                clone.source_vectors[i] = ref.source_vector
                if self.normalize:
                    clone.design[:, i] = ref.normalized_source()
                    clone.scales[i] = float(ref.source_vector.max())
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
        the references' source vectors in place of ``R``.  The first call
        on a stack builds ``R`` and the operators.
        """
        stack, weights, objectives = self._require_fitted()
        row_sums = stack.ref_row_sums
        # The weights were learned on max-normalised vectors; blending
        # the raw DMs takes them back to each reference's own scale.
        blend_weights = weights / stack.scales[np.newaxis, :]
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
                    else blend_weights @ stack.ref_row_sums
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
