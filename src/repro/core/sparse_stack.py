"""CSR DM stacks: the union sparsity pattern, held once, shared by all kernels.

A :class:`SparseDMStack` is the storage + kernel layer under
:class:`~repro.core.batch.ReferenceStack`.  It lays the K reference
disaggregation matrices out over the *union* sparsity pattern of their
entries -- ``(entry_rows, entry_cols)`` in CSR (row-major) order with
``indptr`` over source rows.

For fixed weights the disaggregation is linear in the reference DMs
``D_j``, so ``BatchAligner.predict`` never forms the blended matrix.
It needs two things per stack, built once on first use from the
stack's own arrays (a store-loaded stack builds identical ones):

* ``ref_row_sums`` -- ``R``, the ``(k, m)`` row sums of each ``D_j``.
  The blend's row sums (the Eq. 16 denominators under the
  ``row-sums`` policy) are ``blend_weights @ R``;
* ``rescaled_totals`` -- the Eq. 16/17 kernel.  The target totals of
  the rescaled blend are ``sum_j blend_weights[:, j] * (factors @
  D_j)``: k sparse products over per-reference target-major ``(t, m)``
  CSR operators.

The entry-level kernels materialise per-entry values; they serve
``predict_dms``, ``/disaggregate``, the health audit and the shard
merge check:

* ``blend``        -- Eq. 14 numerator, ``W @ values`` over the union
  entries, returning a dense ``(n_attrs, nnz)`` matrix;
* ``row_sums``     -- per-source-row sums of an entry-value matrix;
* ``scale_rows_inplace`` -- the Eq. 16 volume-preserving rescale,
  applied in place and in bounded chunks so no ``(n_attrs, nnz)``
  gather temporary is ever materialised;
* ``reaggregate``  -- Eq. 17 column sums onto the target partition.

Three storage modes cover the density spectrum:

``"sparse"``
    General case: the per-reference values live in one SciPy CSR matrix
    of shape ``(k, nnz)`` whose columns are union entry positions.
    Blending is a sparse-dense product; memory is O(stored entries).
``"aligned"``
    Every reference has exactly the union pattern (the common case for
    synthetic producers like :mod:`repro.synth.bigalign`, where all
    crosswalks share one support).  The stack then holds per-reference
    value rows as *views of the reference matrices' own data arrays* --
    zero copies -- and blends by accumulation.
``"dense"``
    A materialised ``(k, nnz)`` matrix blended through BLAS.  Chosen
    automatically when the stored density exceeds
    :data:`DENSE_DENSITY_THRESHOLD` (above ~0.5 the CSR index overhead
    costs more than the zeros), or forced via ``REPRO_FORCE_DENSE`` /
    the ``--dense-fallback`` CLI flag so operators can bisect
    sparse-kernel regressions.

All kernels are mode-agnostic in their contracts and match the dense
oracle (``W @ dense_values`` etc.) to float reassociation noise; the
property suite in ``tests/test_sparse_stack.py`` pins 1e-12.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.typing import NDArray
from scipy import sparse

from repro.errors import ShapeMismatchError, ValidationError
from repro.obs.trace import incr as _obs_incr, span as _span

__all__ = [
    "DENSE_DENSITY_THRESHOLD",
    "FORCE_DENSE_ENV",
    "EntrySlice",
    "SparseDMStack",
    "dense_forced",
]

FloatArray = NDArray[np.float64]
IntArray = NDArray[np.int64]

#: Stored density above which the dense representation is both smaller
#: (no index arrays) and faster (BLAS blend) than CSR.  See
#: ``docs/batching.md``.
DENSE_DENSITY_THRESHOLD = 0.5

#: Environment variable forcing every new stack onto the dense path --
#: the production bisect switch behind ``geoalign-repro align
#: --dense-fallback``.
FORCE_DENSE_ENV = "REPRO_FORCE_DENSE"

#: Entry-count ceiling per rescale chunk; bounds the gather temporary
#: of :meth:`SparseDMStack.scale_rows_inplace` to a few megabytes.
_RESCALE_CHUNK_FLOATS = 1 << 20

_MODES = ("sparse", "aligned", "dense")


def dense_forced() -> bool:
    """Whether ``REPRO_FORCE_DENSE`` requests the dense fallback path."""
    value = os.environ.get(FORCE_DENSE_ENV, "").strip().lower()
    return value not in ("", "0", "false", "no")


@dataclass(frozen=True)
class EntrySlice:
    """Columns of the reference value stack for one entry subset.

    The shard engine ships these to disaggregation workers instead of
    unconditional dense blocks: for a sparse-mode stack the slice is
    CSR triplets (data / local column indices / per-reference indptr),
    so transfer volume scales with the *stored* entries of the shard,
    not ``k * n_entries``.  ``blend`` reproduces the owning stack's
    blend kernel on the slice (same per-entry accumulation order, so
    sharded and monolithic blends agree bitwise).
    """

    n_references: int
    n_entries: int
    dense: FloatArray | None = None
    data: FloatArray | None = None
    indices: NDArray[Any] | None = None
    indptr: NDArray[Any] | None = None

    def blend(self, weights: FloatArray) -> FloatArray:
        """Dense ``(n_attrs, n_entries)`` blend of this slice."""
        _obs_incr("kernel.slice_blends")
        if self.dense is not None:
            result: FloatArray = weights @ self.dense
            return result
        matrix = sparse.csr_matrix(
            (self.data, self.indices, self.indptr),
            shape=(self.n_references, self.n_entries),
        )
        result = np.asarray(weights @ matrix, dtype=float)
        return result


def _as_sorted_csr(matrix: Any) -> Any:
    """The matrix as canonical CSR, copying only when normalisation is
    actually needed (duplicate or unsorted entries)."""
    csr = sparse.csr_matrix(matrix, dtype=float)
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
        csr.sort_indices()
    return csr


class SparseDMStack:
    """K reference DMs over one union sparsity pattern, with kernels.

    Build through :meth:`from_matrices` (union construction, automatic
    mode selection) or :meth:`from_stored` (store loader: adopt arrays
    verbatim).  ``entry_rows``/``entry_cols`` are the union entries in
    CSR order; ``indptr`` the per-source-row pointers into them.
    """

    __slots__ = (
        "n_sources",
        "n_targets",
        "n_references",
        "mode",
        "indptr",
        "entry_rows",
        "entry_cols",
        "stored_nnz",
        "ref_matrix",
        "_rows",
        "_dense",
        "_nonempty_rows",
        "_nonempty_starts",
        "_ref_row_sums",
        "_operators",
        "_derived_lock",
    )

    def __init__(
        self,
        n_sources: int,
        n_targets: int,
        indptr: IntArray,
        entry_cols: NDArray[Any],
        mode: str,
        ref_matrix: Any | None = None,
        rows: list[FloatArray] | None = None,
        dense: FloatArray | None = None,
        stored_nnz: int | None = None,
    ) -> None:
        if mode not in _MODES:
            raise ValidationError(
                f"stack mode must be one of {_MODES}, got {mode!r}"
            )
        nnz = int(len(entry_cols))
        if len(indptr) != n_sources + 1 or int(indptr[-1]) != nnz:
            raise ShapeMismatchError(
                f"indptr must have {n_sources + 1} entries ending at "
                f"{nnz}, got {len(indptr)} ending at "
                f"{int(indptr[-1]) if len(indptr) else 'nothing'}"
            )
        self.n_sources = n_sources
        self.n_targets = n_targets
        self.mode = mode
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.entry_cols = entry_cols
        counts = np.diff(self.indptr)
        self.entry_rows = np.repeat(
            np.arange(n_sources, dtype=np.int64), counts
        )
        nonempty = counts > 0
        self._nonempty_rows = np.flatnonzero(nonempty)
        self._nonempty_starts = self.indptr[:-1][nonempty]
        # R and the target-major operators are built on first use, once:
        # the lock keeps stacks shared through PipelineCache safe.
        self._ref_row_sums: FloatArray | None = None
        self._operators: list[Any] | None = None
        self._derived_lock = threading.Lock()
        self.ref_matrix = None
        self._rows = None
        self._dense = None
        if mode == "sparse":
            if ref_matrix is None or ref_matrix.shape[1] != nnz:
                raise ShapeMismatchError(
                    "sparse mode needs a (k, nnz) reference value matrix"
                )
            self.ref_matrix = ref_matrix
            self.n_references = int(ref_matrix.shape[0])
            self.stored_nnz = int(ref_matrix.nnz)
        elif mode == "aligned":
            if not rows or any(len(row) != nnz for row in rows):
                raise ShapeMismatchError(
                    "aligned mode needs per-reference (nnz,) value rows"
                )
            self._rows = rows
            self.n_references = len(rows)
            self.stored_nnz = self.n_references * nnz
        else:
            if dense is None or dense.shape[1] != nnz:
                raise ShapeMismatchError(
                    "dense mode needs a (k, nnz) value matrix"
                )
            self._dense = dense
            self.n_references = int(dense.shape[0])
            self.stored_nnz = (
                int(stored_nnz)
                if stored_nnz is not None
                else int(np.count_nonzero(dense))
            )

    def __getstate__(self) -> dict[str, Any]:
        # Locks do not pickle; the copy gets a fresh one.
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if name != "_derived_lock"
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._derived_lock = threading.Lock()

    # -- construction ---------------------------------------------------
    @classmethod
    def from_matrices(
        cls,
        matrices: Sequence[Any],
        n_sources: int,
        n_targets: int,
        dense: bool | None = None,
    ) -> "SparseDMStack":
        """Union-pattern construction over K ``(m, t)`` sparse matrices.

        ``dense=None`` selects the mode automatically: the dense
        fallback when :func:`dense_forced` or the stored density
        exceeds :data:`DENSE_DENSITY_THRESHOLD`, the zero-copy aligned
        mode when every matrix already has the union pattern, CSR
        otherwise.  ``dense=True``/``False`` force / forbid the dense
        path (tests and the CLI bisect flag).
        """
        if not matrices:
            raise ValidationError("a DM stack needs at least one matrix")
        mats = [_as_sorted_csr(matrix) for matrix in matrices]
        for mat in mats:
            if mat.shape != (n_sources, n_targets):
                raise ShapeMismatchError(
                    f"stack matrices must all be ({n_sources}, "
                    f"{n_targets}), got {mat.shape}"
                )
        if dense is None and dense_forced():
            dense = True
        first = mats[0]
        aligned = all(
            mat.nnz == first.nnz
            and np.array_equal(mat.indptr, first.indptr)
            and np.array_equal(mat.indices, first.indices)
            for mat in mats[1:]
        )
        with _span(
            "stack.union",
            k=len(mats),
            aligned=aligned,
            stored_nnz=int(sum(mat.nnz for mat in mats)),
        ):
            if aligned:
                indptr = first.indptr.astype(np.int64)
                entry_cols = first.indices
                rows = [np.asarray(mat.data, dtype=float) for mat in mats]
                if dense:
                    return cls(
                        n_sources,
                        n_targets,
                        indptr,
                        entry_cols,
                        "dense",
                        dense=np.vstack(rows),
                        stored_nnz=len(rows) * first.nnz,
                    )
                return cls(
                    n_sources, n_targets, indptr, entry_cols, "aligned",
                    rows=rows,
                )
            return cls._from_unaligned(
                mats, n_sources, n_targets, dense=dense
            )

    @classmethod
    def _from_unaligned(
        cls,
        mats: list[Any],
        n_sources: int,
        n_targets: int,
        dense: bool | None,
    ) -> "SparseDMStack":
        """General union build: int64 ``row * t + col`` keys, one sort."""
        per_ref_keys: list[IntArray] = []
        for mat in mats:
            rows = np.repeat(
                np.arange(n_sources, dtype=np.int64), np.diff(mat.indptr)
            )
            per_ref_keys.append(
                rows * np.int64(n_targets) + mat.indices.astype(np.int64)
            )
        # k sorted runs: a stable sort merges them, and dropping adjacent
        # repeats yields exactly np.unique's result.
        keys = np.concatenate(per_ref_keys)
        keys.sort(kind="stable")
        distinct = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
        union_keys = keys[distinct]
        nnz = int(len(union_keys))
        entry_rows = union_keys // np.int64(n_targets)
        entry_cols = union_keys % np.int64(n_targets)
        indptr = np.zeros(n_sources + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(entry_rows, minlength=n_sources), out=indptr[1:]
        )
        stored = int(sum(mat.nnz for mat in mats))
        k = len(mats)
        density = stored / (k * nnz) if nnz else 1.0
        if dense or (dense is None and density > DENSE_DENSITY_THRESHOLD):
            values = np.zeros((k, nnz))
            for i, (mat, keys) in enumerate(zip(mats, per_ref_keys)):
                values[i, np.searchsorted(union_keys, keys)] = mat.data
            return cls(
                n_sources, n_targets, indptr, entry_cols, "dense",
                dense=values, stored_nnz=stored,
            )
        positions = np.concatenate(
            [np.searchsorted(union_keys, keys) for keys in per_ref_keys]
        )
        ref_indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum([mat.nnz for mat in mats], out=ref_indptr[1:])
        ref_matrix = sparse.csr_matrix(
            (
                np.concatenate(
                    [np.asarray(mat.data, dtype=float) for mat in mats]
                ),
                positions,
                ref_indptr,
            ),
            shape=(k, nnz),
        )
        return cls(
            n_sources, n_targets, indptr, entry_cols, "sparse",
            ref_matrix=ref_matrix,
        )

    @classmethod
    def from_stored(
        cls,
        n_sources: int,
        n_targets: int,
        entry_rows: NDArray[Any],
        entry_cols: NDArray[Any],
        mode: str,
        values: FloatArray | None = None,
        data: FloatArray | None = None,
        indices: NDArray[Any] | None = None,
        ref_indptr: NDArray[Any] | None = None,
    ) -> "SparseDMStack":
        """Adopt stored arrays verbatim (the store loader's entry point).

        The mode decides the payload: ``values`` for dense/aligned,
        CSR triplets for sparse.  Restoring the saved mode keeps a
        loaded model's blend arithmetic bitwise identical to the model
        that was saved.
        """
        nnz = int(len(entry_cols))
        indptr = np.zeros(n_sources + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(
                np.asarray(entry_rows, dtype=np.int64), minlength=n_sources
            ),
            out=indptr[1:],
        )
        if mode == "sparse":
            if data is None or indices is None or ref_indptr is None:
                raise ValidationError(
                    "sparse stored stacks need data/indices/indptr arrays"
                )
            ref_matrix = sparse.csr_matrix(
                (
                    np.asarray(data, dtype=float),
                    indices,
                    np.asarray(ref_indptr, dtype=np.int64),
                ),
                shape=(len(ref_indptr) - 1, nnz),
            )
            return cls(
                n_sources, n_targets, indptr, entry_cols, "sparse",
                ref_matrix=ref_matrix,
            )
        if values is None:
            raise ValidationError(
                "dense/aligned stored stacks need a values matrix"
            )
        if mode == "aligned":
            return cls(
                n_sources, n_targets, indptr, entry_cols, "aligned",
                rows=list(values),
            )
        return cls(
            n_sources, n_targets, indptr, entry_cols, "dense", dense=values,
        )

    # -- shape / accounting --------------------------------------------
    @property
    def nnz(self) -> int:
        """Entries in the union sparsity pattern."""
        return int(len(self.entry_cols))

    @property
    def density(self) -> float:
        """Stored entries over ``k * nnz`` (1.0 for aligned stacks)."""
        capacity = self.n_references * self.nnz
        return self.stored_nnz / capacity if capacity else 1.0

    @property
    def resident_bytes(self) -> int:
        """Bytes held by the stack's arrays: union indices, values, and
        ``R`` plus the target-major operators once built."""
        total = (
            int(self.indptr.nbytes)
            + int(self.entry_rows.nbytes)
            + int(np.asarray(self.entry_cols).nbytes)
        )
        if self.ref_matrix is not None:
            total += int(
                self.ref_matrix.data.nbytes
                + self.ref_matrix.indices.nbytes
                + self.ref_matrix.indptr.nbytes
            )
        if self._rows is not None:
            total += int(sum(row.nbytes for row in self._rows))
        if self._dense is not None:
            total += int(self._dense.nbytes)
        if self._ref_row_sums is not None:
            total += int(self._ref_row_sums.nbytes)
        if self._operators is not None:
            # Operators on one pattern share their index buffers: count
            # each buffer once, keyed by address.
            buffers = {
                array.ctypes.data: int(array.nbytes)
                for op in self._operators
                for array in (op.data, op.indices, op.indptr)
            }
            total += sum(buffers.values())
        return total

    @property
    def values(self) -> FloatArray:
        """Dense ``(k, nnz)`` oracle view of the stack (cached)."""
        if self._dense is None:
            if self._rows is not None:
                self._dense = np.vstack(self._rows)
            else:
                assert self.ref_matrix is not None
                self._dense = np.asarray(
                    self.ref_matrix.toarray(), dtype=float
                )
        return self._dense

    # -- linear-predict arrays ------------------------------------------
    def _ref_entries(self, i: int) -> tuple[FloatArray, IntArray, IntArray]:
        """Reference ``i``'s stored values with their source rows and
        target columns."""
        values, positions = self.ref_entry_values(i)
        if len(positions) == self.nnz:  # the whole union pattern
            return values, self.entry_rows, np.asarray(self.entry_cols)
        return values, self.entry_rows[positions], self.entry_cols[positions]

    @property
    def ref_row_sums(self) -> FloatArray:
        """``R``: ``(k, m)`` row sums of each reference DM (built once).

        ``blend_weights @ R`` equals the row sums of
        ``blend(blend_weights)`` -- the Eq. 16 ``row-sums`` denominators
        -- without forming the blend.
        """
        if self._ref_row_sums is None:
            with self._derived_lock:
                if self._ref_row_sums is None:
                    sums = np.empty((self.n_references, self.n_sources))
                    for i in range(self.n_references):
                        values, rows, _ = self._ref_entries(i)
                        sums[i] = np.bincount(
                            rows, weights=values, minlength=self.n_sources
                        )
                    self._ref_row_sums = sums
        return self._ref_row_sums

    def _target_major_operators(self) -> list[Any]:
        """Per-reference ``(t, m)`` CSR operators ``D_j^T`` (built once)."""
        if self._operators is None:
            with self._derived_lock:
                if self._operators is None:
                    self._operators = self._build_operators()
        return self._operators

    def _build_operators(self) -> list[Any]:
        """``D_j^T`` as ``(t, m)`` CSR with int32 indices where they fit.

        The CSC form of ``D_j`` is the CSR form of ``D_j^T``; converting a
        matrix whose values are the entries' own positions yields the
        transposing permutation (SciPy's counting sort keeps source rows
        ascending within each target).  References on one pattern
        (aligned and dense stacks) share it and the index arrays.
        """
        m, t = self.n_sources, self.n_targets
        index_dtype = (
            np.int32
            if max(self.nnz, m, t) < np.iinfo(np.int32).max
            else np.int64
        )
        operators: list[Any] = []
        pattern: tuple[IntArray, Any, Any, Any] | None = None
        with _span(
            "stack.operators", k=self.n_references, mode=self.mode
        ):
            for i in range(self.n_references):
                values, rows, cols = self._ref_entries(i)
                if pattern is None or not (
                    np.array_equal(pattern[0], rows)
                    and np.array_equal(pattern[1], cols)
                ):
                    row_indptr = np.zeros(m + 1, dtype=index_dtype)
                    row_indptr[1:] = np.cumsum(
                        np.bincount(rows, minlength=m)
                    )
                    by_target = sparse.csr_matrix(
                        (
                            np.arange(len(values), dtype=float),
                            cols.astype(index_dtype),
                            row_indptr,
                        ),
                        shape=(m, t),
                    ).tocsc()
                    pattern = (
                        rows,
                        cols,
                        by_target.data.astype(np.intp),
                        by_target,
                    )
                _, _, order, by_target = pattern
                operators.append(
                    sparse.csr_matrix(
                        (values[order], by_target.indices, by_target.indptr),
                        shape=(t, m),
                    )
                )
        return operators

    # -- kernels --------------------------------------------------------
    def blend(self, weights: FloatArray) -> FloatArray:
        """Eq. 14 numerator: ``(n, k) @ (k, nnz)`` over union entries."""
        with _span(
            "kernel.blend", n=int(weights.shape[0]), mode=self.mode
        ):
            if self.mode == "dense":
                assert self._dense is not None
                result: FloatArray = weights @ self._dense
                return result
            if self.mode == "aligned":
                assert self._rows is not None
                out = np.multiply.outer(weights[:, 0], self._rows[0])
                if len(self._rows) > 1:
                    scratch = np.empty_like(out)
                    for i in range(1, len(self._rows)):
                        np.multiply.outer(
                            weights[:, i], self._rows[i], out=scratch
                        )
                        out += scratch
                return out
            result = np.asarray(weights @ self.ref_matrix, dtype=float)
            return result

    def row_sums(self, entry_values: FloatArray) -> FloatArray:
        """Per-source-row sums of ``(n, nnz)`` entry-value matrices."""
        with _span("kernel.row_sums", n=int(entry_values.shape[0])):
            out = np.zeros((entry_values.shape[0], self.n_sources))
            if self._nonempty_starts.size:
                out[:, self._nonempty_rows] = np.add.reduceat(
                    entry_values, self._nonempty_starts, axis=1
                )
            return out

    def scale_rows_inplace(
        self, entry_values: FloatArray, factors: FloatArray
    ) -> FloatArray:
        """Eq. 16 in place: ``entry_values[:, e] *= factors[:, row(e)]``.

        Chunked over entries so the factor gather never materialises a
        full ``(n, nnz)`` temporary; returns its (mutated) input.
        """
        n = max(int(entry_values.shape[0]), 1)
        chunk = max(_RESCALE_CHUNK_FLOATS // n, 1024)
        with _span(
            "kernel.rescale", n=int(entry_values.shape[0]), chunk=chunk
        ):
            for lo in range(0, self.nnz, chunk):
                hi = min(lo + chunk, self.nnz)
                entry_values[:, lo:hi] *= factors[  # repro-lint: allow[ndarray-mutation] in-place is this kernel's contract (the name says so); the batch engine owns the buffer
                    :, self.entry_rows[lo:hi]
                ]
            return entry_values

    def reaggregate(self, entry_values: FloatArray) -> FloatArray:
        """Eq. 17: ``(n, nnz)`` entry values to ``(n, t)`` column sums."""
        with _span(
            "kernel.reaggregate", n=int(entry_values.shape[0])
        ):
            out = np.empty((entry_values.shape[0], self.n_targets))
            for j in range(entry_values.shape[0]):
                out[j] = np.bincount(
                    self.entry_cols,
                    weights=entry_values[j],
                    minlength=self.n_targets,
                )
            return out

    def rescaled_totals(
        self, blend_weights: FloatArray, factors: FloatArray
    ) -> FloatArray:
        """Eq. 16/17 by linearity: ``(n, t)`` totals of the rescaled blend.

        Equals ``reaggregate(scale_rows_inplace(blend(blend_weights),
        factors))`` -- the column sums of each blended DM after source
        row ``r`` is multiplied by ``factors[:, r]`` -- computed as
        ``sum_j blend_weights[:, j] * (factors @ D_j)`` over the
        target-major operators, so no ``(n, nnz)`` matrix exists.  A
        reference weighted zero for every attribute adds nothing and is
        skipped.  The association of the weights follows the stack's
        shape, so one stack always computes the same bits.
        """
        operators = self._target_major_operators()
        with _span(
            "kernel.rescaled_totals",
            n_attrs=int(factors.shape[0]),
            mode=self.mode,
        ):
            rhs = np.ascontiguousarray(factors.T)
            # Weight whichever side of the product is smaller: the
            # (m, n) factors or the (t, n) partial totals.
            weight_rhs = self.n_sources < self.n_targets
            totals: FloatArray | None = None
            for i, operator in enumerate(operators):
                weights = blend_weights[:, i]
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

    def entry_mass(self) -> FloatArray:
        """Per-union-entry value mass summed over references."""
        if self._dense is not None:
            result: FloatArray = self._dense.sum(axis=0)
            return result
        if self._rows is not None:
            out = self._rows[0].copy()
            for row in self._rows[1:]:
                out += row
            return out
        assert self.ref_matrix is not None
        return np.bincount(
            self.ref_matrix.indices,
            weights=self.ref_matrix.data,
            minlength=self.nnz,
        )

    # -- slicing / export ----------------------------------------------
    def entry_slice(self, entries: IntArray) -> EntrySlice:
        """The value stack restricted to an ascending entry subset.

        Dense/aligned stacks hand back a dense block; sparse stacks a
        CSR triplet slice with columns renumbered into the subset.
        """
        k = self.n_references
        if self._dense is not None:
            return EntrySlice(k, len(entries), dense=self._dense[:, entries])
        if self._rows is not None:
            block = np.empty((k, len(entries)))
            for i, row in enumerate(self._rows):
                block[i] = row[entries]
            return EntrySlice(k, len(entries), dense=block)
        assert self.ref_matrix is not None
        matrix = self.ref_matrix
        if len(entries) == 0:
            return EntrySlice(
                k,
                0,
                data=np.empty(0),
                indices=np.empty(0, dtype=np.int64),
                indptr=np.zeros(k + 1, dtype=np.int64),
            )
        lookup = np.searchsorted(entries, matrix.indices)
        lookup[lookup == len(entries)] = len(entries) - 1
        keep = entries[lookup] == matrix.indices
        stored_rows = np.repeat(
            np.arange(k, dtype=np.int64), np.diff(matrix.indptr)
        )
        indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(stored_rows[keep], minlength=k), out=indptr[1:]
        )
        return EntrySlice(
            k,
            len(entries),
            data=matrix.data[keep],
            indices=lookup[keep],
            indptr=indptr,
        )

    def ref_entry_values(self, i: int) -> tuple[FloatArray, IntArray]:
        """Reference ``i``'s stored values and their union positions."""
        if self._rows is not None:
            return self._rows[i], np.arange(self.nnz, dtype=np.int64)
        if self._dense is not None:
            return self._dense[i], np.arange(self.nnz, dtype=np.int64)
        assert self.ref_matrix is not None
        lo, hi = self.ref_matrix.indptr[i], self.ref_matrix.indptr[i + 1]
        return (
            np.asarray(self.ref_matrix.data[lo:hi], dtype=float),
            self.ref_matrix.indices[lo:hi].astype(np.int64),
        )

    def csr_arrays(self) -> tuple[FloatArray, IntArray, IntArray]:
        """CSR triplets of the reference value stack (store export)."""
        if self.ref_matrix is not None:
            return (
                np.asarray(self.ref_matrix.data, dtype=float),
                self.ref_matrix.indices.astype(np.int64),
                self.ref_matrix.indptr.astype(np.int64),
            )
        values = self.values
        k, nnz = values.shape
        return (
            np.ascontiguousarray(values.reshape(-1)),
            np.tile(np.arange(nnz, dtype=np.int64), k),
            np.arange(0, (k + 1) * nnz, nnz, dtype=np.int64),
        )

    def __repr__(self) -> str:
        return (
            f"SparseDMStack(mode={self.mode!r}, k={self.n_references}, "
            f"m={self.n_sources}, t={self.n_targets}, nnz={self.nnz}, "
            f"density={self.density:.3f})"
        )
