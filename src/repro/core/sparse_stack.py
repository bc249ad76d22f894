"""CSR DM stacks: the union sparsity pattern, held once, shared by all kernels.

A :class:`SparseDMStack` is the per-entry storage + kernel layer under
:class:`~repro.core.batch.ReferenceStack`.  It lays the K reference
disaggregation matrices out over the *union* sparsity pattern of their
entries -- ``(entry_rows, entry_cols)`` in CSR (row-major) order with
``indptr`` over source rows.

``BatchAligner.predict`` does not read it: for fixed weights the
disaggregation is linear in the reference DMs, so the Eq. 16/17 totals
come from per-reference quantities the reference stack owns.  The
union stack is built on first use, for the consumers that need
per-entry values -- ``predict_dms``, ``/disaggregate``, the health
audit, and the shard planner and merge check:

* ``blend``        -- Eq. 14 numerator, ``W @ values`` over the union
  entries, returning a dense ``(n_attrs, nnz)`` matrix;
* ``row_sums``     -- per-source-row sums of an entry-value matrix;
* ``scale_rows_inplace`` -- the Eq. 16 volume-preserving rescale,
  applied in place and in bounded chunks so no ``(n_attrs, nnz)``
  gather temporary is ever materialised;
* ``reaggregate``  -- Eq. 17 column sums onto the target partition.

Two storage layouts, chosen only by the references' patterns:

``"aligned"``
    Every reference has exactly the union pattern (the common case for
    synthetic producers like :mod:`repro.synth.bigalign`, where all
    crosswalks share one support).  The stack then holds per-reference
    value rows as *views of the reference matrices' own data arrays* --
    zero copies -- and blends by accumulation.
``"sparse"``
    Every other case: the per-reference values live in one SciPy CSR
    matrix of shape ``(k, nnz)`` whose columns are union entry
    positions.  Blending is a sparse-dense product; memory is
    O(stored entries).

Both layouts satisfy the same kernel contracts and match the dense
oracle (``W @ values`` etc.) to float reassociation noise; the property
suite in ``tests/test_sparse_stack.py`` pins 1e-12.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np
from numpy.typing import NDArray
from scipy import sparse

from repro.errors import ShapeMismatchError, ValidationError
from repro.obs.trace import incr as _obs_incr, span as _span
from repro.partitions.dm import _as_sorted_csr

__all__ = [
    "EntrySlice",
    "SparseDMStack",
]

FloatArray = NDArray[np.float64]
IntArray = NDArray[np.int64]

#: Entry-count ceiling per rescale chunk; bounds the gather temporary
#: of :meth:`SparseDMStack.scale_rows_inplace` to a few megabytes.
_RESCALE_CHUNK_FLOATS = 1 << 20

_MODES = ("sparse", "aligned")


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


class SparseDMStack:
    """K reference DMs over one union sparsity pattern, with kernels.

    Build through :meth:`from_matrices` (union construction and layout
    selection).  ``entry_rows``/``entry_cols`` are the union entries in
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
        "_nonempty_rows",
        "_nonempty_starts",
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
        self.ref_matrix = None
        self._rows = None
        if mode == "sparse":
            if ref_matrix is None or ref_matrix.shape[1] != nnz:
                raise ShapeMismatchError(
                    "sparse mode needs a (k, nnz) reference value matrix"
                )
            self.ref_matrix = ref_matrix
            self.n_references = int(ref_matrix.shape[0])
            self.stored_nnz = int(ref_matrix.nnz)
        else:
            if not rows or any(len(row) != nnz for row in rows):
                raise ShapeMismatchError(
                    "aligned mode needs per-reference (nnz,) value rows"
                )
            self._rows = rows
            self.n_references = len(rows)
            self.stored_nnz = self.n_references * nnz

    # -- construction ---------------------------------------------------
    @classmethod
    def from_matrices(
        cls,
        matrices: Sequence[Any],
        n_sources: int,
        n_targets: int,
    ) -> "SparseDMStack":
        """Union-pattern construction over K ``(m, t)`` sparse matrices.

        The zero-copy aligned layout when every matrix already has the
        union pattern, CSR otherwise.
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
                return cls(
                    n_sources,
                    n_targets,
                    first.indptr.astype(np.int64),
                    first.indices,
                    "aligned",
                    rows=[np.asarray(mat.data, dtype=float) for mat in mats],
                )
            return cls._from_unaligned(mats, n_sources, n_targets)

    @classmethod
    def _from_unaligned(
        cls, mats: list[Any], n_sources: int, n_targets: int
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
        k = len(mats)
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
        """Bytes held by the stack's arrays: union indices and values."""
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
        return total

    @property
    def values(self) -> FloatArray:
        """Dense ``(k, nnz)`` oracle view of the stack.

        A new array on every read, which the stack does not keep: no
        kernel reads it, so reading it changes nothing the kernels do.
        """
        if self._rows is not None:
            return np.vstack(self._rows)
        assert self.ref_matrix is not None
        return np.asarray(self.ref_matrix.toarray(), dtype=float)

    # -- kernels --------------------------------------------------------
    def blend(self, weights: FloatArray) -> FloatArray:
        """Eq. 14 numerator: ``(n, k) @ (k, nnz)`` over union entries."""
        with _span(
            "kernel.blend", n=int(weights.shape[0]), mode=self.mode
        ):
            if self._rows is not None:
                out = np.multiply.outer(weights[:, 0], self._rows[0])
                if len(self._rows) > 1:
                    scratch = np.empty_like(out)
                    for i in range(1, len(self._rows)):
                        np.multiply.outer(
                            weights[:, i], self._rows[i], out=scratch
                        )
                        out += scratch
                return out
            result: FloatArray = np.asarray(
                weights @ self.ref_matrix, dtype=float
            )
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

    def entry_mass(self) -> FloatArray:
        """Per-union-entry value mass summed over references."""
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

    # -- slicing -------------------------------------------------------
    def entry_slice(self, entries: IntArray) -> EntrySlice:
        """The value stack restricted to an ascending entry subset.

        Aligned stacks hand back a dense block; sparse stacks a CSR
        triplet slice with columns renumbered into the subset.
        """
        k = self.n_references
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

    def __repr__(self) -> str:
        return (
            f"SparseDMStack(mode={self.mode!r}, k={self.n_references}, "
            f"m={self.n_sources}, t={self.n_targets}, nnz={self.nnz}, "
            f"density={self.density:.3f})"
        )
