"""Labelled sparse disaggregation matrices.

A disaggregation matrix ``DM_x`` of attribute ``x`` between a source and a
target unit system (paper Eq. 13) holds in cell ``[i, j]`` the aggregate
of ``x`` in the intersection of source unit ``i`` and target unit ``j``.
Row sums recover the source aggregate vector; column sums recover the
target aggregate vector.  Real crosswalk relationship files are exactly
this object in tabular form.

The matrix is stored as ``scipy.sparse.csr_matrix`` because administrative
overlays are extremely sparse (a zip code touches a handful of counties),
and the paper's runtime analysis (section 4.3) explicitly ties GeoAlign's
speed to sparse storage of DMs.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np
from numpy.typing import ArrayLike, NDArray
from scipy import sparse

from repro.errors import ShapeMismatchError, ValidationError
from repro.utils.fingerprint import combine_fingerprints, fingerprint_array

FloatArray = NDArray[np.float64]
IntArray = NDArray[np.int64]


def _as_sorted_csr(matrix: Any) -> Any:
    """The matrix as canonical CSR, copying only when normalisation is
    actually needed (duplicate or unsorted entries).  A float CSR matrix
    is checked as itself, so SciPy caches the result on it."""
    csr = matrix
    if not (sparse.isspmatrix_csr(csr) and csr.dtype == np.float64):
        csr = sparse.csr_matrix(matrix, dtype=float)
    if not csr.has_canonical_format:
        csr = csr.copy()
        csr.sum_duplicates()
        csr.sort_indices()
    return csr


def _build_linear(matrix: Any) -> tuple[FloatArray, Any]:
    """``(row_sums, operator)`` of one DM for the linear Eq. 16/17 path.

    The row sums are one CSR mat-vec of the canonical CSR with a ones
    vector.  The operator is a ``(t, m)`` COO view of that CSR: its
    values and target indices are the CSR's own arrays, and its source
    index is the row pointer expanded once per entry (int32 where it
    fits).  The entries stay in CSR order and SciPy's COO product adds
    them in that order, so every target sums its source rows in
    ascending order, as a target-major CSR copy would.
    """
    csr = _as_sorted_csr(matrix)
    m, t = csr.shape
    sources = np.arange(
        m, dtype=np.int32 if max(m, t) < np.iinfo(np.int32).max else np.int64
    )
    row_sums = csr @ np.ones(t)
    row_sums.flags.writeable = False
    operator = sparse.coo_matrix(
        (csr.data, (csr.indices, np.repeat(sources, np.diff(csr.indptr)))),
        shape=(t, m),
    )
    return row_sums, operator


class _LabelClass:
    """A node of the forest that groups DMs with equal unit labels.

    DMs whose nodes share a root were found, pair by pair along the
    tree, to carry equal source and target label lists.
    """

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: _LabelClass | None = None

    def root(self) -> "_LabelClass":
        node = self
        while node.parent is not None:
            node = node.parent
        return node


#: Serialises the linking of label classes, so that two threads cannot
#: link two roots under each other.
_LABEL_CLASS_LOCK = threading.Lock()


def _labels_equal(
    left: "DisaggregationMatrix", right: "DisaggregationMatrix"
) -> bool:
    """Whether two DMs carry equal source and target label lists."""
    return (
        left.source_labels == right.source_labels
        and left.target_labels == right.target_labels
    )


class DisaggregationMatrix:
    """A sparse source x target matrix with unit labels on both axes.

    Parameters
    ----------
    matrix:
        Anything ``scipy.sparse.csr_matrix`` accepts (sparse matrix or
        dense 2-D array); never modified.  Negative entries are
        rejected: disaggregation matrices hold aggregates of
        non-negative count data.
    source_labels, target_labels:
        Unit labels for rows and columns; lengths must match the shape.
    """

    def __init__(
        self,
        matrix: Any,
        source_labels: Iterable[object],
        target_labels: Iterable[object],
    ) -> None:
        mat = sparse.csr_matrix(matrix, dtype=float)
        if not mat.data.all():
            # A float CSR argument is adopted without a copy, and
            # eliminate_zeros compacts in place: drop the explicit zeros
            # from a copy so the caller's buffers (e.g. a row of a
            # cached value matrix) are never rewritten.
            mat = mat.copy()
            mat.eliminate_zeros()
        source_labels = [str(s) for s in source_labels]
        target_labels = [str(t) for t in target_labels]
        if mat.shape != (len(source_labels), len(target_labels)):
            raise ShapeMismatchError(
                f"matrix shape {mat.shape} does not match "
                f"{len(source_labels)} source and {len(target_labels)} "
                "target labels"
            )
        if mat.nnz and mat.data.min() < 0:
            raise ValidationError(
                "disaggregation matrices hold non-negative aggregates; "
                f"minimum entry is {mat.data.min()}"
            )
        if mat.nnz and not np.all(np.isfinite(mat.data)):
            raise ValidationError("disaggregation matrix has non-finite data")
        self.matrix = mat
        self.source_labels = source_labels
        self.target_labels = target_labels
        self._fingerprint: str | None = None
        self._label_class = _LabelClass()
        self._col_sums: FloatArray | None = None
        self._linear: tuple[FloatArray, Any] | None = None
        self._lock = threading.Lock()

    def __getstate__(self) -> dict[str, Any]:
        # Locks do not pickle; the copy gets a fresh one and keeps the
        # memoised arrays.
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(
        cls,
        src_idx: ArrayLike,
        tgt_idx: ArrayLike,
        values: ArrayLike,
        source_labels: Sequence[object],
        target_labels: Sequence[object],
    ) -> "DisaggregationMatrix":
        """Build from COO triplets (duplicate pairs are summed)."""
        mat = sparse.coo_matrix(
            (
                np.asarray(values, dtype=float),
                (np.asarray(src_idx), np.asarray(tgt_idx)),
            ),
            shape=(len(source_labels), len(target_labels)),
        )
        return cls(mat.tocsr(), source_labels, target_labels)

    @classmethod
    def zeros(
        cls,
        source_labels: Sequence[object],
        target_labels: Sequence[object],
    ) -> "DisaggregationMatrix":
        """All-zero DM with the given labelling."""
        mat = sparse.csr_matrix((len(source_labels), len(target_labels)))
        return cls(mat, source_labels, target_labels)

    # ------------------------------------------------------------------
    # Views and measures
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        shape = self.matrix.shape
        return (int(shape[0]), int(shape[1]))

    @property
    def nnz(self) -> int:
        """Number of stored non-zero intersections."""
        return int(self.matrix.nnz)

    def row_sums(self) -> FloatArray:
        """Source-level aggregate vector implied by the matrix."""
        return np.asarray(self.matrix.sum(axis=1), dtype=float).ravel()

    def col_sums(self) -> FloatArray:
        """Target-level aggregate vector implied by the matrix.

        One ``bincount`` over the stored entries, which adds them to
        their targets in storage order, as ``matrix.sum(axis=0)`` does.
        Computed once per DM and returned read-only.
        """
        if self._col_sums is None:
            with self._lock:
                if self._col_sums is None:
                    sums = np.asarray(
                        np.bincount(
                            self.matrix.indices,
                            weights=self.matrix.data,
                            minlength=self.shape[1],
                        ),
                        dtype=float,
                    )
                    sums.flags.writeable = False
                    self._col_sums = sums
        return self._col_sums

    def total(self) -> float:
        """Grand total of the attribute over the universe."""
        return float(self.matrix.sum())

    def to_dense(self) -> FloatArray:
        """Dense ``numpy`` copy (small matrices / tests only)."""
        return np.asarray(self.matrix.toarray(), dtype=float)

    def fingerprint(self) -> str:
        """Content fingerprint (labels + sparsity pattern + values).

        Part of the reference and model-store keys; DMs are immutable by
        convention, so the digest is computed once and memoised.
        """
        if self._fingerprint is None:
            coo = self.matrix.tocoo()
            self._fingerprint = combine_fingerprints(
                "dm",
                repr(self.shape),
                fingerprint_array(np.asarray(coo.row, dtype=np.int64)),
                fingerprint_array(np.asarray(coo.col, dtype=np.int64)),
                fingerprint_array(np.asarray(coo.data, dtype=float)),
                "\x1f".join(self.source_labels),
                "\x1f".join(self.target_labels),
            )
        return self._fingerprint

    def same_labels(self, other: "DisaggregationMatrix") -> bool:
        """Whether ``other`` is labelled over the same source and target
        units, label for label.

        DMs found to carry equal labels join one label class, and a
        check between DMs of one class is an identity test.  Otherwise
        the check compares both label lists in full, and joins the two
        classes when they are equal.  So k same-labelled DMs are
        compared in full at most k - 1 times, however many reference
        stacks check them.  DMs are immutable by convention, as
        :meth:`fingerprint` assumes.
        """
        mine = self._label_class.root()
        theirs = other._label_class.root()
        if mine is theirs:
            return True
        if not _labels_equal(self, other):
            return False
        with _LABEL_CLASS_LOCK:
            mine, theirs = mine.root(), theirs.root()
            if mine is not theirs:
                theirs.parent = mine
        return True

    def build_linear_arrays(self) -> bool:
        """Build :meth:`linear_arrays` unless built; ``True`` when this
        call built them.

        The build runs once per DM, under the DM's lock, so stacks and
        threads sharing one DM share one set of arrays.
        """
        if self._linear is not None:
            return False
        with self._lock:
            if self._linear is not None:
                return False
            self._linear = _build_linear(self.matrix)
            return True

    def linear_arrays(self) -> tuple[FloatArray, Any]:
        """``(row_sums, operator)`` behind the linear Eq. 16/17 predict.

        ``row_sums`` is the read-only ``(m,)`` row-sum vector, and
        ``operator`` the ``(t, m)`` COO view ``D^T`` of the canonical
        CSR entries (the matrix's own arrays when it is canonical), with
        its expanded source index besides.  Built on the first call and
        kept: every reference stack over this DM reads the same objects.
        """
        self.build_linear_arrays()
        assert self._linear is not None
        return self._linear

    # ------------------------------------------------------------------
    # Algebra used by GeoAlign
    # ------------------------------------------------------------------
    def _require_same_labels(self, other: "DisaggregationMatrix") -> None:
        if not self.same_labels(other):
            raise ShapeMismatchError(
                "disaggregation matrices are labelled over different unit "
                "systems and cannot be combined"
            )

    def rescale_rows(
        self,
        new_totals: ArrayLike,
        denominators: ArrayLike | None = None,
    ) -> "DisaggregationMatrix":
        """Per-row rescale: row ``i`` becomes ``row_i * new/denom``.

        With ``denominators=None`` the current row sums are used, making
        the result's row sums exactly ``new_totals`` wherever the row is
        non-empty -- the volume-preserving step of Eq. 14/16.  Rows whose
        denominator is zero become zero rows (the paper's "otherwise 0"
        branch).
        """
        new_totals = np.asarray(new_totals, dtype=float)
        if new_totals.shape != (self.shape[0],):
            raise ShapeMismatchError(
                f"new_totals must have shape ({self.shape[0]},), got "
                f"{new_totals.shape}"
            )
        if denominators is None:
            denominators = self.row_sums()
        else:
            denominators = np.asarray(denominators, dtype=float)
            if denominators.shape != (self.shape[0],):
                raise ShapeMismatchError(
                    f"denominators must have shape ({self.shape[0]},), got "
                    f"{denominators.shape}"
                )
        with np.errstate(divide="ignore", invalid="ignore"):
            factors = np.where(
                denominators > 0.0, new_totals / denominators, 0.0
            )
        scaler = sparse.diags(factors)
        return DisaggregationMatrix(
            scaler @ self.matrix, self.source_labels, self.target_labels
        )

    def row_shares(self) -> "DisaggregationMatrix":
        """Row-stochastic version: each non-empty row rescaled to sum 1."""
        return self.rescale_rows(np.ones(self.shape[0]))

    def transposed(self) -> "DisaggregationMatrix":
        """The same matrix viewed from target to source."""
        return DisaggregationMatrix(
            self.matrix.T.tocsr(), self.target_labels, self.source_labels
        )

    def compose(self, other: "DisaggregationMatrix") -> "DisaggregationMatrix":
        """Chain two crosswalks: source -> mid -> target.

        ``self`` disaggregates an attribute from source units to mid
        units; ``other`` holds the same attribute's split from mid units
        to target units.  Under the standard proportionality assumption
        (each mid unit's mass splits over targets independently of which
        source it came from -- how multi-hop crosswalk files like
        tract->zip->county chains are applied in practice), the composed
        source -> target matrix is ``self @ row_shares(other)``.

        Row sums (the source aggregates) are preserved for every source
        unit whose mid-unit mass lands only on non-empty rows of
        ``other``; mass reaching an empty ``other`` row is dropped, as
        in a single-hop crosswalk with a zero-reference row.
        """
        if not isinstance(other, DisaggregationMatrix):
            raise ValidationError(
                f"can only compose with a DisaggregationMatrix, got "
                f"{type(other).__name__}"
            )
        if self.target_labels != other.source_labels:
            raise ShapeMismatchError(
                "composition requires the left matrix's target units to "
                "be the right matrix's source units"
            )
        shares = other.row_shares()
        return DisaggregationMatrix(
            self.matrix @ shares.matrix,
            self.source_labels,
            other.target_labels,
        )

    def allclose(
        self,
        other: "DisaggregationMatrix",
        rtol: float = 1e-9,
        atol: float = 1e-12,
    ) -> bool:
        """Numerically compare two same-labelled matrices."""
        self._require_same_labels(other)
        diff = (self.matrix - other.matrix).tocoo()
        if diff.nnz == 0:
            return True
        scale = max(abs(self.matrix).max(), abs(other.matrix).max())
        return bool(np.all(np.abs(diff.data) <= atol + rtol * scale))

    def __repr__(self) -> str:
        return (
            f"DisaggregationMatrix({self.shape[0]}x{self.shape[1]}, "
            f"nnz={self.nnz}, total={self.total():.6g})"
        )
