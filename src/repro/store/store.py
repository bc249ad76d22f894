"""The model store: save, list, and warm-load fitted aligners.

:class:`ModelStore` maps a content fingerprint to one artifact
(:mod:`repro.store.artifact`) holding everything a fitted
:class:`~repro.core.batch.BatchAligner` needs to answer ``predict`` /
``disaggregate`` / warm ``align`` queries without refitting:

* the :class:`~repro.core.batch.ReferenceStack` arrays -- design
  matrix, Gram, per-reference scales, raw source vectors, and the
  union-DM sparsity pattern (``values``/``entry_rows``/``entry_cols``),
* the fit outputs -- simplex weights, masks, objectives, names,
* an optional health-verdict snapshot and caller metadata.

Loading reassembles the stack **without** re-running the union-pattern
construction (the piece §4.3 of the paper attributes >90 % of runtime
to): incidence operators are rebuilt in ``O(nnz)`` from the stored
index arrays, and per-reference DMs are materialised from the stored
value rows, so a loaded model is numerically *identical* to the one
saved -- same arrays, same blend arithmetic, predictions matching to
the last bit (the round-trip suite pins 1e-12).

Fingerprints are :mod:`repro.utils.fingerprint`'s content hashes, the
family the DM, reference and reference-stack ``fingerprint()`` methods
share.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Any

import numpy as np
from numpy.typing import NDArray
from scipy import sparse

from repro.core.batch import BatchAligner, ReferenceStack
from repro.core.reference import Reference
from repro.core.sparse_stack import _MODES, SparseDMStack
from repro.errors import NotFittedError, StoreError
from repro.obs.trace import span as _span
from repro.partitions.dm import DisaggregationMatrix
from repro.store.artifact import (
    VALUE_ARRAY_GROUPS,
    manifest_path,
    payload_path,
    read_artifact,
    read_manifest,
    write_artifact,
)
from repro.utils.fingerprint import combine_fingerprints, fingerprint_array

__all__ = [
    "DEFAULT_STORE_DIR",
    "ModelStore",
    "StoreEntry",
    "default_store_path",
    "model_fingerprint",
]

FloatArray = NDArray[np.float64]

#: Default store location, relative to the working directory.
DEFAULT_STORE_DIR = os.path.join(".geoalign", "store")

#: Hex characters of the fingerprint used as the artifact key.
KEY_LENGTH = 12


def default_store_path() -> str:
    """Store root: ``$REPRO_STORE`` or ``.geoalign/store``."""
    return os.environ.get("REPRO_STORE", DEFAULT_STORE_DIR)


def model_fingerprint(model: BatchAligner) -> str:
    """Content fingerprint of one fitted aligner.

    Covers the reference stack (references + normalize flag), the
    ``denominator`` option, the objectives, masks and attribute names --
    everything the fit is a deterministic function of.  The learned
    weights are deliberately *not* hashed: refitting identical inputs
    must land on the identical artifact key ("same work, same id").
    The literal ``"active-set"`` stands where a selectable solver's
    name once did, so keys computed before the option was retired
    still match.
    """
    if (
        model.stack_ is None
        or model.weights_ is None
        or model.objectives_ is None
        or model.masks_ is None
    ):
        raise NotFittedError(
            "model_fingerprint needs a fitted BatchAligner; call fit() first"
        )
    return combine_fingerprints(
        "fitted-model",
        model.stack_.fingerprint(),
        repr(("active-set", bool(model.normalize), model.denominator)),
        fingerprint_array(model.objectives_),
        fingerprint_array(model.masks_),
        repr(list(model.attribute_names_ or [])),
    )


@dataclass(frozen=True)
class StoreEntry:
    """One stored model, as described by its manifest (payload unread)."""

    key: str
    fingerprint: str
    created_at: str
    n_attrs: int
    n_references: int
    n_sources: int
    n_targets: int
    nnz: int
    attribute_names: list[str] = field(default_factory=list)
    reference_names: list[str] = field(default_factory=list)
    config: dict[str, object] = field(default_factory=dict)
    health: dict[str, str] = field(default_factory=dict)
    meta: dict[str, object] = field(default_factory=dict)
    payload_bytes: int = 0

    def summary_line(self) -> str:
        """One listing row: key, shape, attribute count, timestamp."""
        return (
            f"{self.key:>{KEY_LENGTH}s}  "
            f"{self.n_attrs:4d} attrs  "
            f"{self.n_sources:>7,d} x {self.n_targets:<7,d}  "
            f"{self.n_references:2d} refs  "
            f"{self.payload_bytes / 1024:8.1f} KiB  "
            f"{self.created_at}"
        )

    @classmethod
    def from_manifest(cls, manifest: dict[str, object]) -> "StoreEntry":
        shape = manifest.get("shape")
        if not isinstance(shape, dict):
            raise StoreError(
                f"artifact {manifest.get('key')!r}: manifest has no "
                "'shape' mapping"
            )
        config = manifest.get("config")
        health = manifest.get("health")
        meta = manifest.get("meta")
        return cls(
            key=str(manifest["key"]),
            fingerprint=str(manifest["fingerprint"]),
            created_at=str(manifest.get("created_at", "")),
            n_attrs=int(shape["n_attrs"]),  # type: ignore[call-overload]
            n_references=int(shape["n_references"]),  # type: ignore[call-overload]
            n_sources=int(shape["n_sources"]),  # type: ignore[call-overload]
            n_targets=int(shape["n_targets"]),  # type: ignore[call-overload]
            nnz=int(shape["nnz"]),  # type: ignore[call-overload]
            attribute_names=[
                str(name) for name in manifest.get("attribute_names", [])  # type: ignore[union-attr]
            ],
            reference_names=[
                str(name) for name in manifest.get("reference_names", [])  # type: ignore[union-attr]
            ],
            config=dict(config) if isinstance(config, dict) else {},
            health=(
                {str(k): str(v) for k, v in health.items()}
                if isinstance(health, dict)
                else {}
            ),
            meta=dict(meta) if isinstance(meta, dict) else {},
            payload_bytes=int(manifest.get("payload_bytes", 0)),  # type: ignore[arg-type]
        )


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _model_arrays(model: BatchAligner) -> dict[str, NDArray[Any]]:
    """Every array of a fitted model, ready for ``np.savez``.

    The value stack is persisted in its resident representation: CSR
    triplets (``values_data``/``values_indices``/``values_indptr``) for
    sparse-mode stacks -- payload size scales with *stored* entries --
    and the dense ``values`` matrix for aligned/dense stacks.  The
    manifest's ``stack_mode`` records which, so the loader restores the
    exact blend arithmetic that was saved.
    """
    stack = model.stack_
    assert stack is not None
    assert model.weights_ is not None
    assert model.masks_ is not None
    assert model.objectives_ is not None
    arrays: dict[str, NDArray[Any]] = {
        "design": np.ascontiguousarray(stack.design),
        "gram": np.ascontiguousarray(stack.gram),
        "scales": np.ascontiguousarray(stack.scales),
        "source_vectors": np.ascontiguousarray(stack.source_vectors),
        "entry_rows": np.ascontiguousarray(stack.entry_rows),
        "entry_cols": np.ascontiguousarray(stack.entry_cols),
        "weights": np.ascontiguousarray(model.weights_),
        "masks": np.ascontiguousarray(model.masks_),
        "objectives": np.ascontiguousarray(model.objectives_),
        "source_labels": np.asarray(stack.source_labels, dtype=str),
        "target_labels": np.asarray(stack.target_labels, dtype=str),
        "reference_names": np.asarray(
            [ref.name for ref in stack.references], dtype=str
        ),
        "attribute_names": np.asarray(
            model.attribute_names_ or [], dtype=str
        ),
    }
    if stack.dm_stack.mode == "sparse":
        data, indices, indptr = stack.dm_stack.csr_arrays()
        arrays["values_data"] = np.ascontiguousarray(data)
        arrays["values_indices"] = np.ascontiguousarray(indices)
        arrays["values_indptr"] = np.ascontiguousarray(indptr)
    else:
        arrays["values"] = np.ascontiguousarray(stack.values)
    return arrays


def _check_shapes(arrays: dict[str, NDArray[Any]], where: str) -> None:
    """Cross-array consistency beyond the checksum (defence in depth)."""
    k, m = arrays["source_vectors"].shape
    nnz = arrays["entry_rows"].shape[0]
    n_attrs = arrays["weights"].shape[0]
    if "values" in arrays:
        values_ok = arrays["values"].shape == (k, nnz)
        values_msg = "values is not (k, nnz)"
    else:
        data = arrays["values_data"]
        indices = arrays["values_indices"]
        indptr = arrays["values_indptr"]
        values_ok = (
            indptr.shape == (k + 1,)
            and data.shape == indices.shape
            and data.ndim == 1
            and (len(indptr) == 0 or int(indptr[-1]) == len(data))
            and (len(indices) == 0 or int(indices.max()) < nnz)
        )
        values_msg = "sparse value triplets are not a (k, nnz) CSR matrix"
    checks = (
        (arrays["design"].shape == (m, k), "design is not (m, k)"),
        (arrays["gram"].shape == (k, k), "gram is not (k, k)"),
        (arrays["scales"].shape == (k,), "scales is not (k,)"),
        (values_ok, values_msg),
        (
            arrays["entry_rows"].shape == (nnz,)
            and arrays["entry_cols"].shape == (nnz,),
            "entry index arrays do not match nnz",
        ),
        (
            arrays["weights"].shape == (n_attrs, k)
            and arrays["masks"].shape == (n_attrs, k),
            "weights/masks are not (n_attrs, k)",
        ),
        (
            arrays["objectives"].shape == (n_attrs, m),
            "objectives is not (n_attrs, m)",
        ),
        (
            arrays["reference_names"].shape == (k,),
            "reference_names does not cover every reference",
        ),
        (
            arrays["attribute_names"].shape == (n_attrs,),
            "attribute_names does not cover every attribute",
        ),
        (
            len(arrays["source_labels"]) == m,
            "source_labels does not cover every source row",
        ),
    )
    for ok, message in checks:
        if not ok:
            raise StoreError(f"{where}: inconsistent payload ({message})")
    n_targets = len(arrays["target_labels"])
    if nnz and (
        int(arrays["entry_rows"].max()) >= m
        or int(arrays["entry_cols"].max()) >= n_targets
    ):
        raise StoreError(
            f"{where}: inconsistent payload (union entries index "
            "outside the labelled units)"
        )


def _stack_mode(
    manifest: dict[str, object], arrays: dict[str, NDArray[Any]], where: str
) -> str:
    """The manifest's stack mode, checked against the arrays it reads.

    A version-1 manifest carries no mode and means dense.  A mode
    outside the three, or one whose value arrays the payload does not
    hold (a ``"sparse"`` manifest over a dense ``values`` payload, or
    the reverse), is a damaged artifact.
    """
    mode = manifest.get("stack_mode", "dense")
    if mode not in _MODES:
        raise StoreError(
            f"{where}: unknown stack_mode {mode!r}; expected one of "
            f"{_MODES}"
        )
    dense_group, sparse_group = VALUE_ARRAY_GROUPS
    reads = sparse_group if mode == "sparse" else dense_group
    missing = [name for name in reads if name not in arrays]
    if missing:
        raise StoreError(
            f"{where}: stack_mode {mode!r} reads {missing}, which the "
            "payload does not hold"
        )
    return str(mode)


def _rebuild_stack(
    arrays: dict[str, NDArray[Any]], normalize: bool, stack_mode: str
) -> ReferenceStack:
    """Reassemble a :class:`ReferenceStack` from stored arrays.

    Nothing is recomputed: the design/Gram arrays are adopted verbatim,
    and the union-pattern members as-is into a
    :class:`~repro.core.sparse_stack.SparseDMStack` restored in its
    *saved* storage mode (so the loaded blend arithmetic is bitwise the
    arithmetic that was saved; version-1 artifacts carry no mode and
    load as dense, matching the old engine's BLAS blend).  Per-reference
    DMs are materialised from the stored value rows (explicit zeros
    dropped by the DM constructor, restoring each reference's original
    pattern); ``R`` and the operators are built from them on the first
    ``predict``, exactly as for the model that was saved.
    """
    source_labels = [str(s) for s in arrays["source_labels"]]
    target_labels = [str(t) for t in arrays["target_labels"]]
    n_sources = len(source_labels)
    n_targets = len(target_labels)
    entry_rows = arrays["entry_rows"].astype(np.int64)
    entry_cols = arrays["entry_cols"].astype(np.int64)
    if stack_mode == "sparse":
        dm_stack = SparseDMStack.from_stored(
            n_sources,
            n_targets,
            entry_rows,
            entry_cols,
            "sparse",
            data=np.asarray(arrays["values_data"], dtype=float),
            indices=arrays["values_indices"].astype(np.int64),
            ref_indptr=arrays["values_indptr"].astype(np.int64),
        )
    else:
        dm_stack = SparseDMStack.from_stored(
            n_sources,
            n_targets,
            entry_rows,
            entry_cols,
            stack_mode,
            values=np.asarray(arrays["values"], dtype=float),
        )

    references = []
    for i, name in enumerate(arrays["reference_names"]):
        ref_values, positions = dm_stack.ref_entry_values(i)
        dm = DisaggregationMatrix(
            sparse.csr_matrix(
                (
                    ref_values,
                    (entry_rows[positions], entry_cols[positions]),
                ),
                shape=(n_sources, n_targets),
            ),
            source_labels,
            target_labels,
        )
        references.append(
            Reference(str(name), arrays["source_vectors"][i], dm)
        )

    return ReferenceStack.from_stored(
        references,
        normalize,
        source_labels,
        target_labels,
        design=np.asarray(arrays["design"], dtype=float),
        scales=np.asarray(arrays["scales"], dtype=float),
        gram=np.asarray(arrays["gram"], dtype=float),
        source_vectors=np.asarray(arrays["source_vectors"], dtype=float),
        dm_stack=dm_stack,
    )


class ModelStore:
    """Content-addressed directory of fitted-model artifacts.

    Parameters
    ----------
    root:
        Store directory (created on first save).  Defaults to
        :func:`default_store_path`.
    """

    def __init__(self, root: str | None = None) -> None:
        self.root = root if root is not None else default_store_path()

    # -- writing --------------------------------------------------------
    def save(
        self,
        model: BatchAligner,
        health: dict[str, str] | None = None,
        meta: dict[str, object] | None = None,
    ) -> StoreEntry:
        """Persist one fitted aligner; returns its :class:`StoreEntry`.

        Saving the same fitted inputs twice overwrites the identical
        artifact in place (the key is content-addressed), so repeat
        saves are idempotent.
        """
        fingerprint = model_fingerprint(model)
        key = fingerprint[:KEY_LENGTH]
        stack = model.stack_
        assert stack is not None
        with _span("store.save", key=key):
            manifest = write_artifact(
                self.root,
                key,
                _model_arrays(model),
                {
                    "fingerprint": fingerprint,
                    "created_at": _utc_now(),
                    "stack_mode": stack.dm_stack.mode,
                    "config": {
                        "normalize": bool(model.normalize),
                        "denominator": model.denominator,
                    },
                    "shape": {
                        "n_attrs": len(model.attribute_names_ or []),
                        "n_references": stack.n_references,
                        "n_sources": stack.n_sources,
                        "n_targets": stack.n_targets,
                        "nnz": stack.nnz,
                    },
                    "attribute_names": list(model.attribute_names_ or []),
                    "reference_names": [
                        ref.name for ref in stack.references
                    ],
                    "health": dict(health or {}),
                    "meta": dict(meta or {}),
                },
            )
        return StoreEntry.from_manifest(manifest)

    # -- reading --------------------------------------------------------
    def keys(self) -> list[str]:
        """Every artifact key present under the root, sorted."""
        pattern = os.path.join(self.root, "*.manifest.json")
        return sorted(
            os.path.basename(path)[: -len(".manifest.json")]
            for path in glob.glob(pattern)
        )

    def list(self) -> list[StoreEntry]:
        """Entries for every artifact, sorted by key (manifests only)."""
        return [
            StoreEntry.from_manifest(read_manifest(self.root, key))
            for key in self.keys()
        ]

    def resolve(self, prefix: str) -> str:
        """The unique stored key starting with ``prefix``."""
        if not prefix:
            raise StoreError("model key prefix must be non-empty")
        matches = [key for key in self.keys() if key.startswith(prefix)]
        if not matches:
            raise StoreError(
                f"no stored model with key prefix {prefix!r} in {self.root}"
            )
        if len(matches) > 1:
            raise StoreError(
                f"key prefix {prefix!r} is ambiguous in {self.root}: "
                f"{matches}"
            )
        return matches[0]

    def entry(self, prefix: str) -> StoreEntry:
        """The :class:`StoreEntry` under a (unique) key prefix."""
        return StoreEntry.from_manifest(
            read_manifest(self.root, self.resolve(prefix))
        )

    def load(self, prefix: str) -> tuple[BatchAligner, StoreEntry]:
        """Reassemble one stored model: ``(fitted aligner, entry)``.

        The artifact is checksum-verified and shape-checked before any
        array is trusted; the returned aligner is fitted (``predict`` /
        ``predict_dms`` / ``weight_report`` work immediately) and
        numerically identical to the model that was saved.
        """
        key = self.resolve(prefix)
        with _span("store.load", key=key):
            manifest, arrays = read_artifact(self.root, key)
            entry = StoreEntry.from_manifest(manifest)
            where = manifest_path(self.root, key)
            _check_shapes(arrays, where)
            stack_mode = _stack_mode(manifest, arrays, where)
            config = entry.config
            # Older manifests also name the solver that fitted them; the
            # stored weights are adopted as they are, so it is not read.
            model = BatchAligner(
                normalize=bool(config.get("normalize", True)),
                denominator=str(config.get("denominator", "row-sums")),
            )
            model.stack_ = _rebuild_stack(arrays, model.normalize, stack_mode)
            model.weights_ = np.asarray(arrays["weights"], dtype=float)
            model.masks_ = np.asarray(arrays["masks"], dtype=bool)
            model.objectives_ = np.asarray(
                arrays["objectives"], dtype=float
            )
            model.attribute_names_ = [
                str(name) for name in arrays["attribute_names"]
            ]
        return model, entry

    def delete(self, prefix: str) -> str:
        """Remove one artifact (manifest first); returns the key."""
        key = self.resolve(prefix)
        os.remove(manifest_path(self.root, key))
        payload = payload_path(self.root, key)
        if os.path.exists(payload):
            os.remove(payload)
        return key

    def to_text(self) -> str:
        """Human listing of the store, one row per artifact."""
        entries = self.list()
        if not entries:
            return f"store {self.root}: no models stored"
        lines = [
            f"store {self.root}: {len(entries)} model(s)",
            f"{'key':>{KEY_LENGTH}s}  {'attrs':>10s}  "
            f"{'sources x targets':^17s}  {'refs':>7s}  "
            f"{'payload':>12s}  saved (UTC)",
        ]
        lines.extend(entry.summary_line() for entry in entries)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"ModelStore({self.root!r})"
