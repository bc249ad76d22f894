"""The model store: save, list, and warm-load fitted aligners.

:class:`ModelStore` maps a content fingerprint to one artifact
(:mod:`repro.store.artifact`) holding everything a fitted
:class:`~repro.core.batch.BatchAligner` needs to answer ``predict`` /
``disaggregate`` / warm ``align`` queries without refitting:

* the :class:`~repro.core.batch.ReferenceStack` arrays -- design
  matrix, Gram, per-reference scales, raw source vectors, and the
  reference DMs as one value stack over their union sparsity pattern
  (``entry_rows``/``entry_cols`` plus ``values`` or CSR triplets),
* the fit outputs -- simplex weights, masks, objectives, names,
* an optional health-verdict snapshot and caller metadata.

Loading adopts the stored weights, so nothing is refitted.  It decodes
the value stack into per-reference DMs and builds a
:class:`~repro.core.batch.ReferenceStack` over them, as a fresh fit
would: the design, scales and Gram come from the stored source vectors,
each reference's ``R`` row and operator from its DM on the first
``predict`` that weights it, and the union stack on the first
per-entry use.  A loaded model therefore predicts bit for bit what the
saved one did (the round-trip suite pins it), whatever layout the
saving build stored its union in.

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

#: ``stack_mode`` values an artifact may carry: the two union layouts,
#: and ``"dense"``, which earlier builds wrote (a version-1 manifest
#: carries no mode and means it).  ``"sparse"`` payloads hold CSR
#: triplets, the others a ``values`` matrix.
STORED_MODES = ("sparse", "aligned", "dense")


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
    def from_manifest(
        cls, manifest: dict[str, object], where: str
    ) -> "StoreEntry":
        """The entry a manifest describes; ``where`` names it in errors.

        A count that is not an integer, or a name list that is not a
        list of strings, raises :class:`StoreError` naming the field.
        """
        shape = manifest.get("shape")
        if not isinstance(shape, dict):
            raise StoreError(
                f"{where}: manifest field 'shape' must be a mapping"
            )

        def count(name: str) -> int:
            return _manifest_int(shape.get(name), f"shape.{name}", where)

        config = manifest.get("config")
        health = manifest.get("health")
        meta = manifest.get("meta")
        return cls(
            key=str(manifest["key"]),
            fingerprint=str(manifest["fingerprint"]),
            created_at=str(manifest.get("created_at", "")),
            n_attrs=count("n_attrs"),
            n_references=count("n_references"),
            n_sources=count("n_sources"),
            n_targets=count("n_targets"),
            nnz=count("nnz"),
            attribute_names=_manifest_names(
                manifest.get("attribute_names", []), "attribute_names", where
            ),
            reference_names=_manifest_names(
                manifest.get("reference_names", []), "reference_names", where
            ),
            config=dict(config) if isinstance(config, dict) else {},
            health=(
                {str(k): str(v) for k, v in health.items()}
                if isinstance(health, dict)
                else {}
            ),
            meta=dict(meta) if isinstance(meta, dict) else {},
            payload_bytes=_manifest_int(
                manifest.get("payload_bytes", 0), "payload_bytes", where
            ),
        )


def _manifest_int(value: object, field: str, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise StoreError(
            f"{where}: manifest field {field!r} must be an integer, "
            f"got {value!r}"
        )
    return value


def _manifest_names(value: object, field: str, where: str) -> list[str]:
    if not isinstance(value, list) or not all(
        isinstance(name, str) for name in value
    ):
        raise StoreError(
            f"{where}: manifest field {field!r} must be a list of strings"
        )
    return list(value)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _model_arrays(model: BatchAligner) -> dict[str, NDArray[Any]]:
    """Every array of a fitted model, ready for ``np.savez``.

    The value stack is persisted in its resident layout: CSR triplets
    (``values_data``/``values_indices``/``values_indptr``) for a
    sparse-layout union -- payload size scales with *stored* entries --
    and the ``values`` matrix for an aligned one.  The manifest's
    ``stack_mode`` records which.
    """
    stack = model.stack_
    assert stack is not None
    assert model.weights_ is not None
    assert model.masks_ is not None
    assert model.objectives_ is not None
    union = stack.dm_stack
    arrays: dict[str, NDArray[Any]] = {
        "design": np.ascontiguousarray(stack.design),
        "gram": np.ascontiguousarray(stack.gram),
        "scales": np.ascontiguousarray(stack.scales),
        "source_vectors": np.ascontiguousarray(stack.source_vectors),
        "entry_rows": np.ascontiguousarray(union.entry_rows),
        "entry_cols": np.ascontiguousarray(union.entry_cols),
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
    if union.ref_matrix is None:
        arrays["values"] = union.values
    else:
        arrays["values_data"] = union.ref_matrix.data
        arrays["values_indices"] = union.ref_matrix.indices.astype(np.int64)
        arrays["values_indptr"] = union.ref_matrix.indptr.astype(np.int64)
    return arrays


def _check_shapes(
    arrays: dict[str, NDArray[Any]], where: str, stack_mode: str
) -> None:
    """Cross-array consistency beyond the checksum (defence in depth).

    Of the value arrays, it checks the group ``stack_mode`` reads: a
    payload may carry the other group too, and the loader ignores it.
    """
    k, m = arrays["source_vectors"].shape
    nnz = arrays["entry_rows"].shape[0]
    n_attrs = arrays["weights"].shape[0]
    if stack_mode == "sparse":
        data = arrays["values_data"]
        indices = arrays["values_indices"]
        indptr = arrays["values_indptr"]
        values_ok = (
            indptr.shape == (k + 1,)
            and data.shape == indices.shape
            and data.ndim == 1
            and int(indptr[0]) == 0
            and bool(np.all(np.diff(indptr) >= 0))
            and int(indptr[-1]) == len(data)
            and (
                len(indices) == 0
                or (int(indices.min()) >= 0 and int(indices.max()) < nnz)
            )
        )
        values_msg = "sparse value triplets are not a (k, nnz) CSR matrix"
    else:
        values_ok = arrays["values"].shape == (k, nnz)
        values_msg = "values is not (k, nnz)"
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
    entry_rows, entry_cols = arrays["entry_rows"], arrays["entry_cols"]
    if nnz and (
        int(entry_rows.min()) < 0
        or int(entry_cols.min()) < 0
        or int(entry_rows.max()) >= m
        or int(entry_cols.max()) >= n_targets
    ):
        raise StoreError(
            f"{where}: inconsistent payload (union entries index "
            "outside the labelled units)"
        )


def _stack_mode(
    manifest: dict[str, object], arrays: dict[str, NDArray[Any]], where: str
) -> str:
    """The manifest's stack mode, checked against the arrays it reads.

    A version-1 manifest carries no mode and means ``"dense"``.  A mode
    outside :data:`STORED_MODES`, or one whose value arrays the payload
    does not hold (a ``"sparse"`` manifest over a ``values`` payload, or
    the reverse), is a damaged artifact.
    """
    mode = manifest.get("stack_mode", "dense")
    if mode not in STORED_MODES:
        raise StoreError(
            f"{where}: unknown stack_mode {mode!r}; expected one of "
            f"{STORED_MODES}"
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


def _stored_references(
    arrays: dict[str, NDArray[Any]], stack_mode: str
) -> list[Reference]:
    """The references, their DMs decoded from the stored value stack.

    Each reference's values sit at union entry positions: every
    position of its ``values`` row, or the CSR column indices of its
    row of triplets (``stack_mode`` ``"sparse"``).  The DM constructor
    drops explicit zeros, restoring each reference's own pattern.
    """
    source_labels = [str(s) for s in arrays["source_labels"]]
    target_labels = [str(t) for t in arrays["target_labels"]]
    shape = (len(source_labels), len(target_labels))
    entry_rows = arrays["entry_rows"].astype(np.int64)
    entry_cols = arrays["entry_cols"].astype(np.int64)
    per_reference: list[tuple[NDArray[Any], NDArray[Any]]]
    if stack_mode == "sparse":
        data = np.asarray(arrays["values_data"], dtype=float)
        positions = arrays["values_indices"].astype(np.int64)
        bounds = arrays["values_indptr"].astype(np.int64)
        per_reference = [
            (data[lo:hi], positions[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
    else:
        everywhere = np.arange(len(entry_rows))
        per_reference = [
            (row, everywhere)
            for row in np.asarray(arrays["values"], dtype=float)
        ]
    references = []
    for name, source_vector, (values, at) in zip(
        arrays["reference_names"], arrays["source_vectors"], per_reference
    ):
        matrix = sparse.csr_matrix(
            (values, (entry_rows[at], entry_cols[at])), shape=shape
        )
        dm = DisaggregationMatrix(matrix, source_labels, target_labels)
        references.append(Reference(str(name), source_vector, dm))
    return references


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
        return StoreEntry.from_manifest(
            manifest, manifest_path(self.root, key)
        )

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
            StoreEntry.from_manifest(
                read_manifest(self.root, key), manifest_path(self.root, key)
            )
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
        key = self.resolve(prefix)
        return StoreEntry.from_manifest(
            read_manifest(self.root, key), manifest_path(self.root, key)
        )

    def load(self, prefix: str) -> tuple[BatchAligner, StoreEntry]:
        """Reassemble one stored model: ``(fitted aligner, entry)``.

        The artifact is checksum-verified and shape-checked before any
        array is trusted; the returned aligner is fitted (``predict`` /
        ``predict_dms`` / ``weight_report`` work immediately) on a
        fresh stack over the stored references, and predicts bit for
        bit what the saved model did.
        """
        key = self.resolve(prefix)
        with _span("store.load", key=key):
            manifest, arrays = read_artifact(self.root, key)
            where = manifest_path(self.root, key)
            entry = StoreEntry.from_manifest(manifest, where)
            stack_mode = _stack_mode(manifest, arrays, where)
            _check_shapes(arrays, where, stack_mode)
            config = entry.config
            # Older manifests also name the solver that fitted them; the
            # stored weights are adopted as they are, so it is not read.
            model = BatchAligner(
                normalize=bool(config.get("normalize", True)),
                denominator=str(config.get("denominator", "row-sums")),
            )
            model.stack_ = ReferenceStack(
                _stored_references(arrays, stack_mode),
                normalize=model.normalize,
            )
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
