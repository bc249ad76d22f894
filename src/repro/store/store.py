"""The model store: save, list, and warm-load fitted aligners.

:class:`ModelStore` maps a content fingerprint to one artifact
(:mod:`repro.store.artifact`) holding what a fitted
:class:`~repro.core.batch.BatchAligner` is made of, so it answers
``predict`` / ``disaggregate`` / warm ``align`` queries without
refitting:

* the reference set -- each reference's source vector, and its DM's own
  CSR arrays as the DM holds them (:data:`DM_ARRAYS`),
* the fit outputs -- simplex weights, masks, objectives, names,
* an optional health-verdict snapshot and caller metadata.

What a :class:`~repro.core.batch.ReferenceStack` derives from its
references (the design, scales and Gram, ``R`` and the operators, the
union stack) is not stored, and a save builds none of it.  Loading
adopts the stored weights and builds a stack over the stored
references, as a fresh fit would: the design, scales and Gram from the
stored source vectors, each reference's ``R`` row and operator on the
first ``predict`` that weights it, and the union stack on the first
per-entry use.  A loaded model therefore predicts bit for bit what the
saved one did, and its references keep their fingerprints (the
round-trip suite pins both).  Artifacts of format versions 1 and 2,
which stored the union stack instead, decode into the same
per-reference arrays.

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
from repro.errors import NotFittedError, StoreError, ValidationError
from repro.obs.trace import span as _span
from repro.partitions.dm import DisaggregationMatrix
from repro.store.artifact import (
    ARTIFACT_VERSION,
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

#: Arrays a payload of every format version holds: the stacked
#: reference source vectors, the fit outputs, and each label and name
#: list once.
FIT_ARRAYS = (
    "source_vectors", "weights", "masks", "objectives",
    "source_labels", "target_labels", "reference_names", "attribute_names",
)

#: Version 3 adds the reference DMs, each as its own CSR arrays: one
#: ``(k * m, t)`` CSR matrix of the k DMs stacked by source rows.
DM_ARRAYS = ("dm_data", "dm_indices", "dm_indptr")

#: Versions 1 and 2 added the union stack's entries, their values in
#: the group :data:`STORED_MODES` names, and the design, Gram and
#: scales, which the loader recomputes from the source vectors.
UNION_ARRAYS = ("design", "gram", "scales", "entry_rows", "entry_cols")

#: ``stack_mode`` of a version-1 or 2 manifest -> the value arrays it
#: reads: CSR triplets over union entry positions, or the ``(k, nnz)``
#: ``values`` matrix.  A version-1 manifest carries no mode and means
#: ``"dense"``.
STORED_MODES = {
    "sparse": ("values_data", "values_indices", "values_indptr"),
    "aligned": ("values",),
    "dense": ("values",),
}


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
    """The version-3 payload of a fitted model, ready for ``np.savez``.

    The k reference DMs are stacked by source rows into one
    ``(k * m, t)`` CSR matrix.  SciPy stacks CSR blocks by concatenating
    their arrays, so each DM's entries keep the order the DM holds them
    in, and the index arrays stay int32 while the entry count fits.
    Nothing a stack derives from its references is read, so a save
    builds none of it.
    """
    stack = model.stack_
    assert stack is not None
    assert model.weights_ is not None
    assert model.masks_ is not None
    assert model.objectives_ is not None
    dms = sparse.vstack(
        [ref.dm.matrix for ref in stack.references], format="csr"
    )
    return {
        "source_vectors": stack.source_vectors,
        "dm_data": dms.data,
        "dm_indices": dms.indices,
        "dm_indptr": dms.indptr,
        "weights": model.weights_,
        "masks": model.masks_,
        "objectives": model.objectives_,
        "source_labels": np.asarray(stack.source_labels, dtype=str),
        "target_labels": np.asarray(stack.target_labels, dtype=str),
        "reference_names": np.asarray(
            [ref.name for ref in stack.references], dtype=str
        ),
        "attribute_names": np.asarray(
            model.attribute_names_ or [], dtype=str
        ),
    }


def _check(ok: object, message: str, where: str) -> None:
    """Cross-array consistency beyond the checksum (defence in depth)."""
    if not ok:
        raise StoreError(f"{where}: inconsistent payload ({message})")


def _is_csr(data: Any, indices: Any, indptr: Any, shape: Any) -> bool:
    """Whether the three arrays form a CSR matrix of ``shape``."""
    return bool(
        data.ndim == 1
        and indices.shape == data.shape
        and indptr.shape == (shape[0] + 1,)
        and indptr[0] == 0
        and np.all(np.diff(indptr) >= 0)
        and indptr[-1] == len(data)
        and (
            len(indices) == 0
            or (indices.min() >= 0 and indices.max() < shape[1])
        )
    )


def _union_as_dm_arrays(
    manifest: dict[str, object],
    arrays: dict[str, NDArray[Any]],
    shape: tuple[int, int, int],
    where: str,
) -> tuple[NDArray[Any], NDArray[Any], NDArray[Any]]:
    """A version-1 or 2 union value stack as the version-3 DM arrays.

    Each reference's values sit at union entry positions: every position
    of its ``values`` row, or the CSR column indices of its row of
    triplets.  Explicit zeros are dropped, restoring each reference's
    own pattern in canonical CSR order, as these versions decoded it.
    The manifest's ``stack_mode`` names the value arrays; one outside
    :data:`STORED_MODES`, or whose arrays the payload does not hold, is
    a damaged artifact.
    """
    k, m, t = shape
    mode = str(manifest.get("stack_mode", "dense"))
    if mode not in STORED_MODES:
        raise StoreError(
            f"{where}: unknown stack_mode {mode!r}; expected one of "
            f"{tuple(STORED_MODES)}"
        )
    missing = [name for name in STORED_MODES[mode] if name not in arrays]
    if missing:
        raise StoreError(
            f"{where}: stack_mode {mode!r} reads {missing}, which the "
            "payload does not hold"
        )
    rows, cols = arrays["entry_rows"], arrays["entry_cols"]
    nnz = rows.size
    if mode == "sparse":
        data, at, bounds = (arrays[name] for name in STORED_MODES[mode])
        _check(
            _is_csr(data, at, bounds, (k, nnz)),
            "sparse value triplets are not a (k, nnz) CSR matrix",
            where,
        )
        owner = np.repeat(np.arange(k), np.diff(bounds))
    else:
        data = arrays["values"]
        _check(data.shape == (k, nnz), "values is not (k, nnz)", where)
        owner = np.repeat(np.arange(k), nnz)
        at = np.tile(np.arange(nnz), k)
    _check(
        rows.shape == cols.shape == (nnz,),
        "entry index arrays do not match nnz",
        where,
    )
    _check(
        nnz == 0
        or min(rows.min(), cols.min()) >= 0
        and rows.max() < m
        and cols.max() < t,
        "union entries index outside the labelled units",
        where,
    )
    rows, cols = rows.astype(np.int64)[at], cols.astype(np.int64)[at]
    stacked = sparse.csr_matrix(
        (np.asarray(data, dtype=float).ravel(), (owner * m + rows, cols)),
        shape=(k * m, t),
    )
    stacked.eliminate_zeros()
    return stacked.data, stacked.indices, stacked.indptr


def _stored_references(
    manifest: dict[str, object], arrays: dict[str, NDArray[Any]], where: str
) -> list[Reference]:
    """The references of a payload of any version.

    Every version decodes into the version-3 arrays, and each
    reference's DM is a view of its rows of them; the labels are
    decoded once.  A stored value no reference admits (a negative or
    non-finite DM entry or source aggregate) is a damaged artifact.
    """
    current = manifest["version"] == ARTIFACT_VERSION
    required = FIT_ARRAYS + (DM_ARRAYS if current else UNION_ARRAYS)
    missing = [name for name in required if name not in arrays]
    if missing:
        raise StoreError(f"{where}: payload is missing arrays {missing}")
    vectors, weights = arrays["source_vectors"], arrays["weights"]
    _check(
        vectors.ndim == weights.ndim == 2,
        "source_vectors/weights are not matrices",
        where,
    )
    (k, m), n_attrs = vectors.shape, weights.shape[0]
    t = arrays["target_labels"].size
    for ok, message in (
        (
            weights.shape == arrays["masks"].shape == (n_attrs, k),
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
            arrays["source_labels"].shape == (m,),
            "source_labels does not cover every source row",
        ),
        (
            arrays["target_labels"].shape == (t,),
            "target_labels is not a flat list",
        ),
    ):
        _check(ok, message, where)
    if current:
        data, indices, indptr = (arrays[name] for name in DM_ARRAYS)
        _check(
            _is_csr(data, indices, indptr, (k * m, t)),
            "dm_data/dm_indices/dm_indptr are not a (k * m, t) CSR matrix",
            where,
        )
    else:
        data, indices, indptr = _union_as_dm_arrays(
            manifest, arrays, (k, m, t), where
        )
    data = np.asarray(data, dtype=float)
    source_labels = arrays["source_labels"].tolist()
    target_labels = arrays["target_labels"].tolist()
    references: list[Reference] = []
    try:
        for j, (name, vector) in enumerate(
            zip(arrays["reference_names"].tolist(), vectors)
        ):
            bounds = indptr[j * m : (j + 1) * m + 1]
            lo, hi = bounds[0], bounds[-1]
            matrix = sparse.csr_matrix(
                (data[lo:hi], indices[lo:hi], bounds - lo), shape=(m, t)
            )
            dm = DisaggregationMatrix(matrix, source_labels, target_labels)
            references.append(Reference(name, vector, dm))
    except ValidationError as exc:
        raise StoreError(
            f"{where}: stored values are not a valid model ({exc})"
        ) from exc
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
            arrays = _model_arrays(model)
            manifest = write_artifact(
                self.root,
                key,
                arrays,
                {
                    "fingerprint": fingerprint,
                    "created_at": _utc_now(),
                    "config": {
                        "normalize": bool(model.normalize),
                        "denominator": model.denominator,
                    },
                    "shape": {
                        "n_attrs": len(model.attribute_names_ or []),
                        "n_references": stack.n_references,
                        "n_sources": stack.n_sources,
                        "n_targets": stack.n_targets,
                        "nnz": len(arrays["dm_data"]),
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
            references = _stored_references(manifest, arrays, where)
            config = entry.config
            # Older manifests also name the solver that fitted them; the
            # stored weights are adopted as they are, so it is not read.
            model = BatchAligner(
                normalize=bool(config.get("normalize", True)),
                denominator=str(config.get("denominator", "row-sums")),
            )
            model.stack_ = ReferenceStack(
                references, normalize=model.normalize
            )
            model.weights_ = np.asarray(arrays["weights"], dtype=float)
            model.masks_ = np.asarray(arrays["masks"], dtype=bool)
            model.objectives_ = np.asarray(
                arrays["objectives"], dtype=float
            )
            model.attribute_names_ = arrays["attribute_names"].tolist()
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
