"""On-disk artifact format: JSON manifest + checksummed ``.npz`` payload.

One stored model is two sibling files under the store root::

    <key>.manifest.json    # version, fingerprint, shapes, payload SHA-256
    <key>.npz              # every array of the fitted model (no pickle)

The manifest is the commit point: it is written (atomically, via
``os.replace``) only after the payload is fully on disk, so a reader
that sees a manifest can expect its payload -- and verifies it anyway,
because the manifest records the payload's SHA-256 and byte length and
:func:`read_artifact` re-hashes before parsing.  Any mismatch, parse
failure, or format-version skew raises
:class:`~repro.errors.StoreError` with the artifact path in the
message; the numpy layer runs with ``allow_pickle=False`` so a hostile
or mangled payload cannot execute anything.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import zipfile
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.errors import StoreError

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "SUPPORTED_VERSIONS",
    "manifest_path",
    "payload_path",
    "read_artifact",
    "read_manifest",
    "write_artifact",
]

#: Format marker every manifest must carry.
ARTIFACT_FORMAT = "geoalign-fitted-model"

#: Current artifact format version; bump on any incompatible layout
#: change.  Version 3 stores each reference DM's own CSR arrays;
#: versions 1 and 2 stored the reference DMs as one union value stack
#: (:mod:`repro.store.store` lists what each version's payload holds).
ARTIFACT_VERSION = 3

#: Versions :func:`read_manifest` accepts, as plain JSON integers.
#: Other versions are rejected with a typed error instead of guessing.
SUPPORTED_VERSIONS = (1, 2, 3)


def manifest_path(root: str, key: str) -> str:
    """Manifest file path of artifact ``key`` under ``root``."""
    return os.path.join(root, f"{key}.manifest.json")


def payload_path(root: str, key: str) -> str:
    """Payload (npz) file path of artifact ``key`` under ``root``."""
    return os.path.join(root, f"{key}.npz")


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _atomic_write(path: str, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via a same-directory temp + rename."""
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.write(payload)
    os.replace(tmp, path)


def write_artifact(
    root: str,
    key: str,
    arrays: dict[str, NDArray[Any]],
    manifest_extra: dict[str, object],
) -> dict[str, object]:
    """Persist one artifact; returns the manifest that was written.

    ``arrays`` is the payload, written as it is; ``manifest_extra``
    carries the caller's descriptive fields (fingerprint, shapes,
    config, health snapshot).  The payload is serialized in memory
    first so its checksum and length land in the manifest, then both
    files are committed atomically, manifest last.
    """
    os.makedirs(root, exist_ok=True)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    payload = buffer.getvalue()
    manifest: dict[str, object] = {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "key": key,
        "payload": os.path.basename(payload_path(root, key)),
        "payload_sha256": _sha256(payload),
        "payload_bytes": len(payload),
        **manifest_extra,
    }
    _atomic_write(payload_path(root, key), payload)
    _atomic_write(
        manifest_path(root, key),
        (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode(),
    )
    return manifest


def read_manifest(root: str, key: str) -> dict[str, object]:
    """Parse and structurally validate one manifest (payload untouched)."""
    path = manifest_path(root, key)
    try:
        with open(path, encoding="utf-8") as handle:
            parsed = json.load(handle)
    except FileNotFoundError as exc:
        raise StoreError(f"no artifact manifest at {path}") from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise StoreError(f"{path}: unreadable manifest ({exc})") from exc
    if not isinstance(parsed, dict):
        raise StoreError(f"{path}: manifest must be a JSON object")
    if parsed.get("format") != ARTIFACT_FORMAT:
        raise StoreError(
            f"{path}: not a {ARTIFACT_FORMAT} manifest "
            f"(format={parsed.get('format')!r})"
        )
    # ``True == 1`` and ``1.0 == 1`` in Python, so a membership test
    # alone would read ``true`` or ``1.0`` as format 1.
    version = parsed.get("version")
    if type(version) is not int or version not in SUPPORTED_VERSIONS:
        raise StoreError(
            f"{path}: artifact format version {version!r} "
            f"is not among the supported versions {SUPPORTED_VERSIONS}; "
            "re-save the model with this build"
        )
    for field in ("key", "payload_sha256", "fingerprint"):
        if not isinstance(parsed.get(field), str) or not parsed[field]:
            raise StoreError(f"{path}: manifest field {field!r} missing")
    return parsed


def read_artifact(
    root: str, key: str
) -> tuple[dict[str, object], dict[str, NDArray[Any]]]:
    """Load and verify one artifact: ``(manifest, arrays)``.

    Verification order: manifest structure and version first, then the
    payload's byte length and SHA-256 against the manifest, and only
    then the numpy parse (``allow_pickle=False``).  Every failure mode
    raises :class:`StoreError`; which arrays a payload must hold is the
    reader's check (:mod:`repro.store.store`).
    """
    manifest = read_manifest(root, key)
    path = payload_path(root, key)
    try:
        with open(path, "rb") as handle:
            payload = handle.read()
    except OSError as exc:
        raise StoreError(f"{path}: unreadable payload ({exc})") from exc
    expected_bytes = manifest.get("payload_bytes")
    if isinstance(expected_bytes, int) and len(payload) != expected_bytes:
        raise StoreError(
            f"{path}: payload is {len(payload)} bytes but the manifest "
            f"recorded {expected_bytes}; the artifact is truncated or "
            "was modified after save"
        )
    if _sha256(payload) != manifest["payload_sha256"]:
        raise StoreError(
            f"{path}: payload checksum does not match the manifest; "
            "the artifact is corrupted"
        )
    try:
        with np.load(io.BytesIO(payload), allow_pickle=False) as bundle:
            arrays = {name: bundle[name] for name in bundle.files}
    except (OSError, ValueError, zipfile.BadZipFile, KeyError) as exc:
        raise StoreError(f"{path}: payload failed to parse ({exc})") from exc
    return manifest, arrays
