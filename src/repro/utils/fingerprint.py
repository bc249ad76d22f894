"""Content fingerprints: SHA-256 digests of values, not identities.

A fingerprint hashes the actual array bytes and labels that went into
an object, so changing one value anywhere changes the digest.  The
``fingerprint()`` methods of
:class:`~repro.partitions.dm.DisaggregationMatrix`,
:class:`~repro.core.reference.Reference` and
:class:`~repro.core.batch.ReferenceStack` are built from these helpers;
they key model-store artifacts (:func:`repro.store.model_fingerprint`)
and let :meth:`~repro.core.batch.ReferenceStack.with_references` check
that a new reference carries the same DM.

Fingerprints compose: :func:`combine_fingerprints` hashes an ordered
sequence of part fingerprints, which is how a reference set or a whole
fitted model is keyed.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np
from numpy.typing import NDArray

from repro.errors import ValidationError

__all__ = ["combine_fingerprints", "fingerprint_array", "fingerprint_bytes"]


def fingerprint_bytes(*chunks: bytes) -> str:
    """SHA-256 hex digest over an ordered sequence of byte chunks.

    Each chunk is length-prefixed so ``(b"ab", b"c")`` and
    ``(b"a", b"bc")`` cannot collide.
    """
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(len(chunk).to_bytes(8, "little"))
        digest.update(chunk)
    return digest.hexdigest()


def fingerprint_array(values: NDArray[Any]) -> str:
    """Content fingerprint of a numpy array: dtype + shape + raw bytes."""
    arr = np.ascontiguousarray(values)
    return fingerprint_bytes(
        str(arr.dtype).encode(),
        repr(arr.shape).encode(),
        arr.tobytes(),
    )


def combine_fingerprints(*parts: str) -> str:
    """Fingerprint of an ordered sequence of part fingerprints/tags."""
    if not parts:
        raise ValidationError("combine_fingerprints needs at least one part")
    return fingerprint_bytes(*(part.encode() for part in parts))
