"""Fitted-model persistence (``repro.store``).

The alignment-as-a-service layer (:mod:`repro.serve`) answers queries
from *warm* models: a fitted :class:`~repro.core.batch.BatchAligner` --
its reference DMs and source vectors, the learned weights and the
objectives -- is serialized once and reloaded in milliseconds instead
of being refitted per process; what its reference stack derives from
the references (the design/Gram pair, the union stack) is rebuilt, not
stored, and a save builds none of it.  :class:`ModelStore` owns that
serialization:

* artifacts are **content-addressed**: the key is a prefix of a
  SHA-256 content fingerprint of the fit's inputs
  (:mod:`repro.utils.fingerprint`), so refitting identical inputs lands
  on the identical artifact;
* the format is **versioned and integrity-checked**: a JSON manifest
  records the format version and the SHA-256 of the ``.npz`` payload,
  and every load re-hashes the payload before trusting it -- a
  truncated or bit-flipped artifact raises a typed
  :class:`~repro.errors.StoreError`, never pickle garbage
  (``numpy.load`` runs with ``allow_pickle=False``);
* saves are **atomic**: payload and manifest are written to temporary
  names and renamed into place, manifest last, so a crashed save never
  leaves a loadable half-artifact.

See ``docs/serving.md`` for the on-disk format.
"""

from repro.store.artifact import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    read_artifact,
    write_artifact,
)
from repro.store.store import (
    DEFAULT_STORE_DIR,
    ModelStore,
    StoreEntry,
    default_store_path,
    model_fingerprint,
)

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "DEFAULT_STORE_DIR",
    "ModelStore",
    "StoreEntry",
    "default_store_path",
    "model_fingerprint",
    "read_artifact",
    "write_artifact",
]
