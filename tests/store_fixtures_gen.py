"""Generator for the current-format model-store artifact under fixtures/store/.

``fixtures/store/`` holds one committed artifact per form the loader
must keep reading, each in its own store root ``fixtures/store/<form>/``:

* ``v3``         -- the current format, the only one this generator
  writes: shifted-band references whose union stays sparse, the middle
  reference's DM holding every row's entries in reverse column order
  (the DM keeps a caller's order and the artifact stores it as it is),
  one attribute masking a reference;
* ``v2-sparse``  -- format v2, ``stack_mode: "sparse"``: the union value
  stack as CSR triplets (one attribute masks a reference);
* ``v2-aligned`` -- format v2, ``stack_mode: "aligned"``: every
  reference on one band, the ``values`` matrix (fitted with
  ``denominator="source-vectors"``);
* ``v2-dense``   -- format v2, ``stack_mode: "dense"``: three unaligned
  6 x 5 references at union stored density 0.80, which the build that
  wrote them stored densely without being asked to;
* ``v1``         -- the ``v2-dense`` artifact with its manifest
  rewritten to ``version: 1`` and no ``stack_mode`` key, the layout of
  the first artifact format (its payload checksum still holds).

``fixtures/store/expected.json`` records, per form, the artifact key
and fingerprint, the stored ``stack_mode`` (``null`` when the manifest
has none) and format version, the model's ``predict()`` rows and the
column sums of its ``predict_dms()`` as the saving build computed them.
``tests/test_store.py`` loads each artifact and checks the key, the
recomputed fingerprint, ``predict()`` and the ``predict_dms()`` column
sums against them at 1e-12.

The artifacts pin what the builds that wrote them answered, so a
committed one is never rewritten: this build writes only its own
format version, into ``v<version>/`` and the entry of that name, and
leaves every other artifact and entry as it is.  Run from the repo
root::

    PYTHONPATH=src python tests/store_fixtures_gen.py
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import numpy as np
from scipy import sparse

from repro.core.batch import BatchAligner
from repro.core.reference import Reference
from repro.partitions.dm import DisaggregationMatrix
from repro.store import ARTIFACT_VERSION, ModelStore

STORE_DIR = os.path.join(os.path.dirname(__file__), "fixtures", "store")
EXPECTED_PATH = os.path.join(STORE_DIR, "expected.json")

#: The one form this build writes.
FORM = f"v{ARTIFACT_VERSION}"


def band_references(seed, m=12, t=9, k=3):
    """Two-entry bands per source row, shifted per reference: an
    unaligned, sparse union."""
    rng = np.random.default_rng(seed)
    source_labels = [f"s{i}" for i in range(m)]
    target_labels = [f"t{j}" for j in range(t)]
    rows = np.arange(m)
    references = []
    for r in range(k):
        dense = np.zeros((m, t))
        dense[rows, (rows + r) % t] = rng.uniform(0.5, 2.0, size=m)
        dense[rows, (rows + r + 1) % t] = rng.uniform(0.5, 2.0, size=m)
        dm = DisaggregationMatrix(dense, source_labels, target_labels)
        references.append(Reference.from_dm(f"band-{r}", dm))
    return references, rng


def reversed_rows(dm):
    """The same DM with each row's entries stored in reverse order."""
    mat = dm.matrix
    order = np.concatenate(
        [
            np.arange(hi - 1, lo - 1, -1)
            for lo, hi in zip(mat.indptr[:-1], mat.indptr[1:])
        ]
    )
    unsorted = sparse.csr_matrix(
        (mat.data[order], mat.indices[order], mat.indptr), shape=mat.shape
    )
    return DisaggregationMatrix(unsorted, dm.source_labels, dm.target_labels)


def build_model():
    """The fitted model the current-format artifact holds."""
    references, rng = band_references(seed=24)
    middle = references[1]
    references[1] = Reference(
        middle.name, middle.source_vector, reversed_rows(middle.dm)
    )
    assert not references[1].dm.matrix.has_sorted_indices
    masks = np.ones((3, len(references)), dtype=bool)
    masks[2, 0] = False
    return BatchAligner().fit(
        references,
        rng.uniform(1.0, 9.0, size=(3, 12)),
        attribute_names=["u", "v", "w"],
        masks=masks,
    )


def generate():
    """Save the model into a staging directory, move it to ``FORM/``,
    and record its entry in ``expected.json``."""
    model = build_model()
    staging = tempfile.mkdtemp(prefix=".staging-", dir=STORE_DIR)
    try:
        root = os.path.join(staging, FORM)
        entry = ModelStore(root).save(model, meta={"form": FORM})
        target = os.path.join(STORE_DIR, FORM)
        shutil.rmtree(target, ignore_errors=True)
        shutil.move(root, target)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        expected = json.load(handle)
    expected[FORM] = {
        "key": entry.key,
        "fingerprint": entry.fingerprint,
        "stack_mode": None,
        "version": ARTIFACT_VERSION,
        "predictions": model.predict().tolist(),
        "dm_column_sums": [
            dm.col_sums().tolist() for dm in model.predict_dms()
        ],
    }
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(expected, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    generate()
