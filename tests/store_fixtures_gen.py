"""Generator for the legacy model-store artifacts under fixtures/store/.

One tiny fitted model is saved per artifact form the loader must keep
reading, each into its own store root ``fixtures/store/<form>/``:

* ``v2-sparse``  -- format v2, ``stack_mode: "sparse"``: shifted-band
  references whose union stays sparse, so the payload carries the value
  stack as CSR triplets (one attribute masks a reference);
* ``v2-aligned`` -- format v2, ``stack_mode: "aligned"``: every
  reference on one band, so the payload carries the ``values`` matrix
  (fitted with ``denominator="source-vectors"``);
* ``v2-dense``   -- format v2, ``stack_mode: "dense"``: unaligned
  references whose stored density exceeds 0.5, which the build that
  wrote these artifacts stored densely without being asked to;
* ``v1``         -- the ``v2-dense`` artifact with its manifest
  rewritten to ``version: 1`` and no ``stack_mode`` key, the layout of
  the first artifact format (its payload checksum still holds).

``fixtures/store/expected.json`` records, per form, the artifact key
and fingerprint, the stored ``stack_mode`` and format version, the
model's ``predict()`` rows and the column sums of its ``predict_dms()``
as the saving build computed them.  ``tests/test_store.py`` loads each
artifact and checks the key, the recomputed fingerprint, ``predict()``
and the ``predict_dms()`` column sums against them at 1e-12.

The artifacts pin what older builds wrote, so they are not regenerated:
a build that no longer stores a form refuses to write it (the saved
``stack_mode`` is checked against the form's) and leaves the committed
artifacts as they are.  Run from the repo root::

    PYTHONPATH=src python tests/store_fixtures_gen.py
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import numpy as np

from repro.core.batch import BatchAligner
from repro.core.reference import Reference
from repro.partitions.dm import DisaggregationMatrix
from repro.store import ModelStore
from repro.store.artifact import manifest_path

STORE_DIR = os.path.join(os.path.dirname(__file__), "fixtures", "store")
EXPECTED_PATH = os.path.join(STORE_DIR, "expected.json")

#: Form name -> the ``stack_mode`` its manifest must record (``None``:
#: no ``stack_mode`` key) and its format version.
FORMS = {
    "v2-sparse": ("sparse", 2),
    "v2-aligned": ("aligned", 2),
    "v2-dense": ("dense", 2),
    "v1": (None, 1),
}


def _labelled(dense_matrices, names):
    m, t = dense_matrices[0].shape
    source_labels = [f"s{i}" for i in range(m)]
    target_labels = [f"t{j}" for j in range(t)]
    return [
        Reference.from_dm(
            name, DisaggregationMatrix(dense, source_labels, target_labels)
        )
        for name, dense in zip(names, dense_matrices)
    ]


def band_references(seed, shifted, m=12, t=9, k=3):
    """Two-entry bands per source row, shifted per reference (an
    unaligned, sparse union) or shared by all (the aligned layout)."""
    rng = np.random.default_rng(seed)
    rows = np.arange(m)
    matrices = []
    for r in range(k):
        dense = np.zeros((m, t))
        shift = r if shifted else 0
        dense[rows, (rows + shift) % t] = rng.uniform(0.5, 2.0, size=m)
        dense[rows, (rows + shift + 1) % t] = rng.uniform(0.5, 2.0, size=m)
        matrices.append(dense)
    return _labelled(matrices, [f"band-{r}" for r in range(k)]), rng


def dense_references(seed, m=6, t=5, k=3, keep=0.8):
    """Unaligned references that each keep ~80 % of the cells: a union
    stored density well above 0.5."""
    rng = np.random.default_rng(seed)
    matrices = []
    for _ in range(k):
        cells = rng.random((m, t)) < keep
        cells[np.arange(m), rng.integers(0, t, size=m)] = True
        matrices.append(np.where(cells, rng.uniform(0.5, 3.0, (m, t)), 0.0))
    return _labelled(matrices, [f"full-{r}" for r in range(k)]), rng


def build_models():
    """``{form: fitted BatchAligner}`` for the three v2 forms."""
    sparse_refs, rng = band_references(seed=21, shifted=True)
    masks = np.ones((3, len(sparse_refs)), dtype=bool)
    masks[1, 0] = False
    sparse_model = BatchAligner().fit(
        sparse_refs,
        rng.uniform(1.0, 9.0, size=(3, 12)),
        attribute_names=["a", "b", "c"],
        masks=masks,
    )
    aligned_refs, rng = band_references(seed=22, shifted=False)
    aligned_model = BatchAligner(denominator="source-vectors").fit(
        aligned_refs,
        rng.uniform(1.0, 9.0, size=(2, 12)),
        attribute_names=["x", "y"],
    )
    dense_refs, rng = dense_references(seed=23)
    dense_model = BatchAligner().fit(
        dense_refs,
        rng.uniform(1.0, 9.0, size=(2, 6)),
        attribute_names=["p", "q"],
    )
    return {
        "v2-sparse": sparse_model,
        "v2-aligned": aligned_model,
        "v2-dense": dense_model,
    }


def _rewrite_as_v1(root, key):
    path = manifest_path(root, key)
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    manifest["version"] = 1
    del manifest["stack_mode"]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def generate():
    """Save every form into a staging directory, check each manifest's
    ``stack_mode``, and only then replace the committed artifacts."""
    models = build_models()
    models["v1"] = models["v2-dense"]
    expected = {}
    staging = tempfile.mkdtemp(prefix=".staging-", dir=STORE_DIR)
    try:
        for form, (mode, version) in FORMS.items():
            model = models[form]
            root = os.path.join(staging, form)
            entry = ModelStore(root).save(model, meta={"form": form})
            if form == "v1":
                _rewrite_as_v1(root, entry.key)
            path = manifest_path(root, entry.key)
            with open(path, encoding="utf-8") as handle:
                manifest = json.load(handle)
            if manifest.get("stack_mode") != mode:
                raise SystemExit(
                    f"{form}: this build saved stack_mode "
                    f"{manifest.get('stack_mode')!r}, not {mode!r}; the "
                    "committed artifacts pin what an older build wrote"
                )
            expected[form] = {
                "key": entry.key,
                "fingerprint": entry.fingerprint,
                "stack_mode": mode,
                "version": version,
                "predictions": model.predict().tolist(),
                "dm_column_sums": [
                    dm.col_sums().tolist() for dm in model.predict_dms()
                ],
            }
        for form in FORMS:
            target = os.path.join(STORE_DIR, form)
            shutil.rmtree(target, ignore_errors=True)
            shutil.move(os.path.join(staging, form), target)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(expected, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    generate()
