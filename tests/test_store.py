"""Model-store suite: round trips, integrity refusals, fingerprints.

The contract under test (see ``docs/serving.md``):

* save -> load is bit-exact on every golden-fixture world, on both
  union layouts and on DMs that hold their entries out of column order:
  the artifact stores each reference DM's own CSR arrays, and the
  loader adopts the stored weights and builds the stack from the stored
  references, as the fit did, so the loaded model keeps its predictions,
  its recomputed design/scales/Gram and its fingerprint;
* a save reads nothing a stack derives from its references, so it
  builds no union stack;
* the artifacts of every stored form, including the union-stack
  formats 1 and 2 earlier builds wrote, still load and answer as saved;
* every way an artifact can be damaged -- truncated payload, flipped
  bytes, format-version skew, missing or garbage manifest, arrays that
  disagree, values no reference admits -- raises a typed
  :class:`~repro.errors.StoreError` naming the artifact, never pickle
  garbage or a numpy traceback;
* the artifact key is a content address: refitting identical inputs
  lands on the identical key, different inputs land elsewhere.
"""

import hashlib
import io
import json
import os
import shutil

import numpy as np
import pytest
from scipy import sparse

from repro.cli import main
from repro.core.batch import BatchAligner
from repro.core.reference import Reference
from repro.errors import NotFittedError, StoreError
from repro.partitions.dm import DisaggregationMatrix
from repro.store import (
    ARTIFACT_VERSION,
    ModelStore,
    default_store_path,
    model_fingerprint,
    read_artifact,
)
from repro.store.artifact import manifest_path, payload_path
from repro.store.store import DM_ARRAYS, FIT_ARRAYS, KEY_LENGTH
from tests.test_golden import GOLDEN_PATHS, _load

RTOL = 1e-12
ATOL = 1e-12

#: Committed artifacts of every stored form, one store root per form,
#: and what each model answered when saved (``tests/store_fixtures_gen.py``).
LEGACY_DIR = os.path.join(os.path.dirname(__file__), "fixtures", "store")
with open(os.path.join(LEGACY_DIR, "expected.json")) as _handle:
    LEGACY = json.load(_handle)


def _fit_golden(path):
    _, references, objectives = _load(path)
    names = [f"attr-{i}" for i in range(objectives.shape[0])]
    return BatchAligner().fit(references, objectives, attribute_names=names)


def _round_trip(store, model):
    """Save and load ``model``, check that the loaded model is the same
    model bit for bit, and return ``(loaded, entry)``."""
    entry = store.save(model)
    loaded, loaded_entry = store.load(entry.key)
    assert loaded_entry.fingerprint == entry.fingerprint
    assert model_fingerprint(loaded) == entry.fingerprint
    assert (loaded.predict() == model.predict()).all()
    for name in ("weights_", "masks_", "objectives_"):
        assert (getattr(loaded, name) == getattr(model, name)).all()
    for name in ("design", "scales", "gram"):
        assert (getattr(loaded.stack_, name) == getattr(model.stack_, name)).all()
    ours, theirs = loaded.stack_.references, model.stack_.references
    assert len(ours) == len(theirs)
    for mine, original in zip(ours, theirs):
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(
                getattr(mine.dm.matrix, part), getattr(original.dm.matrix, part)
            )
    return loaded, entry


def _unsorted_world():
    """Two references over 3 x 3 units; row 0 of the first DM holds its
    entries at columns ``[2, 0]``, an order the DM keeps."""
    src, tgt = ["s0", "s1", "s2"], ["t0", "t1", "t2"]
    unsorted = sparse.csr_matrix(
        ([1.0, 2.0, 3.0, 4.0], [2, 0, 1, 2], [0, 2, 3, 4]), shape=(3, 3)
    )
    banded = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 1.0], [1.0, 0.0, 3.0]])
    references = [
        Reference.from_dm("unsorted", DisaggregationMatrix(unsorted, src, tgt)),
        Reference.from_dm("banded", DisaggregationMatrix(banded, src, tgt)),
    ]
    assert references[0].dm.matrix.indices[:2].tolist() == [2, 0]
    return BatchAligner().fit(
        references, [[3.0, 4.0, 5.0]], attribute_names=["a"]
    )


def _copy_form(tmp_path, form):
    """A writable copy of one committed artifact: ``(root, key)``."""
    root = str(tmp_path / form)
    shutil.copytree(os.path.join(LEGACY_DIR, form), root)
    return root, LEGACY[form]["key"]


def _rewrite_payload(root, key, damage):
    """Apply ``damage`` to artifact ``key``'s arrays and rewrite its
    payload; the manifest keeps every field, its format version too,
    and gets the new payload's checksum and length."""
    manifest, arrays = read_artifact(root, key)
    arrays = dict(arrays)
    damage(arrays)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    payload = buffer.getvalue()
    with open(payload_path(root, key), "wb") as handle:
        handle.write(payload)
    manifest["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    manifest["payload_bytes"] = len(payload)
    with open(manifest_path(root, key), "w") as handle:
        json.dump(manifest, handle)


def _edit_manifest(root, key, edit):
    path = manifest_path(root, key)
    with open(path) as handle:
        manifest = json.load(handle)
    edit(manifest)
    with open(path, "w") as handle:
        json.dump(manifest, handle)


@pytest.fixture
def fitted(paired_references):
    objectives = np.asarray(
        [ref.source_vector * 1.25 for ref in paired_references]
    )
    return BatchAligner().fit(
        paired_references, objectives, attribute_names=["a", "b"]
    )


@pytest.fixture
def store(tmp_path):
    return ModelStore(str(tmp_path / "store"))


class TestRoundTrip:
    @pytest.mark.parametrize(
        "path", GOLDEN_PATHS, ids=[os.path.basename(p) for p in GOLDEN_PATHS]
    )
    def test_golden_world_predictions_survive(self, store, path):
        _round_trip(store, _fit_golden(path))

    def test_round_trip_is_bit_exact(self, store, fitted):
        _round_trip(store, fitted)

    def test_unsorted_dm_rows_keep_the_fingerprint(self, store):
        # The DM keeps a caller's entry order and its fingerprint hashes
        # it; the artifact stores that order, so the loaded model keeps
        # its key, and saving it again lands on the same artifact.
        loaded, entry = _round_trip(store, _unsorted_world())
        indices = loaded.stack_.references[0].dm.matrix.indices
        assert indices[:2].tolist() == [2, 0]
        assert store.save(loaded).key == entry.key
        assert store.keys() == [entry.key]

    def test_loaded_model_answers_every_query(self, store, fitted):
        entry = store.save(fitted)
        loaded, _ = store.load(entry.key)
        assert loaded.attribute_names_ == fitted.attribute_names_
        assert loaded.weight_report() == fitted.weight_report()
        for ours, theirs in zip(
            loaded.predict_dms(), fitted.predict_dms()
        ):
            np.testing.assert_allclose(
                ours.matrix.toarray(),
                theirs.matrix.toarray(),
                rtol=RTOL,
                atol=ATOL,
            )

    def test_loaded_stack_rebuilds_reference_patterns(self, store, fitted):
        entry = store.save(fitted)
        loaded, _ = store.load(entry.key)
        for ours, theirs in zip(
            loaded.stack_.references, fitted.stack_.references
        ):
            assert ours.name == theirs.name
            assert ours.dm.matrix.nnz == theirs.dm.matrix.nnz
            np.testing.assert_allclose(
                ours.dm.matrix.toarray(), theirs.dm.matrix.toarray()
            )

    def test_entry_describes_the_model(self, store, fitted):
        entry = store.save(fitted, meta={"origin": "unit-test"})
        assert entry.n_attrs == 2
        assert entry.n_references == 2
        assert entry.attribute_names == ["a", "b"]
        assert entry.reference_names == ["alpha", "beta"]
        assert entry.meta == {"origin": "unit-test"}
        assert entry.payload_bytes > 0
        assert entry.key in entry.summary_line()

    def test_health_snapshot_persists(self, store, fitted):
        entry = store.save(fitted, health={"gram-conditioning": "ok"})
        assert store.entry(entry.key).health == {
            "gram-conditioning": "ok"
        }


class TestLegacyArtifacts:
    """The committed artifacts of every stored form (v3; v2 ``sparse``,
    ``aligned`` and ``dense``; v1) load under their key and answer what
    the saving build computed."""

    @pytest.mark.parametrize("form", sorted(LEGACY))
    def test_legacy_artifact_answers_as_saved(self, tmp_path, form):
        expected = LEGACY[form]
        root = str(tmp_path / form)
        shutil.copytree(os.path.join(LEGACY_DIR, form), root)
        with open(manifest_path(root, expected["key"])) as handle:
            manifest = json.load(handle)
        assert manifest["version"] == expected["version"]
        assert manifest.get("stack_mode") == expected["stack_mode"]
        loaded, entry = ModelStore(root).load(expected["key"])
        assert loaded.stack_.built_dm_stack is None
        assert entry.key == expected["key"]
        assert model_fingerprint(loaded) == expected["fingerprint"]
        np.testing.assert_allclose(
            loaded.predict(), expected["predictions"], rtol=RTOL, atol=ATOL
        )
        np.testing.assert_allclose(
            [dm.col_sums() for dm in loaded.predict_dms()],
            expected["dm_column_sums"],
            rtol=RTOL,
            atol=ATOL,
        )


class TestFingerprint:
    def test_same_inputs_same_key(self, store, paired_references, fitted):
        objectives = np.asarray(
            [ref.source_vector * 1.25 for ref in paired_references]
        )
        refit = BatchAligner().fit(
            paired_references, objectives, attribute_names=["a", "b"]
        )
        assert model_fingerprint(refit) == model_fingerprint(fitted)
        first = store.save(fitted)
        second = store.save(refit)
        assert first.key == second.key
        assert store.keys() == [first.key]

    def test_different_objectives_different_key(
        self, store, paired_references, fitted
    ):
        other = BatchAligner().fit(
            paired_references,
            np.asarray(
                [ref.source_vector * 2.0 for ref in paired_references]
            ),
            attribute_names=["a", "b"],
        )
        assert model_fingerprint(other) != model_fingerprint(fitted)

    def test_config_is_part_of_the_identity(
        self, paired_references, fitted
    ):
        other = BatchAligner(denominator="source-vectors").fit(
            paired_references,
            np.asarray(
                [ref.source_vector * 1.25 for ref in paired_references]
            ),
            attribute_names=["a", "b"],
        )
        assert model_fingerprint(other) != model_fingerprint(fitted)

    def test_key_is_fingerprint_prefix(self, store, fitted):
        entry = store.save(fitted)
        assert entry.key == entry.fingerprint[:KEY_LENGTH]

    def test_unfitted_model_is_refused(self):
        with pytest.raises(NotFittedError):
            model_fingerprint(BatchAligner())

    def test_fixed_fit_fingerprint_is_pinned(self):
        # Keys are content addresses shared across releases: this digest
        # was computed when the solver was still a selectable option, so
        # retiring the option must leave every artifact key in place.
        from repro.core.reference import Reference
        from repro.partitions.dm import DisaggregationMatrix

        src, tgt = ["s0", "s1", "s2"], ["t0", "t1"]
        references = [
            Reference.from_dm(name, DisaggregationMatrix(dense, src, tgt))
            for name, dense in (
                ("alpha", np.array([[1.0, 2.0], [0.0, 3.0], [4.0, 0.0]])),
                ("beta", np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 5.0]])),
            )
        ]
        model = BatchAligner().fit(
            references, [[3.0, 2.0, 4.0]], attribute_names=["pop"]
        )
        assert model_fingerprint(model) == (
            "ff3db586a836415abc96b2127269c294"
            "ecb5563a244bb79de3ebfe6b816e70ca"
        )

    def test_manifest_naming_a_retired_solver_loads_bit_exact(
        self, store, fitted
    ):
        # Manifests written while the solver was selectable carry its
        # name in ``config``; a model fitted by any of them is served
        # from its stored weights, unchanged.
        entry = store.save(fitted)
        path = manifest_path(store.root, entry.key)
        with open(path) as handle:
            manifest = json.load(handle)
        assert set(manifest["config"]) == {"normalize", "denominator"}
        manifest["config"]["solver_method"] = "frank-wolfe"
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        loaded, loaded_entry = store.load(entry.key)
        assert loaded_entry.config["solver_method"] == "frank-wolfe"
        assert (loaded.weights_ == fitted.weights_).all()
        assert (loaded.predict() == fitted.predict()).all()


class TestListingAndResolve:
    def test_empty_store_lists_nothing(self, store):
        assert store.keys() == []
        assert store.list() == []
        assert "no models stored" in store.to_text()

    def test_prefix_resolves_uniquely(self, store, fitted):
        entry = store.save(fitted)
        assert store.resolve(entry.key[:4]) == entry.key
        loaded, _ = store.load(entry.key[:4])
        assert (loaded.predict() == fitted.predict()).all()

    def test_unknown_prefix_is_typed(self, store):
        with pytest.raises(StoreError, match="no stored model"):
            store.resolve("doesnotexist")
        with pytest.raises(StoreError, match="non-empty"):
            store.resolve("")

    def test_delete_removes_both_files(self, store, fitted):
        entry = store.save(fitted)
        store.delete(entry.key)
        assert store.keys() == []
        assert not os.path.exists(manifest_path(store.root, entry.key))
        assert not os.path.exists(payload_path(store.root, entry.key))

    def test_to_text_lists_every_model(self, store, fitted, paired_references):
        store.save(fitted)
        other = BatchAligner().fit(
            paired_references,
            np.asarray(
                [ref.source_vector * 3.0 for ref in paired_references]
            ),
            attribute_names=["a", "b"],
        )
        store.save(other)
        text = store.to_text()
        assert "2 model(s)" in text
        for key in store.keys():
            assert key in text

    def test_default_root_honours_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "elsewhere"))
        assert default_store_path() == str(tmp_path / "elsewhere")
        assert ModelStore().root == str(tmp_path / "elsewhere")


class TestIntegrityRefusals:
    """Damaged artifacts raise StoreError, never numpy/pickle garbage."""

    def test_truncated_payload(self, store, fitted):
        entry = store.save(fitted)
        path = payload_path(store.root, entry.key)
        with open(path, "rb") as handle:
            payload = handle.read()
        with open(path, "wb") as handle:
            handle.write(payload[: len(payload) // 3])
        with pytest.raises(StoreError, match="truncated"):
            store.load(entry.key)

    def test_corrupted_payload(self, store, fitted):
        entry = store.save(fitted)
        path = payload_path(store.root, entry.key)
        with open(path, "rb") as handle:
            payload = bytearray(handle.read())
        payload[len(payload) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(payload))
        with pytest.raises(StoreError, match="checksum"):
            store.load(entry.key)

    def test_missing_payload(self, store, fitted):
        entry = store.save(fitted)
        os.remove(payload_path(store.root, entry.key))
        with pytest.raises(StoreError, match="unreadable payload"):
            store.load(entry.key)

    def test_version_skew(self, store, fitted):
        entry = store.save(fitted)
        path = manifest_path(store.root, entry.key)
        with open(path) as handle:
            manifest = json.load(handle)
        manifest["version"] = ARTIFACT_VERSION + 1
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(StoreError, match="format version"):
            store.load(entry.key)

    @pytest.mark.parametrize("version", [True, 1.0], ids=["true", "1.0"])
    def test_version_that_only_equals_one_is_refused(self, tmp_path, version):
        # ``true`` and ``1.0`` compare equal to 1 in Python; neither is
        # the integer format version a manifest holds.
        root, key = _copy_form(tmp_path, "v1")
        path = manifest_path(root, key)
        with open(path) as handle:
            manifest = json.load(handle)
        manifest["version"] = version
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(StoreError, match="format version"):
            ModelStore(root).load(key)

    def test_wrong_format_marker(self, store, fitted):
        entry = store.save(fitted)
        path = manifest_path(store.root, entry.key)
        with open(path) as handle:
            manifest = json.load(handle)
        manifest["format"] = "something-else"
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(StoreError, match="not a geoalign"):
            store.load(entry.key)

    def test_garbage_manifest(self, store, fitted):
        entry = store.save(fitted)
        path = manifest_path(store.root, entry.key)
        with open(path, "w") as handle:
            handle.write("{not json")
        with pytest.raises(StoreError, match="unreadable manifest"):
            store.load(entry.key)

    def test_non_object_manifest(self, store, fitted):
        entry = store.save(fitted)
        path = manifest_path(store.root, entry.key)
        with open(path, "w") as handle:
            handle.write("[1, 2, 3]")
        with pytest.raises(StoreError, match="JSON object"):
            store.load(entry.key)

    def test_missing_manifest(self, store):
        with pytest.raises(StoreError, match="no artifact manifest"):
            read_artifact(store.root, "feedfacecafe")

    @pytest.mark.parametrize(
        "field, damage",
        [
            ("shape.nnz", lambda m: m["shape"].pop("nnz")),
            ("shape.n_attrs", lambda m: m["shape"].update(n_attrs="x")),
            ("shape.n_sources", lambda m: m["shape"].update(n_sources=2.5)),
            ("shape.n_targets", lambda m: m["shape"].update(n_targets=True)),
            ("payload_bytes", lambda m: m.update(payload_bytes="12")),
            ("attribute_names", lambda m: m.update(attribute_names=5)),
            ("reference_names", lambda m: m.update(reference_names=[1])),
            ("shape", lambda m: m.update(shape=[3, 4])),
        ],
        ids=[
            "nnz-missing",
            "n-attrs-string",
            "n-sources-float",
            "n-targets-bool",
            "payload-bytes-string",
            "attribute-names-int",
            "reference-names-ints",
            "shape-list",
        ],
    )
    def test_damaged_manifest_field_is_a_store_error(
        self, store, fitted, field, damage
    ):
        entry = store.save(fitted)
        path = manifest_path(store.root, entry.key)
        with open(path) as handle:
            manifest = json.load(handle)
        damage(manifest)
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        for read in (store.list, lambda: store.load(entry.key)):
            with pytest.raises(StoreError) as excinfo:
                read()
            assert repr(field) in str(excinfo.value)
            assert path in str(excinfo.value)

    def test_payload_swap_between_artifacts(
        self, store, fitted, paired_references
    ):
        """A checksum-valid payload under the wrong key still fails."""
        first = store.save(fitted)
        other = BatchAligner().fit(
            paired_references,
            np.asarray(
                [ref.source_vector * 9.0 for ref in paired_references]
            ),
            attribute_names=["a", "b"],
        )
        second = store.save(other)
        os.replace(
            payload_path(store.root, second.key),
            payload_path(store.root, first.key),
        )
        with pytest.raises(StoreError, match="checksum"):
            store.load(first.key)


class TestObservability:
    def test_save_and_load_emit_spans(self, store, fitted, capture_trace):
        with capture_trace() as session:
            entry = store.save(fitted)
            store.load(entry.key)
        assert session.find_spans("store.save")
        assert session.find_spans("store.load")


# ----------------------------------------------------------------------
# Payload refusals (v3) and format-v2 union stacks, on committed copies
# ----------------------------------------------------------------------


class TestPayloadRefusals:
    """A checksum-valid payload whose arrays disagree, or whose values
    no reference admits, is a StoreError naming the artifact."""

    @pytest.mark.parametrize("name", FIT_ARRAYS + DM_ARRAYS)
    def test_missing_array_rejected(self, tmp_path, name):
        root, key = _copy_form(tmp_path, "v3")
        _rewrite_payload(root, key, lambda arrays: arrays.pop(name))
        with pytest.raises(StoreError, match="missing arrays") as excinfo:
            ModelStore(root).load(key)
        assert repr(name) in str(excinfo.value)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda a: a.update(dm_indptr=a["dm_indptr"][:-1]),
            lambda a: a.update(dm_indptr=a["dm_indptr"][::-1]),
            lambda a: a.update(dm_indptr=a["dm_indptr"] - 1),
            lambda a: a.update(dm_data=a["dm_data"][:-1]),
            lambda a: a.update(dm_indices=a["dm_indices"] - 1),
            lambda a: a.update(
                dm_indices=a["dm_indices"] + len(a["target_labels"])
            ),
        ],
        ids=[
            "indptr-short",
            "indptr-decreasing",
            "indptr-not-from-zero",
            "indptr-past-the-entries",
            "index-negative",
            "index-past-the-targets",
        ],
    )
    def test_malformed_dm_arrays_rejected(self, tmp_path, damage):
        root, key = _copy_form(tmp_path, "v3")
        _rewrite_payload(root, key, damage)
        with pytest.raises(StoreError, match="CSR"):
            ModelStore(root).load(key)

    @pytest.mark.parametrize(
        "form, name",
        [
            ("v3", "source_vectors"),
            ("v3", "weights"),
            ("v3", "source_labels"),
            ("v3", "target_labels"),
            ("v3", "dm_indptr"),
            ("v2-sparse", "entry_rows"),
            ("v2-sparse", "values_data"),
        ],
    )
    def test_array_of_another_rank_rejected(self, tmp_path, form, name):
        # A 2-D array flattened, a 1-D one made a column or a scalar:
        # the shape checks refuse it before any shape is unpacked.
        root, key = _copy_form(tmp_path, form)

        def reshape(arrays):
            array = arrays[name]
            arrays[name] = (
                array.ravel() if array.ndim == 2
                else array.reshape(-1, 1) if array.size > 1
                else array.reshape(())
            )

        _rewrite_payload(root, key, reshape)
        with pytest.raises(StoreError, match="inconsistent payload"):
            ModelStore(root).load(key)

    @pytest.mark.parametrize(
        "form, name, damage",
        [
            ("v3", "dm_data", np.negative),
            ("v3", "dm_data", lambda a: np.where(a > a.min(), a, np.inf)),
            ("v3", "source_vectors", np.negative),
            ("v2-sparse", "values_data", np.negative),
            ("v2-sparse", "values_data", lambda a: a * np.nan),
            ("v2-sparse", "source_vectors", lambda a: a * np.inf),
        ],
        ids=[
            "v3-negative-dm",
            "v3-infinite-dm",
            "v3-negative-source",
            "v2-negative-dm",
            "v2-nan-dm",
            "v2-infinite-source",
        ],
    )
    def test_bad_stored_values_are_a_store_error(
        self, tmp_path, capsys, form, name, damage
    ):
        root, key = _copy_form(tmp_path, form)
        _rewrite_payload(
            root, key, lambda arrays: arrays.update({name: damage(arrays[name])})
        )
        where = manifest_path(root, key)
        with pytest.raises(StoreError, match="not a valid model") as excinfo:
            ModelStore(root).load(key)
        assert where in str(excinfo.value)
        code = main(
            ["store", "load", "--store", root, key], stream=io.StringIO()
        )
        assert code == 2
        assert where in capsys.readouterr().err


def _sparse_world(seed=21, m=12, t=9, k=3, n_attrs=3, shifted=True):
    """Shifted-band references whose union stays sparse (one shared
    band, the aligned layout, when ``shifted`` is false)."""
    rng = np.random.default_rng(seed)
    source_labels = [f"s{i}" for i in range(m)]
    target_labels = [f"t{j}" for j in range(t)]
    references = []
    for r in range(k):
        dense = np.zeros((m, t))
        rows = np.arange(m)
        shift = r if shifted else 0
        dense[rows, (rows + shift) % t] = rng.uniform(0.5, 2.0, size=m)
        dense[rows, (rows + shift + 1) % t] = rng.uniform(0.5, 2.0, size=m)
        dm = DisaggregationMatrix(dense, source_labels, target_labels)
        references.append(Reference(f"band-{r}", dm.row_sums(), dm))
    objectives = rng.uniform(1.0, 9.0, size=(n_attrs, m))
    return references, objectives


class TestSparseArtifacts:
    """Both union layouts round-trip through the current format; the
    union-stack payloads of format 2 (and 1) are checked on copies of
    the committed artifacts."""

    @pytest.fixture
    def sparse_fitted(self):
        references, objectives = _sparse_world()
        model = BatchAligner().fit(references, objectives)
        assert model.stack_.dm_stack.mode == "sparse"
        return model

    def test_sparse_round_trip_is_bit_exact(self, store, sparse_fitted):
        entry = store.save(sparse_fitted)
        with open(manifest_path(store.root, entry.key)) as handle:
            manifest = json.load(handle)
        assert manifest["version"] == ARTIFACT_VERSION == 3
        assert "stack_mode" not in manifest
        stored = sum(ref.dm.nnz for ref in sparse_fitted.stack_.references)
        assert manifest["shape"]["nnz"] == stored
        _, arrays = read_artifact(store.root, entry.key)
        assert set(arrays) == set(FIT_ARRAYS + DM_ARRAYS)
        loaded, _ = store.load(entry.key)
        assert loaded.stack_.dm_stack.mode == "sparse"
        assert (loaded.predict() == sparse_fitted.predict()).all()
        assert (loaded.weights_ == sparse_fitted.weights_).all()

    @pytest.mark.parametrize("mode", ["sparse", "aligned"])
    def test_loaded_predict_bit_identical_in_every_mode(self, store, mode):
        # The loaded stack builds R and its operator views over the
        # stored reference DMs, so the linear predict replays bit for
        # bit; the union, built on first per-entry use, takes the layout
        # the references' patterns select, as it did when saved.
        references, objectives = _sparse_world(shifted=mode != "aligned")
        masks = np.ones((objectives.shape[0], len(references)), dtype=bool)
        masks[0, 1] = False
        model = BatchAligner().fit(references, objectives, masks=masks)
        assert model.stack_.dm_stack.mode == mode
        loaded, _ = _round_trip(store, model)
        assert loaded.stack_.built_dm_stack is None
        assert np.array_equal(loaded.predict(), model.predict())
        assert loaded.stack_.dm_stack.mode == mode

    def test_v1_artifact_loads_by_structure(self, tmp_path):
        # A version-1 artifact: a ``values`` payload, no ``stack_mode``
        # manifest key.  It loads bit-exactly, and its union takes the
        # layout its references' patterns select.
        root, key = _copy_form(tmp_path, "v2-aligned")
        with open(manifest_path(root, key)) as handle:
            manifest = json.load(handle)
        assert manifest["stack_mode"] == "aligned"

        def as_v1(manifest):
            manifest["version"] = 1
            del manifest["stack_mode"]

        _edit_manifest(root, key, as_v1)
        loaded, _ = ModelStore(root).load(key)
        saved = np.asarray(LEGACY["v2-aligned"]["predictions"])
        assert (loaded.predict() == saved).all()
        assert loaded.stack_.dm_stack.mode == "aligned"

    @pytest.mark.parametrize(
        "payload,stack_mode",
        [
            ("values", "sparse"),
            ("values", "bogus"),
            ("triplets", "dense"),
            ("triplets", "aligned"),
            ("triplets", "bogus"),
            ("triplets", None),
        ],
    )
    def test_stack_mode_disagreeing_with_payload_is_typed(
        self, tmp_path, payload, stack_mode
    ):
        # A manifest whose stack_mode (None: the key removed) names a
        # mode the payload cannot serve is refused with a StoreError,
        # not a KeyError or a silent load of the wrong arrays.
        form = "v2-sparse" if payload == "triplets" else "v2-aligned"
        root, key = _copy_form(tmp_path, form)

        def set_mode(manifest):
            if stack_mode is None:
                del manifest["stack_mode"]
            else:
                manifest["stack_mode"] = stack_mode

        _edit_manifest(root, key, set_mode)
        with pytest.raises(StoreError, match="stack_mode"):
            ModelStore(root).load(key)

    def test_bad_sparse_triplets_rejected(self, tmp_path):
        root, key = _copy_form(tmp_path, "v2-sparse")

        def chop(arrays):
            # The per-reference indptr no longer has (k + 1,) entries.
            arrays["values_indptr"] = arrays["values_indptr"][:-1]

        _rewrite_payload(root, key, chop)
        with pytest.raises(StoreError, match="triplets"):
            ModelStore(root).load(key)

    @pytest.mark.parametrize(
        "damage, message",
        [
            (
                lambda a: a.update(values_indices=a["values_indices"] - 1),
                "triplets",
            ),
            (
                lambda a: a.update(values_indptr=a["values_indptr"][::-1]),
                "triplets",
            ),
            (
                lambda a: a.update(entry_rows=a["entry_rows"] - 1),
                "outside the labelled units",
            ),
        ],
        ids=["negative-index", "decreasing-indptr", "negative-entry-row"],
    )
    def test_malformed_indices_rejected(self, tmp_path, damage, message):
        # Indices the decoder would wrap around or hand to SciPy are
        # refused before any reference is rebuilt.
        root, key = _copy_form(tmp_path, "v2-sparse")
        _rewrite_payload(root, key, damage)
        with pytest.raises(StoreError, match=message):
            ModelStore(root).load(key)

    def test_checks_cover_the_value_group_the_mode_reads(
        self, tmp_path, capsys
    ):
        # A well-formed ``values`` matrix beside out-of-range CSR
        # indices: ``stack_mode: "sparse"`` reads the triplets, so they
        # are what is checked, and the load is a StoreError (exit 2 from
        # the CLI), not an IndexError.
        root, key = _copy_form(tmp_path, "v2-sparse")

        def both_groups(arrays):
            k, nnz = len(arrays["source_vectors"]), len(arrays["entry_rows"])
            arrays["values"] = sparse.csr_matrix(
                (
                    arrays["values_data"],
                    arrays["values_indices"],
                    arrays["values_indptr"],
                ),
                shape=(k, nnz),
            ).toarray()
            arrays["values_indices"] = arrays["values_indices"] + nnz

        _rewrite_payload(root, key, both_groups)
        with pytest.raises(StoreError, match="triplets"):
            ModelStore(root).load(key)
        code = main(
            ["store", "load", "--store", root, key], stream=io.StringIO()
        )
        assert code == 2
        assert "triplets" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "shifted", [True, False], ids=["sparse", "aligned"]
    )
    def test_save_leaves_the_live_union_as_it_was(self, store, shifted):
        # A save reads each reference's own DM arrays and nothing the
        # stack derives from them: a union that was not built stays
        # unbuilt, and the stack holds no byte more.
        references, objectives = _sparse_world(shifted=shifted)
        model = BatchAligner().fit(references, objectives)
        model.predict()
        stack = model.stack_
        before = stack.resident_bytes
        store.save(model)
        assert stack.built_dm_stack is None
        assert stack.resident_bytes == before
        assert stack.dm_stack.mode == ("sparse" if shifted else "aligned")
