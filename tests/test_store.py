"""Model-store suite: round trips, integrity refusals, fingerprints.

The contract under test (see ``docs/serving.md``):

* save -> load -> predict matches the original fitted model to 1e-12
  on every golden-fixture world (in fact bit-exactly: the loader
  adopts the stored arrays rather than recomputing anything);
* every way an artifact can be damaged -- truncated payload, flipped
  bytes, format-version skew, missing or garbage manifest -- raises a
  typed :class:`~repro.errors.StoreError`, never pickle garbage or a
  numpy traceback;
* the artifact key is a content address: refitting identical inputs
  lands on the identical key, different inputs land elsewhere.
"""

import json
import os

import numpy as np
import pytest

from repro.core.batch import BatchAligner
from repro.errors import NotFittedError, StoreError
from repro.store import (
    ARTIFACT_VERSION,
    ModelStore,
    default_store_path,
    model_fingerprint,
    read_artifact,
)
from repro.store.artifact import manifest_path, payload_path
from repro.store.store import KEY_LENGTH
from tests.test_golden import GOLDEN_PATHS, _load

RTOL = 1e-12
ATOL = 1e-12


def _fit_golden(path):
    _, references, objectives = _load(path)
    names = [f"attr-{i}" for i in range(objectives.shape[0])]
    return BatchAligner().fit(references, objectives, attribute_names=names)


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
        model = _fit_golden(path)
        entry = store.save(model)
        loaded, loaded_entry = store.load(entry.key)
        np.testing.assert_allclose(
            loaded.predict(), model.predict(), rtol=RTOL, atol=ATOL
        )
        assert loaded_entry.fingerprint == entry.fingerprint

    def test_round_trip_is_bit_exact(self, store, fitted):
        entry = store.save(fitted)
        loaded, _ = store.load(entry.key)
        assert (loaded.predict() == fitted.predict()).all()
        assert (loaded.weights_ == fitted.weights_).all()
        assert (loaded.stack_.design == fitted.stack_.design).all()
        assert (loaded.stack_.gram == fitted.stack_.gram).all()

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
# Format v2: sparse value stacks + v1 backward compatibility
# ----------------------------------------------------------------------


def _sparse_world(seed=21, m=12, t=9, k=3, n_attrs=3, shifted=True):
    """Shifted-band references whose union stays sparse (one shared
    band, the aligned layout, when ``shifted`` is false)."""
    from repro.core.reference import Reference
    from repro.partitions.dm import DisaggregationMatrix

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
        assert manifest["version"] == ARTIFACT_VERSION
        assert manifest["stack_mode"] == "sparse"
        _, arrays = read_artifact(store.root, entry.key)
        assert "values" not in arrays
        assert {
            "values_data", "values_indices", "values_indptr"
        } <= set(arrays)
        loaded, _ = store.load(entry.key)
        assert loaded.stack_.dm_stack.mode == "sparse"
        assert (loaded.predict() == sparse_fitted.predict()).all()
        assert (loaded.weights_ == sparse_fitted.weights_).all()

    @pytest.mark.parametrize("mode", ["sparse", "aligned", "dense"])
    def test_loaded_predict_bit_identical_in_every_mode(self, store, mode):
        # The loaded stack derives R and its target-major operators from
        # the stored arrays, so the linear predict replays bit for bit.
        from repro.core.batch import ReferenceStack

        references, objectives = _sparse_world(shifted=mode != "aligned")
        stack = ReferenceStack(
            references, dense=True if mode == "dense" else None
        )
        assert stack.dm_stack.mode == mode
        masks = np.ones((objectives.shape[0], len(references)), dtype=bool)
        masks[0, 1] = False
        model = BatchAligner().fit(stack, objectives, masks=masks)
        loaded, _ = store.load(store.save(model).key)
        assert loaded.stack_.dm_stack.mode == mode
        assert np.array_equal(loaded.predict(), model.predict())

    def test_v1_artifact_loads_as_dense(self, store, paired_references):
        # A version-1 artifact: dense ``values`` payload, no
        # ``stack_mode`` manifest key.  It must load (as a dense-mode
        # stack, the old engine's arithmetic) bit-exactly.
        from repro.core.batch import ReferenceStack

        objectives = np.asarray(
            [ref.source_vector * 1.25 for ref in paired_references]
        )
        stack = ReferenceStack(paired_references, dense=True)
        model = BatchAligner().fit(stack, objectives)
        entry = store.save(model)
        path = manifest_path(store.root, entry.key)
        with open(path) as handle:
            manifest = json.load(handle)
        assert manifest["stack_mode"] == "dense"
        manifest["version"] = 1
        del manifest["stack_mode"]
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        loaded, _ = store.load(entry.key)
        assert loaded.stack_.dm_stack.mode == "dense"
        assert (loaded.predict() == model.predict()).all()

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
        self, store, sparse_fitted, paired_references, payload, stack_mode
    ):
        # A manifest whose stack_mode (None: the key removed) names a
        # mode the payload cannot serve is refused with a StoreError,
        # not a KeyError or a silent dense load.
        from repro.core.batch import ReferenceStack

        if payload == "triplets":
            model = sparse_fitted
        else:
            objectives = np.asarray(
                [ref.source_vector for ref in paired_references]
            )
            stack = ReferenceStack(paired_references, dense=True)
            model = BatchAligner().fit(stack, objectives)
        entry = store.save(model)
        path = manifest_path(store.root, entry.key)
        with open(path) as handle:
            manifest = json.load(handle)
        if stack_mode is None:
            del manifest["stack_mode"]
        else:
            manifest["stack_mode"] = stack_mode
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(StoreError, match="stack_mode"):
            store.load(entry.key)

    def test_bad_sparse_triplets_rejected(self, store, sparse_fitted):
        from repro.store.artifact import write_artifact

        entry = store.save(sparse_fitted)
        manifest, arrays = read_artifact(store.root, entry.key)
        arrays = dict(arrays)
        # Chop the per-reference indptr: no longer (k + 1,) entries.
        arrays["values_indptr"] = arrays["values_indptr"][:-1]
        extra = {
            name: value
            for name, value in manifest.items()
            if name
            not in ("format", "version", "key", "payload",
                    "payload_sha256", "payload_bytes")
        }
        write_artifact(store.root, entry.key, arrays, extra)
        with pytest.raises(StoreError, match="triplets"):
            store.load(entry.key)

    def test_missing_value_group_rejected_at_write(
        self, store, sparse_fitted
    ):
        from repro.store.artifact import write_artifact

        entry = store.save(sparse_fitted)
        manifest, arrays = read_artifact(store.root, entry.key)
        arrays = dict(arrays)
        del arrays["values_data"]
        with pytest.raises(StoreError, match="missing arrays"):
            write_artifact(store.root, "deadbeef", arrays, {})
