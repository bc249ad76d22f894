"""Failure injection: adversarial and degenerate inputs across the API.

Every public entry point should fail *loudly and specifically* on bad
input (Zen: errors should never pass silently) and keep working on
hostile-but-legal data (huge magnitudes, extreme sparsity, single
units).  This module attacks each layer in turn.
"""

import io
import json

import numpy as np
import pytest

from repro import (
    Dasymetric,
    DisaggregationMatrix,
    GeoAlign,
    Reference,
    build_intersection,
    read_crosswalk_csv,
)
from repro.errors import (
    CrosswalkError,
    GeometryError,
    ReproError,
    ShapeMismatchError,
    ShardError,
    ValidationError,
)
from repro.geometry.polygon import Polygon
from repro.geometry.primitives import BoundingBox
from repro.geometry.voronoi import voronoi_partition
from repro.intervals import IntervalUnitSystem
from repro.tabular import Table


class TestHostileNumerics:
    def test_huge_magnitudes_survive(self):
        dm = DisaggregationMatrix(
            np.array([[1e14, 0.0], [3e13, 7e13]]), ["a", "b"], ["x", "y"]
        )
        ref = Reference.from_dm("huge", dm)
        estimate = GeoAlign().fit_predict([ref], [1e15, 2e15])
        assert np.isfinite(estimate).all()
        assert estimate.sum() == pytest.approx(3e15, rel=1e-9)

    def test_tiny_magnitudes_survive(self):
        dm = DisaggregationMatrix(
            np.array([[1e-12, 0.0], [3e-13, 7e-13]]),
            ["a", "b"],
            ["x", "y"],
        )
        ref = Reference.from_dm("tiny", dm)
        estimate = GeoAlign().fit_predict([ref], [1e-12, 5e-12])
        assert np.isfinite(estimate).all()

    def test_single_source_single_target(self):
        dm = DisaggregationMatrix([[4.0]], ["only-s"], ["only-t"])
        ref = Reference.from_dm("one", dm)
        estimate = GeoAlign().fit_predict([ref], [9.0])
        assert estimate == pytest.approx([9.0])

    def test_extremely_sparse_reference(self):
        """A reference with one non-zero row still yields a prediction
        (mass from empty rows drops, is not invented)."""
        matrix = np.zeros((50, 6))
        matrix[17, 2] = 5.0
        ref = Reference.from_dm(
            "needle",
            DisaggregationMatrix(
                matrix,
                [f"s{i}" for i in range(50)],
                [f"t{j}" for j in range(6)],
            ),
        )
        objective = np.ones(50)
        estimate = GeoAlign().fit_predict([ref], objective)
        assert estimate.sum() == pytest.approx(1.0)  # only row 17 placed
        assert estimate[2] == pytest.approx(1.0)

    def test_objective_with_zeros_everywhere_but_one(self):
        rng = np.random.default_rng(0)
        matrix = rng.random((10, 3)) + 0.01
        ref = Reference.from_dm(
            "r",
            DisaggregationMatrix(
                matrix,
                [f"s{i}" for i in range(10)],
                [f"t{j}" for j in range(3)],
            ),
        )
        objective = np.zeros(10)
        objective[4] = 1.0
        estimate = GeoAlign().fit_predict([ref], objective)
        assert estimate.sum() == pytest.approx(1.0)

    def test_all_errors_share_base_class(self):
        """One except-clause suffices at integration boundaries."""
        failures = []
        try:
            Polygon([(0, 0), (1, 1)])
        except ReproError as exc:
            failures.append(exc)
        try:
            DisaggregationMatrix([[-1.0]], ["s"], ["t"])
        except ReproError as exc:
            failures.append(exc)
        try:
            GeoAlign(denominator="wat")
        except ReproError as exc:
            failures.append(exc)
        assert len(failures) == 3


class TestMalformedFiles:
    def test_crosswalk_with_nan_value(self):
        text = "source,target,value\na,x,nan\n"
        # float('nan') parses; the DM constructor must reject it.
        with pytest.raises((CrosswalkError, ValidationError)):
            read_crosswalk_csv(io.StringIO(text))

    def test_crosswalk_with_exponent_garbage(self):
        text = "source,target,value\na,x,1e\n"
        with pytest.raises(CrosswalkError):
            read_crosswalk_csv(io.StringIO(text))

    def test_crosswalk_header_case_insensitive(self):
        text = "Source,TARGET,Value\na,x,1\n"
        dm = read_crosswalk_csv(io.StringIO(text))
        assert dm.total() == 1.0

    def test_crosswalk_whitespace_units_trimmed(self):
        text = "source,target,value\n a , x ,2\n"
        dm = read_crosswalk_csv(io.StringIO(text))
        assert dm.source_labels == ["a"]


class TestMismatchedWiring:
    def test_reference_pools_from_different_worlds_rejected(self):
        a = Reference.from_dm(
            "a", DisaggregationMatrix([[1.0]], ["s"], ["t"])
        )
        b = Reference.from_dm(
            "b", DisaggregationMatrix([[1.0]], ["other"], ["t"])
        )
        with pytest.raises(ShapeMismatchError):
            GeoAlign().fit([a, b], [1.0])

    def test_dasymetric_wrong_length_objective(self):
        ref = Reference.from_dm(
            "r", DisaggregationMatrix([[1.0], [1.0]], ["a", "b"], ["t"])
        )
        with pytest.raises(ShapeMismatchError):
            Dasymetric(ref).fit([1.0, 2.0, 3.0])

    def test_cross_backend_overlay_rejected(self):
        intervals = IntervalUnitSystem([0, 1, 2])
        from repro.boxes import BoxUnitSystem

        boxes = BoxUnitSystem.regular_grid([0], [2], (2,))
        with pytest.raises(ShapeMismatchError):
            build_intersection(intervals, boxes)


class TestDegenerateGeometry:
    def test_collinear_voronoi_seeds(self):
        box = BoundingBox(0, 0, 10, 1)
        seeds = np.column_stack(
            (np.linspace(0.5, 9.5, 12), np.full(12, 0.5))
        )
        cells = voronoi_partition(seeds, box)
        from repro.geometry.primitives import polygon_area

        assert sum(polygon_area(c) for c in cells) == pytest.approx(10.0)

    def test_nearly_duplicate_voronoi_seeds(self):
        box = BoundingBox(0, 0, 1, 1)
        seeds = np.array([[0.5, 0.5], [0.5 + 1e-7, 0.5]])
        cells = voronoi_partition(seeds, box)
        from repro.geometry.primitives import polygon_area

        total = sum(polygon_area(c) for c in cells)
        assert total == pytest.approx(1.0)

    def test_sliver_polygon_rejected_not_crash(self):
        with pytest.raises(GeometryError):
            Polygon([(0, 0), (1, 0), (0.5, 1e-15)])

    def test_grid_seed_on_exact_boundary(self):
        box = BoundingBox(0, 0, 1, 1)
        seeds = np.array([[0.0, 0.0], [1.0, 1.0]])
        cells = voronoi_partition(seeds, box)
        assert len(cells) == 2


class TestTabularAbuse:
    def test_join_on_missing_column(self):
        t = Table({"a": [1.0]})
        with pytest.raises(KeyError):
            t.join(Table({"b": [1.0]}), on="a")

    def test_where_predicate_exception_propagates(self):
        t = Table({"a": [1.0]})
        with pytest.raises(ZeroDivisionError):
            t.where(lambda row: 1 / 0 > 0)

    def test_mixed_type_column_stays_list(self):
        t = Table({"mixed": [1, "two", 3.0]})
        assert isinstance(t.column("mixed"), list)

    def test_boolean_values_not_treated_numeric(self):
        t = Table({"flags": [True, False]})
        assert isinstance(t.column("flags"), list)


class TestShardWorkerFaults:
    """A worker crashing mid-phase must surface as a clean ShardError.

    The chaos hook (``REPRO_SHARD_FAULT=<phase>:<shard>``) makes one
    shard's worker raise a foreign RuntimeError; the driver must wrap
    it with the shard id and phase, drain the pool (no orphaned
    children, no hang), and leave the aligner reusable.
    """

    @staticmethod
    def _universe(seed=13, m=24, n=8, k=2):
        rng = np.random.default_rng(seed)
        src = [f"s{i}" for i in range(m)]
        tgt = [f"t{j}" for j in range(n)]
        references = []
        for r in range(k):
            matrix = rng.random((m, n)) * (rng.random((m, n)) < 0.5)
            matrix[np.arange(m), rng.integers(0, n, size=m)] += 0.05
            references.append(
                Reference.from_dm(
                    f"ref{r}", DisaggregationMatrix(matrix, src, tgt)
                )
            )
        return references, rng.random((3, m)) + 0.1

    @pytest.mark.parametrize("max_workers", [1, 2], ids=["inline", "pool"])
    def test_fit_fault_raises_sharderror_with_shard_id(
        self, monkeypatch, max_workers
    ):
        """A worker fault surfaces from ``fit_predict`` with the shard id
        and phase (the disaggregate map is the only one the fit path
        runs)."""
        from repro.core.shard import FAULT_ENV, ShardedAligner

        references, objectives = self._universe()
        monkeypatch.setenv(FAULT_ENV, "disaggregate:1")
        model = ShardedAligner(n_shards=3, max_workers=max_workers)
        with pytest.raises(ShardError) as excinfo:
            model.fit_predict(references, objectives)
        assert excinfo.value.shard_id == 1
        assert excinfo.value.phase == "disaggregate"
        assert "shard 1" in str(excinfo.value)
        assert "injected shard fault" in str(excinfo.value)

    @pytest.mark.parametrize("max_workers", [1, 2], ids=["inline", "pool"])
    def test_disaggregate_fault_raises_sharderror(
        self, monkeypatch, max_workers
    ):
        from repro.core.shard import FAULT_ENV, ShardedAligner

        references, objectives = self._universe()
        model = ShardedAligner(n_shards=3, max_workers=max_workers)
        model.fit(references, objectives)
        monkeypatch.setenv(FAULT_ENV, "disaggregate:0")
        with pytest.raises(ShardError) as excinfo:
            model.predict()
        assert excinfo.value.shard_id == 0
        assert excinfo.value.phase == "disaggregate"

    def test_sharderror_is_a_reproerror(self, monkeypatch):
        from repro.core.shard import FAULT_ENV, ShardedAligner

        references, objectives = self._universe()
        monkeypatch.setenv(FAULT_ENV, "disaggregate:0")
        with pytest.raises(ReproError):
            ShardedAligner(n_shards=2).fit_predict(references, objectives)

    def test_recovery_after_fault(self, monkeypatch):
        """Clearing the fault leaves the same aligner fully usable --
        the failed run did not wedge a pool or poison state."""
        from repro.core.shard import FAULT_ENV, ShardedAligner
        from repro.core.batch import BatchAligner

        references, objectives = self._universe()
        model = ShardedAligner(n_shards=3, max_workers=2)
        monkeypatch.setenv(FAULT_ENV, "disaggregate:2")
        with pytest.raises(ShardError):
            model.fit_predict(references, objectives)
        monkeypatch.delenv(FAULT_ENV)
        predictions = model.fit(references, objectives).predict()
        expected = BatchAligner().fit(references, objectives).predict()
        np.testing.assert_allclose(
            predictions, expected, rtol=1e-9, atol=1e-9
        )

    def test_fault_on_absent_shard_never_fires(self, monkeypatch):
        from repro.core.shard import FAULT_ENV, ShardedAligner

        references, objectives = self._universe()
        monkeypatch.setenv(FAULT_ENV, "disaggregate:99")
        model = ShardedAligner(n_shards=3).fit(references, objectives)
        model.predict()
        assert model.weights_ is not None


class TestStoreFaults:
    """Damaged saves must be refused at load with a typed StoreError.

    Each test damages a real artifact after a clean save -- a truncated
    payload, a flipped byte, a format-version bump -- so the loader's
    integrity checks are exercised against real artifacts, not
    synthetic mocks.
    """

    @staticmethod
    def _fitted(paired_references):
        from repro.core.batch import BatchAligner

        objectives = np.asarray(
            [ref.source_vector * 1.25 for ref in paired_references]
        )
        return BatchAligner().fit(
            paired_references, objectives, attribute_names=["a", "b"]
        )

    @staticmethod
    def _damage(store, key, fault):
        """Give the saved artifact ``key`` the damage named ``fault``."""
        from repro.store.artifact import manifest_path, payload_path

        if fault == "version-skew":
            path = manifest_path(store.root, key)
            with open(path) as handle:
                manifest = json.load(handle)
            manifest["version"] = 4
            with open(path, "w") as handle:
                json.dump(manifest, handle)
            return
        path = payload_path(store.root, key)
        with open(path, "rb") as handle:
            payload = bytearray(handle.read())
        if fault == "truncate-payload":
            payload = payload[: len(payload) // 2]
        else:
            payload[len(payload) // 2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(payload))

    @pytest.mark.parametrize(
        "fault, match",
        [
            ("truncate-payload", "truncated"),
            ("corrupt-payload", "checksum"),
            ("version-skew", "format version"),
        ],
    )
    def test_injected_damage_is_refused_at_load(
        self, tmp_path, paired_references, fault, match
    ):
        from repro.errors import StoreError
        from repro.store import ModelStore

        store = ModelStore(str(tmp_path / "store"))
        entry = store.save(self._fitted(paired_references))
        self._damage(store, entry.key, fault)
        with pytest.raises(StoreError, match=match):
            store.load(entry.key)

    def test_resave_after_fault_recovers(self, tmp_path, paired_references):
        """A clean save over a damaged artifact makes it loadable again."""
        from repro.store import ModelStore

        store = ModelStore(str(tmp_path / "store"))
        model = self._fitted(paired_references)
        entry = store.save(model)
        self._damage(store, entry.key, "corrupt-payload")
        store.save(model)  # same content fingerprint -> same key
        loaded, _ = store.load(entry.key)
        np.testing.assert_array_equal(loaded.predict(), model.predict())


class TestEndToEndUnderStress:
    def test_crosswalk_of_permuted_labels_consistent(self):
        """Label order must not matter: permuting source rows of every
        input permutes nothing in the target estimates."""
        rng = np.random.default_rng(3)
        m, n = 12, 4
        src = [f"s{i}" for i in range(m)]
        tgt = [f"t{j}" for j in range(n)]
        matrix = rng.random((m, n)) + 0.01
        objective = rng.random(m) + 0.1

        ref = Reference.from_dm(
            "r", DisaggregationMatrix(matrix, src, tgt)
        )
        base = GeoAlign().fit_predict([ref], objective)

        perm = rng.permutation(m)
        ref_p = Reference.from_dm(
            "r",
            DisaggregationMatrix(
                matrix[perm], [src[i] for i in perm], tgt
            ),
        )
        permuted = GeoAlign().fit_predict([ref_p], objective[perm])
        assert np.allclose(base, permuted)

    def test_prediction_insensitive_to_duplicated_reference(self):
        """Passing the same reference twice must not distort estimates
        (weights split between the copies)."""
        rng = np.random.default_rng(8)
        matrix = rng.random((15, 5)) + 0.01
        ref = Reference.from_dm(
            "r",
            DisaggregationMatrix(
                matrix,
                [f"s{i}" for i in range(15)],
                [f"t{j}" for j in range(5)],
            ),
        )
        objective = rng.random(15) + 0.1
        single = GeoAlign().fit_predict([ref], objective)
        doubled = GeoAlign().fit_predict([ref, ref], objective)
        assert np.allclose(single, doubled, rtol=1e-8)
