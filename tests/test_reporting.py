"""Tests for benchmark report persistence."""

import json

import pytest

from repro.errors import ValidationError
from repro.experiments.reporting import (
    bench_json_path,
    load_bench_json,
    load_report,
    results_dir,
    save_bench_json,
    save_report,
    slugify,
)


class TestSlugify:
    def test_basic(self):
        assert slugify("Figure 5 (New York)") == "figure-5-new-york"

    def test_collapses_punctuation(self):
        assert slugify("a / b -- c") == "a-b-c"

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            slugify("!!!")


class TestSaveLoad:
    def test_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "r"))
        path = save_report("My Figure", "line one\nline two")
        assert path.endswith("my-figure.txt")
        assert load_report("My Figure") == "line one\nline two\n"

    def test_overwrite(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        save_report("x", "first")
        save_report("x", "second")
        assert load_report("x") == "second\n"

    def test_results_dir_created(self, tmp_path, monkeypatch):
        target = tmp_path / "deep" / "dir"
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(target))
        assert results_dir() == str(target)
        assert target.is_dir()

    def test_missing_report_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        with pytest.raises(FileNotFoundError):
            load_report("never-saved")


class TestBenchJson:
    def test_roundtrip_all_sections(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        path = save_bench_json(
            "My Bench",
            {"max_abs_diff": 1.25e-13, "nrmse": 2},
            meta={"scale": 0.1, "universe": "NY"},
            memory={"peak_bytes": 1024},
            health={"volume_preservation": "ok"},
        )
        assert path == bench_json_path("My Bench")
        payload = load_bench_json("My Bench")
        assert payload["name"] == "My Bench"
        assert payload["metrics"] == {"max_abs_diff": 1.25e-13, "nrmse": 2.0}
        assert payload["meta"] == {"scale": 0.1, "universe": "NY"}
        assert payload["memory"] == {"peak_bytes": 1024.0}
        assert payload["health"] == {"volume_preservation": "ok"}

    def test_sections_omitted_when_absent(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        save_bench_json("minimal", {"x": 1.0})
        payload = load_bench_json("minimal")
        assert set(payload) == {"name", "metrics"}

    def test_file_is_valid_sorted_json(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        save_bench_json("b", {"x": 1.0}, memory={"peak": 0.5})
        text = open(bench_json_path("b")).read()
        assert text.endswith("\n")
        assert json.loads(text)["memory"]["peak"] == 0.5
        assert list(json.loads(text)) == ["memory", "metrics", "name"]

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"metrics": {"bad": float("nan")}}, "metric 'bad' is NaN"),
            (
                {"metrics": {}, "memory": {"peak": float("nan")}},
                "memory metric 'peak' is NaN",
            ),
            (
                {"metrics": {"bad": float("-inf")}},
                "metric 'bad' is -inf",
            ),
            ({"metrics": {"bad": float("inf")}}, "metric 'bad' is inf"),
            (
                {"metrics": {}, "memory": {"peak": float("-inf")}},
                "memory metric 'peak' is -inf",
            ),
            (
                {"metrics": {}, "memory": {"peak": float("inf")}},
                "memory metric 'peak' is inf",
            ),
            (
                {"metrics": {}, "meta": {"scale": float("-inf")}},
                "not JSON compliant",
            ),
        ],
    )
    def test_nan_rejected_in_every_section(
        self, tmp_path, monkeypatch, kwargs, match
    ):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        with pytest.raises(ValidationError, match=match):
            save_bench_json("bad", **kwargs)
        assert not (tmp_path / "BENCH_bad.json").exists()

    def test_missing_bench_raises(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        with pytest.raises(FileNotFoundError):
            load_bench_json("never-saved")
