"""Unit tests for the benchmark regression gate.

``benchmarks/check_regression.py`` is a standalone script (CI invokes
it by path), so it is loaded here via importlib rather than imported as
a package module.
"""

import importlib.util
import json
import pathlib

import pytest

_SCRIPT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "check_regression.py"
)


def _load():
    spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cr = _load()


def _write_bench(
    directory, name, metrics, stages=None, cache=None, meta=None
):
    payload = {"name": name, "metrics": metrics}
    if stages is not None:
        payload["stages"] = stages
    if cache is not None:
        payload["cache"] = cache
    if meta is not None:
        payload["meta"] = meta
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload))
    return path


class TestMetricKind:
    @pytest.mark.parametrize(
        "key,kind",
        [
            ("loop_seconds", "time"),
            ("stage_weights_seconds", "time"),
            ("elapsed_s", "time"),
            ("speedup", "speedup"),
            ("cache_hit_rate", "speedup"),
            ("nrmse", "error"),
            ("max_abs_diff", "error"),
        ],
    )
    def test_kinds(self, key, kind):
        assert cr.metric_kind(key) == kind


class TestFlattenPayload:
    def test_stages_become_time_metrics(self):
        flat = cr.flatten_payload(
            {
                "metrics": {"total_seconds": 2.0},
                "stages": {"weights": 1.5, "disaggregation": 0.4},
            },
            "f.json",
        )
        assert flat["stage_weights_seconds"] == 1.5
        assert flat["stage_disaggregation_seconds"] == 0.4
        assert cr.metric_kind("stage_weights_seconds") == "time"

    def test_cache_becomes_hit_rate(self):
        flat = cr.flatten_payload(
            {"metrics": {}, "cache": {"hits": 3, "misses": 1}},
            "f.json",
        )
        assert flat == {"cache_hit_rate": 0.75}

    def test_unused_cache_emits_no_rate(self):
        flat = cr.flatten_payload(
            {"metrics": {}, "cache": {"hits": 0, "misses": 0}},
            "f.json",
        )
        assert "cache_hit_rate" not in flat

    def test_missing_metrics_mapping_rejected(self):
        with pytest.raises(ValueError, match="no 'metrics' mapping"):
            cr.flatten_payload({"stages": {}}, "f.json")

    def test_malformed_sections_rejected(self):
        with pytest.raises(ValueError, match="'stages' is not a mapping"):
            cr.flatten_payload({"metrics": {}, "stages": [1]}, "f.json")
        with pytest.raises(ValueError, match="'cache' is not a mapping"):
            cr.flatten_payload({"metrics": {}, "cache": 3}, "f.json")


class TestCompareMetric:
    def test_time_exact_tolerance_boundary(self):
        # candidate == baseline * tolerance is NOT a regression (strict >).
        regressed, _ = cr.compare_metric("t_seconds", 1.0, 1.5, 1.5, 1.05)
        assert not regressed
        regressed, _ = cr.compare_metric(
            "t_seconds", 1.0, 1.5 + 1e-9, 1.5, 1.05
        )
        assert regressed

    def test_error_boundary_includes_atol(self):
        # A zero baseline tolerates candidates up to the absolute floor.
        regressed, _ = cr.compare_metric("nrmse", 0.0, 1e-10, 1.5, 1.05)
        assert not regressed
        regressed, _ = cr.compare_metric("nrmse", 0.0, 1e-8, 1.5, 1.05)
        assert regressed

    def test_speedup_lower_is_regression(self):
        regressed, _ = cr.compare_metric("speedup", 3.0, 1.9, 1.5, 1.05)
        assert regressed
        regressed, detail = cr.compare_metric("speedup", 3.0, 2.0, 1.5, 1.05)
        assert not regressed
        assert "[ok]" in detail

    def test_report_formatting(self):
        regressed, detail = cr.compare_metric(
            "loop_seconds", 1.0, 2.0, 1.5, 1.05
        )
        assert regressed
        assert "loop_seconds" in detail
        assert "[REGRESSED]" in detail
        assert "baseline 1" in detail


class TestCompare:
    def test_bench_missing_from_candidate_is_regression(self):
        regressions, lines = cr.compare(
            {"b": {"x_seconds": 1.0}}, {}, 1.5, 1.05
        )
        assert regressions == [("b", "<missing>")]
        assert any("MISSING from candidate" in line for line in lines)

    def test_metric_missing_from_candidate_is_regression(self):
        regressions, lines = cr.compare(
            {"b": {"x_seconds": 1.0, "y_seconds": 1.0}},
            {"b": {"x_seconds": 1.0}},
            1.5,
            1.05,
        )
        assert regressions == [("b", "y_seconds")]
        assert any("missing from candidate" in line for line in lines)

    def test_new_bench_and_new_metric_are_skipped(self):
        regressions, lines = cr.compare(
            {"b": {"x_seconds": 1.0}},
            {"b": {"x_seconds": 1.0, "z": 9.0}, "new": {"q": 1.0}},
            1.5,
            1.05,
        )
        assert regressions == []
        assert any("new bench" in line for line in lines)
        assert any("new metric" in line for line in lines)


class TestMain:
    def test_missing_baseline_dir_exits_2(self, tmp_path, capsys):
        cand = tmp_path / "cand"
        cand.mkdir()
        code = cr.main([str(tmp_path / "nope"), str(cand)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_tolerance_exits_2(self, tmp_path):
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        base.mkdir()
        cand.mkdir()
        code = cr.main(
            [str(base), str(cand), "--time-tolerance", "0.5"]
        )
        assert code == 2

    def test_empty_dirs_exit_0(self, tmp_path, capsys):
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        base.mkdir()
        cand.mkdir()
        assert cr.main([str(base), str(cand)]) == 0
        assert "no BENCH_" in capsys.readouterr().out

    def test_end_to_end_with_sections(self, tmp_path, capsys):
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        base.mkdir()
        cand.mkdir()
        _write_bench(
            base,
            "batch",
            {"batch_seconds": 1.0},
            stages={"weights": 0.5},
            cache={"hits": 1, "misses": 1},
        )
        # Candidate: same wall time, but one stage regressed 3x and the
        # cache hit rate collapsed.
        _write_bench(
            cand,
            "batch",
            {"batch_seconds": 1.0},
            stages={"weights": 1.5},
            cache={"hits": 0, "misses": 2},
        )
        assert cr.main([str(base), str(cand)]) == 1
        out = capsys.readouterr().out
        assert "batch/stage_weights_seconds" in out
        assert "batch/cache_hit_rate" in out

    def test_end_to_end_clean_exits_0(self, tmp_path, capsys):
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        base.mkdir()
        cand.mkdir()
        for directory in (base, cand):
            _write_bench(
                directory,
                "batch",
                {"batch_seconds": 1.0, "nrmse": 0.1},
                stages={"weights": 0.5},
                cache={"hits": 1, "misses": 1},
            )
        assert cr.main([str(base), str(cand)]) == 0
        assert "no benchmark regressions" in capsys.readouterr().out


class TestMeta:
    """``meta`` differences are reported, never gated."""

    def test_changes_name_key_and_both_values(self):
        changes = cr.meta_changes(
            {"max_workers": 1, "n_shards": 8, "gone": "x"},
            {"max_workers": 4, "n_shards": 8, "new": 0.5},
        )
        assert changes == [
            'gone "x" -> <absent>',
            "max_workers 1 -> 4",
            "new <absent> -> 0.5",
        ]

    def test_equal_meta_has_no_changes(self):
        assert cr.meta_changes({"scale": 0.1}, {"scale": 0.1}) == []

    def test_differing_meta_is_reported_under_its_bench(
        self, tmp_path, capsys
    ):
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        base.mkdir()
        cand.mkdir()
        _write_bench(
            base, "shard", {"sharded_seconds": 1.0},
            meta={"max_workers": 1, "n_shards": 8},
        )
        _write_bench(
            cand, "shard", {"sharded_seconds": 1.0},
            meta={"max_workers": 4, "n_shards": 8},
        )
        _write_bench(base, "batch", {"batch_seconds": 1.0}, meta={"k": 3})
        _write_bench(cand, "batch", {"batch_seconds": 1.0}, meta={"k": 3})
        assert cr.main([str(base), str(cand)]) == 0
        lines = capsys.readouterr().out.splitlines()
        flagged = [line for line in lines if "meta differs" in line]
        assert flagged == ["    meta differs: max_workers 1 -> 4"]
        assert lines[lines.index(flagged[0]) - 1] == "shard:"

    def test_meta_difference_does_not_change_a_regression(
        self, tmp_path, capsys
    ):
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        base.mkdir()
        cand.mkdir()
        _write_bench(base, "shard", {"t_seconds": 1.0}, meta={"w": 1})
        _write_bench(cand, "shard", {"t_seconds": 3.0}, meta={"w": 4})
        assert cr.main([str(base), str(cand)]) == 1
        out = capsys.readouterr().out
        assert "meta differs: w 1 -> 4" in out
        assert "shard/t_seconds" in out


class TestMemoryKind:
    @pytest.mark.parametrize(
        "key",
        ["mem_batch_peak_bytes", "mem_peak", "peak_bytes", "heap_bytes"],
    )
    def test_memory_keys_classified(self, key):
        assert cr.metric_kind(key) == "memory"

    def test_memory_section_flattens_with_prefix(self):
        flat = cr.flatten_payload(
            {"metrics": {}, "memory": {"batch_peak_bytes": 1024.0}},
            "f.json",
        )
        assert flat == {"mem_batch_peak_bytes": 1024.0}

    def test_malformed_memory_section_rejected(self):
        with pytest.raises(ValueError):
            cr.flatten_payload(
                {"metrics": {}, "memory": [1, 2]}, "f.json"
            )

    def test_memory_defaults_to_time_tolerance(self):
        regressed, _ = cr.compare_metric(
            "mem_peak_bytes", 100.0, 150.0, 1.5, 1.05
        )
        assert not regressed
        regressed, _ = cr.compare_metric(
            "mem_peak_bytes", 100.0, 151.0, 1.5, 1.05
        )
        assert regressed

    def test_explicit_mem_tolerance_wins(self):
        regressed, detail = cr.compare_metric(
            "mem_peak_bytes", 100.0, 120.0, 1.5, 1.05, 1.1
        )
        assert regressed
        assert "x 1.1" in detail
        regressed, _ = cr.compare_metric(
            "mem_peak_bytes", 100.0, 109.0, 1.5, 1.05, 1.1
        )
        assert not regressed

    def test_main_rejects_bad_mem_tolerance(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        code = cr.main(
            [
                str(tmp_path / "a"),
                str(tmp_path / "b"),
                "--mem-tolerance",
                "0.5",
            ]
        )
        assert code == 2

    def test_memory_regression_end_to_end(self, tmp_path, capsys):
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        base.mkdir()
        cand.mkdir()
        payload = {"name": "b", "metrics": {}, "memory": {"peak": 100.0}}
        (base / "BENCH_b.json").write_text(json.dumps(payload))
        payload["memory"] = {"peak": 300.0}
        (cand / "BENCH_b.json").write_text(json.dumps(payload))
        code = cr.main(
            [str(base), str(cand), "--mem-tolerance", "2.0"]
        )
        assert code == 1
        assert "mem_peak" in capsys.readouterr().out


class TestHealthGate:
    def test_health_failures_mapping_shape(self):
        failures = cr.health_failures(
            {"health": {"volume_preservation": "fail", "other": "ok"}},
            "src",
        )
        assert failures == [("src", "volume_preservation")]

    def test_health_failures_checks_shape(self):
        failures = cr.health_failures(
            {
                "checks": [
                    {"name": "a", "status": "ok"},
                    {"name": "b", "status": "fail"},
                ]
            },
            "src",
        )
        assert failures == [("src", "b")]

    def test_load_health_file_single_json(self, tmp_path):
        path = tmp_path / "health.json"
        path.write_text(
            json.dumps(
                {
                    "trace": "run1",
                    "checks": [{"name": "volume", "status": "fail"}],
                }
            )
        )
        assert cr.load_health_file(str(path)) == [("run1", "volume")]

    def test_load_health_file_registry_jsonl(self, tmp_path):
        path = tmp_path / "registry.jsonl"
        lines = [
            {"trace_name": "r1", "health": {"volume": "ok"}},
            {"trace_name": "r2", "health": {"volume": "fail"}},
        ]
        path.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        assert cr.load_health_file(str(path)) == [("r2", "volume")]

    def test_candidate_bench_fail_verdict_gates(self, tmp_path, capsys):
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        base.mkdir()
        cand.mkdir()
        payload = {"name": "b", "metrics": {"rmse": 1.0}}
        (base / "BENCH_b.json").write_text(json.dumps(payload))
        payload["health"] = {"volume_preservation": "fail"}
        (cand / "BENCH_b.json").write_text(json.dumps(payload))
        code = cr.main([str(base), str(cand)])
        assert code == 1
        out = capsys.readouterr().out
        assert "health check volume_preservation FAILED" in out

    def test_baseline_fail_verdict_does_not_gate(self, tmp_path):
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        base.mkdir()
        cand.mkdir()
        payload = {
            "name": "b",
            "metrics": {"rmse": 1.0},
            "health": {"volume_preservation": "fail"},
        }
        (base / "BENCH_b.json").write_text(json.dumps(payload))
        payload["health"] = {"volume_preservation": "ok"}
        (cand / "BENCH_b.json").write_text(json.dumps(payload))
        assert cr.main([str(base), str(cand)]) == 0

    def test_warn_verdicts_pass(self, tmp_path):
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        base.mkdir()
        cand.mkdir()
        payload = {
            "name": "b",
            "metrics": {},
            "health": {"gram_conditioning": "warn"},
        }
        (cand / "BENCH_b.json").write_text(json.dumps(payload))
        assert cr.main([str(base), str(cand)]) == 0

    def test_health_file_failure_gates_empty_dirs(self, tmp_path, capsys):
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        base.mkdir()
        cand.mkdir()
        health = tmp_path / "health.json"
        health.write_text(
            json.dumps({"trace": "t", "health": {"volume": "fail"}})
        )
        code = cr.main([str(base), str(cand), "--health", str(health)])
        assert code == 1
        assert "health:volume" in capsys.readouterr().out

    def test_missing_health_file_exits_two(self, tmp_path):
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        base.mkdir()
        cand.mkdir()
        code = cr.main(
            [str(base), str(cand), "--health", str(tmp_path / "nope.json")]
        )
        assert code == 2
