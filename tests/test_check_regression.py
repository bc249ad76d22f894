"""Unit tests for the benchmark regression gate.

``benchmarks/check_regression.py`` is a standalone script (CI invokes
it by path), so it is loaded here via importlib rather than imported as
a package module.
"""

import importlib.util
import json
import pathlib

import pytest

_BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
_SCRIPT = _BENCHMARKS / "check_regression.py"


def _load():
    spec = importlib.util.spec_from_file_location("check_regression", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


cr = _load()


def _write_bench(directory, name, metrics, memory=None, meta=None):
    payload = {"name": name, "metrics": metrics}
    if memory is not None:
        payload["memory"] = memory
    if meta is not None:
        payload["meta"] = meta
    path = directory / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload))
    return path


class TestMetricKind:
    @pytest.mark.parametrize(
        "key,kind",
        [
            ("obs_overhead_ratio", "overhead"),
            ("nrmse", "error"),
            ("max_abs_diff", "error"),
        ],
    )
    def test_kinds(self, key, kind):
        assert cr.metric_kind(key) == kind


class TestDurationKeys:
    """Wall time is perfbench's: a duration-named key is bad input."""

    @pytest.mark.parametrize(
        "key,named",
        [
            ("loop_seconds", True),
            ("stage_weights_seconds", True),
            ("elapsed_s", True),
            ("speedup", True),
            ("rps_speedup", True),
            ("nrmse", False),
            ("n_sources", False),
            ("obs_overhead_ratio", False),
        ],
    )
    def test_names_duration(self, key, named):
        assert cr.names_duration(key) == named

    @pytest.mark.parametrize("side", ["base", "cand"])
    @pytest.mark.parametrize("section", ["metrics", "meta", "memory"])
    def test_duration_key_exits_2(self, tmp_path, capsys, side, section):
        for directory in ("base", "cand"):
            (tmp_path / directory).mkdir()
            payload = {
                "name": "b",
                "metrics": {"nrmse": 0.1},
                "meta": {"scale": 0.1},
                "memory": {"peak": 1.0},
            }
            if directory == side:
                payload[section]["build_s"] = 1.0
            path = tmp_path / directory / "BENCH_b.json"
            path.write_text(json.dumps(payload))
        assert cr.main([str(tmp_path / "base"), str(tmp_path / "cand")]) == 2
        err = capsys.readouterr().err
        assert "duration key(s)" in err and "build_s" in err
        assert f"{side}/BENCH_b.json" in err


class TestFlattenPayload:
    def test_stages_section_refused(self):
        with pytest.raises(ValueError, match="unknown section"):
            cr.flatten_payload(
                {"metrics": {}, "stages": {"weights": 1.5}}, "f.json"
            )

    def test_cache_section_refused(self):
        # The pipeline cache and its hit rate are retired: a record that
        # still carries hit counts is bad input, not a metric.
        with pytest.raises(ValueError, match="unknown section"):
            cr.flatten_payload(
                {"metrics": {}, "cache": {"hits": 3, "misses": 1}},
                "f.json",
            )

    def test_missing_metrics_mapping_rejected(self):
        with pytest.raises(ValueError, match="no 'metrics' mapping"):
            cr.flatten_payload({"memory": {}}, "f.json")

    def test_malformed_sections_rejected(self):
        with pytest.raises(ValueError, match="'metrics' is not a mapping"):
            cr.flatten_payload({"metrics": [1]}, "f.json")
        with pytest.raises(ValueError, match="'memory' is not a mapping"):
            cr.flatten_payload({"metrics": {}, "memory": 3}, "f.json")
        with pytest.raises(ValueError, match="'meta' is not a mapping"):
            cr.flatten_payload({"metrics": {}, "meta": "x"}, "f.json")


class TestCompareMetric:
    def test_tolerances_are_the_documented_constants(self):
        assert cr.ERROR_TOLERANCE == 1.05
        assert cr.MEM_TOLERANCE == 1.5
        assert cr.OVERHEAD_CEILING == 1.01

    def test_error_boundary_includes_atol(self):
        # A zero baseline tolerates candidates up to the absolute floor.
        regressed, _ = cr.compare_metric("nrmse", 0.0, 1e-10)
        assert not regressed
        regressed, _ = cr.compare_metric("nrmse", 0.0, 1e-8)
        assert regressed

    def test_error_exact_tolerance_boundary(self):
        # baseline * tolerance (+ atol) is NOT a regression (strict >).
        regressed, _ = cr.compare_metric("nrmse", 1.0, 1.05)
        assert not regressed
        regressed, _ = cr.compare_metric("nrmse", 1.0, 1.05 + 1e-8)
        assert regressed

    def test_overhead_is_an_absolute_ceiling(self):
        regressed, detail = cr.compare_metric(
            "obs_overhead_ratio", 1.0001, 1.009
        )
        assert not regressed
        assert "absolute" in detail
        regressed, _ = cr.compare_metric("obs_overhead_ratio", 1.2, 1.011)
        assert regressed

    def test_report_formatting(self):
        regressed, detail = cr.compare_metric("max_abs_diff", 1.0, 2.0)
        assert regressed
        assert "max_abs_diff" in detail
        assert "[REGRESSED]" in detail
        assert "baseline 1" in detail


class TestCompare:
    def test_bench_missing_from_candidate_is_regression(self):
        regressions, mismatches, lines = cr.compare({"b": {"x": 1.0}}, {})
        assert regressions == [("b", "<missing>")]
        assert mismatches == []
        assert any("MISSING from candidate" in line for line in lines)

    def test_metric_missing_from_candidate_is_regression(self):
        regressions, _, lines = cr.compare(
            {"b": {"x": 1.0, "y": 1.0}}, {"b": {"x": 1.0}}
        )
        assert regressions == [("b", "y")]
        assert any("missing from candidate" in line for line in lines)

    def test_new_bench_and_new_metric_are_skipped(self):
        regressions, _, lines = cr.compare(
            {"b": {"x": 1.0}},
            {"b": {"x": 1.0, "z": 9.0}, "new": {"q": 1.0}},
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
        # Tolerances are module constants: a blocking gate cannot be
        # loosened from the command line, so any tolerance flag is a
        # usage error.
        base = tmp_path / "base"
        base.mkdir()
        with pytest.raises(SystemExit) as exc:
            cr.main([str(base), str(base), "--error-tolerance", "2.0"])
        assert exc.value.code == 2

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
            {"max_abs_diff": 1e-12},
            memory={"peak_bytes": 1000},
        )
        # Candidate: same agreement, but the allocation peak doubled.
        _write_bench(
            cand,
            "batch",
            {"max_abs_diff": 1e-12},
            memory={"peak_bytes": 2000},
        )
        assert cr.main([str(base), str(cand)]) == 1
        out = capsys.readouterr().out
        assert "1 regression(s): batch/mem_peak_bytes" in out

    def test_end_to_end_clean_exits_0(self, tmp_path, capsys):
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        base.mkdir()
        cand.mkdir()
        for directory in (base, cand):
            _write_bench(
                directory,
                "batch",
                {"nrmse": 0.1},
                memory={"peak_bytes": 1000},
            )
        assert cr.main([str(base), str(cand)]) == 0
        assert "no benchmark regressions" in capsys.readouterr().out

    def test_cache_section_exits_2(self, tmp_path, capsys):
        base = tmp_path / "base"
        base.mkdir()
        (base / "BENCH_b.json").write_text(
            json.dumps(
                {
                    "name": "b",
                    "metrics": {},
                    "cache": {"hits": 1, "misses": 1},
                }
            )
        )
        assert cr.main([str(base), str(base)]) == 2
        assert "unknown section(s) cache" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"name": "b", "metrics": {"nrmse": Infinity}}', "Infinity"),
            ('[{"name": "b", "metrics": {}}]', "expected a JSON object"),
        ],
    )
    def test_malformed_file_exits_2(self, tmp_path, capsys, text, message):
        base = tmp_path / "base"
        base.mkdir()
        (base / "BENCH_b.json").write_text(text)
        assert cr.main([str(base), str(base)]) == 2
        assert message in capsys.readouterr().err

    def test_committed_baselines_pass_against_themselves(self):
        """The committed records are strict JSON with no duration key,
        and the gate accepts them as their own candidate."""
        baselines = _BENCHMARKS / "baselines"
        paths = sorted(baselines.glob("BENCH_*.json"))
        assert paths
        for path in paths:
            payload = json.loads(
                path.read_text(), parse_constant=cr._refuse_constant
            )
            cr.flatten_payload(payload, str(path))
        assert cr.main([str(baselines), str(baselines)]) == 0


class TestMeta:
    """A ``meta`` that differs from its baseline is refused (exit 2)."""

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
            base, "shard", {"max_rel_diff": 1e-15},
            meta={"max_workers": 1, "n_shards": 8},
        )
        _write_bench(
            cand, "shard", {"max_rel_diff": 1e-15},
            meta={"max_workers": 4, "n_shards": 8},
        )
        _write_bench(base, "batch", {"nrmse": 0.1}, meta={"k": 3})
        _write_bench(cand, "batch", {"nrmse": 0.1}, meta={"k": 3})
        assert cr.main([str(base), str(cand)]) == 2
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        flagged = [line for line in lines if "meta differs" in line]
        assert flagged == ["    meta differs: max_workers 1 -> 4"]
        assert lines[lines.index(flagged[0]) - 1] == "shard:"
        assert "meta differs from the baseline for shard" in captured.err

    def test_meta_difference_outranks_a_regression(self, tmp_path, capsys):
        # A baseline taken at another scale (the old kernels record) is
        # refused, not compared: its regressions would be meaningless.
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        base.mkdir()
        cand.mkdir()
        _write_bench(base, "kernels", {"nrmse": 1.0}, meta={"scale": 1.0})
        _write_bench(cand, "kernels", {"nrmse": 3.0}, meta={"scale": 0.1})
        assert cr.main([str(base), str(cand)]) == 2
        out = capsys.readouterr().out
        assert "meta differs: scale 1.0 -> 0.1" in out
        assert "regression(s)" not in out


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

    def test_memory_exact_tolerance_boundary(self):
        # baseline * 1.5 is NOT a regression (strict >).
        regressed, detail = cr.compare_metric("mem_peak_bytes", 100.0, 150.0)
        assert not regressed
        assert "x 1.5" in detail
        regressed, _ = cr.compare_metric("mem_peak_bytes", 100.0, 151.0)
        assert regressed

    def test_main_rejects_bad_mem_tolerance(self, tmp_path):
        (tmp_path / "a").mkdir()
        with pytest.raises(SystemExit) as exc:
            cr.main(
                [
                    str(tmp_path / "a"),
                    str(tmp_path / "a"),
                    "--mem-tolerance",
                    "3.0",
                ]
            )
        assert exc.value.code == 2

    def test_memory_regression_end_to_end(self, tmp_path, capsys):
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        base.mkdir()
        cand.mkdir()
        payload = {"name": "b", "metrics": {}, "memory": {"peak": 100.0}}
        (base / "BENCH_b.json").write_text(json.dumps(payload))
        payload["memory"] = {"peak": 300.0}
        (cand / "BENCH_b.json").write_text(json.dumps(payload))
        assert cr.main([str(base), str(cand)]) == 1
        assert "b/mem_peak" in capsys.readouterr().out


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
