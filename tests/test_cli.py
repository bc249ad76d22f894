"""Tests for the geoalign-repro command-line interface."""

import io
import json

import pytest

from repro.cli import build_parser, main
from tests.conftest import TEST_SCALE


def _run(argv):
    stream = io.StringIO()
    code = main(argv, stream=stream)
    return code, stream.getvalue()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig5a"])
        assert args.scale == 1.0
        assert args.seed is None
        assert args.out is None

    def test_fig6_trials_flag(self):
        args = build_parser().parse_args(["fig6", "--trials", "3"])
        assert args.trials == 3

    def test_fig7_replicates_flag(self):
        args = build_parser().parse_args(["fig7", "--replicates", "5"])
        assert args.replicates == 5

    def test_trace_and_profile_flags(self):
        args = build_parser().parse_args(
            ["align", "--trace", "out.jsonl", "--profile"]
        )
        assert args.trace == "out.jsonl"
        assert args.profile is True
        args = build_parser().parse_args(["fig5a"])
        assert args.trace is None
        assert args.profile is False


class TestExecution:
    def test_fig5a(self):
        code, out = _run(["fig5a", "--scale", str(TEST_SCALE)])
        assert code == 0
        assert "Figure 5 (New York State)" in out
        assert "GeoAlign" in out

    def test_fig5b(self):
        code, out = _run(["fig5b", "--scale", str(TEST_SCALE)])
        assert code == 0
        assert "Figure 5 (United States)" in out

    def test_fig6(self):
        code, out = _run(
            ["fig6", "--scale", str(TEST_SCALE), "--trials", "1"]
        )
        assert code == 0
        assert "runtime correlation" in out

    def test_fig7(self):
        code, out = _run(
            ["fig7", "--scale", str(TEST_SCALE), "--replicates", "1"]
        )
        assert code == 0
        assert "Figure 7" in out

    def test_fig8(self):
        code, out = _run(["fig8", "--scale", str(TEST_SCALE)])
        assert code == 0
        assert "Figure 8" in out

    def test_out_directory(self, tmp_path):
        code, out = _run(
            [
                "fig5a",
                "--scale",
                str(TEST_SCALE),
                "--out",
                str(tmp_path / "reports"),
            ]
        )
        assert code == 0
        saved = tmp_path / "reports" / "fig5a.txt"
        assert saved.is_file()
        assert "Figure 5" in saved.read_text()

    def test_seed_changes_world(self):
        _, out_a = _run(
            ["fig5a", "--scale", str(TEST_SCALE), "--seed", "1"]
        )
        _, out_b = _run(
            ["fig5a", "--scale", str(TEST_SCALE), "--seed", "2"]
        )
        assert out_a != out_b

    def test_seed_reproducible(self):
        _, out_a = _run(
            ["fig5a", "--scale", str(TEST_SCALE), "--seed", "3"]
        )
        _, out_b = _run(
            ["fig5a", "--scale", str(TEST_SCALE), "--seed", "3"]
        )
        # Strip the wall-clock line; the tables must be identical.
        trim = lambda s: "\n".join(
            line for line in s.splitlines() if "completed in" not in line
        )
        assert trim(out_a) == trim(out_b)


class TestAllCommand:
    def test_all_runs_every_figure(self, tmp_path):
        code, out = _run(
            [
                "all",
                "--scale",
                str(TEST_SCALE),
                "--trials",
                "1",
                "--replicates",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        for name in ("fig5a", "fig5b", "fig6", "fig7", "fig8"):
            assert (tmp_path / f"{name}.txt").is_file(), name


class TestObservabilityFlags:
    def _read_jsonl(self, path):
        return [
            json.loads(line)
            for line in path.read_text().strip().split("\n")
        ]

    def test_align_trace_writes_valid_jsonl(self, tmp_path):
        trace_file = tmp_path / "run.jsonl"
        code, out = _run(
            [
                "align",
                "--scale",
                str(TEST_SCALE),
                "--trace",
                str(trace_file),
                "--profile",
            ]
        )
        assert code == 0
        assert f"[trace written {trace_file}]" in out

        records = self._read_jsonl(trace_file)
        header = records[0]
        assert header["type"] == "trace"
        assert header["name"] == "cli.align"
        spans = [r for r in records if r["type"] == "span"]
        assert header["spans"] == len(spans)

        # The root span is the CLI command; parents precede children
        # and every parent id resolves within the file.
        assert spans[0]["name"] == "cli.align"
        seen = set()
        for record in spans:
            assert record["parent"] is None or record["parent"] in seen
            seen.add(record["id"])
        names = {record["name"] for record in spans}
        assert {"experiment.align", "batch.fit", "stage.weights"} <= names

        # Acceptance gate: recorded root spans cover >= 95 % of the
        # measured wall time.
        roots = [s for s in spans if s["parent"] is None]
        coverage = sum(s["seconds"] for s in roots) / header["wall_seconds"]
        assert coverage >= 0.95

        # Profile tree on stdout.
        assert "trace cli.align:" in out
        assert "coverage" in out
        assert "solver.converged" in out

    def test_fig5a_trace_without_profile(self, tmp_path):
        trace_file = tmp_path / "fig.jsonl"
        code, out = _run(
            [
                "fig5a",
                "--scale",
                str(TEST_SCALE),
                "--trace",
                str(trace_file),
            ]
        )
        assert code == 0
        assert "trace cli.fig5a:" not in out  # no --profile, no tree
        records = self._read_jsonl(trace_file)
        assert records[0]["name"] == "cli.fig5a"
        names = {r["name"] for r in records if r["type"] == "span"}
        assert "experiment.effectiveness" in names
        assert "crossval.fold" in names

    def test_profile_without_trace_file(self):
        code, out = _run(
            ["fig5a", "--scale", str(TEST_SCALE), "--profile"]
        )
        assert code == 0
        assert "trace cli.fig5a:" in out
        assert "[trace written" not in out

    def test_untraced_run_stays_quiet(self):
        code, out = _run(["fig5a", "--scale", str(TEST_SCALE)])
        assert code == 0
        assert "trace cli" not in out
        assert "[trace written" not in out


class TestBadInput:
    def test_out_of_range_scale_is_friendly(self, capsys):
        code, _ = _run(["fig5a", "--scale", "7.5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestObsParser:
    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    def test_report_flags(self):
        args = build_parser().parse_args(
            ["obs", "report", "run.jsonl", "--json", "out.jsonl"]
        )
        assert args.obs_command == "report"
        assert args.trace_file == "run.jsonl"
        assert args.json_out == "out.jsonl"

    def test_mem_flag(self):
        args = build_parser().parse_args(["fig5a", "--mem"])
        assert args.mem is True
        args = build_parser().parse_args(["fig5a"])
        assert args.mem is False

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig5a", "--registry", "x"],
            ["obs", "diff", "a", "b"],
            ["obs", "list"],
            ["obs", "show", "x"],
        ],
        ids=["registry-flag", "obs-diff", "obs-list", "obs-show"],
    )
    def test_retired_run_registry_surfaces_exit_two(self, argv):
        # A run's durable record is its --trace file; there is no run
        # registry to append to, list, show or diff.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2


def _write_failing_trace(path, residual=1.0):
    """A minimal trace whose volume gauge is grossly violated."""
    from repro.obs import Trace, write_trace_jsonl

    session = Trace("doomed")
    session.started = 0.0
    session.ended = 1.0
    session.gauges = {"health.volume_residual_max": residual}
    write_trace_jsonl(session, str(path))


class TestObsReport:
    def test_report_on_fresh_trace_is_healthy(self, tmp_path):
        trace_file = tmp_path / "run.jsonl"
        code, _ = _run(
            ["align", "--scale", str(TEST_SCALE), "--trace", str(trace_file)]
        )
        assert code == 0
        code, out = _run(["obs", "report", str(trace_file)])
        assert code == 0
        assert "health report: cli.align" in out
        assert "verdict OK" in out
        for check in ("volume_preservation", "simplex_feasibility"):
            assert check in out

    def test_report_json_output(self, tmp_path):
        trace_file = tmp_path / "run.jsonl"
        _run(
            ["align", "--scale", str(TEST_SCALE), "--trace", str(trace_file)]
        )
        json_file = tmp_path / "health.jsonl"
        code, out = _run(
            ["obs", "report", str(trace_file), "--json", str(json_file)]
        )
        assert code == 0
        assert f"[health json written {json_file}]" in out
        (payload,) = [
            json.loads(line)
            for line in json_file.read_text().strip().splitlines()
        ]
        assert payload["trace"] == "cli.align"
        assert payload["status"] == "ok"
        names = {c["name"] for c in payload["checks"]}
        assert "volume_preservation" in names

    def test_report_exits_one_on_fail_verdict(self, tmp_path):
        trace_file = tmp_path / "bad.jsonl"
        _write_failing_trace(trace_file)
        code, out = _run(["obs", "report", str(trace_file)])
        assert code == 1
        assert "verdict FAIL" in out

    def test_report_exits_one_on_nan_residual(self, tmp_path):
        # NaN crosses no threshold under a plain comparison; the report
        # must still treat it as the worst value, not as ok.
        trace_file = tmp_path / "nan.jsonl"
        _write_failing_trace(trace_file, residual=float("nan"))
        code, out = _run(["obs", "report", str(trace_file)])
        assert code == 1
        assert "verdict FAIL" in out

    def test_report_missing_file_exits_two(self, tmp_path, capsys):
        code, _ = _run(["obs", "report", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestMemFlag:
    def test_mem_prints_peak(self):
        code, out = _run(["fig5a", "--scale", str(TEST_SCALE), "--mem"])
        assert code == 0
        assert "[mem peak" in out

    def test_mem_gauge_lands_in_trace(self, tmp_path):
        trace_file = tmp_path / "run.jsonl"
        code, _ = _run(
            [
                "align",
                "--scale",
                str(TEST_SCALE),
                "--mem",
                "--trace",
                str(trace_file),
            ]
        )
        assert code == 0
        header = json.loads(trace_file.read_text().splitlines()[0])
        assert header["gauges"]["mem.peak_bytes"] > 0

    def test_without_mem_no_peak_output(self):
        _, out = _run(["fig5a", "--scale", str(TEST_SCALE)])
        assert "[mem peak" not in out


class TestStoreCommand:
    def test_store_flags(self):
        args = build_parser().parse_args(
            ["store", "save", "--universe", "us", "--scale", "0.1"]
        )
        assert args.store_command == "save"
        assert args.universe == "us"
        args = build_parser().parse_args(["store", "list", "--porcelain"])
        assert args.porcelain is True
        args = build_parser().parse_args(["store", "load", "abcd"])
        assert args.key == "abcd"

    def test_save_list_load_round_trip(self, tmp_path):
        root = str(tmp_path / "store")
        code, out = _run(
            [
                "store", "save", "--store", root,
                "--universe", "ny", "--scale", str(TEST_SCALE),
            ]
        )
        assert code == 0
        assert f"in {root}]" in out

        code, out = _run(["store", "list", "--store", root, "--porcelain"])
        assert code == 0
        keys = out.split()
        assert len(keys) == 1

        code, out = _run(["store", "list", "--store", root])
        assert code == 0
        assert "1 model(s)" in out
        assert keys[0] in out

        code, out = _run(["store", "load", "--store", root, keys[0][:6]])
        assert code == 0
        assert "predictions" in out and "ok]" in out

    def test_save_of_a_healthy_world_persists_no_fail(self, tmp_path):
        # Health is evaluated on the closed session: an open session's
        # root span counts 0 s, which read as trace_coverage fail.
        from repro.store import ModelStore

        root = str(tmp_path / "store")
        code, _ = _run(
            [
                "store", "save", "--store", root,
                "--universe", "ny", "--scale", str(TEST_SCALE),
            ]
        )
        assert code == 0
        (entry,) = ModelStore(root).list()
        assert entry.health["trace_coverage"] == "ok"
        assert "fail" not in entry.health.values(), entry.health

    def test_save_is_idempotent(self, tmp_path):
        root = str(tmp_path / "store")
        argv = [
            "store", "save", "--store", root,
            "--universe", "ny", "--scale", str(TEST_SCALE),
        ]
        assert _run(argv)[0] == 0
        assert _run(argv)[0] == 0
        code, out = _run(["store", "list", "--store", root, "--porcelain"])
        assert code == 0
        assert len(out.split()) == 1  # same content, same key

    def test_load_unknown_key_exits_two(self, tmp_path, capsys):
        code, _ = _run(
            ["store", "load", "--store", str(tmp_path / "empty"), "zz"]
        )
        assert code == 2
        assert "no stored model" in capsys.readouterr().err

    def test_damaged_manifest_exits_two(self, tmp_path, capsys):
        from repro.store.artifact import manifest_path

        root = str(tmp_path / "store")
        code, out = _run(
            [
                "store", "save", "--store", root,
                "--universe", "ny", "--scale", str(TEST_SCALE),
            ]
        )
        assert code == 0
        key = out.split()[0]
        path = manifest_path(root, key)
        with open(path) as handle:
            manifest = json.load(handle)
        del manifest["shape"]["nnz"]
        with open(path, "w") as handle:
            json.dump(manifest, handle)
        for argv in (["list"], ["load", key]):
            code, _ = _run(["store", *argv, "--store", root])
            assert code == 2
            err = capsys.readouterr().err
            assert "'shape.nnz'" in err and path in err


class TestServeCommand:
    def test_serve_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--port", "0", "--model", "aa", "--model", "bb",
                "--ready-file", "r.txt", "--shutdown-after", "2",
            ]
        )
        assert args.port == 0
        assert args.model == ["aa", "bb"]
        assert args.ready_file == "r.txt"
        assert args.shutdown_after == 2.0

    @pytest.mark.parametrize("port", ["70000", "65536", "-5", "http"])
    def test_port_outside_range_exits_two(self, port, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--port", port])
        assert excinfo.value.code == 2
        assert "0-65535" in capsys.readouterr().err

    def test_serve_answers_requests_until_timed_shutdown(self, tmp_path):
        """End to end through the CLI: save, serve, query, drain.

        The server runs in a daemon thread (``main`` blocks in
        ``asyncio.run``); the test thread plays the client against the
        port announced in the ready file.
        """
        import threading
        import time as _time

        root = str(tmp_path / "store")
        assert _run(
            [
                "store", "save", "--store", root,
                "--universe", "ny", "--scale", str(TEST_SCALE),
            ]
        )[0] == 0

        ready = tmp_path / "ready.txt"
        result = {}

        def serve():
            result["code"], result["out"] = _run(
                [
                    "serve", "--store", root, "--port", "0",
                    "--ready-file", str(ready),
                    "--shutdown-after", "3",
                ]
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        deadline = _time.monotonic() + 5.0
        while not ready.exists() and _time.monotonic() < deadline:
            _time.sleep(0.02)
        assert ready.exists(), "server never announced readiness"
        host, port = ready.read_text().split()

        import asyncio

        from repro.serve import ServeClient

        async def query():
            async with ServeClient(host, int(port)) as client:
                health = await client.request("GET", "/healthz")
                predict = await client.request("POST", "/predict", {})
                return health, predict

        (h_status, health), (p_status, predict) = asyncio.run(query())
        assert h_status == 200 and health["status"] == "ok"
        assert p_status == 200 and predict["predictions"]

        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert result["code"] == 0
        assert "[draining" in result["out"]
        assert "bye]" in result["out"]

    def test_serve_without_models_warns_but_runs(self, tmp_path, capsys):
        code, out = _run(
            [
                "serve", "--store", str(tmp_path / "empty"),
                "--port", "0", "--shutdown-after", "0.2",
            ]
        )
        assert code == 0
        assert "no models" in capsys.readouterr().err

    def test_serve_unknown_model_exits_two(self, tmp_path, capsys):
        code, _ = _run(
            [
                "serve", "--store", str(tmp_path / "empty"),
                "--model", "zz", "--port", "0",
            ]
        )
        assert code == 2
        assert "no stored model" in capsys.readouterr().err


class TestTelemetryCli:
    """PR-10 surface: serve/store trace flags, ``obs tail``/``obs prom``."""

    def test_serve_and_store_accept_obs_flags(self):
        args = build_parser().parse_args(
            ["serve", "--trace", "t.jsonl", "--profile"]
        )
        assert args.trace == "t.jsonl" and args.profile is True
        args = build_parser().parse_args(
            ["store", "list", "--trace", "t.jsonl", "--profile"]
        )
        assert args.trace == "t.jsonl" and args.profile is True
        args = build_parser().parse_args(["store", "save"])
        assert args.trace is None and args.profile is False

    def test_obs_tail_and_prom_flags(self):
        args = build_parser().parse_args(
            ["obs", "tail", "127.0.0.1:8732", "-n", "3", "--json"]
        )
        assert args.obs_command == "tail"
        assert args.address == "127.0.0.1:8732"
        assert args.count == 3 and args.json_out is True
        args = build_parser().parse_args(["obs", "prom", "run.jsonl"])
        assert args.obs_command == "prom"
        assert args.trace_file == "run.jsonl"

    def test_store_save_trace_and_profile(self, tmp_path):
        root = str(tmp_path / "store")
        trace_path = str(tmp_path / "save.jsonl")
        code, out = _run(
            [
                "store", "save", "--store", root,
                "--universe", "ny", "--scale", str(TEST_SCALE),
                "--trace", trace_path, "--profile",
            ]
        )
        assert code == 0
        assert f"[trace written {trace_path}]" in out

        from repro.obs import read_trace_jsonl

        sessions = read_trace_jsonl(trace_path)
        assert len(sessions) == 1
        assert sessions[0].name == "store-save.ny"
        assert sessions[0].spans

    def test_store_list_traced(self, tmp_path):
        root = str(tmp_path / "store")
        assert _run(
            [
                "store", "save", "--store", root,
                "--universe", "ny", "--scale", str(TEST_SCALE),
            ]
        )[0] == 0
        trace_path = str(tmp_path / "list.jsonl")
        code, out = _run(
            ["store", "list", "--store", root, "--trace", trace_path]
        )
        assert code == 0
        assert "1 model(s)" in out

        from repro.obs import read_trace_jsonl

        assert read_trace_jsonl(trace_path)[0].name == "store-list"

    def test_obs_prom_renders_parseable_exposition(self, tmp_path):
        trace_path = str(tmp_path / "run.jsonl")
        assert _run(
            [
                "align", "--scale", str(TEST_SCALE),
                "--trace", trace_path,
            ]
        )[0] == 0
        code, out = _run(["obs", "prom", trace_path])
        assert code == 0

        from tests.prom_oracles import parse_prometheus_text

        families = parse_prometheus_text(out)
        wall = families["geoalign_trace_wall_seconds"]
        assert wall.kind == "gauge"
        assert all(
            dict(s.labels)["trace"] == "cli.align" for s in wall.samples
        )
        # Counters ride along, labelled by their source session.
        counter_families = [
            f for f in families.values() if f.kind == "counter"
        ]
        assert counter_families

    def test_obs_prom_missing_file_exits_two(self, tmp_path, capsys):
        code, _ = _run(["obs", "prom", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert capsys.readouterr().err

    def test_obs_tail_bad_address_exits_two(self, capsys):
        code, _ = _run(["obs", "tail", "no-port-here"])
        assert code == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_obs_tail_unreachable_server_exits_two(self, capsys):
        code, _ = _run(["obs", "tail", "127.0.0.1:1"])
        assert code == 2
        assert capsys.readouterr().err

    def test_obs_tail_against_live_server(self, tmp_path):
        """End to end: traced CLI server, error request, ``obs tail``."""
        import asyncio
        import threading
        import time as _time

        from repro.serve import ServeClient

        root = str(tmp_path / "store")
        assert _run(
            [
                "store", "save", "--store", root,
                "--universe", "ny", "--scale", str(TEST_SCALE),
            ]
        )[0] == 0
        ready = tmp_path / "ready.txt"
        result = {}

        def serve():
            result["code"], result["out"] = _run(
                [
                    "serve", "--store", root, "--port", "0",
                    "--ready-file", str(ready),
                    "--shutdown-after", "4",
                ]
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        deadline = _time.monotonic() + 5.0
        while not ready.exists() and _time.monotonic() < deadline:
            _time.sleep(0.02)
        assert ready.exists(), "server never announced readiness"
        host, port = ready.read_text().split()

        async def provoke():
            async with ServeClient(host, int(port)) as client:
                await client.request("GET", "/missing")

        asyncio.run(provoke())

        address = f"{host}:{port}"
        code, out = _run(["obs", "tail", address])
        assert code == 0
        assert f"[{address}:" in out
        assert "reason=error" in out
        assert "GET /missing" in out
        assert "serve.request" in out

        code, out = _run(["obs", "tail", address, "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["exemplars"][0]["endpoint"] == "/missing"

        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert result["code"] == 0
