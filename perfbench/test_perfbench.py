"""Tests of the benchmark itself: a tiny-scale smoke run of every workload,
the printed metric set, and checks that reject corrupted outputs.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from perfbench import checks  # noqa: E402
from perfbench.checks import CheckFailed  # noqa: E402
from perfbench.serveload import _percentile_window_ok  # noqa: E402
from perfbench.spans import SpanRecorder, self_time_coverage, self_times  # noqa: E402

RUN = os.path.join(ROOT, "perfbench", "run.py")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload, trace, cwd=ROOT, script=RUN):
    return subprocess.run(
        [
            sys.executable, script, "--workload", workload, "--seed", "7",
            "--seconds", "0.5", "--trace", str(trace), "--scale", "0.03",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["table", "crossval", "million", "serve"])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)
        if not trace:
            assert printed["value"] > 0.0, metric["name"]
    report = json.loads(proc.stdout.strip().splitlines()[-2])["report"]
    env = report["environment"]
    assert env["pinned_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["blas_threads"] and set(env["blas_threads"].values()) == {1}
    for key in ("nproc", "blas_vendor", "blas_version", "numpy", "scipy", "python"):
        assert env[key]


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark: non-zero exit, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run("table", 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- output checks ---------------------------------------------------------
def _aligned():
    """A two-reference toy alignment whose outputs pass every check."""
    ref_rows = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0]])
    objectives = np.array([[3.0, 4.0, 5.0]])
    weights = np.array([[0.5, 0.5]])
    predictions = np.array([[2.0, 5.0]])  # covered rows 0 and 1: 3 + 4
    return predictions, objectives, weights, ref_rows


def test_checks_accept_a_correct_output():
    checks.alignment_output(*_aligned())


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda p: p * (1 + 1e-6),  # mass not preserved
        lambda p: p - np.array([[3.0, -3.0]]) - 1.0,  # negative
        lambda p: p + np.array([[np.nan, 0.0]]),  # non-finite
        lambda p: p[:, :1],  # wrong mass and shape
    ],
)
def test_checks_reject_a_corrupted_output(corrupt):
    predictions, objectives, weights, ref_rows = _aligned()
    with pytest.raises(CheckFailed):
        checks.alignment_output(corrupt(predictions), objectives, weights, ref_rows)


def test_close_rejects_drift_beyond_tolerance():
    expected = np.array([1.0, 2.0])
    checks.close(expected * (1 + 1e-13), expected, 1e-12, "same")
    with pytest.raises(CheckFailed):
        checks.close(expected * (1 + 1e-9), expected, 1e-12, "drifted")


def test_workload_counts_a_corrupted_op_as_failed():
    from perfbench.workloads import TableWorkload

    workload = TableWorkload(seed=3, scale=0.03)
    workload.setup()
    workload.warmup()
    assert workload.failed == 0
    honest = workload.op

    def corrupted():
        aligner, predictions = honest()
        predictions = predictions.copy()
        predictions[0, 0] += 1.0
        return aligner, predictions

    workload.op = corrupted
    assert workload.checked(workload.op) is False
    assert workload.failed == 1


def test_nrmse_is_rmse_over_mean_truth():
    truth = np.array([[1.0, 3.0]])
    estimate = np.array([[2.0, 2.0]])
    assert checks.nrmse(estimate, truth)[0] == pytest.approx(1.0 / 2.0)


# -- spans and percentiles -------------------------------------------------
def test_self_time_excludes_children():
    rec = SpanRecorder()
    with rec.span("op", "a"):
        with rec.span("child", "a"):
            sum(range(20_000))
    selfs = self_times(rec.spans)
    child, root = rec.spans
    assert selfs[child.span_id] == pytest.approx(child.duration)
    assert selfs[root.span_id] == pytest.approx(root.duration - child.duration)
    assert 0.0 < self_time_coverage(rec.spans, "op") <= 1.0


def test_percentile_window_detects_a_boundary():
    kinds = ["predict"] * 75 + ["align"] * 25
    assert _percentile_window_ok(kinds, 50.0, "predict")
    assert _percentile_window_ok(kinds, 90.0, "align")
    assert not _percentile_window_ok(kinds, 75.0, "align")
    assert not _percentile_window_ok(kinds, 75.0, "predict")
