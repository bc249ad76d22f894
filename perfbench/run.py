"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``table``, ``crossval``, ``million``, ``serve``.
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that prints the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
the environment, the machine probe and sample counts.  Metric names and
units come from ``BENCHMARK.json``.  The exit code is 0 only when every
output check passed.

The program under test is imported from ``src/`` of the same checkout;
nothing else is used, and the run writes only under the checkout
(``.perfbench_work/`` while it runs, ``.perfbench_out/`` for results and
spans).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.envinfo import PINNED_ENV  # noqa: E402

#: Set to the pid of the process that pinned the environment.
_PINNED_MARK = "PERFBENCH_PINNED"
#: ``time.monotonic()`` when the process first started running this file.
_START_MARK = "PERFBENCH_T0"

WORKLOADS = ("table", "crossval", "million", "serve")
#: Set-ups per run; ``setup_s`` is their median (plus the imports).
SETUP_REPS = 3


def _pin_environment() -> float:
    """Re-execute with :data:`PINNED_ENV` set; returns the start time.

    ``PYTHONHASHSEED`` only applies at interpreter start, and BLAS reads
    its thread count when numpy loads, so the process replaces itself
    (same pid) once, before either happens.
    """
    if os.environ.get(_PINNED_MARK) == str(os.getpid()):
        return float(os.environ[_START_MARK])
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env[_PINNED_MARK] = str(os.getpid())
    env[_START_MARK] = repr(time.monotonic())
    sys.stdout.flush()
    os.execve(
        sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env
    )
    raise AssertionError("unreachable")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="input size factor (smoke tests)"
    )
    return parser.parse_args(argv)


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit 2."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {src}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: repro resolved outside {src}: {repro.__file__}")


def _declared_metrics() -> dict[str, list[dict]]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


def _build(args):
    from perfbench import workloads

    if args.workload == "serve":
        from perfbench.serveload import ServeWorkload

        return ServeWorkload(args.seed, args.scale, ROOT)
    cls = {
        "table": workloads.TableWorkload,
        "crossval": workloads.CrossvalWorkload,
        "million": workloads.MillionWorkload,
    }[args.workload]
    return cls(args.seed, args.scale)


def _raise_on_term(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    started = _pin_environment()
    args = _parse(argv)
    declared = _declared_metrics()
    signal.signal(signal.SIGTERM, _raise_on_term)
    _import_program()

    from perfbench import envinfo
    from perfbench.calibrate import NOMINAL_S, Calibrator
    from perfbench.spans import SpanRecorder

    workload = _build(args)
    import_s = time.monotonic() - started
    calibrator = Calibrator()
    try:
        reps = []
        scaled_reps = []
        for rep in range(SETUP_REPS):
            if rep:
                workload.close()
            factor = calibrator.factor()
            start = time.monotonic()
            workload.setup()
            reps.append(time.monotonic() - start)
            scaled_reps.append(reps[-1] * factor)
        setup_s = (
            import_s * NOMINAL_S / calibrator.samples[0]
            + statistics.median(scaled_reps)
        )
        environment = {**envinfo.environment(), **workload.environment()}
        probe_before = envinfo.machine_probe()
        workload.warmup()
        gc.collect()
        envinfo.trim_heap()
        hwm_reset = envinfo.reset_peak_rss(workload.peak_pid())
        rec = SpanRecorder() if args.trace else None
        samples = workload.measure(args.seconds, rec)
        peak_mib = envinfo.peak_rss_mib(workload.peak_pid())
        probe_after = envinfo.machine_probe()
        if args.trace:
            produced = workload.per_layer(samples, rec)
            kind = "per_layer"
        else:
            produced = workload.end_to_end(samples, peak_mib)
            produced["setup_s"] = setup_s
            kind = "end_to_end"
    finally:
        workload.shutdown()

    names = [m["name"] for m in declared[kind]]
    unknown = sorted(set(produced) - set(names))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    if kind == "end_to_end" and set(names) - set(produced):
        raise RuntimeError(f"unmeasured metrics: {sorted(set(names) - set(produced))}")
    metrics = {
        m["name"]: {"value": float(produced.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared[kind]
    }
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }
    ops = samples.get("plain") or samples.get("records") or []
    wall = samples["wall"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "error_rate": workload.failed / max(workload.attempted, 1),
        "timed_samples": len(ops),
        "wall_op_p50_s": statistics.median(wall) if isinstance(wall, list) else None,
        "wall_timed_s": sum(wall) if isinstance(wall, list) else wall,
        "calibration_p50_s": statistics.median(samples["calibration_s"]),
        "import_s": import_s,
        "setup_reps_s": reps,
        "wall_setup_s": import_s + statistics.median(reps),
        "peak_rss_reset": hwm_reset,
        "environment": environment,
        "machine_probe": {"before": probe_before, "after": probe_after},
        "failures": workload.failures,
    }
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as handle:
        raw = {k: v for k, v in samples.items() if k in ("plain", "wall", "traced")}
        raw["calibration_s"] = samples["calibration_s"]
        if "records" in samples:
            raw["records"] = [list(r) for r in samples["records"]]
        json.dump({"report": report, "result": result, "samples": raw}, handle)
    if rec is not None:
        rec.save(os.path.join(out_dir, stem + ".spans.jsonl"))
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
