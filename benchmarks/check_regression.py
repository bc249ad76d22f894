#!/usr/bin/env python
"""Benchmark regression gate: compare two directories of BENCH_*.json.

Benchmarks persist machine-readable metrics via
``repro.experiments.reporting.save_bench_json`` as
``BENCH_<name>.json`` files holding wall times, error metrics and
speedup ratios.  This script compares a candidate directory (the current
run) against a baseline directory (e.g. an artefact from the main
branch) under per-kind tolerances::

    python benchmarks/check_regression.py BASELINE_DIR CANDIDATE_DIR
    python benchmarks/check_regression.py base/ cand/ --time-tolerance 1.5

Metric kinds are inferred from the key name:

* ``*seconds*`` -- wall time; regressed when candidate exceeds
  baseline * ``--time-tolerance`` (timing noise is real, default 1.5x).
* ``*speedup*`` / ``*hit_rate*`` -- higher is better; regressed when
  candidate falls below baseline / ``--time-tolerance``.
* ``mem_*`` / ``*bytes*`` -- allocation peaks; regressed when candidate
  exceeds baseline * ``--mem-tolerance`` (defaults to the time
  tolerance; tracemalloc peaks are far less noisy than wall times).
* ``*overhead_ratio*`` -- instrumentation overhead (BENCH_obs.json);
  regressed when candidate exceeds ``--overhead-tolerance`` as an
  *absolute* ceiling (default 1.01, i.e. instrumentation must stay
  within 1% of the untraced hot path).  Unlike every other kind the
  baseline value only appears in the report: "tracing is effectively
  free" is a contract against unity, not against last release.
* anything else -- an error metric (rmse, nrmse, max_abs_diff, ...);
  regressed when candidate exceeds baseline * ``--error-tolerance``
  plus a tiny absolute floor.

Beyond the flat ``metrics`` section, payloads may carry a ``stages``
section (stage name -> seconds, from the estimators' stage timers), a
``cache`` section (pipeline-cache hit/miss/eviction counts) and a
``memory`` section (tracemalloc peaks from the opt-in ``--mem``
instrumentation).  All are folded into the comparison: each stage
becomes a ``stage_<name>_seconds`` wall-time metric, the cache
counters become a derived ``cache_hit_rate`` (higher is better), and
each memory entry becomes ``mem_<name>``, so a per-stage slowdown, a
cache-efficiency drop or an allocation blow-up is flagged even when
the total wall time stays inside tolerance.

A payload's ``meta`` section (unit counts, worker counts, scale, ...)
is not compared, but every bench whose ``meta`` differs from its
baseline's gets a ``meta differs: <key> <baseline> -> <candidate>``
line in the report: the numbers below it were not measured like for
like.  It never changes pass/fail.

Payloads may also carry a ``health`` section (check name -> verdict
from ``repro.obs.health``).  Any ``"fail"`` verdict in a *candidate*
payload fails the gate outright, baseline or not: a violated numerical
invariant (volume preservation, simplex feasibility, ...) is never "no
worse than before".  Standalone health reports -- the JSON written by
``geoalign-repro obs report --json`` or run-registry JSONL lines --
can be added to the same gate with repeatable ``--health FILE``
options.

Exit codes: 0 no regressions, 1 regressions found, 2 bad input.  CI runs
this as a non-blocking report step: the exit code marks the step, but
the job is allowed to continue (benchmark noise must never gate merges
on its own -- humans read the uploaded report).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

#: Absolute slack added to error-metric comparisons so exact-zero
#: baselines do not make any nonzero candidate a regression.
ERROR_ATOL = 1e-9


def flatten_payload(payload, file_path):
    """One payload's compared metrics, sections folded in.

    ``stages`` entries become ``stage_<name>_seconds`` (compared under
    the wall-time tolerance); a ``cache`` section with lookups becomes
    a single derived ``cache_hit_rate`` metric (higher is better);
    ``memory`` entries become ``mem_<name>`` (memory tolerance).
    """
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError(f"{file_path}: no 'metrics' mapping")
    flat = {key: float(value) for key, value in metrics.items()}
    stages = payload.get("stages")
    if stages is not None:
        if not isinstance(stages, dict):
            raise ValueError(f"{file_path}: 'stages' is not a mapping")
        for stage, seconds in stages.items():
            flat[f"stage_{stage}_seconds"] = float(seconds)
    cache = payload.get("cache")
    if cache is not None:
        if not isinstance(cache, dict):
            raise ValueError(f"{file_path}: 'cache' is not a mapping")
        lookups = float(cache.get("hits", 0)) + float(cache.get("misses", 0))
        if lookups > 0:
            flat["cache_hit_rate"] = float(cache.get("hits", 0)) / lookups
    memory = payload.get("memory")
    if memory is not None:
        if not isinstance(memory, dict):
            raise ValueError(f"{file_path}: 'memory' is not a mapping")
        for key, value in memory.items():
            flat[f"mem_{key}"] = float(value)
    return flat


def health_failures(payload, source):
    """``(source, check)`` pairs for every fail verdict in one payload.

    Understands the three shapes that carry verdicts: a BENCH payload
    or run-registry record (``{"health": {check: status}}``) and a
    health report (``{"checks": [{"name": ..., "status": ...}]}``).
    """
    failures = []
    health = payload.get("health")
    if isinstance(health, dict):
        for check, status in health.items():
            if status == "fail":
                failures.append((source, str(check)))
    checks = payload.get("checks")
    if isinstance(checks, list):
        for check in checks:
            if isinstance(check, dict) and check.get("status") == "fail":
                failures.append((source, str(check.get("name", "?"))))
    return failures


def load_health_file(path):
    """Fail verdicts from a standalone health JSON / registry JSONL file."""
    with open(path) as handle:
        text = handle.read()
    try:
        payloads = [json.loads(text)]
    except json.JSONDecodeError:
        payloads = [
            json.loads(line) for line in text.splitlines() if line.strip()
        ]
    failures = []
    for payload in payloads:
        if not isinstance(payload, dict):
            raise ValueError(f"{path}: expected JSON objects")
        source = payload.get("trace") or payload.get("trace_name") or path
        failures.extend(health_failures(payload, str(source)))
    return failures


def iter_bench_payloads(path):
    """``(bench name, payload, file path)`` per BENCH_*.json in ``path``."""
    for file_path in sorted(glob.glob(os.path.join(path, "BENCH_*.json"))):
        with open(file_path) as handle:
            payload = json.load(handle)
        yield payload.get("name") or os.path.basename(file_path), payload, file_path


def load_bench_dir(path):
    """Mapping of bench name -> metrics dict from one directory."""
    if not os.path.isdir(path):
        raise NotADirectoryError(path)
    return {
        name: flatten_payload(payload, file_path)
        for name, payload, file_path in iter_bench_payloads(path)
    }


def load_bench_meta(path):
    """Mapping of bench name -> its ``meta`` mapping (``{}`` if none)."""
    metas = {}
    for name, payload, _file_path in iter_bench_payloads(path):
        meta = payload.get("meta")
        metas[name] = meta if isinstance(meta, dict) else {}
    return metas


def load_dir_health(path):
    """Fail verdicts from the ``health`` sections of a bench directory."""
    failures = []
    for name, payload, _file_path in iter_bench_payloads(path):
        failures.extend(health_failures(payload, str(name)))
    return failures


def meta_changes(baseline, candidate):
    """``"<key> <baseline> -> <candidate>"`` per differing meta key."""
    changes = []
    for key in sorted(set(baseline) | set(candidate)):
        old = json.dumps(baseline[key]) if key in baseline else "<absent>"
        new = json.dumps(candidate[key]) if key in candidate else "<absent>"
        if old != new:
            changes.append(f"{key} {old} -> {new}")
    return changes


def metric_kind(key):
    """Classify a metric key: 'time', 'speedup', 'memory', 'overhead'
    or 'error'.

    'speedup' doubles as the higher-is-better kind generally: cache
    hit rates are classified with it so a hit-rate drop regresses.
    """
    lowered = key.lower()
    if "overhead_ratio" in lowered:
        return "overhead"
    if "speedup" in lowered or "hit_rate" in lowered:
        return "speedup"
    if lowered.startswith("mem_") or "bytes" in lowered:
        return "memory"
    if "seconds" in lowered or lowered.endswith("_s"):
        return "time"
    return "error"


def compare_metric(
    key,
    baseline,
    candidate,
    time_tol,
    error_tol,
    mem_tol=None,
    overhead_tol=1.01,
):
    """(regressed, detail line) for one metric pair."""
    kind = metric_kind(key)
    if kind == "overhead":
        # Absolute ceiling: instrumentation overhead is gated against
        # unity, not against the baseline run.
        limit = overhead_tol
        regressed = candidate > limit
        relation = (
            f"<= {limit:.6g} absolute (baseline {baseline:.6g} shown "
            "for reference)"
        )
    elif kind == "time":
        limit = baseline * time_tol
        regressed = candidate > limit
        relation = f"<= {limit:.6g}s (baseline {baseline:.6g}s x {time_tol})"
    elif kind == "speedup":
        limit = baseline / time_tol
        regressed = candidate < limit
        relation = f">= {limit:.6g} (baseline {baseline:.6g} / {time_tol})"
    elif kind == "memory":
        tol = time_tol if mem_tol is None else mem_tol
        limit = baseline * tol
        regressed = candidate > limit
        relation = f"<= {limit:.6g}B (baseline {baseline:.6g}B x {tol})"
    else:
        limit = baseline * error_tol + ERROR_ATOL
        regressed = candidate > limit
        relation = f"<= {limit:.6g} (baseline {baseline:.6g} x {error_tol})"
    marker = "REGRESSED" if regressed else "ok"
    detail = (
        f"    {key:24s} {candidate:>12.6g}  must be {relation}  [{marker}]"
    )
    return regressed, detail


def compare(
    baselines,
    candidates,
    time_tol,
    error_tol,
    mem_tol=None,
    overhead_tol=1.01,
    baseline_meta=None,
    candidate_meta=None,
):
    """(regressions, report lines) over two bench-dir mappings.

    ``baseline_meta`` / ``candidate_meta`` (bench name -> ``meta``) only
    add a ``meta differs`` line under a bench; they never regress it.
    """
    lines = []
    regressions = []
    for name in sorted(set(baselines) | set(candidates)):
        if name not in candidates:
            lines.append(f"{name}: MISSING from candidate run")
            regressions.append((name, "<missing>"))
            continue
        if name not in baselines:
            lines.append(f"{name}: new bench (no baseline; skipped)")
            continue
        lines.append(f"{name}:")
        changes = meta_changes(
            (baseline_meta or {}).get(name, {}),
            (candidate_meta or {}).get(name, {}),
        )
        if changes:
            lines.append("    meta differs: " + ", ".join(changes))
        base_metrics = baselines[name]
        cand_metrics = candidates[name]
        for key in sorted(set(base_metrics) | set(cand_metrics)):
            if key not in cand_metrics:
                lines.append(f"    {key}: missing from candidate")
                regressions.append((name, key))
                continue
            if key not in base_metrics:
                lines.append(
                    f"    {key}: new metric (no baseline; skipped)"
                )
                continue
            regressed, detail = compare_metric(
                key,
                base_metrics[key],
                cand_metrics[key],
                time_tol,
                error_tol,
                mem_tol,
                overhead_tol,
            )
            lines.append(detail)
            if regressed:
                regressions.append((name, key))
    return regressions, lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare BENCH_*.json metric files against tolerances."
    )
    parser.add_argument("baseline", help="directory of baseline BENCH files")
    parser.add_argument("candidate", help="directory of candidate BENCH files")
    parser.add_argument(
        "--time-tolerance",
        type=float,
        default=1.5,
        help="allowed wall-time ratio (default 1.5x; also bounds speedup)",
    )
    parser.add_argument(
        "--error-tolerance",
        type=float,
        default=1.05,
        help="allowed error-metric ratio (default 1.05x)",
    )
    parser.add_argument(
        "--mem-tolerance",
        type=float,
        default=None,
        help="allowed allocation-peak ratio "
        "(default: the time tolerance)",
    )
    parser.add_argument(
        "--overhead-tolerance",
        type=float,
        default=1.01,
        help="absolute ceiling for *overhead_ratio* metrics "
        "(default 1.01: instrumentation within 1%% of the untraced "
        "hot path)",
    )
    parser.add_argument(
        "--health",
        action="append",
        default=[],
        metavar="FILE",
        help="also gate on this health report JSON / registry JSONL "
        "(repeatable); any fail verdict counts as a regression",
    )
    args = parser.parse_args(argv)
    if args.time_tolerance < 1.0 or args.error_tolerance < 1.0:
        print("error: tolerances must be >= 1.0", file=sys.stderr)
        return 2
    if args.mem_tolerance is not None and args.mem_tolerance < 1.0:
        print("error: tolerances must be >= 1.0", file=sys.stderr)
        return 2
    if args.overhead_tolerance < 1.0:
        print("error: tolerances must be >= 1.0", file=sys.stderr)
        return 2
    try:
        baselines = load_bench_dir(args.baseline)
        candidates = load_bench_dir(args.candidate)
        baseline_meta = load_bench_meta(args.baseline)
        candidate_meta = load_bench_meta(args.candidate)
        verdicts = load_dir_health(args.candidate)
        for health_file in args.health:
            verdicts.extend(load_health_file(health_file))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not baselines and not candidates and not verdicts:
        print("no BENCH_*.json files found in either directory")
        return 0
    regressions, lines = compare(
        baselines,
        candidates,
        args.time_tolerance,
        args.error_tolerance,
        args.mem_tolerance,
        args.overhead_tolerance,
        baseline_meta,
        candidate_meta,
    )
    print("\n".join(lines))
    for source, check in verdicts:
        print(f"{source}: health check {check} FAILED")
        regressions.append((source, f"health:{check}"))
    if regressions:
        print(
            f"\n{len(regressions)} regression(s): "
            + ", ".join(f"{n}/{k}" for n, k in regressions)
        )
        return 1
    print("\nno benchmark regressions")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
