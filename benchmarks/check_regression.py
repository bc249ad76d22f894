#!/usr/bin/env python
"""Benchmark regression gate: compare two directories of BENCH_*.json.

Benchmarks persist claim records via
``repro.experiments.reporting.save_bench_json`` as ``BENCH_<name>.json``
files.  A record holds only numbers that do not depend on the host:
error metrics, ratios, bytes and health verdicts.  Wall
time is perfbench's (``perfbench/``, declared in ``BENCHMARK.json``),
which runs the parent and the change on one machine; a wall time
compared against a baseline taken on another machine measures the
machine.  This script compares a candidate directory (the current run)
against a baseline directory (the committed ``benchmarks/baselines``)::

    python benchmarks/check_regression.py BASELINE_DIR CANDIDATE_DIR

Metric kinds are inferred from the key name:

* ``mem_*`` / ``*bytes*`` -- allocation peaks and resident sizes;
  regressed when the candidate exceeds baseline * :data:`MEM_TOLERANCE`.
* ``*overhead_ratio*`` -- instrumentation overhead (BENCH_obs.json);
  regressed when the candidate exceeds :data:`OVERHEAD_CEILING` as an
  *absolute* ceiling: "tracing is effectively free" is a contract
  against unity, not against the last release, so the baseline value
  only appears in the report.
* anything else -- an error metric (rmse, nrmse, max_abs_diff, ...);
  regressed when the candidate exceeds baseline * :data:`ERROR_TOLERANCE`
  plus a tiny absolute floor.

Beyond the flat ``metrics`` section, payloads may carry a ``memory``
section (tracemalloc peaks and resident bytes), whose entries become
``mem_<name>``.

Three inputs are refused outright (exit 2), in either directory:

* a file that is not a strict-JSON object (``NaN`` or ``Infinity``
  tokens, or a top-level list);
* a key that names a duration (``*seconds*``, ``*_s``, ``*speedup*``),
  or a section the gate does not know (such as the retired ``stages``);
* a bench whose ``meta`` (its inputs: scale, unit counts, ...) differs
  from its baseline's.  Its numbers were not measured like for like;
  the report shows a ``meta differs: <key> <baseline> -> <candidate>``
  line under the bench.

Payloads may also carry a ``health`` section (check name -> verdict
from ``repro.obs.health``).  Any ``"fail"`` verdict in a *candidate*
payload fails the gate outright, baseline or not: a violated numerical
invariant (volume preservation, simplex feasibility, ...) is never "no
worse than before".  Standalone health reports -- the JSON lines
written by ``geoalign-repro obs report --json`` -- can be added to the
same gate with repeatable ``--health FILE`` options.

Exit codes: 0 no regressions, 1 regressions found, 2 bad input.  CI runs
this as a blocking step.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

#: Allowed ratio for error metrics.
ERROR_TOLERANCE = 1.05

#: Allowed ratio for allocation peaks and resident sizes.
MEM_TOLERANCE = 1.5

#: Absolute ceiling for ``*overhead_ratio*`` metrics: instrumentation
#: must stay within 1 % of the untraced hot path.
OVERHEAD_CEILING = 1.01

#: Absolute slack added to error-metric comparisons so exact-zero
#: baselines do not make any nonzero candidate a regression.
ERROR_ATOL = 1e-9

#: Top-level payload sections the gate understands.
SECTIONS = frozenset({"name", "metrics", "meta", "memory", "health"})


def names_duration(key):
    """Whether ``key`` names a wall time or a ratio of wall times."""
    lowered = key.lower()
    return (
        "seconds" in lowered or lowered.endswith("_s") or "speedup" in lowered
    )


def _mapping(payload, section, file_path):
    value = payload.get(section)
    if value is not None and not isinstance(value, dict):
        raise ValueError(f"{file_path}: '{section}' is not a mapping")
    return value


def flatten_payload(payload, file_path):
    """One payload's compared metrics, sections folded in.

    ``memory`` entries become ``mem_<name>`` (memory tolerance).
    Raises ``ValueError`` on an unknown section or a duration-named
    key, in ``meta`` too.
    """
    unknown = sorted(set(payload) - SECTIONS)
    if unknown:
        raise ValueError(
            f"{file_path}: unknown section(s) {', '.join(unknown)}; a BENCH "
            f"record holds only {', '.join(sorted(SECTIONS))} (no stage "
            "timings: wall time is perfbench's)"
        )
    metrics = _mapping(payload, "metrics", file_path)
    if metrics is None:
        raise ValueError(f"{file_path}: no 'metrics' mapping")
    flat = {key: float(value) for key, value in metrics.items()}
    memory = _mapping(payload, "memory", file_path)
    if memory is not None:
        for key, value in memory.items():
            flat[f"mem_{key}"] = float(value)
    meta = _mapping(payload, "meta", file_path) or {}
    durations = sorted(key for key in [*flat, *meta] if names_duration(key))
    if durations:
        raise ValueError(
            f"{file_path}: duration key(s) {', '.join(durations)}; wall "
            "time is compared by perfbench, not against a baseline from "
            "another host"
        )
    return flat


def health_failures(payload, source):
    """``(source, check)`` pairs for every fail verdict in one payload.

    Understands the two shapes that carry verdicts: a BENCH payload
    (``{"health": {check: status}}``) and a health report
    (``{"checks": [{"name": ..., "status": ...}]}``).
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
    """Fail verdicts from a standalone health JSON or JSON-lines file."""
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


def _refuse_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def load_bench_dir(path):
    """``(metrics, metas, fail verdicts)`` of one directory's BENCH files.

    ``metrics`` and ``metas`` map bench name -> its flattened metrics and
    its ``meta`` mapping.  Files are parsed as strict JSON: a ``NaN`` or
    ``Infinity`` token is bad input.
    """
    if not os.path.isdir(path):
        raise NotADirectoryError(path)
    metrics, metas, failures = {}, {}, []
    for file_path in sorted(glob.glob(os.path.join(path, "BENCH_*.json"))):
        with open(file_path) as handle:
            try:
                payload = json.load(handle, parse_constant=_refuse_constant)
            except ValueError as exc:
                raise ValueError(f"{file_path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError(f"{file_path}: expected a JSON object")
        name = payload.get("name") or os.path.basename(file_path)
        metrics[name] = flatten_payload(payload, file_path)
        metas[name] = payload.get("meta") or {}
        failures.extend(health_failures(payload, str(name)))
    return metrics, metas, failures


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
    """Classify a metric key: 'memory', 'overhead' or 'error'."""
    lowered = key.lower()
    if "overhead_ratio" in lowered:
        return "overhead"
    if lowered.startswith("mem_") or "bytes" in lowered:
        return "memory"
    return "error"


def compare_metric(key, baseline, candidate):
    """(regressed, detail line) for one metric pair."""
    kind = metric_kind(key)
    if kind == "overhead":
        limit = OVERHEAD_CEILING
        regressed = candidate > limit
        relation = (
            f"<= {limit:.6g} absolute (baseline {baseline:.6g} shown "
            "for reference)"
        )
    elif kind == "memory":
        limit = baseline * MEM_TOLERANCE
        regressed = candidate > limit
        relation = (
            f"<= {limit:.6g}B (baseline {baseline:.6g}B x {MEM_TOLERANCE})"
        )
    else:
        limit = baseline * ERROR_TOLERANCE + ERROR_ATOL
        regressed = candidate > limit
        relation = (
            f"<= {limit:.6g} (baseline {baseline:.6g} x {ERROR_TOLERANCE})"
        )
    marker = "REGRESSED" if regressed else "ok"
    detail = (
        f"    {key:24s} {candidate:>12.6g}  must be {relation}  [{marker}]"
    )
    return regressed, detail


def compare(baselines, candidates, baseline_meta=None, candidate_meta=None):
    """(regressions, meta mismatches, report lines) over two bench dirs.

    ``baseline_meta`` / ``candidate_meta`` map bench name -> ``meta``; a
    bench in both runs whose ``meta`` differ adds a ``meta differs``
    line under it and its name to the mismatches.
    """
    lines = []
    regressions = []
    mismatches = []
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
            mismatches.append(name)
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
                key, base_metrics[key], cand_metrics[key]
            )
            lines.append(detail)
            if regressed:
                regressions.append((name, key))
    return regressions, mismatches, lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare BENCH_*.json claim records against tolerances."
    )
    parser.add_argument("baseline", help="directory of baseline BENCH files")
    parser.add_argument("candidate", help="directory of candidate BENCH files")
    parser.add_argument(
        "--health",
        action="append",
        default=[],
        metavar="FILE",
        help="also gate on this health report JSON or JSON-lines file "
        "(repeatable); any fail verdict counts as a regression",
    )
    args = parser.parse_args(argv)
    try:
        baselines, baseline_meta, _ = load_bench_dir(args.baseline)
        candidates, candidate_meta, verdicts = load_bench_dir(args.candidate)
        for health_file in args.health:
            verdicts.extend(load_health_file(health_file))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not baselines and not candidates and not verdicts:
        print("no BENCH_*.json files found in either directory")
        return 0
    regressions, mismatches, lines = compare(
        baselines, candidates, baseline_meta, candidate_meta
    )
    print("\n".join(lines))
    if mismatches:
        print(
            "error: meta differs from the baseline for "
            + ", ".join(mismatches)
            + "; regenerate the baselines at the candidate's inputs",
            file=sys.stderr,
        )
        return 2
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
