"""Report persistence for the benchmark harness.

Each figure benchmark both prints its paper-style table and saves it
under ``benchmarks/results/`` so EXPERIMENTS.md can reference stable
artefacts.  File names are slugified report titles; reruns overwrite.

Benchmarks additionally persist machine-readable claim records as
``BENCH_<name>.json`` files via :func:`save_bench_json`: error metrics,
ratios, bytes and health verdicts -- numbers that do not depend on the
host.  Wall time stays in the printed reports; perfbench owns it.  The
regression gate (``benchmarks/check_regression.py``) compares two
directories of these records against tolerances.
"""

from __future__ import annotations

import json
import math
import os
import re

from repro.errors import ValidationError

#: Default directory, relative to the current working directory, where
#: benchmark reports are written.  Overridable via REPRO_RESULTS_DIR.
DEFAULT_RESULTS_DIR = os.path.join("benchmarks", "results")


def slugify(title):
    """File-name-safe slug of a report title."""
    slug = re.sub(r"[^a-z0-9]+", "-", title.lower()).strip("-")
    if not slug:
        raise ValidationError(f"cannot slugify title {title!r}")
    return slug


def results_dir():
    """The directory reports are saved into (created on demand)."""
    path = os.environ.get("REPRO_RESULTS_DIR", DEFAULT_RESULTS_DIR)
    os.makedirs(path, exist_ok=True)
    return path


def save_report(title, text):
    """Persist one report; returns the file path."""
    path = os.path.join(results_dir(), slugify(title) + ".txt")
    with open(path, "w") as handle:
        handle.write(text.rstrip() + "\n")
    return path


def load_report(title):
    """Read a previously saved report (raises FileNotFoundError)."""
    path = os.path.join(results_dir(), slugify(title) + ".txt")
    with open(path) as handle:
        return handle.read()


def bench_json_path(name):
    """Path of the machine-readable metrics file for bench ``name``."""
    return os.path.join(results_dir(), f"BENCH_{slugify(name)}.json")


def _clean_numbers(name, section, mapping):
    """Validate one section's values as finite (JSON-safe) floats."""
    clean = {}
    for key, value in mapping.items():
        number = float(value)
        if not math.isfinite(number):
            shown = "NaN" if math.isnan(number) else str(number)
            raise ValidationError(
                f"bench {name!r} {section} {key!r} is {shown}; "
                "refusing to save"
            )
        clean[str(key)] = number
    return clean


def save_bench_json(
    name,
    metrics,
    meta=None,
    memory=None,
    health=None,
):
    """Persist one benchmark's metrics as ``BENCH_<name>.json``.

    Parameters
    ----------
    name:
        Benchmark name (slugified into the file name).
    metrics:
        Flat mapping of metric name to float -- error metrics and
        ratios that do not depend on the host; no wall times (the gate
        refuses duration-named keys).  Every value in every section
        must be finite: JSON has no NaN or infinity, so they are
        rejected loudly rather than written as non-JSON tokens.
    meta:
        Optional mapping of the bench's inputs (scale, unit and
        attribute counts, ...) stored under ``"meta"``.  The gate
        refuses to compare two records whose ``meta`` differ, so it
        holds nothing measured.
    memory:
        Optional mapping of allocation metric name to bytes (typically
        ``{"peak_bytes": handle.peak_bytes}`` from
        :func:`repro.obs.memory.track_memory`), stored under
        ``"memory"``.  The gate compares each entry as ``mem_<name>``
        under its memory tolerance.
    health:
        Optional mapping of health-check name to verdict string
        (``HealthReport.verdicts()``), stored under ``"health"``.  Any
        ``"fail"`` verdict in a candidate payload fails the gate
        outright -- no baseline needed; a failing invariant is never
        "no worse than before".

    Returns
    -------
    str
        The written file path.
    """
    payload = {
        "name": str(name),
        "metrics": _clean_numbers(name, "metric", metrics),
    }
    if meta:
        payload["meta"] = {str(k): v for k, v in meta.items()}
    if memory:
        payload["memory"] = _clean_numbers(name, "memory metric", memory)
    if health:
        payload["health"] = {str(k): str(v) for k, v in health.items()}
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValidationError(
            f"bench {name!r}: {exc}; refusing to save"
        ) from exc
    path = bench_json_path(name)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path


def load_bench_json(name):
    """Read a previously saved ``BENCH_<name>.json`` payload."""
    with open(bench_json_path(name)) as handle:
        payload = json.load(handle)
    if "metrics" not in payload:
        raise ValidationError(
            f"bench file for {name!r} has no 'metrics' section"
        )
    return payload
