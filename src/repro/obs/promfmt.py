"""Prometheus text exposition (format 0.0.4): encode and histograms.

A dependency-free encoder shared by the serving layer (``/metrics``
content negotiation) and the CLI (``geoalign-repro obs prom``).  The
model mirrors the exposition format directly:

* :class:`Sample` — one ``name{labels} value`` line.
* :class:`MetricFamily` — one ``# HELP`` / ``# TYPE`` header plus its
  samples (for histograms: the ``_bucket``/``_sum``/``_count`` series).
* :func:`render_prometheus_text` — families to wire text.  The test
  suite reads it back with a scraper-side parser
  (``tests/prom_oracles.py``) and pins ``parse(render(f)) == f``.

:class:`Histogram` is the fixed-bucket observation store that replaces
the sample-window percentiles in ``repro.serve.metrics``: O(#buckets)
memory regardless of traffic, mergeable, and directly expositable.
Quantiles are estimated by linear interpolation within the owning
bucket and clamped to the observed maximum, so estimates never exceed
a real observation.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from repro.errors import ValidationError

__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "MetricFamily",
    "Sample",
    "format_sample_value",
    "render_prometheus_text",
    "sanitize_metric_name",
]

#: Content-Type a 0.0.4 text exposition must be served under.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Latency bucket upper bounds (seconds).  Spans 100 µs – 10 s: the
#: serve benchmark's warm ``/predict`` sits near 1 ms, cold fits and
#: injected-fault retries near the top.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_VALID_TYPES = frozenset({"counter", "gauge", "histogram", "untyped"})
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def sanitize_metric_name(name: str) -> str:
    """Map an internal dotted metric name onto the Prometheus charset.

    Dots (our namespace separator) and any other invalid character
    become underscores; a leading digit gains an underscore prefix.
    ``health.shard_merge_residual_max`` →
    ``health_shard_merge_residual_max``.
    """
    cleaned = "".join(
        ch if (ch.isalnum() and ch.isascii()) or ch in "_:" else "_"
        for ch in name
    )
    if not cleaned:
        raise ValidationError("metric name sanitised to empty string")
    if cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def format_sample_value(value: float) -> str:
    """Render one sample value per the exposition grammar.

    Integral values print without an exponent or trailing ``.0`` (what
    scrapers emit for counters); infinities use the required
    ``+Inf``/``-Inf`` spelling.
    """
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


@dataclass(frozen=True)
class Sample:
    """One exposition line: ``name{labels} value``."""

    name: str
    value: float
    labels: tuple[tuple[str, str], ...] = ()

    def render(self) -> str:
        if not _NAME_RE.match(self.name):
            raise ValidationError(
                f"invalid Prometheus metric name {self.name!r}"
            )
        label_text = ""
        if self.labels:
            for key, _ in self.labels:
                if not _LABEL_NAME_RE.match(key):
                    raise ValidationError(
                        f"invalid Prometheus label name {key!r}"
                    )
            inner = ",".join(
                f'{key}="{_escape_label_value(str(val))}"'
                for key, val in self.labels
            )
            label_text = "{" + inner + "}"
        return f"{self.name}{label_text} {format_sample_value(self.value)}"


@dataclass
class MetricFamily:
    """One ``# HELP``/``# TYPE`` block and its sample lines."""

    name: str
    kind: str
    help: str = ""
    samples: list[Sample] = field(default_factory=list)

    def add(
        self, value: float, labels: tuple[tuple[str, str], ...] = (),
        suffix: str = "",
    ) -> None:
        self.samples.append(
            Sample(name=self.name + suffix, value=value, labels=labels)
        )


def render_prometheus_text(families: list[MetricFamily]) -> str:
    """Families to 0.0.4 wire text (trailing newline included)."""
    lines: list[str] = []
    for family in families:
        if family.kind not in _VALID_TYPES:
            raise ValidationError(
                f"unknown Prometheus metric type {family.kind!r} "
                f"for {family.name!r}"
            )
        if not _NAME_RE.match(family.name):
            raise ValidationError(
                f"invalid Prometheus metric name {family.name!r}"
            )
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for sample in family.samples:
            lines.append(sample.render())
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Fixed-bucket histogram
# ----------------------------------------------------------------------
class Histogram:
    """Cumulative fixed-bucket histogram (Prometheus semantics).

    Stores one count per bucket plus sum/count/max: constant memory
    under unbounded traffic, unlike the sample window it replaces.
    Not internally locked — callers (``ServerMetrics``) serialise
    access under their own lock.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total", "max_value")

    def __init__(
        self, bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValidationError(
                "histogram bucket bounds must be strictly increasing"
            )
        if any(math.isinf(b) for b in bounds):
            raise ValidationError(
                "the +Inf bucket is implicit; do not pass an inf bound"
            )
        self.bounds: tuple[float, ...] = tuple(float(b) for b in bounds)
        self.bucket_counts: list[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.bucket_counts[index] += 1
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Estimated ``q``-quantile, or ``None`` when empty.

        Linear interpolation inside the owning bucket, clamped to the
        observed maximum so the estimate never exceeds a real sample
        (and ``p50 <= p95 <= p99 <= max`` always holds).
        """
        if not 0.0 < q <= 1.0:
            raise ValidationError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0.0
        lower = 0.0
        for i, bound in enumerate(self.bounds):
            in_bucket = self.bucket_counts[i]
            if cumulative + in_bucket >= rank:
                if in_bucket == 0:
                    return min(bound, self.max_value)
                fraction = (rank - cumulative) / in_bucket
                estimate = lower + fraction * (bound - lower)
                return min(estimate, self.max_value)
            cumulative += in_bucket
            lower = bound
        return self.max_value  # rank lands in the +Inf bucket

    def summary(self) -> dict[str, float]:
        """JSON snapshot block.  Empty histograms report only the count
        (a ``0.0`` percentile is indistinguishable from a true
        zero-latency reading, so stats are omitted until data lands)."""
        if self.count == 0:
            return {"count": 0.0}
        stats: dict[str, float] = {
            "count": float(self.count),
            "mean_seconds": self.mean,
            "max_seconds": self.max_value,
        }
        quantile_keys = (
            ("p50_seconds", 0.50),
            ("p95_seconds", 0.95),
            ("p99_seconds", 0.99),
        )
        for key, q in quantile_keys:
            estimate = self.quantile(q)
            if estimate is not None:
                stats[key] = estimate
        return stats

    def bucket_samples(
        self, name: str, labels: tuple[tuple[str, str], ...] = ()
    ) -> list[Sample]:
        """The ``_bucket``/``_sum``/``_count`` series for exposition."""
        samples: list[Sample] = []
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self.bucket_counts):
            cumulative += bucket_count
            samples.append(
                Sample(
                    name=name + "_bucket",
                    value=float(cumulative),
                    labels=labels
                    + (("le", format_sample_value(bound)),),
                )
            )
        samples.append(
            Sample(
                name=name + "_bucket",
                value=float(self.count),
                labels=labels + (("le", "+Inf"),),
            )
        )
        samples.append(
            Sample(name=name + "_sum", value=self.total, labels=labels)
        )
        samples.append(
            Sample(
                name=name + "_count", value=float(self.count), labels=labels
            )
        )
        return samples
