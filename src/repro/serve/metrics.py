"""Server-side request metrics: counters and latency histograms.

The serving loop is single-threaded asyncio, but metrics are read from
other threads too (the CLI's signal handlers, tests polling a server
running in a background thread), so every mutation and snapshot runs
under one lock -- the same discipline ``repro.obs``'s trace registries
follow.

Latencies live in fixed-bucket cumulative histograms
(:class:`~repro.obs.promfmt.Histogram`): constant memory under
unbounded traffic, percentile estimates by bucket interpolation, and a
direct mapping onto Prometheus exposition -- which is what
:meth:`ServerMetrics.prometheus_families` produces for the
content-negotiated ``/metrics`` endpoint.  The JSON ``snapshot`` keeps
its historical shape (``counters`` + per-endpoint ``latency`` blocks
with ``count``/``mean_seconds``/``p*_seconds``), with one deliberate
change: an endpoint with *no* observations reports only
``count: 0`` -- a fabricated ``0.0`` percentile is indistinguishable
from a true zero-latency reading.

:func:`percentile` is the nearest-rank helper for harnesses that
aggregate their own client-side samples; the server stores none.
"""

from __future__ import annotations

import threading

from repro.errors import ValidationError
from repro.obs.promfmt import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricFamily,
    sanitize_metric_name,
)

__all__ = ["ServerMetrics", "percentile"]

#: Prefix every exposed Prometheus metric carries.
PROM_PREFIX = "geoalign"


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sorted sample list."""
    if not samples:
        raise ValidationError("percentile needs at least one sample")
    if not 0.0 < q <= 100.0:
        raise ValidationError(f"percentile q must be in (0, 100], got {q}")
    rank = max(int(len(samples) * q / 100.0 + 0.5), 1)
    return samples[min(rank, len(samples)) - 1]


class ServerMetrics:
    """Lock-guarded counters and per-endpoint latency histograms."""

    def __init__(
        self, buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._buckets = buckets

    def incr(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def observe_latency(self, endpoint: str, seconds: float) -> None:
        with self._lock:
            histogram = self._histograms.get(endpoint)
            if histogram is None:
                histogram = self._histograms[endpoint] = Histogram(
                    self._buckets
                )
            histogram.observe(seconds)

    def latency_quantile(self, endpoint: str, q: float) -> float | None:
        """Current ``q``-quantile estimate for ``endpoint`` (``None``
        until the first observation).  The tail sampler reads this
        *before* observing a request to decide whether that request
        lands in the slow tail of the traffic seen so far."""
        with self._lock:
            histogram = self._histograms.get(endpoint)
            if histogram is None:
                return None
            return histogram.quantile(q)

    def snapshot(self) -> dict[str, object]:
        """Point-in-time copy: counters and latency summaries."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "latency": {
                    endpoint: histogram.summary()
                    for endpoint, histogram in sorted(
                        self._histograms.items()
                    )
                },
            }

    def prometheus_families(self, gauges: dict[str, float]) -> list[MetricFamily]:
        """The exposition-format view: counters, histograms, ``gauges``.

        * counters named ``responses_<code>`` fold into one
          ``geoalign_responses_total`` family with a ``status`` label;
        * other counters become ``geoalign_<name>`` counter families
          (a ``_total`` suffix is preserved, not doubled);
        * ``gauges`` (the server's live ``models``/``in_flight``/
          ``stack_*`` values) become gauge families;
        * per-endpoint latency histograms fold into one
          ``geoalign_request_seconds`` family with an ``endpoint``
          label.
        """
        with self._lock:
            counters = dict(self._counters)
            histograms = dict(self._histograms)
        families: list[MetricFamily] = []

        responses = MetricFamily(
            name=f"{PROM_PREFIX}_responses_total",
            kind="counter",
            help="Responses by HTTP status code.",
        )
        for name in sorted(counters):
            if name.startswith("responses_"):
                responses.add(
                    counters[name], (("status", name[len("responses_") :]),)
                )
                continue
            metric = sanitize_metric_name(f"{PROM_PREFIX}_{name}")
            family = MetricFamily(
                name=metric,
                kind="counter",
                help=f"Server counter {name}.",
            )
            family.add(counters[name])
            families.append(family)
        if responses.samples:
            families.append(responses)

        for name in sorted(gauges):
            metric = sanitize_metric_name(f"{PROM_PREFIX}_{name}")
            family = MetricFamily(
                name=metric, kind="gauge", help=f"Server gauge {name}."
            )
            family.add(gauges[name])
            families.append(family)

        latency = MetricFamily(
            name=f"{PROM_PREFIX}_request_seconds",
            kind="histogram",
            help="Request handling latency by endpoint.",
        )
        for endpoint in sorted(histograms):
            latency.samples.extend(
                histograms[endpoint].bucket_samples(
                    latency.name, (("endpoint", endpoint),)
                )
            )
        if latency.samples:
            families.append(latency)
        return families

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"ServerMetrics(counters={len(self._counters)}, "
                f"endpoints={len(self._histograms)})"
            )
