"""Prometheus text exposition (``repro.obs.promfmt``).

The fixed-bucket histogram behind ``/metrics`` and the text encoder,
with the round trip ``parse(render(families))`` pinned against the
test-side parser in ``tests/prom_oracles.py``.
"""

import math

import pytest

from repro.errors import ValidationError
from repro.obs import (
    Histogram,
    MetricFamily,
    Sample,
    render_prometheus_text,
)
from repro.obs.promfmt import format_sample_value, sanitize_metric_name
from tests.prom_oracles import parse_prometheus_text


# ---------------------------------------------------------------------------
# promfmt: histogram
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_empty_summary_reports_only_count(self):
        assert Histogram().summary() == {"count": 0.0}
        assert Histogram().quantile(0.99) is None

    def test_quantiles_ordered_and_clamped_to_max(self):
        hist = Histogram(bounds=(0.001, 0.01, 0.1, 1.0))
        for value in (0.0005, 0.002, 0.003, 0.05, 0.02, 0.004):
            hist.observe(value)
        stats = hist.summary()
        assert stats["count"] == 6.0
        assert (
            stats["p50_seconds"]
            <= stats["p95_seconds"]
            <= stats["p99_seconds"]
            <= stats["max_seconds"]
        )
        assert stats["max_seconds"] == 0.05
        assert stats["mean_seconds"] == pytest.approx(
            (0.0005 + 0.002 + 0.003 + 0.05 + 0.02 + 0.004) / 6
        )

    def test_observation_beyond_last_bound_lands_in_inf_bucket(self):
        hist = Histogram(bounds=(0.001, 0.01))
        hist.observe(5.0)
        assert hist.bucket_counts == [0, 0, 1]
        assert hist.quantile(0.5) == 5.0  # rank in the +Inf bucket

    def test_bucket_samples_are_cumulative_with_inf_terminator(self):
        hist = Histogram(bounds=(0.001, 0.01))
        for value in (0.0005, 0.002, 0.5):
            hist.observe(value)
        samples = hist.bucket_samples("req_seconds", (("endpoint", "/p"),))
        buckets = [s for s in samples if s.name == "req_seconds_bucket"]
        assert [dict(s.labels)["le"] for s in buckets] == [
            "0.001",
            "0.01",
            "+Inf",
        ]
        assert [s.value for s in buckets] == [1.0, 2.0, 3.0]
        assert all(dict(s.labels)["endpoint"] == "/p" for s in buckets)
        total = [s for s in samples if s.name == "req_seconds_sum"]
        count = [s for s in samples if s.name == "req_seconds_count"]
        assert total[0].value == pytest.approx(0.5025)
        assert count[0].value == 3.0

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValidationError):
            Histogram(bounds=(0.01, 0.001))
        with pytest.raises(ValidationError):
            Histogram(bounds=(0.001, 0.001))
        with pytest.raises(ValidationError):
            Histogram(bounds=(0.001, math.inf))
        with pytest.raises(ValidationError):
            Histogram().quantile(0.0)


# ---------------------------------------------------------------------------
# promfmt: text exposition round trip
# ---------------------------------------------------------------------------


def _sample_families() -> list[MetricFamily]:
    counter = MetricFamily(
        name="geoalign_requests_total", kind="counter", help="Requests."
    )
    counter.add(41.0)
    gauge = MetricFamily(
        name="geoalign_models", kind="gauge", help='Loaded "models"\nnow.'
    )
    gauge.add(3.0, labels=(("store", 'path\\with"quotes'),))
    hist = Histogram(bounds=(0.001, 0.01))
    for value in (0.0005, 0.002, 0.5):
        hist.observe(value)
    histogram = MetricFamily(
        name="geoalign_request_seconds", kind="histogram", help="Latency."
    )
    histogram.samples.extend(
        hist.bucket_samples(
            "geoalign_request_seconds", (("endpoint", "/predict"),)
        )
    )
    return [counter, gauge, histogram]


class TestPrometheusText:
    def test_render_parse_round_trip(self):
        families = _sample_families()
        text = render_prometheus_text(families)
        parsed = parse_prometheus_text(text)
        assert set(parsed) == {
            "geoalign_requests_total",
            "geoalign_models",
            "geoalign_request_seconds",
        }
        for family in families:
            clone = parsed[family.name]
            assert clone.kind == family.kind
            assert clone.help == family.help
            assert clone.samples == family.samples
        # Idempotent: re-rendering the parse reproduces the wire text.
        assert render_prometheus_text(list(parsed.values())) == text

    def test_histogram_series_grouped_under_base_family(self):
        text = render_prometheus_text(_sample_families())
        parsed = parse_prometheus_text(text)
        names = {s.name for s in parsed["geoalign_request_seconds"].samples}
        assert names == {
            "geoalign_request_seconds_bucket",
            "geoalign_request_seconds_sum",
            "geoalign_request_seconds_count",
        }

    @pytest.mark.parametrize(
        "text",
        [
            "# TYPE m sideways\nm 1\n",  # unknown type
            "m{label=}1\n",  # malformed label pair
            'm{label="open 1\n',  # unterminated label block
            "m not_a_number\n",  # bad value
            "# TYPE h histogram\n"  # buckets without +Inf terminator
            'h_bucket{le="0.1"} 1\nh_count 1\nh_sum 0.05\n',
            "# TYPE h histogram\n"  # non-cumulative buckets
            'h_bucket{le="0.1"} 3\nh_bucket{le="+Inf"} 1\n',
            "# TYPE h histogram\n"  # +Inf disagrees with _count
            'h_bucket{le="+Inf"} 2\nh_count 5\n',
        ],
    )
    def test_parse_rejects_malformed_text(self, text):
        with pytest.raises(ValidationError):
            parse_prometheus_text(text)

    def test_render_rejects_invalid_names(self):
        bad = MetricFamily(name="geoalign-req", kind="counter")
        with pytest.raises(ValidationError):
            render_prometheus_text([bad])
        with pytest.raises(ValidationError):
            Sample(name="ok", value=1.0, labels=(("0bad", "x"),)).render()
        with pytest.raises(ValidationError):
            render_prometheus_text(
                [MetricFamily(name="ok", kind="weird")]
            )

    def test_sanitize_metric_name(self):
        assert (
            sanitize_metric_name("health.shard_merge.residual-max")
            == "health_shard_merge_residual_max"
        )
        assert sanitize_metric_name("2fast") == "_2fast"
        with pytest.raises(ValidationError):
            sanitize_metric_name("")

    def test_format_sample_value(self):
        assert format_sample_value(41.0) == "41"
        assert format_sample_value(0.25) == "0.25"
        assert format_sample_value(math.inf) == "+Inf"
        assert format_sample_value(-math.inf) == "-Inf"
        assert format_sample_value(math.nan) == "NaN"
