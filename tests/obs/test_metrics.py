"""Tests for the metrics registry."""

import json

import pytest

from repro.exceptions import ValidationError
from repro.obs import (
    NOOP_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    get_metrics,
)


class TestCounter:
    def test_inc_and_value_per_label_set(self):
        counter = Counter("c")
        counter.inc(phase="points")
        counter.inc(3, phase="points")
        counter.inc(phase="params")
        assert counter.value(phase="points") == 4
        assert counter.value(phase="params") == 1
        assert counter.value(phase="unseen") == 0
        assert counter.total() == 5

    def test_label_order_is_irrelevant(self):
        counter = Counter("c")
        counter.inc(a="1", b="2")
        counter.inc(b="2", a="1")
        assert counter.value(a="1", b="2") == 2

    def test_negative_increment_rejected(self):
        with pytest.raises(ValidationError):
            Counter("c").inc(-1)


class TestGauge:
    def test_set_overwrites(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.set(2)
        assert gauge.value() == 2

    def test_inc_accumulates(self):
        gauge = Gauge("g")
        gauge.inc(2)
        gauge.inc(-3)
        assert gauge.value() == -1


class TestHistogram:
    def test_cumulative_buckets(self):
        histogram = Histogram("h", buckets=(10.0, 100.0))
        histogram.observe(5)
        histogram.observe(50)
        histogram.observe(500)
        assert histogram.bucket_counts() == {10.0: 1, 100.0: 2}
        assert histogram.count() == 3
        assert histogram.sum() == 555

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValidationError):
            Histogram("h", buckets=(100.0, 10.0))


class TestRegistry:
    def test_memoizes_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValidationError):
            registry.gauge("x")

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_things_total", "Things.").inc(2, kind="a")
        registry.gauge("repro_level").set(7)
        registry.histogram("repro_sizes", buckets=(10.0,)).observe(3)
        text = registry.to_prometheus()
        assert "# HELP repro_things_total Things." in text
        assert "# TYPE repro_things_total counter" in text
        assert 'repro_things_total{kind="a"} 2' in text
        assert "repro_level 7" in text
        assert 'repro_sizes_bucket{le="10"} 1' in text
        assert 'repro_sizes_bucket{le="+Inf"} 1' in text
        assert "repro_sizes_sum 3" in text
        assert "repro_sizes_count 1" in text

    def test_snapshot_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(phase="points")
        registry.histogram("h").observe(100)
        parsed = json.loads(registry.to_json())
        assert parsed["c"]["kind"] == "counter"
        assert parsed["c"]["series"][0]["labels"] == {"phase": "points"}
        assert parsed["h"]["series"][0]["count"] == 1


class TestPrometheusExposition:
    """Golden-output checks against the text exposition format.

    The format spec is strict about escaping in label values
    (backslash, double-quote, newline) and in HELP text (backslash,
    newline) — a scrape of unescaped output silently corrupts series.
    """

    def test_counter_golden_output(self):
        registry = MetricsRegistry()
        registry.counter("repro_wire_bytes_total", "Bytes.").inc(
            5, direction="send"
        )
        assert registry.to_prometheus() == (
            "# HELP repro_wire_bytes_total Bytes.\n"
            "# TYPE repro_wire_bytes_total counter\n"
            'repro_wire_bytes_total{direction="send"} 5\n'
        )

    def test_histogram_golden_output(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "repro_sizes", "Sizes.", buckets=(10.0,)
        )
        histogram.observe(3)
        histogram.observe(30)
        assert registry.to_prometheus() == (
            "# HELP repro_sizes Sizes.\n"
            "# TYPE repro_sizes histogram\n"
            'repro_sizes_bucket{le="10"} 1\n'
            'repro_sizes_bucket{le="+Inf"} 2\n'
            "repro_sizes_sum 33\n"
            "repro_sizes_count 2\n"
        )

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", "h").inc(
            path='C:\\temp', note='say "hi"\nbye'
        )
        text = registry.to_prometheus()
        assert 'path="C:\\\\temp"' in text
        assert 'note="say \\"hi\\"\\nbye"' in text
        assert "\nbye" not in text.replace("\\n", "")  # no literal newline

    def test_help_text_is_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c", "line one\nline two \\ backslash").inc()
        text = registry.to_prometheus()
        assert "# HELP c line one\\nline two \\\\ backslash\n" in text
        # Each exposition line still starts with a known token.
        for line in text.splitlines():
            assert line.startswith(("#", "c"))

    def test_escaped_output_parses_line_per_series(self):
        """Every sample stays on one physical line despite evil labels."""
        registry = MetricsRegistry()
        registry.counter("c", "h").inc(k="a\nb")
        registry.counter("c", "h").inc(k="plain")
        lines = registry.to_prometheus().splitlines()
        samples = [line for line in lines if not line.startswith("#")]
        assert len(samples) == 2


class TestGlobalRegistry:
    def test_disabled_by_default(self):
        assert get_metrics() is NOOP_REGISTRY
        assert get_metrics().enabled is False

    def test_noop_instruments_are_inert(self):
        instrument = NOOP_REGISTRY.counter("anything")
        instrument.inc(5, phase="x")
        instrument.observe(1)
        instrument.set(2)
        assert instrument.total() == 0
        assert NOOP_REGISTRY.to_prometheus() == ""
        assert NOOP_REGISTRY.snapshot() == {}

    def test_enable_disable_roundtrip(self):
        registry = enable_metrics()
        try:
            assert get_metrics() is registry
            get_metrics().counter("seen").inc()
            assert registry.counter("seen").total() == 1
        finally:
            disable_metrics()
        assert get_metrics() is NOOP_REGISTRY


class TestThreadSafety:
    """Concurrent serve threads share one registry: increments must
    never be lost and instrument creation must never race into two
    instances under the same name."""

    def test_counter_increments_are_lossless(self):
        import threading

        counter = Counter("c")
        threads_n, per_thread = 8, 10_000

        def hammer():
            for _ in range(per_thread):
                counter.inc(kind="hit")

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value(kind="hit") == threads_n * per_thread

    def test_histogram_observations_are_lossless(self):
        import threading

        histogram = Histogram("h", buckets=(10.0,))
        threads_n, per_thread = 8, 5_000

        def hammer():
            for _ in range(per_thread):
                histogram.observe(1.0)

        threads = [threading.Thread(target=hammer) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.count() == threads_n * per_thread
        assert histogram.sum() == float(threads_n * per_thread)

    def test_concurrent_instrument_creation_yields_one_instance(self):
        import threading

        registry = MetricsRegistry()
        seen = []
        barrier = threading.Barrier(8)

        def create():
            barrier.wait()
            seen.append(registry.counter("shared"))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(instrument) for instrument in seen}) == 1
