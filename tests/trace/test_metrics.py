"""Counters, histograms, registry sources, and snapshot isolation."""

import sys
import threading

import pytest

from repro.trace import MetricsRegistry
from repro.metrics import Counter, DEFAULT_BOUNDS, Histogram


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.snapshot() == 5

    def test_exact_under_concurrent_writers(self):
        """No lock on ``inc``, and still no lost update: 8 threads
        (more than cores) x 100 000, switching as often as the
        interpreter allows, while a reader keeps summing."""
        counter = Counter("c")
        threads = [
            threading.Thread(
                target=lambda: [counter.inc() for _ in range(100_000)]
            )
            for _ in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            seen = [counter.value for _ in range(200)]
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert counter.value == 800_000
        assert seen == sorted(seen)  # monotone while being written


class TestHistogram:
    def test_buckets_mean_min_max(self):
        hist = Histogram("h", bounds=(10.0, 100.0))
        for value in (1.0, 10.0, 99.0, 5000.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 4
        assert snap["total"] == pytest.approx(5110.0)
        assert snap["mean"] == pytest.approx(1277.5)
        assert snap["min"] == 1.0
        assert snap["max"] == 5000.0
        # Inclusive upper edges: 1.0 and 10.0 both land in le_10.
        assert snap["buckets"] == {
            "le_10": 2,
            "le_100": 1,
            "overflow": 1,
        }

    def test_empty_histogram_snapshot(self):
        snap = Histogram("h").snapshot()
        assert snap["count"] == 0
        assert snap["mean"] == 0.0
        assert snap["min"] is None and snap["max"] is None

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=(10.0, 10.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=(100.0, 10.0))

    def test_default_bounds_cover_microsecond_decades(self):
        assert DEFAULT_BOUNDS[0] == 10.0
        assert DEFAULT_BOUNDS[-1] == 1e7


class TestMetricsRegistry:
    def test_create_on_first_use_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("b") is registry.histogram("b")

    def test_adopted_counters_read_under_their_own_name(self):
        """A counter its owner made and keeps (a fabric's governor)
        shows in the registry; several owners' of one name sum, and
        one adopted twice (two ORBs on one fabric) counts once."""
        registry = MetricsRegistry()
        mine, theirs = Counter("server.pauses"), Counter("server.pauses")
        for counter in (mine, theirs, mine):
            registry.adopt(counter)
        mine.inc(2)
        theirs.inc(3)
        registry.counter("ft.retries").inc()
        assert registry.snapshot()["counters"] == {
            "ft.retries": 1,
            "server.pauses": 5,
        }

    def test_sources_fold_into_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.register_source("orb", lambda: {"ft": {"retries": 2}})
        snap = registry.snapshot()
        assert snap["counters"]["hits"] == 1
        assert snap["sources"]["orb"] == {"ft": {"retries": 2}}
        assert "sources" not in registry.snapshot(include_sources=False)
        registry.unregister_source("orb")
        assert registry.snapshot()["sources"] == {}
        # Unregistering an unknown source is a no-op, not an error.
        registry.unregister_source("nope")

    def test_snapshot_is_isolated_both_directions(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        registry.histogram("h").observe(5.0)
        source_data = {"nested": {"k": 1}}
        registry.register_source("src", lambda: source_data)
        snap = registry.snapshot()

        # Later activity must not mutate the already-taken snapshot...
        registry.counter("n").inc(10)
        registry.histogram("h").observe(7.0)
        source_data["nested"]["k"] = 99
        assert snap["counters"]["n"] == 1
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["sources"]["src"]["nested"]["k"] == 1

        # ...and poisoning the snapshot must not corrupt live state.
        snap["counters"]["n"] = -1
        snap["histograms"]["h"]["buckets"]["le_10"] = -1
        assert registry.snapshot()["counters"]["n"] == 11
        assert (
            registry.snapshot()["histograms"]["h"]["buckets"]["le_10"] == 2
        )
