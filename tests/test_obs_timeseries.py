"""TimeSeriesStore: rollup rings, queries, and the scrape feed."""

from __future__ import annotations

import pytest

from repro.clock import VirtualClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (
    DEFAULT_RESOLUTIONS,
    TimeSeriesStore,
    is_daemon_side_metric,
)


@pytest.fixture
def rig():
    clock = VirtualClock()
    reg = MetricsRegistry()
    store = TimeSeriesStore(clock=clock)
    store.attach(reg)
    return clock, reg, store


class TestRollups:
    def test_counter_rolls_up_deltas_not_readings(self, rig):
        clock, reg, store = rig
        counter = reg.counter("c")
        counter.inc(5)
        counter.inc(3)
        points = store.query("c")
        assert len(points) == 1
        assert points[0]["sum"] == 8  # 5 + 3, not 5 + 8
        assert points[0]["count"] == 2

    def test_preexisting_counter_is_seeded_on_attach(self):
        clock = VirtualClock()
        reg = MetricsRegistry()
        counter = reg.counter("c")
        counter.inc(100)  # before the store exists
        store = TimeSeriesStore(clock=clock)
        store.attach(reg)
        counter.inc(2)
        points = store.query("c")
        assert sum(p["sum"] for p in points) == 2  # no 100-spike

    def test_gauge_keeps_last_and_minmax(self, rig):
        clock, reg, store = rig
        gauge = reg.gauge("g")
        gauge.set(5)
        gauge.set(1)
        gauge.set(3)
        (point,) = store.query("g")
        assert point["last"] == 3
        assert point["min"] == 1 and point["max"] == 5

    def test_histogram_carries_bucket_deltas(self, rig):
        clock, reg, store = rig
        hist = reg.histogram("h", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        (point,) = store.query("h")
        assert point["buckets"] == [1, 1, 1]  # <=0.1, <=1.0, +Inf
        assert store.bucket_bounds("h") == (0.1, 1.0)

    def test_samples_split_across_time_buckets(self, rig):
        clock, reg, store = rig
        counter = reg.counter("c")
        counter.inc()
        clock.advance(1.5)
        counter.inc()
        points = store.query("c")
        assert [p["sum"] for p in points] == [1, 1]
        assert points[1]["start"] - points[0]["start"] == 1.0

    def test_multi_resolution_rings(self, rig):
        clock, reg, store = rig
        counter = reg.counter("c")
        for _ in range(30):
            counter.inc()
            clock.advance(1.0)
        fine = store.query("c", resolution=1.0)
        coarse = store.query("c", resolution=10.0)
        assert len(fine) > len(coarse) >= 3
        assert sum(p["sum"] for p in fine) == 30
        assert sum(p["sum"] for p in coarse) == 30

    def test_unknown_resolution_raises(self, rig):
        _, _, store = rig
        with pytest.raises(ValueError):
            store.query("c", resolution=7.0)

    def test_window_filter_and_selector(self, rig):
        clock, reg, store = rig
        counter = reg.counter("c")
        counter.inc(tenant="a")
        clock.advance(100)
        counter.inc(tenant="a")
        counter.inc(tenant="b")
        recent = store.window_stats("c", {"tenant": "a"}, window_s=10)
        assert recent["sum"] == 1  # the old bucket fell outside the window
        both = store.window_stats("c", window_s=10)
        assert both["sum"] == 2

    def test_tenants_listing(self, rig):
        clock, reg, store = rig
        counter = reg.counter("c")
        counter.inc(tenant="b")
        counter.inc(tenant="a")
        counter.inc()  # untagged
        assert store.tenants() == ["a", "b"]
        assert store.tenants("other") == []

    def test_own_metrics_are_not_rolled_up(self, rig):
        clock, reg, store = rig
        reg.counter("obs.timeseries.series_dropped_total").inc(metric="x")
        assert store.query("obs.timeseries.series_dropped_total") == []

    def test_series_cap_drops_and_counts(self):
        clock = VirtualClock()
        reg = MetricsRegistry()
        store = TimeSeriesStore(clock=clock, max_series=2)
        store.attach(reg)
        counter = reg.counter("c")
        for i in range(10):
            counter.inc(t=f"t{i}")
        assert store.series_count() == 2
        dropped = reg.counter("obs.timeseries.series_dropped_total")
        assert dropped.value(metric="c") == 8

    def test_ring_memory_is_bounded(self):
        clock = VirtualClock()
        reg = MetricsRegistry()
        store = TimeSeriesStore(
            clock=clock, resolutions=(1.0,), ring_capacity=5
        )
        store.attach(reg)
        counter = reg.counter("c")
        for _ in range(50):
            counter.inc()
            clock.advance(1.0)
        points = store.query("c")
        assert len(points) <= 6  # 5 closed + 1 open

    def test_only_filter_splits_a_shared_registry(self):
        clock = VirtualClock()
        reg = MetricsRegistry()
        daemon_store = TimeSeriesStore(clock=clock)
        daemon_store.attach(reg, only=is_daemon_side_metric)
        session_store = TimeSeriesStore(clock=clock)
        session_store.attach(reg, only=lambda n: not is_daemon_side_metric(n))
        reg.counter("rpc.daemon.calls_total").inc()
        reg.counter("rpc.client.calls_total").inc()
        assert daemon_store.names() == ["rpc.daemon.calls_total"]
        assert session_store.names() == ["rpc.client.calls_total"]

    def test_close_unsubscribes(self, rig):
        clock, reg, store = rig
        store.close()
        reg.counter("c").inc()
        assert store.query("c") == []
        assert not store.attached


class TestScrapeFeed:
    def test_scrape_pages_with_cursor(self, rig):
        clock, reg, store = rig
        counter = reg.counter("c")
        for _ in range(3):
            counter.inc()
            clock.advance(1.0)
        rows, cursor, gap = store.scrape(0)
        assert gap == 0 and len(rows) >= 3
        assert [r["seq"] for r in rows] == sorted(r["seq"] for r in rows)
        # nothing new: same cursor, no rows
        rows2, cursor2, gap2 = store.scrape(cursor)
        assert rows2 == [] and cursor2 == cursor and gap2 == 0

    def test_scrape_reports_gap_after_ring_overflow(self):
        clock = VirtualClock()
        reg = MetricsRegistry()
        store = TimeSeriesStore(clock=clock, export_capacity=4)
        store.attach(reg)
        counter = reg.counter("c")
        rows, cursor, gap = store.scrape(0)
        for _ in range(10):
            counter.inc()
            clock.advance(1.0)
        rows, cursor, gap = store.scrape(cursor)
        assert gap > 0
        assert len(rows) <= 4

    def test_scrape_cursor_past_latest_seq_restarts_from_oldest(self):
        """A cursor from an earlier incarnation of the store reads as 0:
        the retained rows come back and the evicted ones count as gap."""
        clock = VirtualClock()
        reg = MetricsRegistry()
        store = TimeSeriesStore(clock=clock, export_capacity=4)
        store.attach(reg)
        counter = reg.counter("c")
        for _ in range(10):
            counter.inc()
            clock.advance(1.0)
        rows, cursor, gap = store.scrape(10_000)
        assert rows and rows == store.scrape(0)[0]
        assert cursor == rows[-1]["seq"]
        assert gap == rows[0]["seq"] - 1 > 0

    def test_scrape_selectors_filter_without_stalling_cursor(self, rig):
        clock, reg, store = rig
        reg.counter("c").inc(tenant="a")
        reg.counter("c").inc(tenant="b")
        reg.counter("other").inc(tenant="a")
        clock.advance(1.0)
        rows, cursor, _ = store.scrape(0, {"name": "c", "tenant": "a"})
        assert len(rows) == 1
        assert rows[0]["labels"] == {"tenant": "a"}
        # the cursor advanced past the filtered-out rows too
        rows2, _, _ = store.scrape(cursor)
        assert rows2 == []

    def test_forced_flush_makes_fresh_bursts_visible(self, rig):
        clock, reg, store = rig
        reg.counter("c").inc()  # same-second write, bucket still open
        rows, _, _ = store.scrape(0)
        assert len(rows) == 1  # scrape force-flushed it

    def test_partial_flush_rows_sum_exactly(self, rig):
        clock, reg, store = rig
        counter = reg.counter("c")
        counter.inc()
        store.scrape(0)  # force-closes the half-full bucket
        counter.inc()  # same second: reopens a cell with the same start
        clock.advance(1.0)
        rows, _, _ = store.scrape(0)
        # two cells share a start but the deltas are disjoint: the total
        # equals the two increments, nothing is double-counted
        assert sum(r["sum"] for r in rows) == 2
        assert len({r["start"] for r in rows}) == 1
