"""The cursor-poll contract (PROTOCOLS §1.5) and its three producers.

``CursorLog`` holds the rules; the telemetry bus, the gateway job feed
and the time-series scrape ring must all apply them the same way, so
the contract tests run over each surface. The conservation property
over random appends and polls is in ``test_stateful.py``.
"""

import pytest

from repro.clock import VirtualClock
from repro.cursorlog import CursorTail
from repro.gateway.jobs import JobStore
from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import TelemetryBus
from repro.obs.timeseries import TimeSeriesStore


class _Bus:
    def __init__(self, tmp_path, capacity):
        self.bus = TelemetryBus("acl-daemon", clock=VirtualClock(), history=capacity)

    def publish(self):
        self.bus.publish("event", "e")

    def read(self, cursor, limit):
        events, next_cursor, gap = self.bus.read_since(cursor, limit)
        return [e.seq for e in events], next_cursor, gap


class _JobFeed:
    def __init__(self, tmp_path, capacity):
        self.store = JobStore.open(
            tmp_path, clock=VirtualClock(), feed_capacity=capacity, fsync=False
        )

    def publish(self):
        self.store.submit("lab-a", {})  # one job.submitted event

    def read(self, cursor, limit):
        events, next_cursor, gap = self.store.feed.read_since(cursor, limit)
        return [e.seq for e in events], next_cursor, gap


class _Scrape:
    def __init__(self, tmp_path, capacity):
        self.registry = MetricsRegistry()
        self.store = TimeSeriesStore(clock=VirtualClock(), export_capacity=capacity)
        self.store.attach(self.registry)

    def publish(self):
        self.registry.counter("c").inc()
        self.store.flush(force=True)  # one closed cell, one export row

    def read(self, cursor, limit):
        rows, next_cursor, gap = self.store.scrape(cursor, max_rows=limit)
        return [r["seq"] for r in rows], next_cursor, gap


SURFACES = {"bus": _Bus, "job_feed": _JobFeed, "scrape": _Scrape}


@pytest.fixture(params=sorted(SURFACES))
def surface(request, tmp_path):
    return lambda capacity: SURFACES[request.param](tmp_path, capacity)


class TestContractOnEverySurface:
    def test_negative_cursor_reads_as_zero_without_phantom_gap(self, surface):
        log = surface(8)
        for _ in range(3):
            log.publish()
        assert log.read(-5, 256) == ([1, 2, 3], 3, 0)

    def test_limit_below_one_is_an_empty_page(self, surface):
        log = surface(2)
        for _ in range(5):
            log.publish()
        assert log.read(0, 0) == ([], 0, 0)
        assert log.read(4, 0) == ([], 4, 0)
        # the cursor is normalised, and the gap is left for the real page
        assert log.read(99, -1) == ([], 0, 0)
        assert log.read(0, 256) == ([4, 5], 5, 3)

    def test_capacity_below_one_is_rejected(self, surface):
        with pytest.raises(ValueError):
            surface(0)


class TestCursorTail:
    def test_tail_counts_failures_and_gaps(self):
        replies = [
            {"cursor": 7, "gap": 3, "events": [7]},
            RuntimeError("down"),
            {"events": []},  # no cursor: not a poll reply
        ]

        def fetch(cursor):
            reply = replies.pop(0)
            if isinstance(reply, Exception):
                raise reply
            return reply

        tail = CursorTail(fetch)
        assert tail.poll() == ([7], 3)
        with pytest.raises(RuntimeError):
            tail.poll()
        with pytest.raises(KeyError):
            tail.poll()
        assert (tail.cursor, tail.gap_total, tail.failures) == (7, 3, 2)
