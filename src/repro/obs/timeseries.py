"""Fixed-memory multi-resolution time-series rollups over the metrics plane.

The :class:`MetricsRegistry` answers "what is the value now"; this module
answers "how did it move". A :class:`TimeSeriesStore` subscribes to the
registry's update-listener hook and folds every write into per-series
rollup rings at several resolutions (1 s / 10 s / 60 s by default). Each
rollup cell keeps ``sum``, ``count``, ``min``, ``max``, the last sample,
and — for histograms — per-bucket count deltas, so rates, averages and
latency-threshold fractions can be asked for any recent window without
ever storing raw samples.

Memory is fixed by construction: bounded ring per (series, resolution),
a bounded export ring of closed base-resolution cells (the scrape feed,
cursor/gap contract identical to ``TelemetryBus.read_since``), and a cap
on the number of distinct series. Everything beyond a cap is dropped and
counted, never buffered.

Wire schema for scraped rows: ``repro-tsdb-1`` (PROTOCOLS.md §1.9).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Iterable

from repro.clock import Clock, WallClock
from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    OVERFLOW_VALUE,
    _label_key,
)

#: Wire schema tag stamped on every scrape reply.
SCHEMA = "repro-tsdb-1"

#: The store's own bookkeeping metrics live under this prefix and are
#: never rolled up — the listener skipping them is what keeps the store
#: from feeding on itself.
OWN_METRIC_PREFIX = "obs.timeseries."

#: Default rollup resolutions in seconds, finest first. The finest one
#: feeds the scrape/export ring.
DEFAULT_RESOLUTIONS: tuple[float, ...] = (1.0, 10.0, 60.0)

#: Metric-name prefixes considered the *daemon* (facility) half of an
#: ICE. When one process hosts both halves on a shared registry, the
#: facility store attaches with ``only=is_daemon_side_metric`` and the
#: session store with its complement, so an aggregator that scrapes both
#: never double-counts a write.
DAEMON_METRIC_PREFIXES: tuple[str, ...] = (
    "rpc.daemon.",
    "rpc.server.",
    "net.",
    "chaos.",
    "datachannel.share.",
    "durability.",
)


def is_daemon_side_metric(name: str) -> bool:
    return name.startswith(DAEMON_METRIC_PREFIXES)


class _Rollup:
    """One aggregation cell: ``[start, start + res)``."""

    __slots__ = ("start", "sum", "count", "minimum", "maximum", "last", "buckets")

    def __init__(self, start: float, n_buckets: int = 0):
        self.start = start
        self.sum = 0.0
        self.count = 0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.last = 0.0
        self.buckets = [0] * n_buckets if n_buckets else None

    def add(self, value: float, bucket_idx: int | None = None) -> None:
        self.sum += value
        self.count += 1
        self.last = value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if bucket_idx is not None and self.buckets is not None:
            self.buckets[bucket_idx] += 1


class _Series:
    """Rollup state for one (metric name, label set)."""

    __slots__ = ("name", "kind", "labels", "bounds", "last_raw", "open", "rings")

    def __init__(
        self,
        name: str,
        kind: str,
        labels: dict[str, str],
        bounds: tuple[float, ...] | None,
        resolutions: Iterable[float],
        capacity: int,
    ):
        self.name = name
        self.kind = kind
        self.labels = labels
        self.bounds = bounds
        self.last_raw = 0.0
        self.open: dict[float, _Rollup] = {}
        self.rings: dict[float, deque[_Rollup]] = {
            res: deque(maxlen=capacity) for res in resolutions
        }


def _matches(labels: dict[str, str], selector: dict[str, Any] | None) -> bool:
    """Label-equality subset match (the ``name`` key is handled upstream)."""
    if not selector:
        return True
    for k, v in selector.items():
        if k == "name":
            continue
        if labels.get(k) != str(v):
            return False
    return True


class TimeSeriesStore:
    """Rollup rings + scrape ring over one registry's update stream.

    Thread-safe; the listener path is the metric hot path, so it does
    one lock acquire, one dict lookup and one rollup update per
    configured resolution. Attach with ``only=`` to take a name-filtered
    slice of a shared registry (see :func:`is_daemon_side_metric`).
    """

    def __init__(
        self,
        clock: Clock | None = None,
        resolutions: tuple[float, ...] = DEFAULT_RESOLUTIONS,
        ring_capacity: int = 240,
        export_capacity: int = 4096,
        max_series: int = 1024,
    ):
        if not resolutions:
            raise ValueError("need at least one resolution")
        self.clock = clock or WallClock()
        self._resolutions = tuple(sorted(resolutions))
        self.base_resolution = self._resolutions[0]
        self._ring_capacity = ring_capacity
        self._max_series = max_series
        self._lock = threading.Lock()
        self._series: dict[tuple[str, tuple[tuple[str, str], ...]], _Series] = {}
        self._export: deque[dict[str, Any]] = deque(maxlen=export_capacity)
        self._export_seq = 0
        self._registry: MetricsRegistry | None = None
        self._only: Callable[[str], bool] | None = None
        self._unsubscribe: Callable[[], None] | None = None

    # -- attachment ---------------------------------------------------------
    def attach(
        self,
        registry: MetricsRegistry,
        only: Callable[[str], bool] | None = None,
    ) -> None:
        """Subscribe to ``registry`` writes (optionally name-filtered).

        Counter series that already exist are seeded with their current
        cumulative reading so the first post-attach increment rolls up
        as its true delta, not the lifetime total.
        """
        if self._unsubscribe is not None:
            raise RuntimeError("store is already attached")
        self._registry = registry
        self._only = only
        with self._lock:
            for name in registry.names():
                metric = registry.get(name)
                if metric is None or metric.kind != "counter":
                    continue
                if name.startswith(OWN_METRIC_PREFIX):
                    continue
                if only is not None and not only(name):
                    continue
                for labels, state in metric.series():
                    series = self._get_series(name, "counter", labels, None)
                    if series is not None:
                        series.last_raw = state[0]
        self._unsubscribe = registry.add_update_listener(self._on_update)

    @property
    def attached(self) -> bool:
        return self._unsubscribe is not None

    def close(self) -> None:
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    # -- ingest -------------------------------------------------------------
    def _get_series(
        self,
        name: str,
        kind: str,
        labels: dict[str, Any],
        bounds: tuple[float, ...] | None,
    ) -> _Series | None:
        """Get-or-create under the caller-held lock; None once capped."""
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            if len(self._series) >= self._max_series:
                return None
            series = _Series(
                name,
                kind,
                {k: str(v) for k, v in labels.items()},
                bounds,
                self._resolutions,
                self._ring_capacity,
            )
            self._series[key] = series
        return series

    def _on_update(
        self, name: str, kind: str, labels: dict[str, Any], value: float
    ) -> None:
        if name.startswith(OWN_METRIC_PREFIX):
            return
        if self._only is not None and not self._only(name):
            return
        now = self.clock.now()
        dropped = False
        with self._lock:
            bounds = None
            if kind == "histogram":
                metric = (
                    self._registry.get(name) if self._registry is not None else None
                )
                if isinstance(metric, Histogram):
                    bounds = metric.buckets
            series = self._get_series(name, kind, labels, bounds)
            if series is None:
                dropped = True
            else:
                if kind == "counter":
                    delta = value - series.last_raw
                    series.last_raw = value
                    if delta > 0:
                        self._record(series, now, delta, None)
                else:
                    bucket_idx = None
                    if kind == "histogram" and series.bounds:
                        bucket_idx = len(series.bounds)
                        for i, bound in enumerate(series.bounds):
                            if value <= bound:
                                bucket_idx = i
                                break
                    self._record(series, now, value, bucket_idx)
        if dropped and self._registry is not None:
            self._registry.counter(
                "obs.timeseries.series_dropped_total",
                "metric writes dropped because the store's series cap was hit",
            ).inc(metric=name)

    def _record(
        self, series: _Series, t: float, value: float, bucket_idx: int | None
    ) -> None:
        n_buckets = len(series.bounds) + 1 if series.bounds else 0
        for res in self._resolutions:
            start = t - (t % res)
            cell = series.open.get(res)
            if cell is not None and cell.start != start:
                self._close_cell(series, res, cell)
                cell = None
            if cell is None:
                cell = _Rollup(start, n_buckets)
                series.open[res] = cell
            cell.add(value, bucket_idx)

    def _close_cell(self, series: _Series, res: float, cell: _Rollup) -> None:
        """Retire one cell into its ring (and the scrape feed at base res)."""
        series.rings[res].append(cell)
        if res == self.base_resolution:
            self._export_seq += 1
            row: dict[str, Any] = {
                "seq": self._export_seq,
                "name": series.name,
                "kind": series.kind,
                "labels": dict(series.labels),
                "res": res,
                "start": cell.start,
                "sum": cell.sum,
                "count": cell.count,
                "min": cell.minimum,
                "max": cell.maximum,
                "last": cell.last,
            }
            if cell.buckets is not None:
                row["buckets"] = list(cell.buckets)
            self._export.append(row)

    def flush(self, now: float | None = None, force: bool = False) -> int:
        """Close open cells whose window has ended (all of them if forced).

        A forced flush may retire a partial cell; later samples in the
        same wall-clock window simply open a fresh cell with the same
        ``start``, so sums over scraped rows stay exact (readers merging
        by ``start`` see at most a few cells per window). Returns the
        number of cells closed.
        """
        now = self.clock.now() if now is None else now
        closed = 0
        with self._lock:
            for series in self._series.values():
                for res in self._resolutions:
                    cell = series.open.get(res)
                    if cell is None or cell.count == 0:
                        continue
                    if force or cell.start + res <= now:
                        self._close_cell(series, res, cell)
                        del series.open[res]
                        closed += 1
        return closed

    # -- queries ------------------------------------------------------------
    def query(
        self,
        name: str,
        selector: dict[str, Any] | None = None,
        window_s: float | None = None,
        resolution: float | None = None,
        now: float | None = None,
    ) -> list[dict[str, Any]]:
        """Merged rollup points for one metric, oldest first.

        Series whose labels subset-match ``selector`` are merged per
        cell-start; open (still-filling) cells are included. Each point:
        ``{"start", "sum", "count", "min", "max", "last", "buckets"?}``.
        """
        res = resolution if resolution is not None else self.base_resolution
        if res not in self._resolutions:
            raise ValueError(f"unknown resolution {res!r}; have {self._resolutions}")
        now = self.clock.now() if now is None else now
        cutoff = None if window_s is None else now - window_s
        merged: dict[float, dict[str, Any]] = {}
        with self._lock:
            for series in self._series.values():
                if series.name != name or not _matches(series.labels, selector):
                    continue
                cells = list(series.rings[res])
                open_cell = series.open.get(res)
                if open_cell is not None and open_cell.count:
                    cells.append(open_cell)
                for cell in cells:
                    if cutoff is not None and cell.start + res <= cutoff:
                        continue
                    point = merged.get(cell.start)
                    if point is None:
                        point = {
                            "start": cell.start,
                            "sum": 0.0,
                            "count": 0,
                            "min": float("inf"),
                            "max": float("-inf"),
                            "last": cell.last,
                        }
                        merged[cell.start] = point
                    point["sum"] += cell.sum
                    point["count"] += cell.count
                    point["min"] = min(point["min"], cell.minimum)
                    point["max"] = max(point["max"], cell.maximum)
                    point["last"] = cell.last
                    if cell.buckets is not None:
                        buckets = point.setdefault("buckets", [0] * len(cell.buckets))
                        for i, n in enumerate(cell.buckets):
                            buckets[i] += n
        return [merged[start] for start in sorted(merged)]

    def resolution_for(self, window_s: float) -> float:
        """Finest resolution whose ring retention covers ``window_s``.

        The 1 s ring holds ``ring_capacity`` cells (240 s by default),
        so a 600 s window read at base resolution would silently
        truncate to the retained tail; long windows must read the
        coarser rings instead.
        """
        for res in self._resolutions:
            if res * self._ring_capacity >= window_s:
                return res
        return self._resolutions[-1]

    def window_stats(
        self,
        name: str,
        selector: dict[str, Any] | None = None,
        window_s: float = 60.0,
        now: float | None = None,
        resolution: float | None = None,
    ) -> dict[str, Any]:
        """Aggregate of :meth:`query` over one window: sum/count/buckets.

        ``resolution`` defaults to :meth:`resolution_for` the window, so
        windows longer than the base ring's retention stay accurate.
        """
        res = resolution if resolution is not None else self.resolution_for(window_s)
        points = self.query(name, selector, window_s=window_s, resolution=res, now=now)
        total = sum(p["sum"] for p in points)
        count = sum(p["count"] for p in points)
        buckets: list[int] | None = None
        for p in points:
            if "buckets" in p:
                if buckets is None:
                    buckets = [0] * len(p["buckets"])
                for i, n in enumerate(p["buckets"]):
                    buckets[i] += n
        return {"sum": total, "count": count, "buckets": buckets}

    def tenants(self, name: str | None = None) -> list[str]:
        """Distinct ``tenant`` label values seen (overflow excluded)."""
        seen: set[str] = set()
        with self._lock:
            for series in self._series.values():
                if name is not None and series.name != name:
                    continue
                tenant = series.labels.get("tenant")
                if tenant is not None and tenant != OVERFLOW_VALUE:
                    seen.add(tenant)
        return sorted(seen)

    def bucket_bounds(self, name: str) -> tuple[float, ...] | None:
        """Histogram bucket upper bounds for ``name`` (None if unseen)."""
        with self._lock:
            for series in self._series.values():
                if series.name == name and series.bounds:
                    return series.bounds
        return None

    def series_count(self) -> int:
        with self._lock:
            return len(self._series)

    def names(self) -> list[str]:
        with self._lock:
            return sorted({series.name for series in self._series.values()})

    # -- scrape feed --------------------------------------------------------
    def scrape(
        self,
        cursor: int = 0,
        selectors: dict[str, Any] | None = None,
        max_rows: int = 512,
        flush: bool = True,
    ) -> tuple[list[dict[str, Any]], int, int]:
        """Cursor read over the export ring (the ``Obs_Scrape`` contract).

        Same shape as ``TelemetryBus.read_since``: rows with ``seq >
        cursor`` oldest-first, the cursor to send next time, and how
        many rows fell off the ring unseen. ``selectors`` filters rows
        without stalling the cursor (filtered-out rows still advance
        it): the ``name`` key prefix-matches the metric name, every
        other key is exact label equality. A scrape force-flushes open
        cells first so bursts younger than one resolution are visible.
        """
        if flush:
            self.flush(force=True)
        if max_rows <= 0:
            return [], cursor, 0
        name_sel = selectors.get("name") if selectors else None
        with self._lock:
            if cursor > self._export_seq:
                cursor = 0  # issued by an earlier incarnation (PROTOCOLS §1.5)
            if not self._export:
                return [], max(cursor, self._export_seq), 0
            oldest = self._export[0]["seq"]
            gap = max(0, oldest - cursor - 1) if cursor < oldest else 0
            rows: list[dict[str, Any]] = []
            scanned_to = max(cursor, oldest - 1 + gap)
            for row in self._export:
                if row["seq"] <= cursor:
                    continue
                scanned_to = row["seq"]
                if name_sel is not None and not row["name"].startswith(name_sel):
                    continue
                if not _matches(row["labels"], selectors):
                    continue
                rows.append(dict(row))
                if len(rows) >= max_rows:
                    break
        return rows, scanned_to, gap
