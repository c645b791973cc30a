"""Live telemetry streaming: the real-time half of the observability stack.

Everything before this module was post-hoc — traces, metrics, health
reports and flight-recorder dumps are read *after* a run. The paper's
point (§1, §4.2 step 7) is remote experiment *steering*, which needs the
DGX operator to see what the ACL is doing while acquisition is still in
flight. The pieces:

- :class:`TelemetryBus` — a bounded, lock-safe pub/sub hub. Producers
  (tracer span-ends, :class:`~repro.obs.metrics.MetricsRegistry` update
  listeners, :class:`~repro.logging_utils.EventLog` entries, health
  status transitions) ``publish()`` without ever blocking: each
  subscriber owns a drop-oldest ring, and overflow is counted in the
  ``obs.stream.dropped_total`` metric instead of applying backpressure.
- :class:`TelemetryServer` — the control-channel face of the
  daemon-side bus (object id ``"ACL_Telemetry"``; the verb is spelled
  ``Telemetry_Poll`` because the RPC layer structurally refuses
  underscore-prefixed names, the same constraint that shaped
  ``Recorder_Dump``). Polling is cursor-based: the client sends the
  last sequence number it has seen and receives everything newer, plus
  a ``gap`` count when its cursor has fallen off the retention ring.
- :class:`SessionStream` — what ``session.stream()`` returns: tails the
  local (dgx-session) bus and polls the remote (acl-daemon) bus, then
  merges both halves into one time-ordered feed so a workflow-task span
  appears next to the daemon dispatch span it caused. Remote-poll
  failures and cursor gaps surface as synthetic ``stream.*`` events in
  the same feed — a partition degrades the stream, it never hangs it.

Wire documents carry ``"schema": "repro-stream-1"``; the cursor
protocol is documented in ``docs/PROTOCOLS.md`` §1.5.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.clock import Clock, WALL
from repro.logging_utils import Event, EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer, current_span
from repro.rpc.expose import expose

#: Schema tag stamped into every Telemetry_Poll reply.
SCHEMA = "repro-stream-1"

#: Metric-name prefix the bus's own bookkeeping lives under. The
#: metrics listener skips these, otherwise a dropped-event increment
#: would publish a metric event that can drop and increment again.
OWN_METRIC_PREFIX = "obs.stream."

#: Event kinds a bus can carry.
KIND_SPAN = "span"
KIND_METRIC = "metric"
KIND_EVENT = "event"
KIND_HEALTH = "health"
KIND_STREAM = "stream"
KIND_SLO = "slo"


@dataclass(frozen=True)
class TelemetryEvent:
    """One item on the live feed.

    Attributes:
        seq: bus-assigned monotonic sequence number (1-based, per bus);
            the cursor currency of :meth:`TelemetryBus.read_since`.
        timestamp: clock reading at publish time.
        kind: one of ``span`` / ``metric`` / ``event`` / ``health`` /
            ``stream`` (the last for the stream's own meta-events).
        name: what happened — a span name, metric name, event kind,
            ``health.status``, ``stream.cursor_gap`` ...
        service: which bus half published it (``dgx-session`` /
            ``acl-daemon``).
        trace_id: correlating trace, when the producer had one.
        data: kind-specific payload (JSON-safe).
    """

    seq: int
    timestamp: float
    kind: str
    name: str
    service: str
    trace_id: str | None = None
    data: dict[str, Any] = field(default_factory=dict)

    def to_wire(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "timestamp": self.timestamp,
            "kind": self.kind,
            "name": self.name,
            "service": self.service,
            "trace_id": self.trace_id,
            "data": self.data,
        }

    @classmethod
    def from_wire(cls, raw: Any) -> "TelemetryEvent | None":
        """Tolerant decode: malformed items become None, never raise."""
        if not isinstance(raw, dict):
            return None
        try:
            data = raw.get("data")
            return cls(
                seq=int(raw["seq"]),
                timestamp=float(raw["timestamp"]),
                kind=str(raw["kind"]),
                name=str(raw["name"]),
                service=str(raw.get("service", "?")),
                trace_id=raw.get("trace_id") or None,
                data=dict(data) if isinstance(data, dict) else {},
            )
        except (KeyError, TypeError, ValueError):
            return None


class TelemetrySubscription:
    """One subscriber's drop-oldest ring on a :class:`TelemetryBus`.

    ``poll()`` drains whatever has arrived since the last poll without
    blocking; a slow poller loses the *oldest* unread events first and
    sees how many via :attr:`dropped`. ``close()`` detaches from the
    bus (idempotent; also the context-manager exit).
    """

    def __init__(self, bus: "TelemetryBus", capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self._bus = bus
        self._ring: deque[TelemetryEvent] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._dropped = 0
        self._closed = False

    @property
    def dropped(self) -> int:
        """Events this subscriber lost to ring overflow so far."""
        with self._lock:
            return self._dropped

    @property
    def closed(self) -> bool:
        return self._closed

    def _offer(self, event: TelemetryEvent) -> bool:
        """Bus-side append. Returns True when an old event was evicted."""
        with self._lock:
            if self._closed:
                return False
            evicting = len(self._ring) == self._ring.maxlen
            if evicting:
                self._dropped += 1
            self._ring.append(event)
            return evicting

    def poll(self, max_events: int | None = None) -> list[TelemetryEvent]:
        """Drain up to ``max_events`` pending events (all, when None)."""
        out: list[TelemetryEvent] = []
        with self._lock:
            while self._ring and (max_events is None or len(out) < max_events):
                out.append(self._ring.popleft())
        return out

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._ring.clear()
        self._bus._remove_subscription(self)

    def __enter__(self) -> "TelemetrySubscription":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class TelemetryBus:
    """Bounded pub/sub hub for one half of the ecosystem.

    Args:
        service: which half this is (``"dgx-session"`` / ``"acl-daemon"``);
            stamped into every event.
        clock: time source for event stamps (share the session's).
        metrics: optional registry where ``obs.stream.*`` bookkeeping
            counters live. This is the registry the bus *writes*; what it
            *watches* is whatever :meth:`observe_metrics` is given.
        history: size of the global retention ring served to remote
            cursor polls (:meth:`read_since`). Local subscribers have
            their own rings and are unaffected.

    Publishing never blocks and never raises: slow consumers lose old
    events (counted), not the producer's time. A lock is held only for
    the ring appends themselves.
    """

    def __init__(
        self,
        service: str,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
        history: int = 1024,
    ):
        if history <= 0:
            raise ValueError(f"history must be > 0, got {history}")
        self.service = service
        self.clock = clock or WALL
        self.metrics = metrics
        self._lock = threading.Lock()
        self._seq = 0
        self._history: deque[TelemetryEvent] = deque(maxlen=history)
        self._subscriptions: list[TelemetrySubscription] = []
        self._detach_fns: list[Callable[[], None]] = []
        self._dropped_counter = (
            metrics.counter(
                "obs.stream.dropped_total",
                "telemetry events lost to ring overflow",
            )
            if metrics is not None
            else None
        )
        self._published_counter = (
            metrics.counter(
                "obs.stream.published_total", "telemetry events published"
            )
            if metrics is not None
            else None
        )

    # -- publishing ---------------------------------------------------------
    def publish(
        self,
        kind: str,
        name: str,
        trace_id: str | None = None,
        timestamp: float | None = None,
        **data: Any,
    ) -> TelemetryEvent:
        """Put one event on the bus; returns it (mostly for tests)."""
        with self._lock:
            self._seq += 1
            event = TelemetryEvent(
                seq=self._seq,
                timestamp=(
                    timestamp if timestamp is not None else self.clock.now()
                ),
                kind=kind,
                name=name,
                service=self.service,
                trace_id=trace_id,
                data=data,
            )
            self._history.append(event)
            subscriptions = list(self._subscriptions)
        drops = sum(1 for sub in subscriptions if sub._offer(event))
        # counters are touched outside the bus lock: the increment runs
        # registry listeners, and one of them may be this very bus
        if self._published_counter is not None:
            self._published_counter.inc()
        if drops and self._dropped_counter is not None:
            self._dropped_counter.inc(drops, half=self.service)
        return event

    # -- subscribing --------------------------------------------------------
    def subscribe(self, capacity: int = 256) -> TelemetrySubscription:
        """A new drop-oldest ring fed by every subsequent publish."""
        sub = TelemetrySubscription(self, capacity)
        with self._lock:
            self._subscriptions.append(sub)
        return sub

    def _remove_subscription(self, sub: TelemetrySubscription) -> None:
        with self._lock:
            try:
                self._subscriptions.remove(sub)
            except ValueError:
                pass

    def read_since(
        self, cursor: int = 0, max_events: int = 256
    ) -> tuple[list[TelemetryEvent], int, int]:
        """Cursor read over the retention ring (the polling protocol).

        Args:
            cursor: highest sequence number the caller has already seen
                (0 on the first poll).
            max_events: page-size bound.

        Returns:
            ``(events, next_cursor, gap)`` — events with ``seq > cursor``
            in order; the cursor to send next time; and how many events
            the caller permanently missed because they fell off the ring
            before this poll (0 when none).
        """
        if max_events <= 0:
            return [], cursor, 0
        with self._lock:
            if cursor > self._seq:
                cursor = 0  # issued by an earlier incarnation (PROTOCOLS §1.5)
            if not self._history:
                return [], max(cursor, self._seq), 0
            oldest = self._history[0].seq
            gap = max(0, oldest - cursor - 1) if cursor < oldest else 0
            events = [e for e in self._history if e.seq > cursor][:max_events]
        next_cursor = events[-1].seq if events else max(cursor, oldest - 1 + gap)
        return events, next_cursor, gap

    @property
    def latest_seq(self) -> int:
        with self._lock:
            return self._seq

    # -- producer attachments ----------------------------------------------
    def attach_tracer(
        self,
        tracer: Tracer,
        only: Callable[[Span], bool] | None = None,
    ) -> None:
        """Publish every finished span as a ``span`` event.

        Chains onto the tracer's single exporter slot (the flight
        recorder does the same; whoever attached first keeps being
        called). ``only`` filters which spans are streamed — the session
        and daemon halves use it to stay disjoint.
        """
        previous = tracer.exporter

        def chained(span: Span) -> None:
            if previous is not None:
                try:
                    previous(span)
                except Exception:  # noqa: BLE001 - match tracer's tolerance
                    pass
            if only is None or only(span):
                self.publish(
                    KIND_SPAN,
                    span.name,
                    trace_id=span.trace_id,
                    span_id=span.span_id,
                    parent_id=span.parent_id,
                    duration_s=span.duration_s,
                    status=span.status,
                    attributes=dict(span.attributes),
                )

        tracer.exporter = chained

        def detach() -> None:
            if tracer.exporter is chained:
                tracer.exporter = previous

        self._detach_fns.append(detach)

    def attach_event_log(self, log: EventLog) -> None:
        """Publish every emitted :class:`Event` as an ``event`` event.

        The subscriber runs synchronously in the emitting thread, so the
        current span (if any) supplies the trace id.
        """

        def on_event(event: Event) -> None:
            span = current_span()
            self.publish(
                KIND_EVENT,
                f"{event.source}:{event.kind}",
                trace_id=span.trace_id if span is not None else None,
                timestamp=event.timestamp,
                source=event.source,
                event_kind=event.kind,
                message=event.message,
                data=dict(event.data),
            )

        self._detach_fns.append(log.subscribe(on_event))

    def observe_metrics(self, registry: MetricsRegistry) -> None:
        """Publish every metric write as a ``metric`` event.

        The bus's own ``obs.stream.*`` counters are skipped — they may be
        incremented *by* a publish, and streaming them back would recurse.
        """

        def on_update(
            name: str, kind: str, labels: dict[str, Any], value: float
        ) -> None:
            if name.startswith(OWN_METRIC_PREFIX):
                return
            span = current_span()
            self.publish(
                KIND_METRIC,
                name,
                trace_id=span.trace_id if span is not None else None,
                metric_kind=kind,
                labels={k: str(v) for k, v in labels.items()},
                value=value,
            )

        self._detach_fns.append(registry.add_update_listener(on_update))

    def detach(self) -> None:
        """Undo every tracer/event-log/metrics attachment."""
        for fn in self._detach_fns:
            try:
                fn()
            except Exception:  # noqa: BLE001
                pass
        self._detach_fns.clear()


@expose
class TelemetryServer:
    """Control-channel face of the daemon-side bus.

    Registered on the control daemon (object id ``"ACL_Telemetry"``)
    next to the workstation and flight-recorder servers, so a client
    holding the control URI can tail ACL-side telemetry while a run is
    in flight. Cursor-based rather than push-based: the simulated (and
    real) control channel is request/reply, so the client polls with the
    last sequence number it saw and the reply carries only newer events
    plus a ``gap`` count when the cursor fell off the retention ring.
    """

    OBJECT_ID = "ACL_Telemetry"

    def __init__(self, bus: TelemetryBus):
        self._bus = bus

    def Telemetry_Poll(
        self, cursor: int = 0, max_events: int = 256
    ) -> dict[str, Any]:
        """Events newer than ``cursor``, the next cursor, and any gap."""
        events, next_cursor, gap = self._bus.read_since(
            int(cursor), int(max_events)
        )
        return {
            "schema": SCHEMA,
            "service": self._bus.service,
            "cursor": next_cursor,
            "gap": gap,
            "events": [e.to_wire() for e in events],
        }


class SessionStream:
    """The merged live feed behind ``session.stream()``.

    Tails the local bus through a private subscription and the remote
    bus through ``Telemetry_Poll``, merging each :meth:`drain` batch
    into one time-ordered list. Pull-based by design — no background
    thread; the caller's drain cadence is the refresh rate.

    Failure semantics (the steering loop must outlive the stream):

    - a remote poll that raises is swallowed and surfaced as a synthetic
      ``stream.remote_poll_failed`` event in the same feed;
    - a remote cursor gap (the daemon ring outran our polling, e.g.
      across a partition) becomes a ``stream.cursor_gap`` event carrying
      the missed count, and bumps ``obs.stream.dropped_total`` with
      ``half=remote``.

    Use as a context manager or call :meth:`close`.
    """

    def __init__(
        self,
        bus: TelemetryBus,
        remote_client_fn: "Callable[[], Any] | None" = None,
        capacity: int = 1024,
        max_remote_events: int = 256,
    ):
        self._bus = bus
        self._subscription = bus.subscribe(capacity=capacity)
        self._remote_client_fn = remote_client_fn
        self._remote_client: Any | None = None
        self._remote_broken = False
        self._remote_cursor = 0
        self._max_remote_events = max_remote_events
        self.remote_gap_total = 0
        self.remote_poll_failures = 0

    @property
    def dropped(self) -> int:
        """Local events lost to this stream's own ring overflow."""
        return self._subscription.dropped

    def _poll_remote(self) -> list[TelemetryEvent]:
        if self._remote_client_fn is None or self._remote_broken:
            return []
        try:
            if self._remote_client is None:
                self._remote_client = self._remote_client_fn()
            reply = self._remote_client.Telemetry_Poll(
                cursor=self._remote_cursor,
                max_events=self._max_remote_events,
            )
        except Exception as exc:  # noqa: BLE001 - stream degrades, never hangs
            self.remote_poll_failures += 1
            # drop the proxy so the next drain reconnects from scratch;
            # the synthetic event reaches the caller through the local
            # subscription this very drain is about to poll
            self._close_remote()
            self._bus.publish(
                KIND_STREAM,
                "stream.remote_poll_failed",
                error_type=type(exc).__name__,
                message=str(exc),
                failures=self.remote_poll_failures,
            )
            return []
        if not isinstance(reply, dict):
            return []
        gap = int(reply.get("gap") or 0)
        if gap > 0:
            self.remote_gap_total += gap
            if self._bus.metrics is not None:
                self._bus.metrics.counter("obs.stream.dropped_total").inc(
                    gap, half="remote"
                )
            self._bus.publish(
                KIND_STREAM,
                "stream.cursor_gap",
                missed=gap,
                service=str(reply.get("service", "?")),
            )
        self._remote_cursor = int(reply.get("cursor") or self._remote_cursor)
        out: list[TelemetryEvent] = []
        for raw in reply.get("events", []):
            event = TelemetryEvent.from_wire(raw)
            if event is not None:
                out.append(event)
        return out

    def drain(self, max_events: int | None = None) -> list[TelemetryEvent]:
        """Everything new on both halves, merged in time order.

        The remote poll runs first so the synthetic ``stream.*`` events
        it publishes land in the local subscription polled right after.
        """
        remote = self._poll_remote()
        local = self._subscription.poll(max_events=max_events)
        merged = local + remote
        merged.sort(key=lambda e: (e.timestamp, e.service, e.seq))
        return merged

    def close(self) -> None:
        self._subscription.close()
        self._close_remote()

    def _close_remote(self) -> None:
        client = self._remote_client
        self._remote_client = None
        if client is not None:
            try:
                client.close()
            except Exception:  # noqa: BLE001
                pass

    def __enter__(self) -> "SessionStream":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
