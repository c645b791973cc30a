"""The client side of the remote-object layer (paper Fig 3, client side).

A :class:`Proxy` dials the daemon named by a ``PYRO:`` URI and forwards
attribute calls::

    with Proxy("PYRO:ACL_Workstation@10.2.11.161:9690") as ws:
        ws.call_Initialize_SP200_API(params)

One proxy holds one connection and may be shared across threads. Remote
exceptions re-raise locally: known :mod:`repro.errors` classes keep
their type, anything else becomes :class:`RemoteInvocationError`
carrying the remote traceback.

Every call takes one exchange path (``docs/PROTOCOLS.md`` §1.4): its
REQUEST frame goes out inside an in-flight window of ``max_inflight``
frames, and replies are demultiplexed by sequence id through a shared
waiter map. ``max_inflight=1`` (the default) is a window of one — one
call on the wire at a time, the Pyro4 contract. Above 1 the proxy
pipelines: N calls cost one round trip plus N executions instead of N
round trips. Threads sharing the proxy overlap automatically; a single
thread can burst explicitly through :meth:`Proxy.pipeline`, whose calls
are the same calls with the reply collected later. Callers that want
truly independent connections instead of a multiplexed one use
:class:`ProxyPool`.
"""

from __future__ import annotations

import copy
import itertools
import threading
import uuid
from typing import Any, Callable

import repro.errors as _errors_module
from repro.errors import (
    CommunicationError,
    ConnectionClosedError,
    ProtocolError,
    RemoteInvocationError,
    ReproError,
)
from repro.rpc.context import current_tenant
from repro.rpc.naming import PyroURI, parse_uri
from repro.rpc.protocol import (
    FLAG_ONEWAY,
    Message,
    MessageType,
    encode_message,
    recv_message,
    request_body,
    send_message,
)
from repro.rpc.transport import Connection, connect_tcp


def _rebuild_remote_error(body: dict) -> Exception:
    """Map an ERROR frame body to the most faithful local exception."""
    error_type = body.get("error_type", "Exception")
    message = body.get("message", "")
    traceback_text = body.get("traceback", "")
    remote_code = body.get("code", "")
    candidate = getattr(_errors_module, error_type, None)
    if (
        isinstance(candidate, type)
        and issubclass(candidate, ReproError)
        and candidate.__init__ in (ReproError.__init__, Exception.__init__)
    ):
        return candidate(message)
    return RemoteInvocationError(
        f"remote call raised {error_type}: {message}",
        remote_type=error_type,
        remote_traceback=traceback_text,
        remote_code=remote_code if isinstance(remote_code, str) else "",
    )


def _clone_transport_error(exc: Exception) -> Exception:
    """A per-waiter copy of a shared failure.

    Every call in flight when the connection dies must raise, but raising
    one exception object from several threads races on its traceback;
    each waiter gets its own instance instead.
    """
    try:
        clone = type(exc)(str(exc))
    except Exception:  # noqa: BLE001 - exotic signature; fall back
        clone = CommunicationError(str(exc))
    clone.__cause__ = exc
    return clone


class _PendingSlot:
    """One frame in the in-flight window: the connection it went out on,
    then its reply or transport error, plus its wire bytes."""

    __slots__ = ("conn", "reply", "error", "bytes_sent", "bytes_received")

    def __init__(self) -> None:
        self.conn: Connection | None = None
        self.reply: Message | None = None
        self.error: Exception | None = None
        self.bytes_sent = 0
        self.bytes_received = 0

    @property
    def resolved(self) -> bool:
        return self.reply is not None or self.error is not None


# what a ONEWAY frame resolves to once sent: no reply ever comes back
_NO_REPLY = Message(MessageType.RESPONSE, 0, None)


class _RemoteMethod:
    """Callable bound to one remote method name."""

    def __init__(self, proxy: "Proxy", name: str):
        self._proxy = proxy
        self._name = name

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        return self._proxy._call(self._name, args, kwargs)

    def oneway(self, *args: Any, **kwargs: Any) -> None:
        """Fire-and-forget variant: no reply is awaited."""
        self._proxy._call(self._name, args, kwargs, oneway=True)


class Proxy:
    """Client handle to one remote object.

    Args:
        uri: ``PYRO:ObjectId@host:port`` string or :class:`PyroURI`.
        timeout: per-call deadline in seconds (None = block).
        connection_factory: override how the byte stream is opened — the
            simulated network passes its own dialer here.
        secret: shared secret for daemons that require the HMAC
            challenge-response handshake.
        tracer: optional :class:`repro.obs.Tracer`; when set, every call
            runs inside an ``rpc.call.<method>`` span and its context is
            carried in the REQUEST ``trace`` field so the daemon's
            dispatch span parents under it. None = zero overhead.
        metrics: optional :class:`repro.obs.MetricsRegistry` receiving
            per-call counters, latency histograms, byte counts and the
            ``rpc.client.inflight`` gauge.
        max_inflight: in-flight REQUEST window. 1 (default) is a window
            of one: one call on the wire at a time, and threads sharing
            the proxy queue for it. Above 1 the proxy pipelines —
            concurrent threads overlap their round trips on the one
            connection, and :meth:`pipeline` becomes available for
            single-threaded bursts.
    """

    def __init__(
        self,
        uri: str | PyroURI,
        timeout: float | None = 10.0,
        connection_factory: Callable[[str, int], Connection] | None = None,
        secret: bytes | None = None,
        tracer: Any = None,
        metrics: Any = None,
        max_inflight: int = 1,
        tenant: str | None = None,
    ):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self._uri = parse_uri(uri)
        self._timeout = timeout
        self._secret = secret
        self._connect_fn = connection_factory or (
            lambda host, port: connect_tcp(host, port, timeout=timeout)
        )
        self._conn: Connection | None = None
        self._seq = 0
        self._lock = threading.RLock()
        self._metadata: dict[str, Any] | None = None
        self.tracer = tracer
        self.metrics = metrics
        # optional fencing token: when set, every REQUEST carries it and
        # a lease-aware daemon rejects stale epochs with LEASE_FENCED
        self.lease: dict[str, Any] | None = None
        # optional tenant id (PROTOCOLS §1.8): when set, every REQUEST
        # carries it and a gateway-aware daemon scopes the dispatch to
        # that tenant's session; when unset, the envelope falls back to
        # the tenant bound on the calling context (if any), so daemon-
        # side metrics stay attributed across the wire
        self.tenant: str | None = tenant
        # exchange state: a waiter map keyed by sequence id plus a
        # "become the reader" condition — at most one thread blocks in
        # recv at a time, depositing replies for everyone else
        self._max_inflight = int(max_inflight)
        self._send_lock = threading.Lock()
        self._demux = threading.Condition(threading.Lock())
        self._pending: dict[int, _PendingSlot] = {}
        self._reader_busy = False
        self._inflight_frames = 0

    # -- connection management ----------------------------------------------
    @property
    def uri(self) -> PyroURI:
        return self._uri

    @property
    def connected(self) -> bool:
        return self._conn is not None

    @property
    def max_inflight(self) -> int:
        """Size of the in-flight REQUEST window (1 = no pipelining)."""
        return self._max_inflight

    def _ensure_connected(self) -> Connection:
        if self._conn is None:
            conn = self._connect_fn(self._uri.host, self._uri.port)
            conn.settimeout(self._timeout)
            if self._secret is not None:
                self._answer_challenge(conn)
            self._conn = conn
        return self._conn

    def _answer_challenge(self, conn: Connection) -> None:
        """Complete the daemon's HMAC handshake before first use."""
        import hashlib
        import hmac

        from repro.errors import AuthenticationError

        challenge = recv_message(conn)
        if challenge.msg_type is not MessageType.CHALLENGE or not isinstance(
            challenge.body, dict
        ):
            conn.close()
            raise AuthenticationError(
                "server did not issue an authentication challenge "
                "(secret configured on an unauthenticated daemon?)"
            )
        nonce = bytes.fromhex(challenge.body.get("nonce", ""))
        digest = hmac.new(self._secret or b"", nonce, hashlib.sha256).hexdigest()
        send_message(
            conn, Message(MessageType.AUTH, challenge.seq, {"hmac": digest})
        )
        reply = recv_message(conn)
        if reply.msg_type is MessageType.ERROR:
            conn.close()
            raise AuthenticationError(
                reply.body.get("message", "authentication rejected")
                if isinstance(reply.body, dict)
                else "authentication rejected"
            )

    def _effective_tenant(self) -> "str | None":
        """The tenant stamped on outgoing REQUESTs: the explicit proxy
        attribute when set, else whatever is bound on the calling
        context — attribution follows the call across the wire."""
        return self.tenant if self.tenant is not None else current_tenant()

    def close(self) -> None:
        """Drop the connection; the proxy reconnects lazily if reused.

        Does not wait for calls in flight: they fail with
        :class:`ConnectionClosedError`.
        """
        with self._lock:
            self._metadata = None
            if self._conn is not None:
                self._drop(self._conn, ConnectionClosedError("proxy closed"))

    def _drop(self, conn: Connection, exc: Exception) -> None:
        """Retire ``conn``, whose stream state is undefined after ``exc``.

        Detaches it (the next call redials), closes it, and fails every
        call still waiting on it with its own copy of ``exc``. Calls
        already on a newer connection are untouched. All under the
        connection lock, so no thread dials a new connection while the
        window still counts frames of the dead one.
        """
        with self._lock:
            if self._conn is conn:
                self._conn = None
                self._metadata = None
            conn.close()
            with self._demux:
                for seq in [s for s, slot in self._pending.items() if slot.conn is conn]:
                    self._pending.pop(seq).error = _clone_transport_error(exc)
                    self._release_frame()
                self._demux.notify_all()

    def __enter__(self) -> "Proxy":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the exchange ----------------------------------------------------------
    def _next_seq(self) -> int:
        self._seq = (self._seq + 1) & 0xFFFFFFFF
        return self._seq

    def _inflight_gauge(self):
        return self.metrics.gauge(
            "rpc.client.inflight", "REQUEST frames awaiting their reply"
        )

    def _claim_window(self, conn: Connection, seq: int, slot: _PendingSlot) -> bool:
        """Pump predicate (demux lock held): put ``slot`` in flight as
        ``seq`` once the window has room. Gives up without claiming if
        ``conn`` was retired meanwhile, so no frame goes out on it."""
        if self._conn is not conn:
            return True
        if self._inflight_frames >= self._max_inflight:
            return False
        self._inflight_frames += 1
        if self.metrics is not None:
            self._inflight_gauge().inc()
        slot.conn = conn
        self._pending[seq] = slot
        return True

    def _release_frame(self) -> None:
        """Free one window slot (demux lock held)."""
        self._inflight_frames -= 1
        if self.metrics is not None:
            self._inflight_gauge().dec()

    def _pump(self, conn: Connection | None, done: Callable[[], bool]) -> None:
        """Drive the shared reader of ``conn`` until ``done()`` holds.

        ``done`` is evaluated with the demux lock held, so it may claim
        state atomically (the window claim does). No background thread:
        at most one waiting thread sits in ``recv`` at a time, depositing
        each reply into the waiter map by sequence id and waking everyone.
        """
        cond = self._demux
        with cond:
            while not done():
                if self._reader_busy:
                    cond.wait()
                    continue
                self._reader_busy = True
                cond.release()
                try:
                    self._read_one(conn)
                finally:
                    cond.acquire()
                    self._reader_busy = False
                    cond.notify_all()

    def _read_one(self, conn: Connection) -> None:
        """Read one reply and hand it to its waiter. Any transport or
        framing error (short read, bad header, unknown ``seq``) retires
        ``conn`` — while this thread still holds the reader role, so
        nobody else reads the dying stream."""
        try:
            recv0 = getattr(conn, "bytes_received", 0)
            msg = recv_message(conn)
            with self._demux:
                slot = self._pending.pop(msg.seq, None)
                if slot is not None:
                    slot.bytes_received = getattr(conn, "bytes_received", 0) - recv0
                    slot.reply = msg
                    self._release_frame()
                    return
            raise ProtocolError(
                f"reply sequence {msg.seq} matches no in-flight request"
            )
        except Exception as exc:  # noqa: BLE001 - fails the stream
            self._drop(conn, exc)

    def _submit(
        self, msg_type: MessageType, body: Any, flags: int = 0
    ) -> _PendingSlot:
        """Send one frame inside the in-flight window.

        Returns its waiter-map slot, which resolves when the reply lands
        (a ONEWAY frame's resolves once sent: it never takes a slot).
        """
        oneway = bool(flags & FLAG_ONEWAY)
        slot = _PendingSlot()
        while True:
            with self._lock:
                conn = self._ensure_connected()
                seq = self._next_seq()
            # encode before claiming a window slot: a serialisation error
            # must surface to this caller alone, not fail the stream
            payload = encode_message(Message(msg_type, seq, body, flags=flags))
            if oneway:
                break
            # claiming may have to drain replies first — that is the
            # backpressure that bounds the window without a second thread
            self._pump(conn, lambda: self._claim_window(conn, seq, slot))  # noqa: B023
            if slot.conn is conn:
                break
            # conn died while this frame queued for the window; the frame
            # was never sent, so it goes out on a fresh connection instead
        try:
            with self._send_lock:
                sent0 = getattr(conn, "bytes_sent", 0)
                conn.sendall(payload)
                slot.bytes_sent = getattr(conn, "bytes_sent", 0) - sent0
        except Exception as exc:  # noqa: BLE001 - a half-sent frame kills
            # the stream: every call in flight on it fails
            self._drop(conn, exc)
            raise
        if oneway:
            slot.reply = _NO_REPLY
        return slot

    def _await(self, slot: _PendingSlot) -> Message:
        """Block until ``slot`` resolves; its reply, or its transport error."""
        self._pump(slot.conn, lambda: slot.resolved)
        if slot.error is not None:
            raise slot.error
        return slot.reply

    @staticmethod
    def _process_reply(reply: Message) -> Any:
        """Unpack a REQUEST's reply frame into a return value or raise."""
        if reply.msg_type == MessageType.ERROR:
            raise _rebuild_remote_error(reply.body)
        if reply.msg_type != MessageType.RESPONSE:
            raise ProtocolError(f"unexpected reply type {reply.msg_type}")
        if isinstance(reply.body, dict) and "result" in reply.body:
            return reply.body["result"]
        return reply.body

    # -- calls -----------------------------------------------------------------
    def _start_call(
        self,
        method: str,
        args: tuple,
        kwargs: dict,
        oneway: bool = False,
        idempotency_key: str | None = None,
        pipelined: bool = False,
    ) -> "PendingReply":
        """Issue one REQUEST: open its ``rpc.call.<method>`` span, build
        its body and send it; the returned handle collects the reply.

        A plain call's span is made current, since it lasts exactly as
        long as the call; a pipelined one's is not, so every call of a
        burst parents under the span current at issue time.
        """
        tracer = self.tracer
        tenant = self._effective_tenant()
        span = None
        if tracer is not None:
            attributes = {"rpc.method": method, "rpc.object": self._uri.object_id}
            if pipelined:
                attributes["rpc.pipelined"] = True
                span = tracer.start_span(f"rpc.call.{method}", attributes=attributes)
            else:
                span = tracer.start_as_current_span(
                    f"rpc.call.{method}", attributes=attributes
                )
            if tenant is not None:
                # stamp the tenant on the span so the trace index and tail
                # sampler can attribute the whole trace to its owner
                span.set_attribute("tenant", tenant)
        pending = PendingReply(self, method, span)
        try:
            body = request_body(
                self._uri.object_id,
                method,
                args,
                kwargs,
                idempotency_key=idempotency_key,
                trace_context=span.context.to_wire() if span is not None else None,
                lease=self.lease,
                tenant=tenant,
            )
            pending._slot = self._submit(
                MessageType.REQUEST, body, FLAG_ONEWAY if oneway else 0
            )
        except Exception as exc:
            pending._finish(exc)
            raise
        return pending

    def _call(
        self,
        method: str,
        args: tuple,
        kwargs: dict,
        oneway: bool = False,
        idempotency_key: str | None = None,
    ) -> Any:
        return self._start_call(method, args, kwargs, oneway, idempotency_key).result()

    def call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Invoke a remote method by name: ``proxy.call("Start", ch=1)``.

        The explicit spelling of ``proxy.Start(ch=1)`` — it reads the
        same on :class:`Proxy`, :class:`ProxyPool` and the resilient
        wrapper, which is what lets orchestration code swap one for
        another without touching call sites.
        """
        return self._call(method, args, kwargs)

    def pipeline(self, idempotent: bool = False) -> "Pipeline":
        """Explicit burst issuance over this proxy's connection.

        Requires ``max_inflight > 1``. With ``idempotent=True`` every
        call carries a fresh idempotency key, so re-issuing a burst after
        a transport failure replays completed calls instead of
        re-executing them (PROTOCOLS §1.1).
        """
        if self._max_inflight < 2:
            raise ValueError(
                "pipeline() needs a proxy built with max_inflight > 1"
            )
        return Pipeline(self, idempotent=idempotent)

    def _pyro_ping(self) -> None:
        """Liveness probe (task A of the paper's workflow uses this).

        Named with the underscore prefix (Pyro4's ``_pyroBind`` convention)
        so it can never shadow a remote method called ``ping``.
        """
        reply = self._await(self._submit(MessageType.PING, None))
        if reply.msg_type != MessageType.PONG:
            raise ProtocolError(f"expected PONG, got {reply.msg_type}")

    def _pyro_metadata(self) -> dict[str, Any]:
        """Exposed-method metadata from the daemon (cached).

        Returns a copy: mutating the result must not poison the cache
        for later callers.
        """
        cached = self._metadata
        if cached is None:
            reply = self._await(
                self._submit(MessageType.METADATA, {"object": self._uri.object_id})
            )
            if reply.msg_type == MessageType.ERROR:
                raise _rebuild_remote_error(reply.body)
            cached = self._metadata = reply.body
        return copy.deepcopy(cached)

    def __getattr__(self, name: str) -> _RemoteMethod:
        if name.startswith("_"):
            raise AttributeError(name)
        return _RemoteMethod(self, name)


class PendingReply:
    """Handle to one issued call.

    Every call is one of these: a plain call collects its handle at
    once, a :class:`Pipeline` call hands it to the caller. :meth:`result`
    blocks until the correlated reply arrives (driving the shared reader
    if nobody else is) and returns the remote value or raises the
    remote/transport error. Resolution is cached: ``result`` can be
    called repeatedly.

    Resolving is also where a client call is metered, once: the calls
    counter, the latency histogram with its trace-id exemplar and the
    per-method byte counters are written, then the span ends.
    """

    __slots__ = (
        "_proxy",
        "_slot",
        "_method",
        "_span",
        "_trace_id",
        "_start",
        "_resolved",
        "_value",
        "_error",
    )

    def __init__(self, proxy: Proxy, method: str, span: Any = None):
        self._proxy = proxy
        self._slot: _PendingSlot | None = None
        self._method = method
        self._span = span
        # the span is released on end; keep its trace id for the
        # latency exemplar
        self._trace_id = span.trace_id if span is not None else None
        self._start = proxy.tracer.clock.now() if proxy.tracer is not None else None
        self._resolved = False
        self._value: Any = None
        self._error: Exception | None = None

    @property
    def done(self) -> bool:
        """True when the reply has landed (``result`` will not block)."""
        return self._resolved or self._slot.resolved

    def result(self) -> Any:
        """The remote return value; raises what the call raised."""
        if not self._resolved:
            proxy = self._proxy
            try:
                self._value = proxy._process_reply(proxy._await(self._slot))
            except Exception as exc:
                self._finish(exc)
            else:
                self._finish(None)
        if self._error is not None:
            raise self._error
        return self._value

    def _finish(self, error: Exception | None) -> None:
        """Resolve the call: record its metrics, then end its span."""
        self._resolved = True
        self._error = error
        proxy = self._proxy
        metrics = proxy.metrics
        if metrics is not None:
            method = self._method
            metrics.counter(
                "rpc.client.calls_total", "RPC calls issued by this client"
            ).inc(method=method, status="ok" if error is None else "error")
            if self._start is not None:
                metrics.histogram(
                    "rpc.client.call_latency_s", "client-observed RPC latency"
                ).observe(
                    proxy.tracer.clock.now() - self._start,
                    exemplar=self._trace_id,
                    method=method,
                )
            slot = self._slot
            if slot is not None and slot.bytes_sent:
                metrics.counter(
                    "rpc.client.bytes_sent_total", "request bytes on the wire"
                ).inc(slot.bytes_sent, method=method)
            if slot is not None and slot.bytes_received:
                metrics.counter(
                    "rpc.client.bytes_received_total", "response bytes on the wire"
                ).inc(slot.bytes_received, method=method)
        span = self._span
        if span is not None:
            self._span = None
            if error is not None:
                span.record_exception(error)
            span.end("ERROR" if error is not None else None)


class Pipeline:
    """Futures-style burst issuance over one pipelined proxy.

    ::

        with proxy.pipeline() as pipe:
            pending = [pipe.call("read_chunk", path, off) for off in offsets]
            chunks = [p.result() for p in pending]

    :meth:`call` returns immediately with a :class:`PendingReply` while
    the REQUEST frame is already on the wire; when ``max_inflight``
    frames are outstanding it drains replies while waiting for a window
    slot, so a single thread can issue an arbitrarily long burst without
    deadlocking. Exiting the context collects every uncollected reply
    (the first error propagates, unless the block is already unwinding
    on an exception).

    Each call gets its own ``rpc.call.<method>`` span (parented under
    the span current at issue time, not at collection time) and, with
    ``idempotent=True``, its own idempotency key.
    """

    def __init__(self, proxy: Proxy, idempotent: bool = False):
        self._proxy = proxy
        self._idempotent = idempotent
        self._key_prefix = uuid.uuid4().hex
        self._key_seq = itertools.count()
        self._issued: list[PendingReply] = []

    def call(
        self,
        method: str,
        *args: Any,
        _idempotency_key: str | None = None,
        **kwargs: Any,
    ) -> PendingReply:
        """Send one call; the reply is collected via the returned handle."""
        key = _idempotency_key
        if key is None and self._idempotent:
            key = f"{self._key_prefix}:{next(self._key_seq)}"
        pending = self._proxy._start_call(
            method, args, kwargs, idempotency_key=key, pipelined=True
        )
        self._issued.append(pending)
        return pending

    def drain(self) -> None:
        """Collect every not-yet-collected reply.

        Raises the first error among them; errors already delivered to
        the caller through :meth:`PendingReply.result` are theirs to
        handle and are not raised again here.
        """
        first_error: Exception | None = None
        for pending in self._issued:
            if pending._resolved:
                continue
            try:
                pending.result()
            except Exception as exc:  # noqa: BLE001 - surfaced below
                if first_error is None:
                    first_error = exc
        self._issued.clear()
        if first_error is not None:
            raise first_error

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.drain()
        except Exception:  # noqa: BLE001
            # already unwinding: every reply was still collected, so none
            # is left orphaned in the waiter map, but the original error wins
            if exc is None:
                raise


class ProxyPool:
    """A small pool of independent connections to one endpoint.

    Pipelining multiplexes one connection; a pool hands out *separate*
    connections, so concurrent callers (fleet-campaign threads, parallel
    fetch loops) never share a byte stream at all. Members are created
    lazily up to ``size`` and reused; :meth:`acquire` blocks while all
    are checked out.

    Resilience threads through per the PR-1 layer: pass ``retry_policy``
    (and optionally ``breaker``) and every member is wrapped in a
    :class:`~repro.resilience.ResilientProxy` — with **one** circuit
    breaker shared pool-wide, because the endpoint's health is a
    property of the endpoint, not of whichever pooled connection
    observed the failure.

    Args:
        uri: ``PYRO:`` URI every member dials.
        size: maximum concurrent connections.
        timeout / connection_factory / secret / tracer / metrics /
            max_inflight: forwarded to each member :class:`Proxy`.
        retry_policy: wrap members in ResilientProxy with this policy.
        breaker: shared breaker; default-constructed when a
            ``retry_policy`` is given without one.
        proxy_factory: full override — zero-arg callable building one
            member (the ICE uses this to inject its simulated dialer).
    """

    def __init__(
        self,
        uri: str | PyroURI,
        size: int = 4,
        *,
        timeout: float | None = 10.0,
        connection_factory: Callable[[str, int], Connection] | None = None,
        secret: bytes | None = None,
        tracer: Any = None,
        metrics: Any = None,
        max_inflight: int = 1,
        retry_policy: Any = None,
        breaker: Any = None,
        proxy_factory: Callable[[], Any] | None = None,
    ):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self._uri = parse_uri(uri)
        self.size = size
        self._timeout = timeout
        self._connection_factory = connection_factory
        self._secret = secret
        self.tracer = tracer
        self.metrics = metrics
        self._max_inflight = max_inflight
        self._retry_policy = retry_policy
        if retry_policy is not None and breaker is None:
            from repro.resilience.policy import CircuitBreaker

            breaker = CircuitBreaker(metrics=metrics, name=str(self._uri))
        self._breaker = breaker
        self._proxy_factory = proxy_factory
        self._cond = threading.Condition(threading.Lock())
        self._idle: list[Any] = []
        self._created = 0
        self._closed = False

    @property
    def breaker(self) -> Any:
        """The endpoint's shared circuit breaker (None when unwrapped)."""
        return self._breaker

    @property
    def in_use(self) -> int:
        with self._cond:
            return self._created - len(self._idle)

    def _make_member(self) -> Any:
        if self._proxy_factory is not None:
            proxy = self._proxy_factory()
        else:
            proxy = Proxy(
                self._uri,
                timeout=self._timeout,
                connection_factory=self._connection_factory,
                secret=self._secret,
                tracer=self.tracer,
                metrics=self.metrics,
                max_inflight=self._max_inflight,
            )
        if self._retry_policy is not None or self._breaker is not None:
            from repro.resilience.proxy import ResilientProxy

            proxy = ResilientProxy(
                proxy,
                policy=self._retry_policy,
                breaker=self._breaker,
                tracer=self.tracer,
                metrics=self.metrics,
            )
        return proxy

    def _checkout(self, timeout: float | None = None) -> Any:
        with self._cond:
            while True:
                if self._closed:
                    raise CommunicationError("proxy pool is closed")
                if self._idle:
                    return self._idle.pop()
                if self._created < self.size:
                    self._created += 1
                    break
                if not self._cond.wait(timeout):
                    raise _errors_module.CallTimeoutError(
                        f"no pooled connection to {self._uri} became free "
                        f"within {timeout}s"
                    )
        try:
            return self._make_member()
        except BaseException:
            with self._cond:
                self._created -= 1
                self._cond.notify()
            raise

    def _checkin(self, proxy: Any) -> None:
        with self._cond:
            if not self._closed:
                self._idle.append(proxy)
                self._cond.notify()
                return
        proxy.close()

    class _Lease:
        """Context manager pairing one checkout with its checkin."""

        __slots__ = ("_pool", "_proxy")

        def __init__(self, pool: "ProxyPool", proxy: Any):
            self._pool = pool
            self._proxy = proxy

        def __enter__(self) -> Any:
            return self._proxy

        def __exit__(self, *exc_info: object) -> None:
            self._pool._checkin(self._proxy)

    def acquire(self, timeout: float | None = None) -> "ProxyPool._Lease":
        """Check a member out; use as a context manager to return it."""
        return ProxyPool._Lease(self, self._checkout(timeout))

    def call(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """One call on whichever member is free first."""
        with self.acquire() as proxy:
            return getattr(proxy, method)(*args, **kwargs)

    class _PooledPipeline:
        """A member checkout wrapping one :class:`Pipeline` burst.

        ``with pool.pipeline() as pipe:`` checks a member out, runs the
        burst on its (pipelined) connection, and returns the member on
        exit — the pool analogue of ``with proxy.pipeline() as pipe:``.
        """

        __slots__ = ("_lease", "_pipe")

        def __init__(self, lease: "ProxyPool._Lease", pipe: "Pipeline"):
            self._lease = lease
            self._pipe = pipe

        def __enter__(self) -> "Pipeline":
            return self._pipe.__enter__()

        def __exit__(self, exc_type, exc, tb) -> None:
            try:
                self._pipe.__exit__(exc_type, exc, tb)
            finally:
                self._lease.__exit__(exc_type, exc, tb)

    def pipeline(self, idempotent: bool = False) -> "ProxyPool._PooledPipeline":
        """Burst issuance on a checked-out member (context manager).

        Requires the pool's members to be built with ``max_inflight > 1``.
        Resilient members are unwrapped to their underlying proxy: a
        pipelined burst manages its own failure semantics (idempotent
        re-issue), so per-call retries inside the burst would double up.
        """
        lease = self.acquire()
        member = lease.__enter__()
        try:
            inner = member if isinstance(member, Proxy) else getattr(
                member, "_proxy", member
            )
            pipe = inner.pipeline(idempotent=idempotent)
        except BaseException:
            lease.__exit__(None, None, None)
            raise
        return ProxyPool._PooledPipeline(lease, pipe)

    def close(self) -> None:
        """Close every idle member and refuse further checkouts.

        Members currently checked out are closed when checked back in.
        """
        with self._cond:
            self._closed = True
            idle, self._idle = self._idle, []
            self._cond.notify_all()
        for proxy in idle:
            proxy.close()

    def __enter__(self) -> "ProxyPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __len__(self) -> int:
        with self._cond:
            return self._created
