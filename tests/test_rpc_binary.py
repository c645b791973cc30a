"""Binary bulk framing (wire v2), the only RPC frame format.

Covers the PROTOCOLS §1.7 surface: the blob-hoisting codec, the framed
v2 payload, torn/oversized-frame handling (stable ``RPC_FRAME_CORRUPT``
code), and the retired inputs — a version-1 header or the reserved
message type 9 (the old HELLO handshake) — which both serving paths
(reactor over TCP, blocking reader over the sim network) answer with an
ERROR and a dropped connection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clock import VirtualClock
from repro.errors import (
    ConnectionClosedError,
    FrameCorruptError,
    ProtocolError,
    SerializationError,
)
from repro.net.links import LinkSpec
from repro.net.simtransport import SimNetwork
from repro.net.topology import Topology
from repro.rpc import (
    Daemon,
    Proxy,
    deserialize_binary,
    expose,
    serialize,
    serialize_binary,
)
from repro.rpc.protocol import (
    HEADER,
    MAGIC,
    MAX_PAYLOAD,
    VERSION,
    Message,
    MessageType,
    encode_message,
    parse_header,
    recv_message,
    request_body,
)
from repro.rpc.transport import connect_tcp


@expose
class BulkService:
    """Echo plus bulk producers."""

    def echo(self, value):
        return value

    def wave(self, n: int):
        return np.linspace(0.0, 1.0, n)

    def chunk(self, n: int) -> bytes:
        return b"\xa5" * n

    def table(self, n: int):
        return {
            "potential_v": np.linspace(0.2, 0.8, n),
            "current_a": np.linspace(-1e-6, 1e-6, n),
            "raw": b"header",
        }


def _serve_tcp():
    """A daemon on a TCP listener: the reactor path.

    Returns ``(daemon, uri, factory)`` like :func:`_serve_sim`; the
    factory is None because proxies dial TCP by default.
    """
    daemon = Daemon(host="127.0.0.1")
    uri = daemon.register(BulkService(), object_id="Bulk")
    daemon.start_background()
    return daemon, uri, None


def _serve_sim():
    """A daemon on the simulated network: no descriptor, blocking path.

    Returns ``(daemon, uri, factory)``; ``factory(host, port)`` dials
    from the client host.
    """
    topo = Topology(clock=VirtualClock())
    topo.add_facility("ACL")
    topo.add_host("agent", "ACL")
    topo.add_host("dgx", "ACL")
    topo.add_network("hub", "ACL")
    for host in ("agent", "dgx"):
        topo.attach(host, "hub", LinkSpec())
    topo.host("agent").firewall.allow_port(9000)
    net = SimNetwork(topo)
    daemon = Daemon(listener=net.listen("agent", 9000))
    uri = daemon.register(BulkService(), object_id="Bulk")
    daemon.start_background()
    return daemon, uri, net.connection_factory("dgx")


@pytest.fixture()
def reactor_daemon():
    daemon, uri, _ = _serve_tcp()
    yield daemon, uri
    daemon.shutdown()


class TestBinaryCodec:
    def test_round_trip_nested_bulk(self):
        original = {
            "trace": np.arange(1000, dtype=np.float64),
            "meta": {"file": b"cv-001.mpt", "cycles": 3},
            "tags": ("a", b"b"),
        }
        decoded = deserialize_binary(b"".join(serialize_binary(original)))
        np.testing.assert_array_equal(decoded["trace"], original["trace"])
        assert decoded["meta"] == {"file": b"cv-001.mpt", "cycles": 3}
        assert decoded["tags"] == ("a", b"b")

    def test_dtype_shape_and_writability_preserved(self):
        original = np.arange(12, dtype=np.float32).reshape(3, 4)
        decoded = deserialize_binary(b"".join(serialize_binary(original)))
        assert decoded.dtype == np.float32
        assert decoded.shape == (3, 4)
        decoded[0, 0] = 42.0  # the decode must not alias the read buffer

    def test_empty_array_and_empty_bytes(self):
        decoded = deserialize_binary(
            b"".join(serialize_binary({"a": np.array([]), "b": b""}))
        )
        assert decoded["a"].size == 0
        assert decoded["b"] == b""

    def test_binary_beats_json_on_bulk(self):
        payload = {"trace": np.linspace(0, 1, 100_000)}
        binary_size = sum(len(p) for p in serialize_binary(payload))
        json_size = len(serialize(payload))
        assert binary_size < json_size

    def test_torn_frame_maps_to_stable_code(self):
        data = b"".join(serialize_binary({"x": np.arange(64.0)}))
        for cut in (2, 5, len(data) // 2, len(data) - 1):
            with pytest.raises(FrameCorruptError) as info:
                deserialize_binary(data[:cut])
            assert info.value.code == "RPC_FRAME_CORRUPT"

    def test_trailing_garbage_rejected(self):
        data = b"".join(serialize_binary({"x": b"abc"}))
        with pytest.raises(FrameCorruptError):
            deserialize_binary(data + b"\x00")

    def test_bad_envelope_json_is_serialization_error(self):
        import struct

        bogus = b"not json at all"
        data = struct.pack("!I", len(bogus)) + bogus
        with pytest.raises(SerializationError):
            deserialize_binary(data)


class TestBinaryFrames:
    def test_v2_message_round_trips(self):
        msg = Message(MessageType.RESPONSE, 7, {"result": np.arange(10.0)})
        raw = encode_message(msg)
        assert raw[4] == VERSION == 2
        msg_type, flags, seq, length = parse_header(raw[:16])
        assert (msg_type, seq) == (MessageType.RESPONSE, 7)
        assert length == len(raw) - 16
        body = deserialize_binary(raw[16:])
        np.testing.assert_array_equal(body["result"], np.arange(10.0))

    def test_oversized_header_is_frame_corrupt(self):
        header = HEADER.pack(
            MAGIC, VERSION, int(MessageType.REQUEST), 0, 1, MAX_PAYLOAD + 1
        )
        with pytest.raises(FrameCorruptError) as info:
            parse_header(header)
        assert info.value.code == "RPC_FRAME_CORRUPT"

    def test_bad_magic_is_protocol_error(self):
        header = HEADER.pack(
            b"NOPE", VERSION, int(MessageType.REQUEST), 0, 1, 0
        )
        with pytest.raises(ProtocolError):
            parse_header(header)


class TestBinaryWire:
    def test_reactor_daemon_serves_bulk(self, reactor_daemon):
        daemon, uri = reactor_daemon
        with Proxy(uri) as proxy:
            trace = proxy.wave(5000)
            assert trace.shape == (5000,)
            assert daemon.serving_mode == "reactor"

    def test_reconnect_keeps_working(self, reactor_daemon):
        _, uri = reactor_daemon
        with Proxy(uri) as proxy:
            assert proxy.echo(1) == 1
            proxy.close()  # drop the connection, keep the proxy
            assert proxy.echo(2) == 2

    def test_bulk_payloads_identical_across_serving_paths(self, reactor_daemon):
        _, tcp_uri = reactor_daemon
        sim_daemon, sim_uri, factory = _serve_sim()
        try:
            with Proxy(tcp_uri) as fast, Proxy(
                sim_uri, connection_factory=factory
            ) as blocking:
                a, b = fast.table(256), blocking.table(256)
        finally:
            sim_daemon.shutdown()
        np.testing.assert_array_equal(a["potential_v"], b["potential_v"])
        np.testing.assert_array_equal(a["current_a"], b["current_a"])
        assert a["raw"] == b["raw"] == b"header"

    def test_pipelined_bulk_reads_over_binary(self, reactor_daemon):
        _, uri = reactor_daemon
        with Proxy(uri, max_inflight=8) as proxy:
            with proxy.pipeline() as pipe:
                pending = [pipe.call("chunk", 4096) for _ in range(16)]
                chunks = [p.result() for p in pending]
        assert all(c == b"\xa5" * 4096 for c in chunks)


def _frame(version: int, msg_type: int, payload: bytes) -> bytes:
    return HEADER.pack(MAGIC, version, msg_type, 0, 1, len(payload)) + payload


_REQUEST = int(MessageType.REQUEST)
# (frame, expected ERROR code, expected message fragment)
_BAD_FRAMES = [
    # header declares an absurd payload length: unrecoverable
    (
        HEADER.pack(MAGIC, VERSION, _REQUEST, 0, 1, MAX_PAYLOAD + 1),
        "RPC_FRAME_CORRUPT",
        "exceeds MAX_PAYLOAD",
    ),
    # a retired JSON-only (wire v1) request
    (
        _frame(1, _REQUEST, serialize(request_body("Bulk", "echo", (1,), {}))),
        "RPC_PROTOCOL",
        "unsupported protocol version 1",
    ),
    # the retired HELLO handshake: type 9 is reserved
    (
        _frame(VERSION, 9, b"".join(serialize_binary({"max_version": 2}))),
        "RPC_PROTOCOL",
        "unknown message type 9",
    ),
]


def _error_then_drop(daemon, factory, frame: bytes) -> dict:
    """Send one bad frame; the daemon must answer ERROR, then hang up."""
    conn = (factory or connect_tcp)(*daemon.address)
    conn.settimeout(5.0)
    try:
        conn.sendall(frame)
        reply = recv_message(conn)
        assert reply.msg_type == MessageType.ERROR
        with pytest.raises(ConnectionClosedError):
            conn.recv_exactly(1)
        return reply.body
    finally:
        conn.close()


class TestCorruptFramesOverTheWire:
    def test_daemon_replies_frame_corrupt_then_closes(self):
        # every bad frame, over the reactor (tcp) and the blocking (sim)
        # serving path alike
        for serve, mode in ((_serve_tcp, "reactor"), (_serve_sim, "threaded")):
            daemon, uri, factory = serve()
            try:
                assert daemon.serving_mode == mode
                for frame, code, fragment in _BAD_FRAMES:
                    body = _error_then_drop(daemon, factory, frame)
                    assert body.get("code") == code, (mode, body)
                    assert fragment in body.get("message", ""), (mode, body)
                assert daemon.call_count == 0
                # only the offending connections were dropped
                with Proxy(uri, connection_factory=factory) as proxy:
                    assert proxy.echo(2) == 2
            finally:
                daemon.shutdown()

    def test_client_surfaces_frame_corrupt_code(self):
        from repro.errors import code_table

        assert code_table()["RPC_FRAME_CORRUPT"] is FrameCorruptError
