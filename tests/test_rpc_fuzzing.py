"""Adversarial input on the control channel: the daemon must not die.

The control agent faces a facility network; a scanning host or a buggy
client will throw garbage at the Pyro port. These tests verify the
daemon survives malformed frames, remains serving for legitimate
clients, and never executes anything from a bad frame.
"""

import socket
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.rpc import Daemon, Proxy, expose, serialize_binary
from repro.rpc.protocol import HEADER, MAGIC, VERSION


@expose
class Counter:
    def __init__(self):
        self.calls = 0

    def bump(self):
        self.calls += 1
        return self.calls


@pytest.fixture
def served():
    service = Counter()
    daemon = Daemon()
    uri = daemon.register(service, object_id="C")
    daemon.start_background()
    yield service, daemon, uri
    daemon.shutdown()


def raw_send(daemon, payload: bytes) -> None:
    host, port = daemon.address
    with socket.create_connection((host, port), timeout=2.0) as sock:
        sock.sendall(payload)
        sock.settimeout(0.5)
        try:
            while sock.recv(4096):
                pass
        except (socket.timeout, OSError):
            pass


class TestGarbageFrames:
    def test_http_request_rejected(self, served):
        _service, daemon, uri = served
        raw_send(daemon, b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        with Proxy(uri) as proxy:
            assert proxy.bump() == 1  # daemon still serving

    def test_wrong_magic(self, served):
        _service, daemon, uri = served
        frame = HEADER.pack(b"EVIL", VERSION, 1, 0, 1, 4) + b"null"
        raw_send(daemon, frame)
        with Proxy(uri) as proxy:
            assert proxy.bump() >= 1

    def test_huge_declared_payload(self, served):
        _service, daemon, uri = served
        frame = HEADER.pack(MAGIC, VERSION, 1, 0, 1, 2**31 - 1)
        raw_send(daemon, frame)
        with Proxy(uri) as proxy:
            assert proxy.bump() >= 1

    def test_truncated_frame_then_disconnect(self, served):
        _service, daemon, uri = served
        frame = HEADER.pack(MAGIC, VERSION, 1, 0, 1, 100) + b"short"
        raw_send(daemon, frame)
        with Proxy(uri) as proxy:
            assert proxy.bump() >= 1

    def test_invalid_json_payload(self, served):
        _service, daemon, uri = served
        envelope = b"{definitely not json"
        body = struct.pack("!I", len(envelope)) + envelope
        frame = HEADER.pack(MAGIC, VERSION, 1, 0, 7, len(body)) + body
        raw_send(daemon, frame)
        with Proxy(uri) as proxy:
            assert proxy.bump() >= 1

    def test_request_for_dunder_never_executes(self, served):
        service, daemon, uri = served
        body = b"".join(
            serialize_binary(
                {"object": "C", "method": "__init__", "args": [], "kwargs": {}}
            )
        )
        frame = HEADER.pack(MAGIC, VERSION, 1, 0, 9, len(body)) + body
        raw_send(daemon, frame)
        with Proxy(uri) as proxy:
            first = proxy.bump()
        assert first >= 1  # and __init__ did not reset the counter below 1

    @given(st.binary(min_size=1, max_size=256))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_bytes_never_kill_the_daemon(self, served, blob):
        _service, daemon, uri = served
        raw_send(daemon, blob)
        with Proxy(uri) as proxy:
            assert proxy.bump() >= 1

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
        st.binary(max_size=64),
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_random_typed_frames(self, served, version, msg_type, body):
        _service, daemon, uri = served
        frame = HEADER.pack(MAGIC, version, msg_type, 0, 1, len(body)) + body
        raw_send(daemon, frame)
        with Proxy(uri) as proxy:
            assert proxy.bump() >= 1
