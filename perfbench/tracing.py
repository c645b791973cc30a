"""Span recording around the program's layer entry points.

The traced run wraps public entry points of each ``src/repro/<layer>``
package from here, without editing the program. A wrapper passes its
arguments and result through unchanged and records one span: layer,
name, start, end, parent span and op id. Spans stay in memory, one list
per thread, and are aggregated when the run ends.

Parents across threads. The whole ecosystem runs in one process, so
daemon-side work (instrument verbs, journal appends) runs on daemon
threads while the caller blocks in an RPC call, and the CV solve runs on
the potentiostat's acquisition thread, started by an instrument verb. A
span that starts on a thread with no open span of its own is parented to
the most recently opened RPC call or instrument verb that is still open.
This is exact while one thread at a time issues RPC calls, which holds
for every workload of the benchmark: the load generator on ``paper_cv``
and ``analysis_batch``, the gateway scheduler on ``gateway_campaigns``.

Op ids. The load-generator thread binds the op it is driving
(:meth:`Recorder.set_op`); its spans carry that id. A root span on any
other thread with no open call to inherit from (``Gateway.step`` on the
scheduler thread) is provisional: :meth:`Recorder.claim` names its op
from inside, and an unclaimed root is discarded with everything it
recorded on that thread -- idle scheduler polls are not work.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable


class Span:
    __slots__ = ("layer", "name", "parent", "op", "start", "end", "extra")

    def __init__(self, layer: str, name: str, parent: "Span | None", op: Any):
        self.layer = layer
        self.name = name
        self.parent = parent
        self.op = op
        self.start = 0.0
        self.end = 0.0
        self.extra: dict[str, Any] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _ThreadState:
    __slots__ = ("stack", "spans", "op", "is_client", "root_index")

    def __init__(self) -> None:
        self.stack: list[Span] = []
        self.spans: list[Span] = []
        self.op: Any = None
        self.is_client = False
        self.root_index = 0


class Recorder:
    """In-memory span store shared by every wrapper of one run."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_spans: list[list[Span]] = []
        self._adopters: list[Span] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._thread_spans.append(state.spans)
        return state

    # -- load-generator side ------------------------------------------------
    def bind_client(self) -> None:
        """Mark the calling thread as the load generator."""
        self._state().is_client = True

    def set_op(self, op: Any) -> None:
        """Op id for root spans the load generator starts from now on."""
        self._state().op = op

    def relabel(self, old: Any, new: Any) -> None:
        """Rename this thread's trailing spans of op ``old`` to ``new``
        (an op whose id is only known once the call that began it returns)."""
        for span in reversed(self._state().spans):
            if span.op != old:
                break
            span.op = new

    def claim(self, op: Any) -> None:
        """Give the current provisional root span, and what it recorded so
        far on this thread, the op id ``op``."""
        state = self._state()
        for span in state.spans[state.root_index:]:
            span.op = op

    def spans(self) -> list[Span]:
        with self._lock:
            lists = list(self._thread_spans)
        return [span for spans in lists for span in spans]

    # -- wrapper side ---------------------------------------------------------
    def _open(self, layer: str, name: str, nested_only: bool) -> Span | None:
        state = self._state()
        stack = state.stack
        if stack:
            parent = stack[-1]
            op = parent.op
        elif nested_only:
            return None
        elif state.is_client:
            parent, op = None, state.op
            if op is None:
                return None
        else:
            with self._lock:
                parent = self._adopters[-1] if self._adopters else None
            op = parent.op if parent is not None else None
        span = Span(layer, name, parent, op)
        if not stack:
            state.root_index = len(state.spans)
        state.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        state = self._state()
        state.stack.pop()
        if not state.stack and span.op is None:
            del state.spans[state.root_index:]

    def wrap(
        self,
        fn: Callable,
        layer: str,
        name: str,
        *,
        nested_only: bool = False,
        adopts: bool = False,
        pre: Callable | None = None,
        post: Callable | None = None,
    ) -> Callable:
        """A pass-through wrapper of ``fn`` that records one span per call.

        ``pre(args)`` runs before the call and its value is handed to
        ``post(args, result, pre_value)``, whose dict lands on
        ``span.extra``. While an ``adopts`` span is open, root spans that
        start on other threads are parented to it (the latest such).
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            span = recorder._open(layer, name, nested_only)
            if span is None:
                return fn(*args, **kwargs)
            token = pre(args) if pre is not None else None
            if adopts:
                with recorder._lock:
                    recorder._adopters.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                if adopts:
                    with recorder._lock:
                        recorder._adopters.remove(span)
                recorder._close(span)
            if post is not None:
                span.extra = post(args, result, token)
            return result

        return wrapper


# -- entry points ----------------------------------------------------------


def _nbytes(args, result, _token):
    if isinstance(result, (bytes, bytearray, memoryview)):
        return {"bytes": len(result)}
    if isinstance(result, list):
        return {"bytes": sum(len(part) for part in result)}
    return None


def _payload_bytes(args, _result, _token):
    return {"bytes": len(args[1])}


def _read_bytes(_args, result, _token):
    return {"bytes": len(result)}


def _retries_before(args):
    return args[0].retry_count


def _retries_after(args, _result, before):
    return {"retries": args[0].retry_count - before}


def _workflow_tasks(_args, result, _token):
    tasks = result.workflow.tasks
    return {"tasks": {name: task.duration_s for name, task in tasks.items()}}


def _campaign_rounds(_args, result, _token):
    return {"rounds": len(result)}


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point: ``target`` is ``func`` or ``Class.method``,
    or ``Class.*`` for every public method defined on the class."""

    module: str
    target: str
    layer: str
    name: str
    nested_only: bool = False
    adopts: bool = False
    pre: Callable | None = None
    post: Callable | None = None


ENTRIES: tuple[Entry, ...] = (
    Entry("repro.core.cv_workflow", "run_cv_workflow", "core", "workflow",
          post=_workflow_tasks),
    Entry("repro.core.campaign", "Campaign.run", "core", "campaign",
          post=_campaign_rounds),
    Entry("repro.chemistry.cv_engine", "CVEngine.run", "chemistry", "solve"),
    Entry("repro.chemistry.cv_engine", "CVEngine.run_waveform", "chemistry",
          "solve"),
    Entry("repro.ml.features", "extract_features", "ml", "features"),
    Entry("repro.ml.normality", "NormalityClassifier.classify", "ml",
          "classify"),
    Entry("repro.analysis.peaks", "find_peaks", "analysis", "find_peaks"),
    Entry("repro.analysis.metrics", "characterize", "analysis",
          "characterize"),
    Entry("repro.facility.servers", "ACLWorkstationServer.*", "facility",
          "verb", adopts=True),
    # device-side serial threads block in read_until between commands;
    # only host-side calls made inside an instrument verb are work
    Entry("repro.serialio.port", "SerialEndpoint.write", "serialio", "frame",
          nested_only=True),
    Entry("repro.serialio.port", "SerialEndpoint.read_until", "serialio",
          "frame", nested_only=True),
    # Proxy._call is the one path under Proxy.call, proxy.<Method>(...)
    # and ResilientProxy
    Entry("repro.rpc.proxy", "Proxy._call", "rpc", "call", adopts=True),
    Entry("repro.rpc.proxy", "Proxy._pyro_ping", "rpc", "call", adopts=True),
    Entry("repro.rpc.serialization", "serialize", "rpc", "encode",
          post=_nbytes),
    Entry("repro.rpc.serialization", "serialize_binary", "rpc", "encode",
          post=_nbytes),
    Entry("repro.rpc.serialization", "deserialize", "rpc", "decode"),
    Entry("repro.rpc.serialization", "deserialize_binary", "rpc", "decode"),
    Entry("repro.resilience.proxy", "ResilientProxy._run_with_retry",
          "resilience", "retry_path", pre=_retries_before,
          post=_retries_after),
    # the sim transport charges each hop under the link lock
    # (SharedLink.transmit), then sleeps the path's propagation latency
    # once per frame in sendall and once per handshake in connect
    Entry("repro.net.simtransport", "SimConnection.sendall", "net", "send",
          post=_payload_bytes),
    Entry("repro.net.simtransport", "SimNetwork.connect", "net", "connect"),
    Entry("repro.net.links", "SharedLink.transmit", "net", "transmit"),
    Entry("repro.datachannel.mount", "Mount.read_voltammogram",
          "datachannel", "read_voltammogram"),
    Entry("repro.datachannel.mount", "Mount.read_bytes", "datachannel",
          "read_bytes", post=_read_bytes),
    Entry("repro.datachannel.formats", "read_mpt", "datachannel", "parse"),
    Entry("repro.datachannel.share", "FileShareService.*", "datachannel",
          "share"),
    Entry("repro.durability.journal", "Journal.append", "durability",
          "append"),
    Entry("repro.durability.checkpoint", "CheckpointStore.save",
          "durability", "checkpoint"),
    Entry("repro.gateway.gateway", "Gateway.submit", "gateway", "submit"),
    Entry("repro.gateway.gateway", "Gateway.step", "gateway", "step"),
    Entry("repro.obs.trace", "Tracer.start_span", "obs", "span"),
    Entry("repro.obs.trace", "Span.end", "obs", "span_end"),
    Entry("repro.obs.metrics", "Counter.inc", "obs", "metric"),
    Entry("repro.obs.metrics", "Gauge.set", "obs", "metric"),
    Entry("repro.obs.metrics", "Gauge.inc", "obs", "metric"),
    Entry("repro.obs.metrics", "Gauge.dec", "obs", "metric"),
    Entry("repro.obs.metrics", "Histogram.observe", "obs", "metric"),
)


class Instrumentation:
    """Installs and removes the wrappers of :data:`ENTRIES`.

    Module-level functions are re-bound in every loaded ``repro`` module
    that imported them by name; methods are re-bound on their class.
    Removal restores the originals, so untraced blocks run the program
    exactly as shipped.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._patched: list[tuple[Any, str, Any, Any]] = []

    def install(self) -> None:
        if self._patched:
            return
        for entry in ENTRIES:
            module = sys.modules.get(entry.module) or __import__(
                entry.module, fromlist=["_"]
            )
            owner_name, _, attr = entry.target.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                names = (
                    [
                        name
                        for name, value in vars(owner).items()
                        if not name.startswith("_") and inspect.isfunction(value)
                    ]
                    if attr == "*"
                    else [attr]
                )
                for name in names:
                    original = vars(owner)[name]
                    self._set(owner, name, original, self._wrap(entry, original))
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(entry, original)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").startswith("repro") and (
                        getattr(mod, attr, None) is original
                    ):
                        self._set(mod, attr, original, wrapper)
        self.recorder.enabled = True

    def _wrap(self, entry: Entry, original: Callable) -> Callable:
        return self.recorder.wrap(
            original,
            entry.layer,
            entry.name,
            nested_only=entry.nested_only,
            adopts=entry.adopts,
            pre=entry.pre,
            post=entry.post,
        )

    def _set(self, owner: Any, name: str, original: Any, wrapper: Any) -> None:
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original, wrapper))

    def remove(self) -> None:
        self.recorder.enabled = False
        for owner, name, original, wrapper in reversed(self._patched):
            setattr(owner, name, original)
            # modules imported while tracing took the wrapper by name
            if inspect.ismodule(owner):
                for mod in list(sys.modules.values()):
                    if getattr(mod, name, None) is wrapper:
                        setattr(mod, name, original)
        self._patched.clear()
