"""Continuous span profiling: where does a run actually spend its time?

Traces say *what ran and for how long*; the profiler says *which
operation owned the clock* — self-time, with the children's share
subtracted out. A timer-interrupt sampler would be nondeterministic
under :class:`~repro.clock.VirtualClock`, so this one samples at span
*transitions* instead: every span start and span end closes the
interval since the previous transition on that thread and attributes it
to the span that was innermost (the tracer's contextvar stack) during
the interval. Under the simulated clock the attribution is exact and
reproducible; under the wall clock it is standard sampling with
transition-aligned sample points. CPU self-time rides along via
:func:`time.thread_time` deltas (always wall-based — the virtual clock
has no CPU notion).

Attach with :meth:`SpanProfiler.attach` (or just pass ``profile=True``
to ``run_cv_workflow`` / ``Session.run_workflow`` / a campaign). The
aggregated document — per-operation self/total time, sample counts and
the hot-path tree — carries ``"schema": "repro-profile-1"`` and is what
``BENCH_profile.json`` embeds.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.clock import Clock
from repro.obs.trace import Span, Tracer, current_span

#: Schema tag stamped into every profile document.
SCHEMA = "repro-profile-1"

#: Bound on the span-id -> path index (evicted oldest-first). Paths are
#: registered at span start and looked up at most a few transitions
#: later, so even a tiny fraction of this is ample.
_MAX_INDEX = 50000

#: Depth bound when recording a hot path (defensive: recursive span
#: nests deeper than this are truncated at the root end).
_MAX_PATH = 64


class _OpStats:
    __slots__ = ("count", "errors", "self_s", "cpu_self_s", "total_s", "samples")

    def __init__(self):
        self.count = 0
        self.errors = 0
        self.self_s = 0.0
        self.cpu_self_s = 0.0
        self.total_s = 0.0
        self.samples = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "errors": self.errors,
            "self_s": self.self_s,
            "cpu_self_s": self.cpu_self_s,
            "total_s": self.total_s,
            "samples": self.samples,
        }


class _TreeNode:
    __slots__ = ("name", "self_s", "cpu_self_s", "samples", "children")

    def __init__(self, name: str):
        self.name = name
        self.self_s = 0.0
        self.cpu_self_s = 0.0
        self.samples = 0
        self.children: dict[str, _TreeNode] = {}

    def child(self, name: str) -> "_TreeNode":
        node = self.children.get(name)
        if node is None:
            node = _TreeNode(name)
            self.children[name] = node
        return node

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "self_s": self.self_s,
            "cpu_self_s": self.cpu_self_s,
            "samples": self.samples,
            "children": [
                child.to_dict()
                for child in sorted(
                    self.children.values(), key=lambda n: -n.self_s
                )
            ],
        }


class SpanProfiler:
    """Transition-sampling profiler hooked into one :class:`Tracer`.

    Thread-safe: each thread keeps its own last-transition stamps (a
    worker's interval is attributed to *that worker's* current span),
    and the shared aggregates sit behind one lock taken per transition
    — one CPU-clock read (the wall stamp is the span's own), two dict
    updates. The sampling hooks themselves live in ``Tracer.start_span``
    / ``Span.end`` and cost one attribute read when no profiler is
    attached.
    """

    def __init__(self, clock: Clock | None = None):
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ops: dict[str, _OpStats] = {}
        self._root = _TreeNode("<root>")
        self._paths: dict[str, tuple[str, ...]] = {}
        self._samples_total = 0
        self._started_at: float | None = None
        self._tracer: Tracer | None = None

    # -- attach / detach ----------------------------------------------------
    def attach(self, tracer: Tracer) -> bool:
        """Install as ``tracer.profiler``; False when the slot is taken.

        The tracer has one profiler slot (unlike the chainable exporter
        slot): overlapping profiles of the same tracer would double-
        attribute every interval, so a second attach is refused and the
        caller should share the one already installed.
        """
        if tracer.profiler is not None and tracer.profiler is not self:
            return False
        if self._clock is None:
            self._clock = tracer.clock
        if self._started_at is None:
            self._started_at = self._clock.now()
        self._tracer = tracer
        tracer.profiler = self
        return True

    def detach(self, tracer: Tracer | None = None) -> None:
        """Remove from the tracer (only if still ours); keeps the data."""
        target = tracer or self._tracer
        if target is not None and target.profiler is self:
            target.profiler = None
        if target is self._tracer:
            self._tracer = None

    def __enter__(self) -> "SpanProfiler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.detach()

    # -- sampling hooks (called by the tracer) ------------------------------
    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = {"wall": None, "cpu": None}
        return state

    def _sample(self, owner: Span | None, now_wall: float) -> None:
        """Close this thread's open interval at ``now_wall`` (a span's own
        start or end stamp, so a span's self-time never exceeds its
        duration), attributing it to ``owner``."""
        if self._clock is None:  # never attached; nothing meaningful to stamp
            return
        try:
            now_cpu = time.thread_time()
        except (AttributeError, OSError):  # pragma: no cover - exotic platforms
            now_cpu = 0.0
        state = self._thread_state()
        last_wall, last_cpu = state["wall"], state["cpu"]
        state["wall"], state["cpu"] = now_wall, now_cpu
        if last_wall is None or owner is None:
            return
        elapsed = max(0.0, now_wall - last_wall)
        cpu = max(0.0, now_cpu - (last_cpu or 0.0))
        with self._lock:
            self._samples_total += 1
            stats = self._ops.get(owner.name)
            if stats is None:
                stats = self._ops[owner.name] = _OpStats()
            stats.self_s += elapsed
            stats.cpu_self_s += cpu
            stats.samples += 1
            node = self._root
            for name in self._paths.get(owner.span_id, (owner.name,)):
                node = node.child(name)
            node.self_s += elapsed
            node.cpu_self_s += cpu
            node.samples += 1

    def on_start(self, span: Span) -> None:
        """Tracer hook: a span was created (not yet necessarily current)."""
        # the interval that just ended belongs to whatever was innermost
        self._sample(current_span(), span.start_time)
        parent_path = ()
        if span.parent_id is not None:
            with self._lock:
                parent_path = self._paths.get(span.parent_id, ())
        path = (parent_path + (span.name,))[-_MAX_PATH:]
        with self._lock:
            self._paths[span.span_id] = path
            while len(self._paths) > _MAX_INDEX:
                self._paths.pop(next(iter(self._paths)))

    def on_end(self, span: Span) -> None:
        """Tracer hook: a span ended (contextvar not yet restored)."""
        # prefer the innermost current span; fall back to the ending one
        # (spans ended off-thread or never made current)
        self._sample(current_span() or span, span.end_time)
        with self._lock:
            stats = self._ops.get(span.name)
            if stats is None:
                stats = self._ops[span.name] = _OpStats()
            stats.count += 1
            stats.total_s += span.duration_s
            if span.status == "ERROR":
                stats.errors += 1

    # -- reporting ----------------------------------------------------------
    def profile(self) -> dict[str, Any]:
        """The aggregated ``repro-profile-1`` document (JSON-safe)."""
        now = self._clock.now() if self._clock is not None else 0.0
        with self._lock:
            operations = {
                name: stats.to_dict() for name, stats in self._ops.items()
            }
            tree = self._root.to_dict()
            samples_total = self._samples_total

        hot_paths: list[dict[str, Any]] = []

        def walk(node: dict[str, Any], path: tuple[str, ...]) -> None:
            for child in node["children"]:
                child_path = path + (child["name"],)
                if child["samples"] > 0:
                    hot_paths.append(
                        {
                            "path": list(child_path),
                            "self_s": child["self_s"],
                            "cpu_self_s": child["cpu_self_s"],
                            "samples": child["samples"],
                        }
                    )
                walk(child, child_path)

        walk(tree, ())
        hot_paths.sort(key=lambda p: -p["self_s"])
        started = self._started_at if self._started_at is not None else now
        return {
            "schema": SCHEMA,
            "captured_at": now,
            "wall_s": max(0.0, now - started),
            "samples_total": samples_total,
            "operations": operations,
            "hot_paths": hot_paths[:10],
            "tree": tree,
        }

    def format_table(self, top: int = 15) -> str:
        """Console rendering, hottest self-time first."""
        doc = self.profile()
        ops = sorted(
            doc["operations"].items(), key=lambda kv: -kv[1]["self_s"]
        )[:top]
        if not ops:
            return "(no profile samples)"
        name_w = max(len("operation"), max(len(n) for n, _ in ops))
        header = (
            f"{'operation'.ljust(name_w)}  {'count':>6}  {'self s':>9}  "
            f"{'cpu s':>9}  {'total s':>9}  {'samples':>7}"
        )
        lines = [header, "-" * len(header)]
        for name, e in ops:
            lines.append(
                f"{name.ljust(name_w)}  {int(e['count']):>6}  "
                f"{e['self_s']:>9.3f}  {e['cpu_self_s']:>9.3f}  "
                f"{e['total_s']:>9.3f}  {int(e['samples']):>7}"
            )
        return "\n".join(lines)


def profile_tracer(tracer: Tracer) -> "SpanProfiler | None":
    """Attach a fresh profiler to ``tracer``; None when one is active.

    The convenience entry the ``profile=True`` paths use: callers that
    get None should read the already-attached profiler instead of
    stacking a second one.
    """
    profiler = SpanProfiler(clock=tracer.clock)
    return profiler if profiler.attach(tracer) else None
