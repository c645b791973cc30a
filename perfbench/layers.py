"""Per-layer metrics from the spans of a traced run.

Every metric is per op (divided by the number of traced ops) unless it
is a fraction. A layer's *time* is the duration of its outermost spans
(inclusive of what it calls); its *self* time is each span's duration
minus the part of that interval its child spans cover, on any thread.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Iterable

from tracing import Span

TASKS = (
    ("A", "A_establish_communications"),
    ("B", "B_configure_jkem"),
    ("C", "C_fill_cell"),
    ("D", "D_run_cv"),
    ("E", "E_shutdown"),
    ("analyze", "analyze"),
)

#: name -> unit, in report order; BENCHMARK.json's per_layer list
UNITS: dict[str, str] = {
    **{f"core.task.{short}_s": "s/op" for short, _ in TASKS},
    "core.campaign_round_s": "s/round",
    "chemistry.solves": "count/op",
    "chemistry.solve_s": "s/op",
    "ml.feature_fits": "count/op",
    "ml.features_s": "s/op",
    "ml.classify_self_s": "s/op",
    "analysis.s": "s/op",
    "facility.verbs": "count/op",
    "facility.verb_self_s": "s/op",
    "serialio.frames": "count/op",
    "serialio.s": "s/op",
    "rpc.calls": "count/op",
    "rpc.call_s": "s/op",
    "rpc.self_s": "s/op",
    "rpc.codec_s": "s/op",
    "rpc.bytes": "B/op",
    "resilience.retries": "count/op",
    "net.wire_s": "s/op",
    "net.bytes": "B/op",
    "datachannel.reads": "count/op",
    "datachannel.read_s": "s/op",
    "datachannel.bytes": "B/op",
    "datachannel.parse_s": "s/op",
    "durability.appends": "count/op",
    "durability.append_s": "s/op",
    "durability.checkpoint_s": "s/op",
    "gateway.queue_wait_s": "s/op",
    "gateway.step_self_s": "s/op",
    "gateway.cell_busy_frac": "frac",
    "obs.spans": "count/op",
    "obs.s": "s/op",
    "trace.coverage_frac": "frac",
    "trace.overhead_frac": "frac",
}


def _union_length(intervals: Iterable[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """id(span) -> the time during which it is the deepest open span of its op.

    On one thread this is the usual self time: a span's duration minus
    what its children cover. Across threads it also settles overlap that
    nesting cannot express: the CV solve runs on the potentiostat's
    acquisition thread while the instrument verb that waits for it runs
    on the daemon thread. Each instant of an op goes to its deepest open
    span (the earliest-started on a tie), so the self times of an op add
    up to the time its spans cover.
    """
    depth: dict[int, int] = {}

    def depth_of(span: Span) -> int:
        key = id(span)
        if key not in depth:
            depth[key] = 0 if span.parent is None else depth_of(span.parent) + 1
        return depth[key]

    by_op: dict[Any, list[Span]] = defaultdict(list)
    for span in spans:
        by_op[span.op].append(span)
    out = {id(span): 0.0 for span in spans}
    for op_spans in by_op.values():
        events = []
        for span in op_spans:
            rank = (depth_of(span), -span.start)
            events.append((span.start, 1, rank, span))
            events.append((span.end, 0, rank, span))
        events.sort(key=lambda e: (e[0], e[1]))
        active: dict[int, tuple[tuple[int, float], Span]] = {}
        last = None
        for time, opening, rank, span in events:
            if active and last is not None and time > last:
                winner = max(active.values(), key=lambda item: item[0])[1]
                out[id(winner)] += time - last
            last = time
            if opening:
                active[id(span)] = (rank, span)
            else:
                active.pop(id(span), None)
    return out


def _outermost(spans: list[Span], match) -> list[Span]:
    """Spans matching ``match`` with no matching ancestor."""
    out = []
    for span in spans:
        if not match(span):
            continue
        parent = span.parent
        while parent is not None and not match(parent):
            parent = parent.parent
        if parent is None:
            out.append(span)
    return out


def layer_metrics(
    spans: list[Span],
    ops: dict[Any, tuple[float, float]],
    *,
    queue_wait_s: float = 0.0,
    cell_busy_frac: float = 0.0,
    overhead_frac: float = 0.0,
) -> dict[str, float]:
    """Per-layer metrics over the traced ops.

    ``ops`` maps each traced op id to its ``(start, end)``; spans of
    other ops are ignored. Gateway queue wait, cell occupancy and the
    tracing overhead come from the caller, which measures them outside
    the spans.
    """
    spans = [s for s in spans if s.op in ops]
    n = max(1, len(ops))
    own = self_times(spans)

    def named(*names):
        return lambda s: s.name in names

    def layer(name):
        return lambda s: s.layer == name

    def count(match) -> float:
        return len(_outermost(spans, match)) / n

    def inclusive(match) -> float:
        return sum(s.duration for s in _outermost(spans, match)) / n

    def self_of(match) -> float:
        return sum(own[id(s)] for s in spans if match(s)) / n

    def extra_sum(match, key) -> float:
        return sum(
            (s.extra or {}).get(key, 0) for s in _outermost(spans, match)
        ) / n

    out: dict[str, float] = {}
    workflows = [s for s in spans if s.name == "workflow" and s.extra]
    for short, task in TASKS:
        out[f"core.task.{short}_s"] = (
            sum(s.extra["tasks"].get(task, 0.0) for s in workflows) / n
        )
    campaigns = [s for s in spans if s.name == "campaign"]
    rounds = sum((s.extra or {}).get("rounds", 0) for s in campaigns)
    out["core.campaign_round_s"] = (
        sum(s.duration for s in campaigns) / rounds if rounds else 0.0
    )
    out["chemistry.solves"] = count(layer("chemistry"))
    out["chemistry.solve_s"] = inclusive(layer("chemistry"))
    out["ml.feature_fits"] = count(named("features"))
    out["ml.features_s"] = inclusive(named("features"))
    out["ml.classify_self_s"] = self_of(named("classify"))
    out["analysis.s"] = inclusive(layer("analysis"))
    out["facility.verbs"] = count(layer("facility"))
    out["facility.verb_self_s"] = self_of(layer("facility"))
    out["serialio.frames"] = len([s for s in spans if s.layer == "serialio"]) / n
    out["serialio.s"] = inclusive(layer("serialio"))
    out["rpc.calls"] = count(named("call"))
    out["rpc.call_s"] = inclusive(named("call"))
    out["rpc.self_s"] = self_of(layer("rpc"))
    out["rpc.codec_s"] = inclusive(named("encode", "decode"))
    out["rpc.bytes"] = extra_sum(named("encode"), "bytes")
    out["resilience.retries"] = extra_sum(layer("resilience"), "retries")
    out["net.wire_s"] = inclusive(layer("net"))
    out["net.bytes"] = extra_sum(layer("net"), "bytes")
    out["datachannel.reads"] = count(named("read_bytes"))
    out["datachannel.read_s"] = inclusive(named("read_voltammogram", "read_bytes"))
    out["datachannel.bytes"] = extra_sum(named("read_bytes"), "bytes")
    out["datachannel.parse_s"] = inclusive(named("parse"))
    out["durability.appends"] = count(named("append"))
    out["durability.append_s"] = inclusive(named("append"))
    out["durability.checkpoint_s"] = inclusive(named("checkpoint"))
    out["gateway.queue_wait_s"] = queue_wait_s
    out["gateway.step_self_s"] = self_of(named("step"))
    out["gateway.cell_busy_frac"] = cell_busy_frac
    out["obs.spans"] = count(named("span"))
    out["obs.s"] = inclusive(layer("obs"))

    covered = 0.0
    total = 0.0
    by_op: dict[Any, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        by_op[s.op].append((s.start, s.end))
    for op, (start, end) in ops.items():
        total += end - start
        covered += _union_length(
            (max(a, start), min(b, end))
            for a, b in by_op.get(op, ())
            if b > start and a < end
        )
    out["trace.coverage_frac"] = covered / total if total > 0 else 0.0
    out["trace.overhead_frac"] = overhead_frac
    return out


def self_by_layer(spans: list[Span], ops: dict[Any, tuple[float, float]]) -> dict[str, float]:
    """Seconds of self time per layer per op (the table's blame column)."""
    spans = [s for s in spans if s.op in ops]
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.layer] += own[id(s)]
    n = max(1, len(ops))
    return {name: value / n for name, value in sorted(totals.items())}
