"""End-to-end benchmark of the electrochemistry ICE, with per-layer attribution.

Run from the repository root::

    python3 perfbench/run.py --workload paper_cv --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with the program as
shipped. ``--trace 1`` alternates untraced and traced blocks, wraps the
layer entry points (``tracing.py``) in the traced ones, and reports the
per-layer metrics (``layers.py``) plus the tracing overhead. Human-readable
lines come first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. Workloads, their
op definitions and the layer predictions are in ``workloads.json``.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads. On a 2-core host OpenBLAS's
# second thread sped nothing up (same ops/s) but doubled CPU per op by
# spinning, and its contention with the daemon threads spread
# analysis_batch's latency and throughput by ~35% between runs of the same
# code. An explicit OPENBLAS_NUM_THREADS in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from time import perf_counter

from layers import UNITS, layer_metrics, self_by_layer
from tracing import Instrumentation, Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("paper_cv", "gateway_campaigns", "analysis_batch")


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the value with ``pct``% of the sample at or
    below it, so ``len(values) * (1 - pct/100)`` samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def measure(cls, args) -> dict:
    setups = []
    recorder = Recorder()
    for rep in range(cls.setup_reps):
        bench = cls(args.seed, args.seconds, recorder)
        start = perf_counter()
        bench.setup()
        setups.append(perf_counter() - start)
        if rep < cls.setup_reps - 1:
            bench.close()
    recorder.bind_client()
    try:
        cpu0 = time.process_time()
        start = perf_counter()
        ops = bench.run_until(start + args.seconds)
        wall = max(op.end for op in ops) - start if ops else args.seconds
        cpu = time.process_time() - cpu0
        correct = bench.correct(ops)
        sample = [op.end - op.start for op in bench.latency_sample(ops)]
    finally:
        bench.close()
    failed = sum(not op.ok for op in ops)
    verified = len(ops) - failed
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_s": (statistics.median(sample), "s"),
        "latency_tail_s": (percentile(sample, cls.tail_pct), "s"),
        "throughput_ops_s": (verified / wall, "1/s"),
        "cpu_s_per_op": (cpu / max(1, len(ops)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-up(s)",
        "latency_p50_s": f"n={len(sample)}",
        "latency_tail_s": f"p{cls.tail_pct:g}, n={len(sample)}, "
        f"{len(sample) - math.ceil(cls.tail_pct / 100 * len(sample))} beyond",
    }
    print(f"workload {cls.name} seed {args.seed}: {len(ops)} ops attempted, "
          f"{failed} failed (failed_frac {failed / max(1, len(ops)):.4f} frac)")
    for note, count in Counter(op.note for op in ops if not op.ok).items():
        print(f"  failed x{count}: {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<18} {value:12.6g} {unit:<4} {notes.get(name, '')}")
    return {
        "correct": bool(correct and ops),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def measure_traced(cls, args) -> dict:
    recorder = Recorder()
    bench = cls(args.seed, args.seconds, recorder)
    bench.setup()
    recorder.bind_client()
    instrumentation = Instrumentation(recorder)
    blocks = {False: [], True: []}
    traced_wall = 0.0
    try:
        block_s = args.seconds / cls.trace_blocks
        for block in range(cls.trace_blocks):
            traced = block % 2 == 1
            if traced:
                instrumentation.install()
            start = perf_counter()
            try:
                ops = bench.run_until(start + block_s)
            finally:
                if traced:
                    instrumentation.remove()
            if traced and ops:
                traced_wall += max(op.end for op in ops) - start
            blocks[traced].append(ops)
        all_ops = [op for ops in blocks[False] + blocks[True] for op in ops]
        correct = bench.correct(all_ops)
    finally:
        bench.close()

    def p50(ops_lists):
        sample = [op.end - op.start for ops in ops_lists for op in ops]
        return statistics.median(sample) if sample else float("nan")

    traced_ops = [op for ops in blocks[True] for op in ops]
    windows = {op.key: (op.start, op.end) for op in traced_ops}
    extra = {"overhead_frac": p50(blocks[True]) / p50(blocks[False]) - 1.0}
    extra.update(bench.layer_extras(traced_ops, traced_wall))
    spans = recorder.spans()
    values = layer_metrics(spans, windows, **extra)
    failed = sum(not op.ok for op in all_ops)
    print(f"workload {cls.name} seed {args.seed} (traced run): {len(all_ops)} ops "
          f"attempted, {len(traced_ops)} traced, {failed} failed, "
          f"{len(spans)} spans")
    print(f"  {'metric':<24} {'value':>12} unit")
    for name, unit in UNITS.items():
        print(f"  {name:<24} {values[name]:12.6g} {unit}")
    print(f"  {'self time by layer':<24} {'s/op':>12} share")
    blame = self_by_layer(spans, windows)
    op_s = statistics.fmean(end - start for start, end in windows.values()) if windows else 0.0
    for layer, seconds in sorted(blame.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:<24} {seconds:12.6g} {seconds / op_s if op_s else 0.0:.3f}")
    return {
        "correct": bool(correct and traced_ops),
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in UNITS.items()},
    }


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    code = 0
    for name in NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        print(f"{name} result: {lines[-1] if lines else '(none)'}")
        code = code or child.returncode
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC.name}/repro; run it from "
              "the repository root of a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    # every file the program writes (share, journals, caches) stays in
    # the checkout and goes away with the run
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(scratch)
    try:
        from workloads import WORKLOADS

        measure_run = measure_traced if args.trace else measure
        result = measure_run(WORKLOADS[args.workload], args)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
