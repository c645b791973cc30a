"""RPC2 — the reactor + binary wire vs the committed threaded-JSON baseline.

PR 7 rewrote the daemon's serving core (one selector thread, bounded
per-connection outboxes, reply coalescing) and added wire v2 (binary
bulk framing). The thread-per-connection, JSON-only daemon it replaced
has since been deleted along with wire v1, so its numbers survive only
as the ``threaded_v1`` fields and the ``repro-baseline-1`` document
committed in ``BENCH_rpc.json``. This file prices the reactor against
those committed numbers.

Two gates, on loopback (the deltas measure syscall count and
serialization, not the network), with the workload constants the
baseline was recorded under:

- **aggregate RPS**: 8 concurrent clients each firing pipelined bursts
  of 32 KiB-ndarray echoes must clear >=2x the committed threaded RPS.
  The win comes from burst reads + coalesced reply writes (one syscall
  per burst instead of one per frame) and from skipping base64.
- **bulk bytes/s**: single-client reads of a 500k-sample trace must
  clear >=3x the committed threaded bytes/s. The win is almost entirely
  wire v2 — the payload travels as one raw blob instead of
  base64-inside-JSON.

The committed baseline is read before the run and written back
unchanged; the reactor run is judged against it with
:meth:`BaselineStore.compare`. The rewritten ``BENCH_rpc.json`` is the
artifact CI uploads.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import numpy as np

from repro.obs import BaselineStore
from repro.rpc import Daemon, Proxy, expose

CLIENTS = 8
BURSTS = 8
BURST = 32
BEST_OF = 5
ECHO_SAMPLES = 4096  # 32 KiB of float64 per call: bulk enough to price base64
BULK_SAMPLES = 500_000
BULK_REPS = 4

RPS_GATE = 2.0
BULK_GATE = 3.0

BENCH_FILE = Path(__file__).resolve().parents[1] / "BENCH_rpc.json"


@expose
class BenchService:
    def echo(self, value):
        return value

    def wave(self, n: int):
        return np.linspace(0.0, 1.0, n)


def _rps_round(uri: str) -> tuple[float, list[float]]:
    """One round: aggregate calls/s at CLIENTS pipelined clients.

    Also returns the per-call latency samples (burst wall / burst size)
    judged against the baseline document.
    """
    payload = np.linspace(0.0, 1.0, ECHO_SAMPLES)
    barrier = threading.Barrier(CLIENTS + 1)
    counts: list[int] = []
    samples: list[float] = []
    lock = threading.Lock()

    def worker():
        with Proxy(uri, max_inflight=BURST) as proxy:
            proxy.echo(0)  # connect before the clock
            barrier.wait()
            done, local = 0, []
            for _ in range(BURSTS):
                burst_start = time.perf_counter()
                with proxy.pipeline() as pipe:
                    pending = [
                        pipe.call("echo", payload) for _ in range(BURST)
                    ]
                    for future in pending:
                        future.result()
                local.append((time.perf_counter() - burst_start) / BURST)
                done += BURST
            with lock:
                counts.append(done)
                samples.extend(local)

    threads = [threading.Thread(target=worker) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    barrier.wait()
    start = time.perf_counter()
    for t in threads:
        t.join()
    return sum(counts) / (time.perf_counter() - start), samples


def _bulk_round(uri: str) -> tuple[float, list[float]]:
    """One round: best bytes/s reading one BULK_SAMPLES-float trace."""
    best, samples = 0.0, []
    with Proxy(uri) as proxy:
        proxy.wave(16)  # connect + warm the solver-free path
        for _ in range(BULK_REPS):
            start = time.perf_counter()
            wave = proxy.wave(BULK_SAMPLES)
            elapsed = time.perf_counter() - start
            samples.append(elapsed)
            best = max(best, wave.nbytes / elapsed)
    return best, samples


def _best(round_fn, uri: str) -> tuple[float, list[float]]:
    """The best of BEST_OF rounds, with that round's samples."""
    best: tuple[float, list[float]] = (0.0, [])
    for _ in range(BEST_OF):
        value, samples = round_fn(uri)
        if value > best[0]:
            best = (value, samples)
    return best


def _stats(samples: list[float]) -> dict[str, float]:
    arr = np.asarray(samples, dtype=float)
    return {
        "mean_s": float(arr.mean()),
        "p95_s": float(np.percentile(arr, 95)),
        "count": int(arr.size),
    }


def test_reactor_binary_wire_beats_committed_threaded_baseline(capsys):
    # read the committed baseline before this run rewrites the file
    committed = json.loads(BENCH_FILE.read_text())
    threaded_rps = committed["aggregate_rps"]["threaded_v1"]
    threaded_bulk = committed["bulk_bytes_per_s"]["threaded_v1"]
    baselines = committed["baselines"]

    daemon = Daemon(host="127.0.0.1")
    host, port = daemon.address
    daemon.register(BenchService(), object_id="Bench")
    daemon.start_background()
    uri = f"PYRO:Bench@{host}:{port}"
    try:
        assert daemon.serving_mode == "reactor"
        reactor_rps, reactor_echo = _best(_rps_round, uri)
        reactor_bulk, reactor_reads = _best(_bulk_round, uri)
    finally:
        daemon.shutdown()

    rps_ratio = reactor_rps / threaded_rps
    bulk_ratio = reactor_bulk / threaded_bulk

    # every operation must come back "ok" against the frozen threaded
    # baseline (the rewrite regressed nothing even by the HealthEngine's
    # own yardstick)
    verdicts = BaselineStore.from_dict(baselines).compare(
        {
            "rpc.echo_32k": _stats(reactor_echo),
            "rpc.bulk_read": _stats(reactor_reads),
        }
    )

    report = {
        "schema": "repro-bench-rpc-1",
        "workload": {
            "clients": CLIENTS,
            "bursts_per_client": BURSTS,
            "burst": BURST,
            "echo_samples": ECHO_SAMPLES,
            "bulk_samples": BULK_SAMPLES,
            "best_of": BEST_OF,
        },
        "aggregate_rps": {
            "reactor_v2": reactor_rps,
            "threaded_v1": threaded_rps,
            "ratio": rps_ratio,
            "gate": RPS_GATE,
        },
        "bulk_bytes_per_s": {
            "reactor_v2": reactor_bulk,
            "threaded_v1": threaded_bulk,
            "ratio": bulk_ratio,
            "gate": BULK_GATE,
        },
        "baselines": baselines,
        "verdicts": verdicts,
    }
    BENCH_FILE.write_text(json.dumps(report, indent=2, sort_keys=True))

    with capsys.disabled():
        print(
            f"\n[RPC2] rps reactor+v2={reactor_rps:,.0f}/s "
            f"vs committed threaded+v1={threaded_rps:,.0f}/s "
            f"ratio={rps_ratio:.2f}x (gate >={RPS_GATE}x) | "
            f"bulk reactor+v2={reactor_bulk / 1e6:.1f}MB/s "
            f"vs committed threaded+v1={threaded_bulk / 1e6:.1f}MB/s "
            f"ratio={bulk_ratio:.2f}x (gate >={BULK_GATE}x) "
            f"-> BENCH_rpc.json"
        )

    assert rps_ratio >= RPS_GATE, (
        f"aggregate RPS ratio {rps_ratio:.2f}x below the {RPS_GATE}x gate"
    )
    assert bulk_ratio >= BULK_GATE, (
        f"bulk bytes/s ratio {bulk_ratio:.2f}x below the {BULK_GATE}x gate"
    )
    assert not BaselineStore.regressions(verdicts), verdicts
