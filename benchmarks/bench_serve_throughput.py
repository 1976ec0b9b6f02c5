"""Serving throughput/latency vs. batching policy.

Drives the `repro.serve` runtime with a constant-rate open-loop load
(the shared `Replay` of `repro.analysis.scale`) and sweeps the
micro-batching policy: batch size 1 (no coalescing) against
progressively wider batches.  The expected shape — the reason serving
batches at all — is that wider batches raise sustained throughput by
amortizing per-call overhead, at some cost in tail latency at low load.

Uses the trained mini zoo's ``vit_s`` with full 6-bit QUQ, i.e. the
paper's flagship configuration as the deployed artifact.  The first run
calibrates and serializes quantizer state; later runs (and later rows of
the sweep) warm-start from the registry artifact, which the reported
cache/warm counters make visible.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis import format_table
from repro.analysis.scale import Replay, image_pool
from repro.serve import BatchPolicy, ModelKey, ModelRegistry, ServeEngine, TraceEvent

from conftest import fast_mode, save_result

SPEC = "vit_s/quq/6"


def _policies():
    sizes = (1, 4, 16) if fast_mode() else (1, 2, 4, 8, 16)
    return [
        BatchPolicy(max_batch_size=size, max_wait_ms=10.0,
                    max_queue=512, timeout_ms=60000.0)
        for size in sizes
    ]


def _run(policy: BatchPolicy, requests: int, rate: float) -> tuple[dict, int, float]:
    """One constant-rate run: (snapshot, completed, completed per second)."""
    key = ModelKey.parse(SPEC)
    arrivals = [TraceEvent(index / rate, "default") for index in range(requests)]
    registry = ModelRegistry()  # shared on-disk artifacts: warm after row 1
    with ServeEngine(registry, policy) as engine:
        engine.warm(key)  # load/calibrate before the clock starts
        replay = Replay(engine, key, image_pool(requests, key.image_size, seed=0))
        start = time.monotonic()
        outcomes = replay.run(arrivals, settle_s=120.0)
        duration = time.monotonic() - start
        snapshot = engine.snapshot()
    completed = sum(outcome.result is not None for outcome in outcomes)
    return snapshot, completed, round(completed / duration, 2)


@pytest.mark.slow
def test_serve_throughput_vs_batch_policy():
    requests = 128 if fast_mode() else 256
    rate = 400.0
    rows = []
    for policy in _policies():
        snapshot, completed, throughput = _run(policy, requests, rate)
        latency = snapshot["histograms"]["e2e_latency_ms"]
        registry = snapshot["registry"]
        rows.append([
            policy.max_batch_size,
            completed,
            throughput,
            latency["p50"], latency["p95"], latency["p99"],
            registry["warm_loads"], registry["calibrations"],
            round(registry["hit_rate"], 3),
        ])
        assert completed > 0
        assert throughput > 0

    save_result(
        "serve_throughput",
        format_table(
            ["max batch", "completed", "rps",
             "p50 ms", "p95 ms", "p99 ms",
             "warm loads", "calibrations", "hit rate"],
            rows,
            title=f"Serving throughput vs batch policy ({SPEC}, "
                  f"{requests} reqs @ {rate:.0f} rps offered)",
        ),
    )

    # Coalescing must pay: the widest batch sustains at least as much
    # throughput as the batch-of-1 policy (equality can happen when the
    # offered rate is the bottleneck, so allow a small tolerance).
    assert rows[-1][2] >= rows[0][2] * 0.8
    # After the first row calibrated and serialized, every later registry
    # build warm-started from disk.
    assert all(row[7] == 0 for row in rows[1:])
