"""Synthetic open-loop load generator for the serving runtime.

Open loop means arrivals follow a fixed schedule (``rate`` requests per
second) regardless of how fast responses come back — the standard way to
measure a serving system's latency under load, since closed-loop clients
self-throttle and hide queueing delay.  Rejected (backpressure) and
timed-out requests count against the run rather than stopping it.
"""

from __future__ import annotations

import time

import numpy as np

from ..analysis import format_table
from .engine import ServeEngine
from .registry import ModelKey
from .scheduler import QueueFullError

__all__ = ["synthetic_requests", "run_serve_benchmark", "format_snapshot"]


def synthetic_requests(count: int, size: int, seed: int = 0) -> np.ndarray:
    """Unit-normal noise images, shaped like normalized dataset samples."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, size, size, 3)).astype(np.float32)


def run_serve_benchmark(
    engine: ServeEngine,
    spec: str,
    requests: int = 256,
    rate: float = 200.0,
    seed: int = 0,
    warm: bool = True,
    image_size: int | None = None,
) -> dict:
    """Drive ``requests`` synthetic images at ``rate`` rps; return the snapshot.

    The returned dict is the engine's full metrics snapshot plus a
    ``summary`` section (throughput, completion counts, wall time).
    """
    if requests < 1 or rate <= 0:
        raise ValueError("requests must be >= 1 and rate > 0")
    key = ModelKey.parse(spec)
    if warm:
        engine.warm(key)  # load/calibrate before the clock starts
    images = synthetic_requests(requests, image_size or key.image_size, seed=seed)

    handles = []
    rejected = 0
    start = time.monotonic()
    for index in range(requests):
        arrival = start + index / rate
        delay = arrival - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        try:
            handles.append(engine.submit(key, images[index]))
        except QueueFullError:
            rejected += 1

    completed = failed = 0
    wait_budget = max(5.0, 2.0 * engine.policy.timeout_ms / 1000.0)
    for handle in handles:
        try:
            handle.result(timeout=wait_budget)
            completed += 1
        except Exception:
            failed += 1
    duration = time.monotonic() - start

    snapshot = engine.snapshot()
    snapshot["summary"] = {
        "spec": key.spec,
        "requests": requests,
        "completed": completed,
        "rejected": rejected,
        "failed": failed,
        "duration_s": round(duration, 4),
        "throughput_rps": round(completed / duration, 2) if duration > 0 else 0.0,
        "offered_rate_rps": rate,
        # Fraction of offered requests answered successfully — the
        # availability number the chaos soak holds a floor against.
        "availability": round(completed / requests, 4),
    }
    return snapshot


def format_snapshot(snapshot: dict) -> str:
    """Human-readable rendering of a benchmark snapshot."""
    summary = snapshot.get("summary", {})
    registry = snapshot.get("registry", {})
    latency = snapshot["histograms"].get("e2e_latency_ms", {})
    sections = []
    if summary:
        sections.append(format_table(
            ["spec", "requests", "completed", "rejected", "failed",
             "throughput rps", "duration s"],
            [[summary.get("spec", "?"), summary.get("requests", 0),
              summary.get("completed", 0), summary.get("rejected", 0),
              summary.get("failed", 0), summary.get("throughput_rps", 0.0),
              summary.get("duration_s", 0.0)]],
            title="Serving benchmark",
        ))
    sections.append(format_table(
        ["metric", "count", "mean", "p50", "p95", "p99", "max"],
        [
            [name, h.get("count", 0), h.get("mean", 0.0), h.get("p50", 0.0),
             h.get("p95", 0.0), h.get("p99", 0.0), h.get("max", 0.0)]
            for name, h in sorted(snapshot["histograms"].items())
        ],
        title="Latency (ms)",
    ))
    batch_sizes = snapshot["distributions"].get("batch_size", {})
    if batch_sizes:
        sections.append(format_table(
            ["batch size", "batches"],
            [[size, count] for size, count in batch_sizes.items()],
            title="Batch-size distribution",
        ))
    if registry:
        sections.append(format_table(
            ["hits", "misses", "hit rate", "warm loads", "calibrations",
             "evictions", "fallbacks"],
            [[registry.get("hits", 0), registry.get("misses", 0),
              registry.get("hit_rate", 0.0), registry.get("warm_loads", 0),
              registry.get("calibrations", 0), registry.get("evictions", 0),
              registry.get("fallbacks", 0)]],
            title="Registry",
        ))
    counters = snapshot.get("counters", {})
    resilience = [
        [name, counters[name]]
        for name in ("failovers_total", "guard_trips_total",
                     "watchdog_restarts_total", "errors_total", "rejected_total")
        if counters.get(name)
    ]
    breakers = [
        [spec, lane["breaker"]["state"], lane["breaker"]["trips"],
         lane["breaker"]["recoveries"], lane.get("watchdog_restarts", 0)]
        for spec, lane in sorted(snapshot.get("lanes", {}).items())
        if "breaker" in lane and (lane["breaker"]["trips"]
                                  or lane.get("watchdog_restarts"))
    ]
    if resilience:
        sections.append(format_table(["event", "count"], resilience,
                                     title="Resilience events"))
    if breakers:
        sections.append(format_table(
            ["lane", "breaker", "trips", "recoveries", "restarts"],
            breakers, title="Lane health",
        ))
    return "\n\n".join(sections)
