"""Chaos soak harness: open-loop load against a deterministic fault plan.

Runs the serving load generator while a :class:`FaultPlan` injects every
fault class it schedules, then audits the outcome the way an SRE would:

* **no deadlock** — every accepted request resolves (result or error) and
  the engine drains;
* **no silently wrong responses** — no completed :class:`ServeResult`
  ever carries NaN/Inf/saturated logits (the numeric guard's contract);
* **bounded availability loss** — completed / offered stays above the
  configured floor;
* **per-class recovery** — for each fault class the plan injected, the
  matching defense observably engaged (retries absorbed load errors, the
  checksum rejected the corrupt artifact, the breaker tripped and
  re-closed, the guard trapped bad logits, the watchdog restarted the
  stalled lane, backpressure bounded the queue spike).

Exposed as ``python -m repro chaos-soak`` and regenerated by
``benchmarks/bench_chaos_soak.py``; the report is a JSON-serializable
dict with a ``passed`` verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..serve.engine import ServeEngine
from ..serve.loadgen import synthetic_requests
from ..serve.registry import ModelKey
from ..serve.scheduler import QueueFullError
from .breaker import CLOSED
from .faults import (
    BATCH_EXCEPTION,
    CORRUPT_STATE,
    LOAD_ERROR,
    NUMERIC,
    QUEUE_SPIKE,
    STALL,
    FaultPlan,
)

__all__ = ["ChaosSoakConfig", "run_chaos_soak", "format_soak_report"]


@dataclass
class ChaosSoakConfig:
    """One soak run: how much load, how long to settle, what to demand."""

    spec: str = "vit_s/quq/6"
    requests: int = 192
    rate: float = 150.0
    seed: int = 0
    availability_floor: float = 0.5
    image_size: int | None = None
    watchdog_every: int = 4  # check the watchdog every N arrivals
    settle_s: float = 10.0  # drain budget after the last arrival
    invalidate_fraction: float = 1 / 3  # when to force the corrupt-state reload

    def __post_init__(self):
        if self.requests < 1 or self.rate <= 0:
            raise ValueError("requests must be >= 1 and rate > 0")
        if not 0.0 <= self.availability_floor <= 1.0:
            raise ValueError("availability_floor must be within [0, 1]")
        if self.watchdog_every < 1 or self.settle_s <= 0:
            raise ValueError("watchdog_every must be >= 1 and settle_s > 0")


def run_chaos_soak(
    engine: ServeEngine, plan: FaultPlan, config: ChaosSoakConfig | None = None,
    autoscaler=None,
) -> dict:
    """Drive the engine through the fault plan; return the audit report.

    The engine must have been constructed with ``faults=plan`` (and its
    registry with the same plan plus a retry policy) — this harness only
    drives load, forces the artifact-reload path, and audits the result.
    When an :class:`~repro.serve.autoscaler.Autoscaler` is passed, it is
    ticked on the watchdog cadence so the elastic control plane soaks
    under the same chaos (its event ledger lands in the report).
    """
    config = ChaosSoakConfig() if config is None else config
    key = ModelKey.parse(config.spec)
    size = config.image_size or key.image_size
    images = synthetic_requests(config.requests, size, seed=config.seed)

    warm_error = None
    try:
        engine.warm(key)  # may ride through injected load errors via retry
    except Exception as error:
        warm_error = f"{type(error).__name__}: {error}"

    # The corrupt-state window sits on the reload path, which only runs
    # when the cached entry is dropped — schedule one forced reload.
    invalidate_at = None
    if CORRUPT_STATE in plan.planned_kinds():
        invalidate_at = max(1, int(config.requests * config.invalidate_fraction))

    handles = []
    offered = rejected = 0
    start = time.monotonic()
    for index in range(config.requests):
        arrival = start + index / config.rate
        delay = arrival - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        if index == invalidate_at:
            engine.registry.invalidate(key)
        spike = plan.fire(QUEUE_SPIKE, site=key.spec)
        burst = 1 + (spike.spike if spike is not None else 0)
        for _ in range(burst):
            offered += 1
            try:
                handles.append(engine.submit(key, images[index]))
            except QueueFullError:
                rejected += 1
        if index % config.watchdog_every == 0:
            engine.check_watchdog()
            if autoscaler is not None:
                autoscaler.tick()

    # Settle: keep the watchdog running while in-flight work drains, so a
    # stall injected near the end still gets detected and restarted.
    settle_deadline = time.monotonic() + config.settle_s
    drained = False
    while time.monotonic() < settle_deadline:
        engine.check_watchdog()
        if autoscaler is not None:
            autoscaler.tick()
        if engine.drain(timeout=0.25):
            drained = True
            break

    completed = failed = nonfinite_served = 0
    quantized_responses = 0
    wait_budget = max(5.0, 2.0 * engine.policy.timeout_ms / 1000.0)
    for handle in handles:
        try:
            result = handle.result(timeout=wait_budget)
        except Exception:
            failed += 1
            continue
        completed += 1
        quantized_responses += int(result.quantized)
        if not np.isfinite(result.logits).all() or (
            np.abs(result.logits).max() > engine.guard.saturation_limit
        ):
            nonfinite_served += 1

    snapshot = engine.snapshot()
    counters = snapshot["counters"]
    registry = snapshot["registry"]
    lane = snapshot["lanes"].get(key.spec, {})
    breaker = lane.get("breaker", {})
    injected = {kind: plan.injected(kind) for kind in plan.planned_kinds()}

    # Per-class recovery evidence: the defense engaged AND the lane ended
    # the run serving (entries present, breaker closed, traffic answered).
    serving = completed > 0 and key.spec in registry.get("entries", [])
    recovery_evidence = {
        LOAD_ERROR: registry.get("retries", 0) > 0 and warm_error is None,
        CORRUPT_STATE: registry.get("checksum_rejects", 0) > 0 and serving,
        BATCH_EXCEPTION: counters.get("failovers_total", 0) > 0
        and breaker.get("state") == CLOSED,
        NUMERIC: counters.get("guard_trips_total", 0) > 0 and nonfinite_served == 0,
        STALL: counters.get("watchdog_restarts_total", 0) > 0 and serving,
        # A spike is survived when every burst submission was either
        # answered or explicitly rejected by backpressure — absorbed and
        # shed both count; silently dropped work would break the ledger.
        QUEUE_SPIKE: serving and completed + failed + rejected == offered,
    }
    faults_report = {
        kind: {"injected": count, "recovered": bool(recovery_evidence.get(kind))}
        for kind, count in sorted(injected.items())
        if count
    }

    availability = completed / offered if offered else 0.0
    deadlock_free = drained and all(handle.done() for handle in handles)
    all_recovered = all(entry["recovered"] for entry in faults_report.values())
    report = {
        "spec": key.spec,
        "seed": config.seed,
        "requests": config.requests,
        "offered": offered,
        "completed": completed,
        "failed": failed,
        "rejected": rejected,
        "quantized_responses": quantized_responses,
        "availability": round(availability, 4),
        "availability_floor": config.availability_floor,
        "deadlock_free": deadlock_free,
        "nonfinite_served": nonfinite_served,
        "warm_error": warm_error,
        "faults": faults_report,
        "fault_plan": plan.snapshot(),
        "autoscale": autoscaler.snapshot() if autoscaler is not None else None,
        "passed": (
            deadlock_free
            and nonfinite_served == 0
            and availability >= config.availability_floor
            and all_recovered
        ),
        "snapshot": snapshot,
    }
    return report


def format_soak_report(report: dict) -> str:
    """Human-readable rendering of a chaos soak report."""
    from ..analysis import format_table

    verdict = "PASS" if report["passed"] else "FAIL"
    sections = [format_table(
        ["spec", "offered", "completed", "failed", "rejected",
         "availability", "floor", "deadlock free", "bad served", "verdict"],
        [[report["spec"], report["offered"], report["completed"],
          report["failed"], report["rejected"], report["availability"],
          report["availability_floor"], report["deadlock_free"],
          report["nonfinite_served"], verdict]],
        title=f"Chaos soak (seed {report['seed']})",
    )]
    if report["faults"]:
        sections.append(format_table(
            ["fault class", "injected", "recovered"],
            [[kind, entry["injected"], entry["recovered"]]
             for kind, entry in report["faults"].items()],
            title="Fault classes",
        ))
    return "\n\n".join(sections)
