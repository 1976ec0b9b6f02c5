"""Trace-driven scale benchmark: overload behavior under flash crowds.

Replays a seeded :mod:`repro.serve.traces` trace — diurnal baseline, a
flash crowd at a configured multiple of steady load, heavy-tailed tenant
mix, priority bands with deadlines — open-loop against a serving engine,
and audits the outcome the way a capacity review would:

* **availability** of *admitted* requests (completed / admitted) against
  a floor: admission control exists so that the requests the system
  accepts, it answers;
* **tail latency** (p50 / p99 / p99.9 over exact client-side samples,
  not reservoir estimates) against a bound — shedding is pointless if
  the survivors still time out;
* **shed accounting**: every refused request carries a typed reason
  (``shed`` / ``rate_limited`` / ``breaker_open`` / ``queue_full``), and
  the ledger must balance exactly — offered = admitted + rejected,
  admitted = completed + failed — the zero-silent-drop attestation;
* **per-tenant fairness**: each tenant's admitted share is compared to
  its fair-queue weight; a bounded ratio and zero starved tenants are
  required for a pass;
* **priority bands**: interactive deadline-miss rate against a bound
  while the lower bands absorb the shedding;
* **shard-loss recovery** (cluster engines): worker shards are
  SIGKILLed mid-trace — a single kill exercises supervision, and an
  optional *crash burst* repeatedly kills the same spec to drive the
  autoscaler's crash-loop quarantine;
* **elasticity** (when an :class:`~repro.serve.autoscaler.AutoscalePolicy`
  is attached): the flash crowd must produce at least one scale-up and,
  post-flash, at least one *drained* scale-down with zero in-flight
  losses; an idle secondary lane demonstrates capacity borrowing.

Exposed as ``python -m repro scale-bench``; the ``--tiny`` mode is fully
self-contained (random tiny ViT, synthetic calibration) for CI smoke,
and ``--trace FILE`` replays a recorded JSONL trace through the same
harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..serve.autoscaler import AutoscalePolicy, Autoscaler
from ..serve.registry import ModelKey
from ..serve.scheduler import PRIORITIES, QueueFullError
from ..serve.traces import TraceConfig, TraceEvent, generate_trace, tenant_mix, trace_stats

__all__ = [
    "SCHEMA_VERSION",
    "ScaleBenchConfig",
    "tiny_scale_servable",
    "run_scale_benchmark",
    "format_scale_report",
]

#: Schema version of the report dict (bump on breaking layout changes).
#: v2: adds ``priorities`` and ``autoscale`` sections, crash-burst
#: recovery fields, and recorded-trace replay.
SCHEMA_VERSION = 2


@dataclass
class ScaleBenchConfig:
    """One scale run: the trace to replay and the bars to clear."""

    spec: str = "vit_s/quq/6"
    trace: TraceConfig = field(default_factory=TraceConfig)
    # A recorded trace (list of TraceEvent) replayed *instead of* the
    # synthetic generator; ``trace`` still supplies the tenant mix /
    # flash-window metadata when set, but arrivals come from here.
    trace_events: list[TraceEvent] | None = None
    availability_floor: float = 0.99  # of admitted requests
    p999_bound_ms: float | None = None  # None: 2x the lane timeout
    fairness_ratio: float = 2.0  # admitted share within this factor of weight
    kill_shard_at: float | None = 0.5  # trace fraction; None disables the kill
    # Crash burst: repeated SIGKILLs of the same spec starting at this
    # trace fraction, to drive the autoscaler's crash-loop quarantine.
    crash_burst_at: float | None = None
    crash_burst_kills: int = 3
    crash_burst_gap_s: float = 0.2
    watchdog_every: int = 25  # sweep idle-crashed shards every N arrivals
    settle_s: float = 10.0  # drain budget after the last arrival
    # Elastic control plane (None = static shard pool, the v1 behavior).
    autoscale: AutoscalePolicy | None = None
    tick_every: int = 8  # autoscaler tick cadence, in arrivals
    secondary_spec: str | None = None  # idle lane that can lend capacity
    deadline_miss_bound: float = 0.01  # interactive-band miss-rate ceiling

    def __post_init__(self):
        if not 0.0 <= self.availability_floor <= 1.0:
            raise ValueError("availability_floor must be within [0, 1]")
        if self.p999_bound_ms is not None and self.p999_bound_ms <= 0:
            raise ValueError("p999_bound_ms must be > 0")
        if self.fairness_ratio < 1.0:
            raise ValueError("fairness_ratio must be >= 1")
        if self.kill_shard_at is not None and not 0.0 <= self.kill_shard_at <= 1.0:
            raise ValueError("kill_shard_at is a fraction of the trace duration")
        if self.crash_burst_at is not None and not 0.0 <= self.crash_burst_at <= 1.0:
            raise ValueError("crash_burst_at is a fraction of the trace duration")
        if self.crash_burst_kills < 1 or self.crash_burst_gap_s <= 0:
            raise ValueError("crash_burst_kills must be >= 1 and gap > 0")
        if self.watchdog_every < 1 or self.settle_s <= 0:
            raise ValueError("watchdog_every must be >= 1 and settle_s > 0")
        if self.tick_every < 1:
            raise ValueError("tick_every must be >= 1")
        if not 0.0 <= self.deadline_miss_bound <= 1.0:
            raise ValueError("deadline_miss_bound must be within [0, 1]")


def tiny_scale_servable(seed: int = 0, bits: int = 6):
    """A self-contained quantized servable for smoke runs.

    Random tiny ViT calibrated on synthetic images — overload dynamics
    (queueing, shedding, fairness) do not depend on trained weights, so
    the smoke benchmark skips the zoo entirely.  Built in the parent and
    shared with forked shard workers copy-on-write, so shard spawn is
    instant.
    """
    from ..models.configs import ModelConfig
    from ..models.vit import build_vit
    from ..quant.qmodel import PTQPipeline

    config = ModelConfig("scale_tiny_vit", "vit", 16, 4, 3, 10, 32, 2, 2)
    model = build_vit(config, seed=seed)
    rng = np.random.default_rng(seed)
    calib = rng.standard_normal((16, 16, 16, 3)).astype(np.float32)
    pipeline = PTQPipeline(model, method="quq", bits=bits, coverage="full")
    pipeline.calibrate(calib)
    from ..serve.registry import ServableModel

    return ServableModel(ModelKey.parse(f"vit_s/quq/{bits}"), model, 0.0, pipeline)


def _classify_rejection(error: BaseException) -> str:
    """Map a submit-time refusal to its metrics reason label."""
    if isinstance(error, QueueFullError):
        return "queue_full"
    reason = getattr(error, "reason", None)
    return reason if isinstance(reason, str) else "queue_full"


def _recorded_trace_stats(events: list[TraceEvent]) -> dict:
    """Summary for a recorded trace (no generator config to lean on)."""
    per_tenant: dict[str, int] = {}
    per_band: dict[str, int] = {}
    for event in events:
        per_tenant[event.tenant] = per_tenant.get(event.tenant, 0) + 1
        per_band[event.priority] = per_band.get(event.priority, 0) + 1
    duration = events[-1].at_s if events else 0.0
    return {
        "events": len(events),
        "duration_s": round(duration, 3),
        "mean_rate_rps": round(len(events) / duration, 2) if duration else 0.0,
        "recorded": True,
        "per_tenant": dict(sorted(per_tenant.items())),
        "per_band": dict(sorted(per_band.items())),
    }


def run_scale_benchmark(engine, config: ScaleBenchConfig | None = None) -> dict:
    """Replay the trace against ``engine``; return the audit report.

    ``engine`` is a :class:`~repro.serve.engine.ServeEngine` or
    :class:`~repro.serve.cluster.ClusterEngine` (the shard-kill and
    autoscale steps only run when the engine exposes the corresponding
    surface).  Fair-queue weights are read from the engine's admission
    policy when one is attached.
    """
    config = ScaleBenchConfig() if config is None else config
    key = ModelKey.parse(config.spec)
    if config.trace_events is not None:
        trace = config.trace_events
        stats = _recorded_trace_stats(trace)
        duration_s = stats["duration_s"] or 1.0
    else:
        trace = generate_trace(config.trace)
        stats = trace_stats(trace, config.trace)
        duration_s = config.trace.duration_s
    mix = tenant_mix(config.trace)

    engine.warm(key)
    secondary_key = None
    if config.secondary_spec is not None:
        secondary_key = ModelKey.parse(config.secondary_spec)
        engine.warm(secondary_key)

    autoscaler = None
    if config.autoscale is not None and hasattr(engine, "add_shard"):
        autoscaler = Autoscaler(
            engine, config.autoscale,
            clock=engine.clock, admission=getattr(engine, "admission", None),
        )

    # A modest pool of distinct synthetic images, cycled across arrivals.
    size = getattr(getattr(engine, "cluster", None), "image_hw", None)
    if size is None:
        size = key.image_size
    rng = np.random.default_rng(config.trace.seed)
    pool = rng.standard_normal((128, size, size, 3)).astype(np.float32)

    weights = {}
    if getattr(engine, "admission", None) is not None:
        weights = dict(engine.admission.policy.tenant_weights)
    total_weight = sum(weights.values()) or None

    # Kill schedule: the single supervision kill plus the crash burst.
    kill_times: list[float] = []
    if config.kill_shard_at is not None and hasattr(engine, "kill_shard"):
        kill_times.append(config.kill_shard_at * duration_s)
    burst_requested = config.crash_burst_at is not None and hasattr(engine, "kill_shard")
    elastic_demanded = (
        config.trace_events is None and config.trace.flash_multiplier > 1.0
    )
    if burst_requested:
        base = config.crash_burst_at * duration_s
        kill_times.extend(
            base + i * config.crash_burst_gap_s
            for i in range(config.crash_burst_kills)
        )
    kill_times.sort()
    kills_requested = len(kill_times)
    kills_delivered = 0
    killed_pid = None

    per_tenant = {
        name: {"offered": 0, "admitted": 0, "completed": 0} for name in mix
    }
    per_band = {
        band: {"offered": 0, "admitted": 0, "completed": 0, "failed": 0,
               "deadline_missed": 0}
        for band in PRIORITIES
    }
    rejections = {reason: 0 for reason in
                  ("queue_full", "shed", "rate_limited", "breaker_open")}
    handles: list[tuple] = []
    offered = admitted = 0
    start = time.monotonic()
    for index, event in enumerate(trace):
        delay = (start + event.at_s) - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        while kill_times and event.at_s >= kill_times[0]:
            kill_times.pop(0)
            try:
                killed_pid = engine.kill_shard(key, 0)
                kills_delivered += 1
            except Exception:
                killed_pid = killed_pid or -1  # already down; supervision owns it
        event_key = ModelKey.parse(event.spec) if event.spec else key
        tenant = per_tenant.setdefault(
            event.tenant, {"offered": 0, "admitted": 0, "completed": 0}
        )
        band = per_band[event.priority]
        offered += 1
        tenant["offered"] += 1
        band["offered"] += 1
        try:
            handle = engine.submit(
                event_key, pool[index % len(pool)], tenant=event.tenant,
                priority=event.priority, deadline_ms=event.deadline_ms,
            )
        except Exception as error:
            reason = _classify_rejection(error)
            rejections[reason] = rejections.get(reason, 0) + 1
            continue
        admitted += 1
        tenant["admitted"] += 1
        band["admitted"] += 1
        handles.append((event.tenant, event.priority, handle))
        if index % config.watchdog_every == 0:
            engine.check_watchdog()
        if autoscaler is not None and index % config.tick_every == 0:
            autoscaler.tick()

    # Settle: keep supervising (and autoscaling) while in-flight drains,
    # then keep ticking so post-flash scale-downs, borrow returns, and
    # quarantine-recovery probes land inside the run.
    settle_deadline = time.monotonic() + config.settle_s
    drained = False
    while time.monotonic() < settle_deadline:
        engine.check_watchdog()
        if autoscaler is not None:
            autoscaler.tick()
        if engine.drain(timeout=0.25):
            drained = True
            if autoscaler is None:
                break
            counts = {
                e["action"] for e in autoscaler.events
            }
            # Stay in the settle loop until the elastic story completes
            # (or the budget runs out): a drained scale-down, every loan
            # returned, and the quarantine probe when a crash burst was
            # delivered.
            need_down = elastic_demanded and "scale_down" not in counts
            need_probe = burst_requested and "quarantine_clear" not in counts
            need_return = bool(autoscaler.snapshot()["active_loans"])
            if not need_down and not need_probe and not need_return:
                break
        time.sleep(0.05)

    completed = failed = nonfinite_served = 0
    latencies_ms: list[float] = []
    wait_budget = max(5.0, 2.0 * engine.policy.timeout_ms / 1000.0)
    for tenant_name, priority, handle in handles:
        band = per_band[priority]
        try:
            result = handle.result(timeout=wait_budget)
        except Exception as error:
            failed += 1
            band["failed"] += 1
            if getattr(error, "reason", None) == "deadline":
                band["deadline_missed"] += 1
            continue
        completed += 1
        per_tenant[tenant_name]["completed"] += 1
        band["completed"] += 1
        if handle.completed_at is not None:
            latencies_ms.append((handle.completed_at - handle.enqueued_at) * 1e3)
        if not np.isfinite(result.logits).all() or (
            np.abs(result.logits).max() > engine.guard.saturation_limit
        ):
            nonfinite_served += 1

    # ------------------------------------------------------------------
    # Fairness: each tenant's share of admissions vs its fair-queue weight.
    fairness = {}
    fairness_ok = True
    for name, row in sorted(per_tenant.items()):
        if row["offered"] == 0:
            continue
        share = row["admitted"] / admitted if admitted else 0.0
        if total_weight:
            weight = weights.get(name, 0.0) / total_weight
        else:
            weight = mix.get(name, 1.0 / max(1, len(mix)))
        offered_share = row["offered"] / offered if offered else 0.0
        ratio = share / weight if weight > 0 else 0.0
        starved = row["admitted"] == 0
        # Over-service is bounded for everyone; under-service is only a
        # violation for tenants that actually demanded their entitlement.
        over = ratio > config.fairness_ratio + 1e-9
        under = (
            offered_share >= weight
            and ratio < 1.0 / config.fairness_ratio - 1e-9
        )
        ok = not (starved or over or under)
        fairness_ok = fairness_ok and ok
        fairness[name] = {
            **row,
            "weight_share": round(weight, 4),
            "offered_share": round(offered_share, 4),
            "admitted_share": round(share, 4),
            "ratio_to_weight": round(ratio, 3),
            "starved": starved,
            "ok": ok,
        }

    # Priority bands: miss rates + who absorbed the shedding.
    priorities = {}
    deadline_ok = True
    for band_name in PRIORITIES:
        row = per_band[band_name]
        miss_rate = (
            row["deadline_missed"] / row["admitted"] if row["admitted"] else 0.0
        )
        shed_share = (
            1.0 - row["admitted"] / row["offered"] if row["offered"] else 0.0
        )
        priorities[band_name] = {
            **row,
            "deadline_miss_rate": round(miss_rate, 4),
            "refusal_rate": round(shed_share, 4),
        }
        if band_name == "interactive" and row["admitted"]:
            deadline_ok = miss_rate <= config.deadline_miss_bound + 1e-12

    rejected = sum(rejections.values())
    resolved = sum(1 for _, _, h in handles if h.done())
    ledger_ok = (offered == admitted + rejected) and (
        admitted == completed + failed
    ) and resolved == admitted
    availability = completed / admitted if admitted else 0.0
    shed_rate = rejections.get("shed", 0) / offered if offered else 0.0

    lat = np.asarray(latencies_ms) if latencies_ms else np.zeros(1)
    p50, p99, p999 = (float(np.percentile(lat, q)) for q in (50, 99, 99.9))
    p999_bound = (
        config.p999_bound_ms
        if config.p999_bound_ms is not None
        else 2.0 * engine.policy.timeout_ms
    )

    snapshot = engine.snapshot()
    counters = snapshot["counters"]
    deadlock_free = drained and all(h.done() for _, _, h in handles)
    recovery = {
        "shard_kill_requested": kills_requested > 0,
        "kills_delivered": kills_delivered,
        "killed_pid": killed_pid,
        "reroutes_total": counters.get("reroutes_total", 0),
        "shard_restarts_total": counters.get("shard_restarts_total", 0),
        "watchdog_restarts_total": counters.get("watchdog_restarts_total", 0),
        "quarantine_batches_total": counters.get("quarantine_batches_total", 0),
    }
    recovery_ok = (not recovery["shard_kill_requested"]) or (
        killed_pid is not None
        and recovery["shard_restarts_total"] > 0
        and deadlock_free
    )

    # Elasticity audit from the autoscaler's event ledger.
    autoscale_report: dict = {"enabled": autoscaler is not None}
    autoscale_ok = True
    if autoscaler is not None:
        scaler = autoscaler.snapshot()
        events = scaler["events"]
        downs = [e for e in events if e["action"] == "scale_down"]
        # The full elastic story (scale up, then a drained scale down) is
        # only *demanded* when the run contains a flash crowd to drive
        # it; a gentle recorded trace must not fail for staying flat.
        demanded = elastic_demanded
        autoscale_report.update({
            "events": events,
            "event_counts": scaler["event_counts"],
            "elasticity_demanded": demanded,
            "scale_ups": scaler["event_counts"].get("scale_up", 0),
            "scale_downs": len(downs),
            "scale_downs_drained_cleanly": (
                len(downs) > 0 and all(e.get("drained") for e in downs)
            ),
            "quarantines": scaler["event_counts"].get("quarantine", 0),
            "quarantine_probes": scaler["event_counts"].get(
                "quarantine_clear", 0
            ),
            "borrows": scaler["event_counts"].get("borrow", 0),
            "borrow_returns": scaler["event_counts"].get("borrow_return", 0),
            "final_shards": {
                spec: engine.shard_count(spec) for spec in engine.lane_specs()
            },
        })
        if demanded:
            autoscale_ok = (
                autoscale_report["scale_ups"] >= 1
                and autoscale_report["scale_downs_drained_cleanly"]
            )
        else:
            autoscale_ok = all(e.get("drained") for e in downs)
        if burst_requested:
            autoscale_ok = autoscale_ok and autoscale_report["quarantines"] >= 1

    passed = (
        availability >= config.availability_floor
        and p999 <= p999_bound
        and ledger_ok
        and fairness_ok
        and nonfinite_served == 0
        and deadlock_free
        and recovery_ok
        and deadline_ok
        and autoscale_ok
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "spec": key.spec,
        "seed": config.trace.seed,
        "trace": stats,
        "offered": offered,
        "admitted": admitted,
        "completed": completed,
        "failed": failed,
        "rejected": rejected,
        "rejections": rejections,
        "availability": round(availability, 4),
        "availability_floor": config.availability_floor,
        "shed_rate": round(shed_rate, 4),
        "latency_ms": {
            "p50": round(p50, 2),
            "p99": round(p99, 2),
            "p999": round(p999, 2),
            "bound_p999": round(p999_bound, 2),
            "samples": len(latencies_ms),
        },
        "tenants": fairness,
        "fairness_ratio_bound": config.fairness_ratio,
        "fairness_ok": fairness_ok,
        "priorities": priorities,
        "deadline_miss_bound": config.deadline_miss_bound,
        "deadline_ok": deadline_ok,
        "no_silent_drop": ledger_ok,
        "nonfinite_served": nonfinite_served,
        "deadlock_free": deadlock_free,
        "recovery": recovery,
        "recovery_ok": recovery_ok,
        "autoscale": autoscale_report,
        "autoscale_ok": autoscale_ok,
        "admission": snapshot.get("admission", {}),
        "passed": passed,
        "snapshot": snapshot,
    }


def format_scale_report(report: dict) -> str:
    """Human-readable rendering of a scale benchmark report."""
    from .reporting import format_table

    verdict = "PASS" if report["passed"] else "FAIL"
    trace = report["trace"]
    flash = trace.get("flash_over_steady", "-")
    sections = [
        format_table(
            ["spec", "offered", "admitted", "completed", "failed", "rejected",
             "availability", "floor", "shed rate", "verdict"],
            [[report["spec"], report["offered"], report["admitted"],
              report["completed"], report["failed"], report["rejected"],
              report["availability"], report["availability_floor"],
              report["shed_rate"], verdict]],
            title=(
                f"Scale benchmark (seed {report['seed']}, flash "
                f"{flash}x steady)"
            ),
        ),
        format_table(
            ["p50 ms", "p99 ms", "p99.9 ms", "p99.9 bound", "samples"],
            [[report["latency_ms"]["p50"], report["latency_ms"]["p99"],
              report["latency_ms"]["p999"], report["latency_ms"]["bound_p999"],
              report["latency_ms"]["samples"]]],
            title="Admitted-request latency",
        ),
        format_table(
            ["reason", "count"],
            sorted(report["rejections"].items()),
            title="Typed rejections",
        ),
        format_table(
            ["band", "offered", "admitted", "completed", "missed deadline",
             "miss rate", "refusal rate"],
            [[name, row["offered"], row["admitted"], row["completed"],
              row["deadline_missed"], row["deadline_miss_rate"],
              row["refusal_rate"]]
             for name, row in report["priorities"].items()],
            title="Priority bands",
        ),
        format_table(
            ["tenant", "offered", "admitted", "weight", "share", "ratio",
             "starved", "ok"],
            [[name, row["offered"], row["admitted"], row["weight_share"],
              row["admitted_share"], row["ratio_to_weight"], row["starved"],
              row["ok"]]
             for name, row in sorted(report["tenants"].items())],
            title="Per-tenant fairness",
        ),
    ]
    recovery = report["recovery"]
    if recovery["shard_kill_requested"]:
        sections.append(format_table(
            ["kills", "killed pid", "shard restarts", "reroutes",
             "watchdog restarts", "quarantine batches", "recovered"],
            [[recovery["kills_delivered"], recovery["killed_pid"],
              recovery["shard_restarts_total"], recovery["reroutes_total"],
              recovery["watchdog_restarts_total"],
              recovery["quarantine_batches_total"], report["recovery_ok"]]],
            title="Shard-loss recovery",
        ))
    autoscale = report.get("autoscale", {})
    if autoscale.get("enabled"):
        sections.append(format_table(
            ["scale ups", "scale downs", "drained cleanly", "quarantines",
             "probes", "borrows", "returns", "final shards"],
            [[autoscale["scale_ups"], autoscale["scale_downs"],
              autoscale["scale_downs_drained_cleanly"],
              autoscale["quarantines"], autoscale["quarantine_probes"],
              autoscale["borrows"], autoscale["borrow_returns"],
              " ".join(
                  f"{spec}={count}"
                  for spec, count in autoscale["final_shards"].items()
              )]],
            title="Elastic control plane",
        ))
    checks = format_table(
        ["check", "ok"],
        [["availability >= floor",
          report["availability"] >= report["availability_floor"]],
         ["p99.9 bounded",
          report["latency_ms"]["p999"] <= report["latency_ms"]["bound_p999"]],
         ["no silent drop", report["no_silent_drop"]],
         ["fairness", report["fairness_ok"]],
         ["interactive deadline misses bounded", report["deadline_ok"]],
         ["no non-finite served", report["nonfinite_served"] == 0],
         ["deadlock free", report["deadlock_free"]],
         ["shard-loss recovery", report["recovery_ok"]],
         ["elastic scaling", report["autoscale_ok"]]],
        title="Gates",
    )
    sections.append(checks)
    return "\n\n".join(sections)
