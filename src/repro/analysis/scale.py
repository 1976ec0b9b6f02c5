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
harness.  With ``--flash-multiplier 1 --tenants 1 --no-kill
--no-autoscale`` it is a plain steady-load run of the serving runtime.

:class:`Replay` is the one open-loop sender every serving harness runs
on: this benchmark, the chaos soak (:mod:`repro.resilience.soak`) and
the serving-throughput sweep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..serve.admission import AdmissionError
from ..serve.autoscaler import AutoscalePolicy, Autoscaler
from ..serve.core import ServeResult
from ..serve.registry import ModelKey
from ..serve.scheduler import PRIORITIES, QueueFullError, ServeRequest
from ..serve.traces import TraceConfig, TraceEvent, generate_trace, tenant_mix, trace_stats

__all__ = [
    "SCHEMA_VERSION",
    "Outcome",
    "Replay",
    "ScaleBenchConfig",
    "image_pool",
    "tiny_scale_servable",
    "run_scale_benchmark",
    "format_scale_report",
]

#: Schema version of the report dict (bump on breaking layout changes).
#: v2: adds ``priorities`` and ``autoscale`` sections, crash-burst
#: recovery fields, and recorded-trace replay.
SCHEMA_VERSION = 2

#: The p99.9 client latency bound, in multiples of the lane timeout.
P999_BOUND_TIMEOUTS = 2.0
#: Each tenant's admitted share must stay within this factor of its weight.
FAIRNESS_RATIO = 2.0
#: Seconds between the kills of a crash burst.
CRASH_BURST_GAP_S = 0.2
#: Ceiling on the interactive band's deadline-miss rate.
DEADLINE_MISS_BOUND = 0.01


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
    kill_shard_at: float | None = 0.5  # trace fraction; None disables the kill
    # Crash burst: repeated SIGKILLs of the same spec starting at this
    # trace fraction, to drive the autoscaler's crash-loop quarantine.
    crash_burst_at: float | None = None
    crash_burst_kills: int = 3
    watchdog_every: int = 25  # sweep idle-crashed shards every N arrivals
    settle_s: float = 10.0  # drain budget after the last arrival
    # Elastic control plane (None = static shard pool, the v1 behavior).
    autoscale: AutoscalePolicy | None = None
    tick_every: int = 8  # autoscaler tick cadence, in arrivals
    secondary_spec: str | None = None  # idle lane that can lend capacity

    def __post_init__(self):
        if not 0.0 <= self.availability_floor <= 1.0:
            raise ValueError("availability_floor must be within [0, 1]")
        if self.kill_shard_at is not None and not 0.0 <= self.kill_shard_at <= 1.0:
            raise ValueError("kill_shard_at is a fraction of the trace duration")
        if self.crash_burst_at is not None and not 0.0 <= self.crash_burst_at <= 1.0:
            raise ValueError("crash_burst_at is a fraction of the trace duration")
        if self.crash_burst_kills < 1:
            raise ValueError("crash_burst_kills must be >= 1")
        if self.watchdog_every < 1 or self.settle_s <= 0:
            raise ValueError("watchdog_every must be >= 1 and settle_s > 0")
        if self.tick_every < 1:
            raise ValueError("tick_every must be >= 1")


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


def image_pool(count: int, size: int, seed: int) -> np.ndarray:
    """Unit-normal noise images, shaped like normalized dataset samples."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, size, size, 3)).astype(np.float32)


@dataclass
class Outcome:
    """What became of one offered request.

    A refused request carries its typed ``refused`` reason; an admitted
    one its ``handle`` and, after the replay's outcome scan, either the
    ``result`` it was served or the ``error`` it failed with.
    """

    event: TraceEvent
    refused: str | None = None
    handle: ServeRequest | None = None
    result: ServeResult | None = None
    error: BaseException | None = None
    nonfinite: bool = False  # served with NaN/Inf/saturated logits


class Replay:
    """Open-loop replay of time-sorted arrivals against a serving engine.

    Open loop: each arrival is sent at its due time however fast answers
    come back, so queueing delay shows instead of being self-throttled
    away.  Between arrivals the engine is supervised on a fixed cadence —
    ``check_watchdog`` every ``watchdog_every`` arrivals and the
    autoscaler's ``tick`` every ``tick_every``.  Every request sent
    (arrival, burst copy or settle probe) is one :class:`Outcome`.
    """

    def __init__(self, engine, key: ModelKey, pool: np.ndarray, autoscaler=None,
                 watchdog_every: int = 1, tick_every: int = 1):
        self.engine = engine
        self.key = key  # the spec of arrivals that name none
        self.pool = pool
        self.autoscaler = autoscaler
        self.watchdog_every = watchdog_every
        self.tick_every = tick_every
        self.outcomes: list[Outcome] = []
        self.drained = False

    def send(self, event: TraceEvent, index: int) -> None:
        """Offer one request with pool image ``index``, booking a typed
        refusal; any other ``submit`` error propagates."""
        outcome = Outcome(event)
        try:
            outcome.handle = self.engine.submit(
                ModelKey.parse(event.spec) if event.spec else self.key,
                self.pool[index % len(self.pool)], tenant=event.tenant,
                priority=event.priority, deadline_ms=event.deadline_ms,
            )
        except QueueFullError:
            outcome.refused = "queue_full"
        except AdmissionError as error:
            outcome.refused = error.reason
        self.outcomes.append(outcome)

    def _supervise(self, index: int) -> None:
        if index % self.watchdog_every == 0:
            self.engine.check_watchdog()
        if self.autoscaler is not None and index % self.tick_every == 0:
            self.autoscaler.tick()

    def run(self, events: list[TraceEvent], settle_s: float, on_arrival=None,
            keep_settling=None) -> list[Outcome]:
        """Send ``events`` at their ``at_s`` offsets, settle, scan outcomes.

        ``on_arrival(index, event)`` runs just before arrival ``index`` is
        sent and returns how many copies of it to send.  Once the arrivals
        are out, the engine is supervised (every pass) while it drains for
        up to ``settle_s``; after each drain ``keep_settling()`` says
        whether the run still waits on something, and may :meth:`send`.
        """
        start = time.monotonic()
        for index, event in enumerate(events):
            delay = (start + event.at_s) - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            copies = 1 if on_arrival is None else on_arrival(index, event)
            for _ in range(copies):
                self.send(event, index)
            self._supervise(index)
        settle_deadline = time.monotonic() + settle_s
        while time.monotonic() < settle_deadline:
            self._supervise(0)  # index 0 is due for both: every pass
            if self.engine.drain(timeout=0.25):
                self.drained = True
                if keep_settling is None or not keep_settling():
                    break
            time.sleep(0.05)
        self._scan()
        return self.outcomes

    def _scan(self) -> None:
        wait_budget = max(5.0, 2.0 * self.engine.policy.timeout_ms / 1000.0)
        limit = self.engine.guard.saturation_limit
        for outcome in self.outcomes:
            if outcome.handle is None:
                continue
            try:
                outcome.result = outcome.handle.result(timeout=wait_budget)
            except Exception as error:
                outcome.error = error
                continue
            logits = outcome.result.logits
            outcome.nonfinite = bool(
                not np.isfinite(logits).all() or np.abs(logits).max() > limit
            )

    @property
    def resolved(self) -> bool:
        """Every admitted request has an answer or an error."""
        return all(o.handle.done() for o in self.outcomes if o.handle is not None)


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
            base + i * CRASH_BURST_GAP_S
            for i in range(config.crash_burst_kills)
        )
    kill_times.sort()
    kills_requested = len(kill_times)
    kills_delivered = 0
    killed_pid = None

    def deliver_kills(index: int, event: TraceEvent) -> int:
        nonlocal kills_delivered, killed_pid
        while kill_times and event.at_s >= kill_times[0]:
            kill_times.pop(0)
            try:
                killed_pid = engine.kill_shard(key, 0)
                kills_delivered += 1
            except Exception:
                killed_pid = killed_pid or -1  # already down; supervision owns it
        return 1

    def elastic_pending() -> bool:
        # Keep settling until the elastic story completes (or the budget
        # runs out): a drained scale-down, every loan returned, and the
        # quarantine probe when a crash burst was delivered.
        if autoscaler is None:
            return False
        actions = {e["action"] for e in autoscaler.events}
        return (
            (elastic_demanded and "scale_down" not in actions)
            or (burst_requested and "quarantine_clear" not in actions)
            or bool(autoscaler.snapshot()["active_loans"])
        )

    # A modest pool of distinct synthetic images, cycled across arrivals.
    size = getattr(getattr(engine, "cluster", None), "image_hw", None)
    replay = Replay(
        engine, key, image_pool(128, size or key.image_size, config.trace.seed),
        autoscaler=autoscaler, watchdog_every=config.watchdog_every,
        tick_every=config.tick_every,
    )
    outcomes = replay.run(trace, config.settle_s, on_arrival=deliver_kills,
                          keep_settling=elastic_pending)

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
    latencies_ms: list[float] = []
    for outcome in outcomes:
        event, handle = outcome.event, outcome.handle
        tenant = per_tenant.setdefault(
            event.tenant, {"offered": 0, "admitted": 0, "completed": 0}
        )
        band = per_band[event.priority]
        tenant["offered"] += 1
        band["offered"] += 1
        if outcome.refused is not None:
            rejections[outcome.refused] = rejections.get(outcome.refused, 0) + 1
            continue
        tenant["admitted"] += 1
        band["admitted"] += 1
        if outcome.result is None:
            band["failed"] += 1
            if getattr(outcome.error, "reason", None) == "deadline":
                band["deadline_missed"] += 1
            continue
        tenant["completed"] += 1
        band["completed"] += 1
        if handle.completed_at is not None:
            latencies_ms.append((handle.completed_at - handle.enqueued_at) * 1e3)
    offered = len(outcomes)
    admitted, completed, failed = (
        sum(row[column] for row in per_band.values())
        for column in ("admitted", "completed", "failed")
    )
    nonfinite_served = sum(outcome.nonfinite for outcome in outcomes)

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
        over = ratio > FAIRNESS_RATIO + 1e-9
        under = (
            offered_share >= weight
            and ratio < 1.0 / FAIRNESS_RATIO - 1e-9
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
            deadline_ok = miss_rate <= DEADLINE_MISS_BOUND + 1e-12

    rejected = sum(rejections.values())
    ledger_ok = (offered == admitted + rejected) and (
        admitted == completed + failed
    ) and replay.resolved
    availability = completed / admitted if admitted else 0.0
    shed_rate = rejections.get("shed", 0) / offered if offered else 0.0

    lat = np.asarray(latencies_ms) if latencies_ms else np.zeros(1)
    p50, p99, p999 = (float(np.percentile(lat, q)) for q in (50, 99, 99.9))
    p999_bound = P999_BOUND_TIMEOUTS * engine.policy.timeout_ms

    snapshot = engine.snapshot()
    counters = snapshot["counters"]
    deadlock_free = replay.drained and replay.resolved
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
        "fairness_ratio_bound": FAIRNESS_RATIO,
        "fairness_ok": fairness_ok,
        "priorities": priorities,
        "deadline_miss_bound": DEADLINE_MISS_BOUND,
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
