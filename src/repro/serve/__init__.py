"""Batched inference serving runtime over calibrated PTQ models.

Turns the offline reproduction into a request-serving system:

* :mod:`repro.serve.registry` — named model artifacts (``vit_s/quq/6``),
  calibrated on first use, cached with LRU eviction, warm-started from
  serialized quantizer state across restarts.
* :mod:`repro.serve.scheduler` — dynamic micro-batching with bounded
  queues, per-request timeouts, and reject-with-reason backpressure.
* :mod:`repro.serve.core` — the one lane core both engines share:
  admission, breaker/degrade, quant->float failover and guard
  accounting, completion with deadline withholding, drain/stop/snapshot,
  parameterised by an executor that runs a batch on one datapath.
* :mod:`repro.serve.engine` — the core with in-process executors: worker
  threads running batches through the registry's (quantized) model,
  degrading to the float model on artifact failure.
* :mod:`repro.serve.metrics` — counters, batch/queue distributions, and
  latency histograms exported as a JSON snapshot; ``Metrics.count``
  fills every label rollup declared for a counter family.
* :mod:`repro.serve.drift` — activation-drift monitoring and online
  recalibration (fingerprint compare -> shadow recalibrate -> canary ->
  atomic swap).
* :mod:`repro.serve.admission` — admission control in front of submit:
  token-bucket rate limits, queue/p99-derived load shedding, weighted
  fair queuing with starvation guards, and a degrade ladder.
* :mod:`repro.serve.cluster` — the core with shard executors: replica
  worker processes per model, one pipe each, supervised
  (health checks, restarts, in-flight re-routing) by the parent; a
  quarantined lane swaps them for an in-parent float executor.
* :mod:`repro.serve.traces` — seeded traffic traces (diurnal cycles,
  flash crowds, heavy-tailed tenant mixes, priority bands/deadlines)
  for the scale benchmark (``python -m repro scale-bench``, whose
  open-loop replay in :mod:`repro.analysis.scale` every serving harness
  shares), plus JSONL record/replay.
* :mod:`repro.serve.autoscaler` — elastic control plane: scales shard
  replicas between ``min_shards``/``max_shards`` on ladder/queue/crash
  pressure with hysteresis + cooldown, quarantines crash-looping specs
  to float fallback with exponential respawn backoff, and lends idle
  shard capacity to saturated lanes under a bounded borrow budget.
"""

from .metrics import Counter, Distribution, Gauge, Histogram, Metrics
from .drift import DriftOutcome, DriftPolicy, RecalibrationManager
from .scheduler import (
    DEFAULT_PRIORITY,
    PRIORITIES,
    PRIORITY_BANDS,
    Batch,
    BatchPolicy,
    DeadlineExceededError,
    MicroBatchScheduler,
    QueueFullError,
    RequestTimeoutError,
    ServeRequest,
)
from .registry import ModelKey, ModelRegistry, ServableModel
from .admission import (
    REJECT_REASONS,
    AdmissionController,
    AdmissionError,
    AdmissionPolicy,
    BreakerOpenError,
    RateLimitedError,
    ShedError,
)
from .engine import ServeEngine, ServeResult
from .cluster import ClusterEngine, ClusterPolicy
from .autoscaler import AutoscalePolicy, Autoscaler
from .traces import (
    TraceConfig,
    TraceEvent,
    generate_trace,
    load_trace,
    save_trace,
    tenant_mix,
    trace_stats,
)

__all__ = [
    "Counter",
    "Distribution",
    "Gauge",
    "Histogram",
    "Metrics",
    "Batch",
    "BatchPolicy",
    "DEFAULT_PRIORITY",
    "PRIORITIES",
    "PRIORITY_BANDS",
    "DeadlineExceededError",
    "MicroBatchScheduler",
    "QueueFullError",
    "RequestTimeoutError",
    "ServeRequest",
    "ModelKey",
    "ModelRegistry",
    "ServableModel",
    "ServeEngine",
    "ServeResult",
    "DriftOutcome",
    "DriftPolicy",
    "RecalibrationManager",
    "REJECT_REASONS",
    "AdmissionController",
    "AdmissionError",
    "AdmissionPolicy",
    "BreakerOpenError",
    "RateLimitedError",
    "ShedError",
    "ClusterEngine",
    "ClusterPolicy",
    "AutoscalePolicy",
    "Autoscaler",
    "TraceConfig",
    "TraceEvent",
    "generate_trace",
    "load_trace",
    "save_trace",
    "tenant_mix",
    "trace_stats",
]
