"""In-process serving: the lane core plus worker threads over the registry.

One *lane* per model spec (:mod:`repro.serve.core`), each with its own
bounded queue and worker thread(s): a worker pulls coalesced batches from
the lane's scheduler and runs them through the registry's (quantized)
model, looked up afresh for every batch.  The registry already degrades
to the float model when a quantized artifact fails to load; the core
protects the steady state on top of that (:mod:`repro.resilience`) with
a per-lane **circuit breaker**, a **numeric guardrail** on every batch of
logits, and admission control.  This module adds what is specific to
running batches on threads of the serving process:

* a **worker watchdog** — every worker heartbeats under its own name; a
  worker whose own batch is in flight but whose own beat is older than
  ``watchdog_stall_s`` is retired and replaced by
  :meth:`~repro.serve.core.LaneCore.check_watchdog` (the wedged daemon
  thread finishes its batch and exits; late completions are first-wins
  no-ops);
* optional **drift-aware recalibration** (:mod:`repro.serve.drift`) —
  lanes sample input/activation statistics against the calibration
  fingerprint, and sustained drift triggers a shadow recalibration on
  recent inputs, canary-validated and atomically swapped into the
  registry.

An optional :class:`~repro.resilience.faults.FaultPlan` injects
deterministic faults at the batch-execution sites (exceptions, polluted
logits, stalls) — the mechanism the resilience tests and the chaos soak
harness drive.

Single worker per lane is the right default for the NumPy substrate (one
batch saturates the BLAS threads); more workers mainly exercise the
scheduler's busy/idle dispatch paths.
"""

from __future__ import annotations

import time

from ..resilience import ResiliencePolicy
from ..resilience.faults import FaultPlan
from ..resilience.watchdog import WorkerWatchdog
from .admission import AdmissionController
from .core import FLOAT, Executor, Lane, LaneCore, ServeResult, datapath
from .drift import DriftPolicy, RecalibrationManager
from .metrics import Metrics
from .registry import ModelKey, ModelRegistry
from .scheduler import BatchPolicy

__all__ = ["ServeResult", "ServeEngine"]


class _LocalExecutor(Executor):
    """Runs batches on its worker thread through the registry's model."""

    def __init__(self, engine: "ServeEngine", key: ModelKey, index: int):
        self.engine = engine
        self.key = key
        self.name = f"{key.spec}#{index}"  # this worker's watchdog heartbeat
        self.servable = None
        self.beat()

    def beat(self) -> None:
        self.engine.watchdog.beat(self.name, now=self.engine.clock())

    def begin(self, batch) -> bool:
        engine, spec = self.engine, self.key.spec
        self.beat()
        if engine.faults is not None:
            engine.faults.serve_stall(site=spec)  # stuck/slow-worker injection
        # Looked up per batch, so a drift swap or an invalidation serves
        # from the next batch on.
        self.servable = engine.registry.get(self.key)
        return self.servable.quantized

    def run(self, batch, quantized: bool):
        servable, drift = self.servable, self.engine.drift
        if not quantized:
            return servable.predict_float(batch.images), FLOAT
        recorder = drift.recorder_for(self.key, servable) if drift is not None else None
        return servable.predict(batch.images, recorder=recorder), datapath(servable)

    def end(self, batch) -> None:
        # Drift bookkeeping after the requests were answered; a sustained
        # verdict recalibrates synchronously on this worker (the stale
        # entry keeps serving via registry.get meanwhile), so keep the
        # watchdog fed across the potentially long swap.
        drift = self.engine.drift
        if drift is not None:
            self.beat()
            drift.finish_batch(self.key, self.servable, batch.images)
            self.beat()


class ServeEngine(LaneCore):
    """Batched inference over a :class:`~repro.serve.registry.ModelRegistry`."""

    def __init__(
        self,
        registry: ModelRegistry | None = None,
        policy: BatchPolicy | None = None,
        metrics: Metrics | None = None,
        workers: int = 1,
        clock=time.monotonic,
        resilience: ResiliencePolicy | None = None,
        faults: FaultPlan | None = None,
        drift: DriftPolicy | RecalibrationManager | None = None,
        admission: AdmissionController | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        super().__init__(policy, metrics, clock, resilience, faults, admission)
        # `is None` rather than `or`: an empty registry has len() == 0 and
        # would otherwise be silently replaced with a default-loader one.
        self.registry = ModelRegistry() if registry is None else registry
        self.workers = workers
        # Drift-aware serving is opt-in: pass a DriftPolicy (the engine
        # builds the manager over its own registry/metrics/clock) or a
        # pre-wired RecalibrationManager.
        if isinstance(drift, DriftPolicy):
            drift = RecalibrationManager(
                self.registry, drift, metrics=self.metrics, clock=clock
            )
        self.drift = drift
        self.watchdog = WorkerWatchdog(
            stall_after_s=self.resilience.watchdog_stall_s, clock=clock
        )

    def _open(self, lane: Lane) -> None:
        for _ in range(self.workers):
            self._start_worker(lane)

    def _start_worker(self, lane: Lane) -> None:
        index = lane.claim()
        self._start(lane, index, _LocalExecutor(self, lane.key, index), name="serve")

    def _supervise(self, lane, index, executor, busy, now) -> bool:
        """Retire and replace a worker wedged inside its own batch."""
        if not busy or not self.watchdog.stalled(executor.name, now=now):
            return False
        with self._lock:
            if self._stopping:
                return False
            with lane.lock:
                # Fenced, the wedged worker finishes its batch and exits,
                # and no later sweep replaces it again.
                lane.fenced.add(index)
                lane.restarts += 1
            self._start_worker(lane)
        self.metrics.count("watchdog_restarts_total", spec=lane.key.spec)
        return True

    def warm(self, spec: str | ModelKey) -> None:
        """Load (and calibrate or warm-start) a model before traffic arrives."""
        self.registry.get(spec)
