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

* a **worker watchdog** — a lane that is busy but silent past
  ``watchdog_stall_s`` gets a replacement worker via
  :meth:`ServeEngine.check_watchdog` (the wedged daemon thread finishes
  or dies on its own; late completions are first-wins no-ops);
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

    def __init__(self, engine: "ServeEngine", key: ModelKey):
        self.engine = engine
        self.key = key
        self.servable = None

    def begin(self, batch) -> bool:
        engine, spec = self.engine, self.key.spec
        engine.watchdog.beat(spec, now=engine.clock())
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
        engine = self.engine
        if engine.drift is not None:
            engine.watchdog.beat(self.key.spec, now=engine.clock())
            engine.drift.finish_batch(self.key, self.servable, batch.images)
            engine.watchdog.beat(self.key.spec, now=engine.clock())


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
        self.watchdog.reset(lane.key.spec, now=self.clock())
        for _ in range(self.workers):
            self._start_worker(lane)

    def _start_worker(self, lane: Lane) -> None:
        self._start(lane, lane.claim(), _LocalExecutor(self, lane.key), name="serve")

    def _beat(self, lane: Lane) -> None:
        self.watchdog.beat(lane.key.spec, now=self.clock())

    def warm(self, spec: str | ModelKey) -> None:
        """Load (and calibrate or warm-start) a model before traffic arrives."""
        self.registry.get(spec)

    def check_watchdog(self, now: float | None = None) -> list[str]:
        """Restart any lane that is busy but has stopped heartbeating.

        Returns the specs restarted.  Callers drive this explicitly (the
        chaos soak does so between arrivals; tests with a fake clock call
        it directly) so detection is deterministic.
        """
        now = self.clock() if now is None else now
        with self._lock:
            if self._stopping:
                return []
            lanes = list(self._lanes.values())
        restarted = []
        for lane in lanes:
            with lane.lock:
                busy = bool(lane.active)
            if not busy or not self.watchdog.stalled(lane.key.spec, now=now):
                continue
            with self._lock:
                if self._stopping:
                    break
                self._start_worker(lane)
            with lane.lock:
                lane.restarts += 1
            self.watchdog.reset(lane.key.spec, now=now)
            self.metrics.count("watchdog_restarts_total", spec=lane.key.spec)
            restarted.append(lane.key.spec)
        return restarted
