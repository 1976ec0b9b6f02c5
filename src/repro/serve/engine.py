"""In-process serving: the lane core plus one worker thread per lane.

One *lane* per model spec (:mod:`repro.serve.core`), each with its own
bounded queue and one worker thread: the worker pulls coalesced batches
from the lane's scheduler and runs them through the registry's
(quantized) model, looked up afresh for every batch.  One worker is
enough on the NumPy substrate, where one batch saturates the BLAS
threads.  The registry already degrades to the float model when a
quantized artifact fails to load; the core protects the steady state on
top of that (:mod:`repro.resilience`) with a per-lane **circuit
breaker**, a **numeric guardrail** on every batch of logits, admission
control, and the **stall rule**: a worker whose batch has run
``watchdog_stall_s`` past its heartbeat is fenced and replaced by
:meth:`~repro.serve.core.LaneCore.check_watchdog` (the wedged daemon
thread finishes its batch and exits; late completions are first-wins
no-ops).  This module adds what is specific to running batches on a
thread of the serving process:

* the **registry lookup** per batch, so a drift swap or an invalidation
  serves from the next batch on;
* optional **drift-aware recalibration** (:mod:`repro.serve.drift`) —
  lanes sample input/activation statistics against the calibration
  fingerprint, and sustained drift triggers a shadow recalibration on
  recent inputs, canary-validated and atomically swapped into the
  registry.

An optional :class:`~repro.resilience.faults.FaultPlan` injects
deterministic faults at the batch-execution sites (exceptions, polluted
logits, stalls) — the mechanism the resilience tests and the chaos soak
harness drive.
"""

from __future__ import annotations

import time

from ..resilience import ResiliencePolicy
from ..resilience.faults import FaultPlan
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
        # entry keeps serving via registry.get meanwhile), so the heartbeat
        # is restamped before the potentially long swap.
        drift = self.engine.drift
        if drift is not None:
            self.beat_at = self.engine.clock()
            drift.finish_batch(self.key, self.servable, batch.images)


class ServeEngine(LaneCore):
    """Batched inference over a :class:`~repro.serve.registry.ModelRegistry`."""

    def __init__(
        self,
        registry: ModelRegistry | None = None,
        policy: BatchPolicy | None = None,
        metrics: Metrics | None = None,
        clock=time.monotonic,
        resilience: ResiliencePolicy | None = None,
        faults: FaultPlan | None = None,
        drift: DriftPolicy | RecalibrationManager | None = None,
        admission: AdmissionController | None = None,
    ):
        super().__init__(policy, metrics, clock, resilience, faults, admission)
        # `is None` rather than `or`: an empty registry has len() == 0 and
        # would otherwise be silently replaced with a default-loader one.
        self.registry = ModelRegistry() if registry is None else registry
        # Drift-aware serving is opt-in: pass a DriftPolicy (the engine
        # builds the manager over its own registry/metrics/clock) or a
        # pre-wired RecalibrationManager.
        if isinstance(drift, DriftPolicy):
            drift = RecalibrationManager(
                self.registry, drift, metrics=self.metrics, clock=clock
            )
        self.drift = drift

    def _add(self, lane: Lane) -> None:
        """Start one worker thread at a fresh index."""
        self._start(lane, lane.claim(), _LocalExecutor(self, lane.key), name="serve")

    def warm(self, spec: str | ModelKey) -> None:
        """Load (and calibrate or warm-start) a model before traffic arrives."""
        self.registry.get(spec)
