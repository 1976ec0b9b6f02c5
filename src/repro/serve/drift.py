"""Drift-aware serving: per-lane monitors and online recalibration.

Ties :mod:`repro.quant.drift` into the serving runtime.  Each quantized
lane gets a :class:`~repro.quant.drift.DriftMonitor` seeded with the
calibration fingerprints of its :class:`~repro.serve.registry.ServableModel`
(taken when this manager first reads them, on the lane's first monitored
batch), plus a bounded buffer of recent input images.  Every
batch feeds the monitor (the ``input`` pseudo-tap always; activation taps
via a sampled :class:`~repro.quant.drift.TapStatsRecorder`), and when
drift is *sustained* the :class:`RecalibrationManager` reacts:

1. **shadow recalibration** — a fresh model instance is loaded and its
   pipeline calibrated on the recent-input buffer
   (:meth:`~repro.serve.registry.ModelRegistry.shadow_build`) while the
   stale entry keeps serving;
2. **canary validation** — the candidate's quantized logits are checked
   against its own float path on held-out buffer images (finite, and
   top-1 agreement above the policy floor);
3. **atomic swap** — only a passing candidate is installed via
   :meth:`~repro.serve.registry.ModelRegistry.swap`; lanes resolve
   through ``registry.get`` every batch, so the next batch serves it;
4. **cooldown** — breaker-style: after any attempt (swap or reject) no
   new attempt starts until ``cooldown_s`` elapses on the injected
   clock, so a noisy monitor cannot flap the quantizer.

Everything is observable through the engine's metrics snapshot
(``drift_alerts_total``, ``recalibrations_total``,
``recalibration_swaps_total``, ``recalibration_rejects_total`` and the
per-lane ``drift`` section).
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..quant.drift import (
    INPUT_TAP,
    DriftMonitor,
    DriftThresholds,
    DriftVerdict,
    TapStatsRecorder,
)
from .metrics import Metrics
from .registry import ModelKey, ModelRegistry, ServableModel

__all__ = ["DriftPolicy", "DriftOutcome", "RecalibrationManager"]


@dataclass
class DriftPolicy:
    """Tunables for drift monitoring and the recalibrate-swap reaction."""

    thresholds: DriftThresholds = field(default_factory=DriftThresholds)
    sample_every: int = 4  # attach the activation recorder every Nth batch
    buffer_size: int = 128  # recent input images retained per lane
    min_recalibration_images: int = 32  # buffer needed before acting
    canary_count: int = 16  # held-out buffer images for validation
    canary_agreement_floor: float = 0.7  # quantized-vs-float top-1 agreement
    cooldown_s: float = 60.0  # breaker-style pause between attempts

    def __post_init__(self):
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {self.sample_every}")
        if self.canary_count < 1 or self.min_recalibration_images < 1:
            raise ValueError("canary_count and min_recalibration_images must be >= 1")
        if self.buffer_size < self.min_recalibration_images + self.canary_count:
            raise ValueError(
                "buffer_size must hold min_recalibration_images + canary_count "
                f"images, got {self.buffer_size}"
            )
        if not 0.0 <= self.canary_agreement_floor <= 1.0:
            raise ValueError("canary_agreement_floor must be within [0, 1]")
        if self.cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {self.cooldown_s}")


@dataclass
class DriftOutcome:
    """What one monitored batch led to."""

    verdict: DriftVerdict
    alerted: bool = False  # this batch entered the sustained state
    attempted: bool = False  # a recalibration attempt ran
    swapped: bool = False  # ... and the candidate passed canary + swapped
    rejected: bool = False  # ... or it failed and was discarded
    skip_reason: str | None = None  # sustained but no attempt (cooldown/buffer)


class _LaneDrift:
    """Per-lane monitor, buffer, and recalibration bookkeeping."""

    def __init__(self, servable: ServableModel, policy: DriftPolicy):
        self.servable = servable
        self.monitor = DriftMonitor(servable.fingerprints, policy.thresholds)
        self.buffer: deque[np.ndarray] = deque(maxlen=policy.buffer_size)
        self.lock = threading.Lock()
        self.batches = 0
        self.attempts = 0
        self.swaps = 0
        self.rejects = 0
        self.last_attempt_at: float | None = None
        self.last_canary_agreement: float | None = None


class RecalibrationManager:
    """Reacts to sustained drift with shadow recalibration and atomic swap."""

    def __init__(
        self,
        registry: ModelRegistry,
        policy: DriftPolicy | None = None,
        metrics: Metrics | None = None,
        clock=None,
    ):
        import time

        self.registry = registry
        self.policy = DriftPolicy() if policy is None else policy
        self.metrics = Metrics() if metrics is None else metrics
        self.clock = time.monotonic if clock is None else clock
        self._lanes: dict[ModelKey, _LaneDrift] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _state_for(self, key: ModelKey, servable: ServableModel) -> _LaneDrift | None:
        """The lane's drift state, rebound when the servable was replaced.

        Returns None for lanes that cannot be monitored (float fallback,
        fp32, or fingerprinting unavailable).
        """
        if not servable.quantized or not servable.fingerprints:
            return None
        with self._lock:
            state = self._lanes.get(key)
            if state is None or state.servable is not servable:
                fresh = _LaneDrift(servable, self.policy)
                if state is not None:
                    # Keep cross-swap bookkeeping so cooldown survives the
                    # swap (otherwise a swap re-arms itself immediately).
                    fresh.attempts = state.attempts
                    fresh.swaps = state.swaps
                    fresh.rejects = state.rejects
                    fresh.last_attempt_at = state.last_attempt_at
                    fresh.last_canary_agreement = state.last_canary_agreement
                self._lanes[key] = fresh
                state = fresh
            return state

    def recorder_for(
        self, key: ModelKey, servable: ServableModel
    ) -> TapStatsRecorder | None:
        """Activation-stats recorder for this batch, if it is a sampled one."""
        state = self._state_for(key, servable)
        if state is None:
            return None
        with state.lock:
            if state.batches % self.policy.sample_every == 0:
                return TapStatsRecorder(state.monitor)
            return None

    # ------------------------------------------------------------------
    def finish_batch(
        self, key: ModelKey, servable: ServableModel, images: np.ndarray
    ) -> DriftOutcome | None:
        """Fold one served batch into the lane's drift state and react.

        Called after the batch's logits were produced (on either path).
        Returns None when the lane is not monitored.  Recalibration runs
        synchronously on the calling worker thread — deterministic, and
        the stale entry keeps serving other lanes meanwhile.
        """
        state = self._state_for(key, servable)
        if state is None:
            return None
        spec = key.spec
        with state.lock:
            state.batches += 1
            state.monitor.observe(INPUT_TAP, images)
            alerts_before = state.monitor.alerts
            verdict = state.monitor.complete_batch()
            outcome = DriftOutcome(
                verdict, alerted=state.monitor.alerts > alerts_before
            )
            for image in np.asarray(images):
                state.buffer.append(np.array(image, dtype=np.float32))
            if outcome.alerted:
                self.metrics.count("drift_alerts_total", spec=spec)
            if not verdict.sustained:
                return outcome
            now = self.clock()
            if (
                state.last_attempt_at is not None
                and now - state.last_attempt_at < self.policy.cooldown_s
            ):
                outcome.skip_reason = "cooldown"
                return outcome
            needed = self.policy.min_recalibration_images + self.policy.canary_count
            if len(state.buffer) < needed:
                outcome.skip_reason = f"buffer {len(state.buffer)} < {needed}"
                return outcome
            state.last_attempt_at = now
            state.attempts += 1
            buffered = np.stack(list(state.buffer))
        # Shadow build outside the state lock: the lane keeps serving the
        # stale entry (registry.get) while the candidate calibrates.
        outcome.attempted = True
        self.metrics.count("recalibrations_total", spec=spec)
        swapped, agreement = self._recalibrate(key, buffered)
        with state.lock:
            state.last_canary_agreement = agreement
            if swapped:
                state.swaps += 1
                state.monitor.reset()
            else:
                state.rejects += 1
        outcome.swapped = swapped
        outcome.rejected = not swapped
        self.metrics.count(
            "recalibration_swaps_total" if swapped else "recalibration_rejects_total",
            spec=spec,
        )
        return outcome

    def _recalibrate(
        self, key: ModelKey, buffered: np.ndarray
    ) -> tuple[bool, float | None]:
        """Shadow-recalibrate on the buffer; swap only a canary-clean result."""
        canary = buffered[-self.policy.canary_count :]
        calib = buffered[: -self.policy.canary_count]
        try:
            candidate = self.registry.shadow_build(key, calib)
            quant_logits = candidate.predict(canary)
            float_logits = candidate.predict_float(canary)
            if not (np.isfinite(quant_logits).all() and np.isfinite(float_logits).all()):
                return False, None
            agreement = float(
                np.mean(quant_logits.argmax(axis=-1) == float_logits.argmax(axis=-1))
            )
            if agreement < self.policy.canary_agreement_floor:
                return False, agreement
            self.registry.swap(key, candidate)
            return True, agreement
        except Exception:
            return False, None

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-serializable per-lane drift state for the metrics snapshot."""
        with self._lock:
            lanes = dict(self._lanes)
        out = {}
        for key, state in lanes.items():
            with state.lock:
                cooldown = 0.0
                if state.last_attempt_at is not None:
                    cooldown = max(
                        0.0,
                        self.policy.cooldown_s - (self.clock() - state.last_attempt_at),
                    )
                out[key.spec] = {
                    "monitor": state.monitor.snapshot(),
                    "buffered_images": len(state.buffer),
                    "batches": state.batches,
                    "attempts": state.attempts,
                    "swaps": state.swaps,
                    "rejects": state.rejects,
                    "cooldown_remaining_s": round(cooldown, 4),
                    "last_canary_agreement": state.last_canary_agreement,
                }
        return out
