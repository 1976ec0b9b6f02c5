"""Resilience for the serving + PTQ stack: inject faults, prove defenses.

Low-bit inference failures are data-dependent and intermittent, so the
only trustworthy defenses are ones you can watch absorb a *deterministic*
fault schedule.  This package provides both halves:

* :mod:`repro.resilience.faults` — :class:`FaultPlan`, a seeded,
  event-indexed fault schedule covering every layer (registry loads,
  corrupted quantizer state, per-batch exceptions, NaN/Inf/saturated
  logits, stalled workers, queue spikes).
* :mod:`repro.resilience.breaker` — per-lane circuit breaker
  (closed -> open -> half-open probe -> closed).
* :mod:`repro.resilience.retry` — bounded retry-with-backoff for
  transient loads, injectable sleep.
* :mod:`repro.resilience.guards` — numeric guardrail over batch logits.
* :mod:`repro.resilience.soak` — the chaos soak harness
  (``python -m repro chaos-soak``), which replays constant-rate load
  through the shared open-loop replay of :mod:`repro.analysis.scale`
  against a fault plan and reports availability and per-class recovery.

:class:`ResiliencePolicy` bundles the tunables the serving engine wires
into those defenses (``repro.serve.engine`` accepts one).  One of them,
``watchdog_stall_s``, is the threshold of the stall rule in
:mod:`repro.serve.core`: the lane core keeps each executor's heartbeat,
and its watchdog sweep fences and replaces a busy executor whose
heartbeat is that old.
"""

from dataclasses import dataclass

from .breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from .faults import (
    BATCH_EXCEPTION,
    CORRUPT_STATE,
    FAULT_KINDS,
    LOAD_ERROR,
    NUMERIC,
    QUEUE_SPIKE,
    STALL,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    tamper_quantizer_state,
)
from .guards import GuardVerdict, NumericGuard, NumericGuardError
from .retry import RetryPolicy

__all__ = [
    "BATCH_EXCEPTION",
    "CORRUPT_STATE",
    "FAULT_KINDS",
    "LOAD_ERROR",
    "NUMERIC",
    "QUEUE_SPIKE",
    "STALL",
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "CircuitBreaker",
    "FaultInjected",
    "FaultPlan",
    "FaultSpec",
    "GuardVerdict",
    "NumericGuard",
    "NumericGuardError",
    "ResiliencePolicy",
    "RetryPolicy",
    "tamper_quantizer_state",
]


@dataclass
class ResiliencePolicy:
    """Engine-level resilience tunables (one instance per ServeEngine)."""

    breaker_failures: int = 3  # consecutive quantized-path failures to trip
    breaker_cooldown_s: float = 5.0  # open -> half-open delay on the engine clock
    guard_saturation: float = 1e6  # |logit| above this is saturated/overflowed
    watchdog_stall_s: float = 5.0  # a busy executor's heartbeat this old = stalled

    def __post_init__(self):
        if self.breaker_failures < 1:
            raise ValueError(f"breaker_failures must be >= 1, got {self.breaker_failures}")
        if self.breaker_cooldown_s < 0:
            raise ValueError(f"breaker_cooldown_s must be >= 0, got {self.breaker_cooldown_s}")
        if self.guard_saturation <= 0 or self.watchdog_stall_s <= 0:
            raise ValueError("guard_saturation and watchdog_stall_s must be > 0")
