"""Deterministic fault injection for the serving + PTQ stack.

A :class:`FaultPlan` is a list of :class:`FaultSpec` windows, each keyed by
an *event index* rather than wall-clock time: every injection site (a
``(kind, site)`` pair, e.g. ``("batch_exception", "vit_mini_s/quq/4/full")``)
keeps its own monotonically increasing event counter, and a spec fires when
that counter falls inside ``[start, start + count)``.  The same plan
therefore injects the same faults in the same order on every run — the
event-count analogue of the fake-clock pattern the scheduler tests use —
and :meth:`FaultPlan.seeded` derives a reproducible plan from one seed.

Fault classes (one constant per class, ``FAULT_KINDS`` lists them all):

* ``load_error`` — the registry's model loader raises (transient; the
  retry policy is expected to absorb a bounded window).
* ``corrupt_state`` — a serialized quantizer ``.npz`` is tampered with
  in place, so the checksum verifier must reject it and recalibrate.
* ``batch_exception`` — the quantized predict path raises mid-batch
  (drives the per-lane circuit breaker).
* ``numeric`` — batch logits are polluted with NaN/Inf/saturated values
  (drives the numeric guardrail).
* ``stall`` — the lane's worker blocks inside batch execution (drives
  the lane core's stall rule; bounded by ``stall_s`` real seconds or an explicit
  :meth:`FaultPlan.release_stalls`).
* ``queue_spike`` — the load source bursts extra submissions on one
  arrival (drives bounded-queue backpressure).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "LOAD_ERROR",
    "CORRUPT_STATE",
    "BATCH_EXCEPTION",
    "NUMERIC",
    "STALL",
    "QUEUE_SPIKE",
    "FAULT_KINDS",
    "FaultInjected",
    "FaultSpec",
    "FaultPlan",
    "tamper_quantizer_state",
]

LOAD_ERROR = "load_error"
CORRUPT_STATE = "corrupt_state"
BATCH_EXCEPTION = "batch_exception"
NUMERIC = "numeric"
STALL = "stall"
QUEUE_SPIKE = "queue_spike"

FAULT_KINDS = (LOAD_ERROR, CORRUPT_STATE, BATCH_EXCEPTION, NUMERIC, STALL, QUEUE_SPIKE)

#: Numeric pollution modes: scattered NaNs, +-Inf extremes, or finite
#: values far beyond any plausible logit magnitude (saturation/overflow).
NUMERIC_MODES = ("nan", "inf", "overflow")


class FaultInjected(RuntimeError):
    """An error raised on purpose by a :class:`FaultPlan` window."""

    def __init__(self, kind: str, site: str, index: int):
        super().__init__(f"injected {kind} fault at {site or '<any>'} (event {index})")
        self.kind = kind
        self.site = site
        self.index = index


@dataclass(frozen=True)
class FaultSpec:
    """One injection window: fire ``kind`` for events ``start .. start+count-1``.

    ``site=None`` matches every injection site of that kind; a concrete
    site string (usually a model spec) restricts the window to one lane.
    """

    kind: str
    start: int = 0
    count: int = 1
    site: str | None = None
    mode: str = "nan"  # numeric pollution mode (nan | inf | overflow)
    stall_s: float = 0.25  # self-release bound for stall faults, real seconds
    spike: int = 32  # extra submissions injected on a queue_spike event

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choices: {FAULT_KINDS}"
            )
        if self.start < 0 or self.count < 1:
            raise ValueError("start must be >= 0 and count >= 1")
        if self.mode not in NUMERIC_MODES:
            raise ValueError(f"mode must be one of {NUMERIC_MODES}, got {self.mode!r}")
        if self.stall_s <= 0 or self.spike < 1:
            raise ValueError("stall_s must be > 0 and spike >= 1")


class FaultPlan:
    """Deterministic schedule of faults, drivable without any clock.

    Thread-safe: injection sites live on worker threads while tests and
    the soak harness read counters from the main thread.
    """

    def __init__(self, specs: list[FaultSpec] | tuple[FaultSpec, ...] = (), seed: int = 0):
        self.specs = list(specs)
        self.seed = seed
        self._lock = threading.Lock()
        self._events: dict[tuple[str, str], int] = {}
        self._injected: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        self._stall_gate = threading.Event()

    @classmethod
    def seeded(
        cls,
        seed: int = 0,
        kinds: tuple[str, ...] = FAULT_KINDS,
        horizon: int = 48,
        max_width: int = 3,
        stall_s: float = 0.4,
        spike: int = 32,
    ) -> "FaultPlan":
        """One reproducible window per fault kind inside ``horizon`` events.

        Load errors are pinned to the first load attempts (that is the only
        part of a lane's life where they can fire) and kept narrower than a
        default retry budget so the retry policy can absorb them; state
        corruption fires on the first reload, where the checksum check sits.
        """
        rng = np.random.default_rng(seed)
        specs = []
        for kind in kinds:
            width = int(rng.integers(1, max_width + 1))
            start = int(rng.integers(0, horizon))
            if kind == LOAD_ERROR:
                start, width = 0, min(width, 2)
            elif kind == CORRUPT_STATE:
                start, width = 0, 1
            specs.append(FaultSpec(
                kind,
                start=start,
                count=width,
                mode=str(rng.choice(NUMERIC_MODES)),
                stall_s=stall_s,
                spike=spike,
            ))
        return cls(specs, seed=seed)

    # ------------------------------------------------------------------
    def _fire(self, kind: str, site: str) -> tuple[FaultSpec | None, int]:
        with self._lock:
            key = (kind, site)
            index = self._events.get(key, 0)
            self._events[key] = index + 1
            for spec in self.specs:
                if spec.kind != kind or spec.site not in (None, site):
                    continue
                if spec.start <= index < spec.start + spec.count:
                    self._injected[kind] += 1
                    return spec, index
            return None, index

    def fire(self, kind: str, site: str = "") -> FaultSpec | None:
        """Consume one event at ``(kind, site)``; return the window that fires.

        Every call advances the site's event counter, whether or not a
        spec matches — that is what makes schedules reproducible.
        """
        return self._fire(kind, site)[0]

    def raise_if(self, kind: str, site: str = "") -> None:
        """Consume one event and raise :class:`FaultInjected` if it fires."""
        spec, index = self._fire(kind, site)
        if spec is not None:
            raise FaultInjected(kind, site, index)

    def corrupt_logits(self, logits: np.ndarray, site: str = "") -> np.ndarray:
        """Consume one ``numeric`` event; return polluted logits if it fires."""
        spec = self.fire(NUMERIC, site)
        if spec is None:
            return logits
        polluted = np.array(logits, copy=True)
        flat = polluted.reshape(-1)
        if spec.mode == "nan":
            flat[:: max(1, flat.size // 7)] = np.nan
        elif spec.mode == "inf":
            flat[0] = np.inf
            flat[-1] = -np.inf
        else:  # overflow: finite but saturated far beyond any real logit
            flat[:] = np.sign(flat + 0.5) * 1e12
        return polluted

    def serve_stall(self, site: str = "") -> bool:
        """Consume one ``stall`` event; block the caller if it fires.

        The block is bounded: it releases after the window's ``stall_s``
        real seconds, or immediately once :meth:`release_stalls` is called
        (tests and engine shutdown use the latter).
        """
        spec = self.fire(STALL, site)
        if spec is None:
            return False
        self._stall_gate.wait(timeout=spec.stall_s)
        return True

    def release_stalls(self) -> None:
        """Unblock every current and future stall injection."""
        self._stall_gate.set()

    # ------------------------------------------------------------------
    def injected(self, kind: str) -> int:
        with self._lock:
            return self._injected[kind]

    def planned_kinds(self) -> set[str]:
        return {spec.kind for spec in self.specs}

    def snapshot(self) -> dict:
        """JSON-serializable view: events seen and faults fired per kind."""
        with self._lock:
            events: dict[str, int] = {}
            for (kind, _site), count in self._events.items():
                events[kind] = events.get(kind, 0) + count
            return {
                "seed": self.seed,
                "events": events,
                "injected": {k: v for k, v in self._injected.items() if v},
            }


def tamper_quantizer_state(path: str | Path, seed: int = 0) -> Path:
    """Corrupt a saved quantizer archive in place (still a readable npz).

    Perturbs one array payload while leaving the JSON metadata — and its
    recorded checksum — untouched, which is exactly the corruption the
    checksummed loader must reject.  Archives with no array payload are
    truncated instead (rejected as unreadable rather than by checksum).
    """
    path = Path(path)
    with np.load(path) as handle:
        payload = {name: handle[name] for name in handle.files}
    targets = sorted(name for name in payload if name.startswith("a:"))
    if not targets:
        path.write_bytes(b"tampered")
        return path
    rng = np.random.default_rng(seed)
    victim = np.array(payload[targets[0]], copy=True)
    flat = victim.reshape(-1)
    flat[int(rng.integers(0, flat.size))] += 1.0
    payload[targets[0]] = victim
    np.savez(path, **payload)
    return path
