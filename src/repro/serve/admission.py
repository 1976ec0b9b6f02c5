"""Admission control: keep the serving engine available by refusing work early.

Backpressure (the bounded queue) protects the engine only after latency
has already collapsed — by the time ``QueueFullError`` fires, every
queued request is eating the full queue delay.  The admission controller
sits in *front* of ``submit`` and decides per request whether to admit,
degrade, or refuse, so offered overload (a flash crowd, a runaway
tenant) turns into explicit, typed rejections instead of timeout storms:

* a **token bucket** bounds the global admitted rate
  (:class:`RateLimitedError`);
* **load shedding** watches queue depth and the live p99 end-to-end
  latency; past the shed threshold a deterministic credit accumulator
  drops the overload fraction (:class:`ShedError`), ramping from the
  shed threshold to the reject ceiling;
* **weighted fair queuing** decides *who* is shed: per-tenant admitted
  shares over a sliding window are compared against fair-queue weights,
  so a heavy-hitter tenant absorbs the shedding while light tenants ride
  through — with a **starvation guard** that always admits a tenant with
  no recent admissions;
* a **degrade ladder** escalates with pressure and is wired into the
  lane's circuit-breaker state: ``shed`` (level 1) → ``shed + force the
  float fallback path`` (level 2, cheap requests only — mirrors the
  breaker's degraded-but-available stance) → ``reject`` (level 3, only
  starvation-guard admits survive); an open breaker under pressure
  rejects outright with reason ``breaker_open``;
* shedding is **priority-banded** (lowest band first): ``best_effort``
  absorbs double the shed fraction and is dropped outright from level 2;
  ``batch`` (the default band) sheds at the legacy credit fraction;
  ``interactive`` rides through untouched until the level-3 reject
  ceiling.  Each band has its own deterministic credit accumulator so
  one band's traffic cannot consume another band's drop credit.

Every decision is a pure function of (tenant, priority, lane view, now)
on an injected clock, so the whole ladder is unit-testable without load.
The engines translate refusals into ``rejections_total{reason=...}``
counters; :data:`REJECT_REASONS` enumerates the full label set.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from ..resilience.breaker import CLOSED, OPEN
from .scheduler import DEFAULT_PRIORITY, PRIORITIES, PRIORITY_BANDS

__all__ = [
    "REJECT_REASONS",
    "ShedError",
    "RateLimitedError",
    "BreakerOpenError",
    "AdmissionError",
    "AdmissionPolicy",
    "TokenBucket",
    "FairShareTracker",
    "LaneView",
    "Decision",
    "AdmissionController",
]

#: Every reason label the engines may attach to a refused or expired
#: request.  ``queue_full``, ``timeout``, and ``deadline`` come from the
#: scheduler; the other three are admission-controller verdicts.
REJECT_REASONS = (
    "queue_full", "timeout", "deadline", "shed", "rate_limited", "breaker_open",
)


class AdmissionError(RuntimeError):
    """Base class for admission refusals (typed, never silent)."""

    reason: str = "shed"


class ShedError(AdmissionError):
    """Load shedding refused the request (overload, not a full queue)."""

    reason = "shed"

    def __init__(self, message: str, level: int = 1):
        super().__init__(message)
        self.level = level


class RateLimitedError(AdmissionError):
    """The token bucket is empty: offered rate exceeds the admitted rate."""

    reason = "rate_limited"


class BreakerOpenError(AdmissionError):
    """Overload while the lane's breaker is open: reject rather than pile on."""

    reason = "breaker_open"


#: Queue depth, as a fraction of capacity, where the ladder reaches level
#: 3 and only starvation-guarded admits survive.
REJECT_QUEUE_FRACTION = 0.95
#: p99 over ``p99_target_ms`` times these reaches ladder levels 2 and 3.
P99_DEGRADE_FACTOR = 1.5
P99_REJECT_FACTOR = 2.5
#: Fair-queue weight of a tenant missing from ``tenant_weights``.
DEFAULT_WEIGHT = 1.0
#: Admissions in the sliding window that fair shares are measured over.
FAIR_WINDOW = 512


@dataclass
class AdmissionPolicy:
    """Tunables for one :class:`AdmissionController`."""

    rate_limit_rps: float | None = None  # None disables the token bucket
    burst_s: float = 2.0  # bucket capacity in seconds of admitted rate
    shed_queue_fraction: float = 0.6  # depth/capacity where shedding starts
    degrade_queue_fraction: float = 0.8  # where force-float kicks in
    p99_target_ms: float | None = None  # latency-derived shedding (None = off)
    latency_refresh_s: float = 0.25  # p99 probe cache window
    tenant_weights: dict[str, float] = field(default_factory=dict)
    fairness_slack: float = 1.5  # admitted share may exceed fair share by this
    starvation_guard: int = 1  # min admits per window no shed may take away
    degrade_hold_s: float = 0.5  # how long a force-float verdict sticks

    def __post_init__(self):
        if self.rate_limit_rps is not None and self.rate_limit_rps <= 0:
            raise ValueError(f"rate_limit_rps must be > 0, got {self.rate_limit_rps}")
        if self.burst_s <= 0:
            raise ValueError(f"burst_s must be > 0, got {self.burst_s}")
        fractions = (self.shed_queue_fraction, self.degrade_queue_fraction)
        if not all(0.0 < f <= 1.0 for f in fractions):
            raise ValueError(f"queue fractions must be in (0, 1], got {fractions}")
        if not (self.shed_queue_fraction <= self.degrade_queue_fraction
                <= REJECT_QUEUE_FRACTION):
            raise ValueError(
                f"queue fractions must be ordered shed <= degrade <= "
                f"{REJECT_QUEUE_FRACTION} (reject)"
            )
        if self.p99_target_ms is not None and self.p99_target_ms <= 0:
            raise ValueError(f"p99_target_ms must be > 0, got {self.p99_target_ms}")
        if self.starvation_guard < 0:
            raise ValueError("starvation_guard must be >= 0")
        if self.fairness_slack < 1.0:
            raise ValueError(f"fairness_slack must be >= 1, got {self.fairness_slack}")
        if any(w <= 0 for w in self.tenant_weights.values()):
            raise ValueError("tenant weights must be > 0")
        if self.latency_refresh_s < 0 or self.degrade_hold_s < 0:
            raise ValueError("latency_refresh_s and degrade_hold_s must be >= 0")


class TokenBucket:
    """Classic token bucket on an injected clock."""

    def __init__(self, rate: float, capacity: float, clock=time.monotonic):
        if rate <= 0 or capacity <= 0:
            raise ValueError("rate and capacity must be > 0")
        self.rate = rate
        self.capacity = capacity
        self.clock = clock
        self._tokens = capacity
        self._refilled_at: float | None = None
        self._lock = threading.Lock()

    def try_take(self, amount: float = 1.0, now: float | None = None) -> bool:
        with self._lock:
            now = self.clock() if now is None else now
            if self._refilled_at is None:
                self._refilled_at = now
            elapsed = max(0.0, now - self._refilled_at)
            self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)
            self._refilled_at = now
            if self._tokens >= amount:
                self._tokens -= amount
                return True
            return False

    def level(self) -> float:
        with self._lock:
            return self._tokens


class FairShareTracker:
    """Sliding window of admissions, giving per-tenant admitted shares."""

    def __init__(self, window: int):
        self._window: deque[str] = deque(maxlen=window)
        self._counts: dict[str, int] = {}
        self._lock = threading.Lock()

    def record(self, tenant: str) -> None:
        with self._lock:
            if len(self._window) == self._window.maxlen:
                evicted = self._window[0]
                remaining = self._counts.get(evicted, 1) - 1
                if remaining:
                    self._counts[evicted] = remaining
                else:
                    self._counts.pop(evicted, None)
            self._window.append(tenant)
            self._counts[tenant] = self._counts.get(tenant, 0) + 1

    def admitted(self, tenant: str) -> int:
        with self._lock:
            return self._counts.get(tenant, 0)

    def share(self, tenant: str) -> float:
        with self._lock:
            total = len(self._window)
            return self._counts.get(tenant, 0) / total if total else 0.0

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(sorted(self._counts.items()))


@dataclass(frozen=True)
class LaneView:
    """What the controller sees of one lane at decision time."""

    queue_depth: int
    queue_capacity: int
    breaker_state: str = CLOSED  # repro.resilience.breaker state constant


@dataclass(frozen=True)
class Decision:
    """One admission verdict."""

    admitted: bool
    reason: str | None = None  # a REJECT_REASONS member when refused
    error: AdmissionError | None = None
    force_float: bool = False  # degrade ladder level 2: serve the float path
    level: int = 0  # ladder level the lane sat at (0..3)


class AdmissionController:
    """Stateful admission decisions for one engine (all lanes share it).

    Thread-safe: ``decide`` is called from every submitting thread.  The
    deterministic shed accumulator means the same request sequence on the
    same clock always produces the same admit/shed pattern — no RNG.
    """

    def __init__(self, policy: AdmissionPolicy | None = None, clock=time.monotonic,
                 p99_probe=None):
        self.policy = AdmissionPolicy() if policy is None else policy
        self.clock = clock
        # Optional zero-arg callable returning the live p99 end-to-end
        # latency in ms (the engine wires its e2e histogram in); cached
        # for latency_refresh_s so a submit storm does not recompute
        # percentiles per request.
        self._p99_probe = p99_probe
        self._p99_cached = 0.0
        self._p99_read_at: float | None = None
        self.bucket = None
        if self.policy.rate_limit_rps is not None:
            self.bucket = TokenBucket(
                rate=self.policy.rate_limit_rps,
                capacity=self.policy.rate_limit_rps * self.policy.burst_s,
                clock=clock,
            )
        self.fair = FairShareTracker(FAIR_WINDOW)
        self._lock = threading.Lock()
        # One deterministic drop accumulator per priority band, so the
        # same band-wise request sequence always sheds the same requests
        # regardless of how other bands interleave.
        self._shed_credit = {name: 0.0 for name in PRIORITIES}
        self._level = 0  # last ladder level, for observability
        self.stats = {
            "admitted": 0,
            "shed": 0,
            "rate_limited": 0,
            "breaker_rejects": 0,
            "degraded_admits": 0,
            "starvation_admits": 0,
            "shed_by_band": {name: 0 for name in PRIORITIES},
        }

    # ------------------------------------------------------------------
    def attach_latency_probe(self, probe) -> None:
        """Late-bind the p99 probe (the engine builds the controller first)."""
        self._p99_probe = probe

    def _p99_ms(self, now: float) -> float:
        if self._p99_probe is None or self.policy.p99_target_ms is None:
            return 0.0
        if (
            self._p99_read_at is None
            or now - self._p99_read_at >= self.policy.latency_refresh_s
        ):
            try:
                self._p99_cached = float(self._p99_probe())
            except Exception:
                self._p99_cached = 0.0  # a broken probe must not block admits
            self._p99_read_at = now
        return self._p99_cached

    def weight_share(self, tenant: str) -> float:
        """Fair-queue share of ``tenant``: weight over total known weight.

        Tenants absent from the weight table count at :data:`DEFAULT_WEIGHT`;
        the denominator covers the configured table plus every tenant the
        fair tracker has seen, so shares stay meaningful as tenants appear.
        """
        weights = dict(self.policy.tenant_weights)
        for seen in self.fair.snapshot():
            weights.setdefault(seen, DEFAULT_WEIGHT)
        weights.setdefault(tenant, DEFAULT_WEIGHT)
        total = sum(weights.values())
        return weights[tenant] / total if total else 1.0

    # ------------------------------------------------------------------
    def _ladder_level(self, lane: LaneView, p99_ms: float) -> int:
        p = self.policy
        depth_frac = lane.queue_depth / max(1, lane.queue_capacity)
        level = 0
        if depth_frac >= p.shed_queue_fraction:
            level = 1
        if depth_frac >= p.degrade_queue_fraction:
            level = 2
        if depth_frac >= REJECT_QUEUE_FRACTION:
            level = 3
        if p.p99_target_ms is not None and p99_ms > 0:
            if p99_ms >= p.p99_target_ms * P99_REJECT_FACTOR:
                level = max(level, 3)
            elif p99_ms >= p.p99_target_ms * P99_DEGRADE_FACTOR:
                level = max(level, 2)
            elif p99_ms >= p.p99_target_ms:
                level = max(level, 1)
        return level

    def _shed_fraction(self, level: int, lane: LaneView) -> float:
        """How much of the offered load to drop at this ladder level.

        Ramps with queue pressure inside the shed band so shedding starts
        gentle and saturates as the queue approaches the reject ceiling.
        """
        p = self.policy
        depth_frac = lane.queue_depth / max(1, lane.queue_capacity)
        span = max(1e-9, REJECT_QUEUE_FRACTION - p.shed_queue_fraction)
        ramp = min(1.0, max(0.0, (depth_frac - p.shed_queue_fraction) / span))
        base = {1: 0.25, 2: 0.5, 3: 1.0}[level]
        return min(1.0, base + (1.0 - base) * ramp)

    def _band_shed_fraction(self, priority: str, level: int, lane: LaneView) -> float:
        """Band-weighted shed fraction: the lowest band is shed first.

        ``batch`` keeps the legacy ladder fraction unchanged (so the
        single-band behavior of earlier releases is the default band's
        behavior exactly); ``best_effort`` takes double that fraction and
        is dropped outright from level 2; ``interactive`` is untouched
        below the level-3 reject ceiling.
        """
        base = self._shed_fraction(level, lane)
        if priority == "interactive":
            return base if level >= 3 else 0.0
        if priority == "best_effort":
            return 1.0 if level >= 2 else min(1.0, 2.0 * base)
        return base

    def current_level(self) -> int:
        """Last ladder level computed by :meth:`decide` (0..3)."""
        with self._lock:
            return self._level

    def decide(self, tenant: str, lane: LaneView, now: float | None = None,
               priority: str = DEFAULT_PRIORITY) -> Decision:
        """Admit / degrade / refuse one ``priority``-band request from ``tenant``."""
        if priority not in PRIORITY_BANDS:
            raise ValueError(
                f"priority must be one of {PRIORITIES}, got {priority!r}"
            )
        now = self.clock() if now is None else now
        # Rate limit first: an over-rate tenant population should see
        # rate_limited, not shed, even under simultaneous queue pressure.
        if self.bucket is not None and not self.bucket.try_take(now=now):
            with self._lock:
                self.stats["rate_limited"] += 1
            return Decision(
                admitted=False, reason="rate_limited",
                error=RateLimitedError(
                    f"admitted rate limit {self.policy.rate_limit_rps:.1f} rps "
                    "exceeded; retry later"
                ),
                level=self._level,
            )
        p99_ms = self._p99_ms(now)
        level = self._ladder_level(lane, p99_ms)
        with self._lock:
            self._level = level
        if level == 0:
            return self._admit(tenant, level, force_float=False)

        # Overload while the quantized path is already broken: the float
        # fallback is carrying the lane alone, so do not pile load onto
        # it — reject (the breaker's open state escalates the ladder).
        if lane.breaker_state == OPEN:
            with self._lock:
                self.stats["breaker_rejects"] += 1
            return Decision(
                admitted=False, reason="breaker_open",
                error=BreakerOpenError(
                    "lane breaker open under overload; request rejected"
                ),
                level=level,
            )

        force_float = level >= 2
        starved = (
            self.policy.starvation_guard > 0
            and self.fair.admitted(tenant) < self.policy.starvation_guard
        )
        if starved:
            # The starvation guard outranks every shed verdict: a tenant
            # with no recent admissions gets through even at level 3.
            with self._lock:
                self.stats["starvation_admits"] += 1
            return self._admit(tenant, level, force_float)

        shed_fraction = self._band_shed_fraction(priority, level, lane)
        if shed_fraction >= 1.0:
            # Outright drop band: level 3 for everyone, level >= 2 for
            # best_effort.  No credit bookkeeping — nothing survives.
            return self._shed(tenant, level, priority)
        if shed_fraction <= 0.0:
            # Protected band (interactive below the reject ceiling):
            # admitted without touching the fairness or credit machinery,
            # though level-2 degraded admits still ride the float path.
            return self._admit(tenant, level, force_float)

        # Weighted fair queuing: tenants over their fair share absorb the
        # shedding before the deterministic credit drop touches anyone.
        share = self.fair.share(tenant)
        fair_share = self.weight_share(tenant)
        if share > fair_share * self.policy.fairness_slack:
            return self._shed(tenant, level, priority)

        with self._lock:
            credit = self._shed_credit[priority] + shed_fraction
            if credit >= 1.0:
                credit -= 1.0
                drop = True
            else:
                drop = False
            self._shed_credit[priority] = credit
        if drop:
            return self._shed(tenant, level, priority)
        return self._admit(tenant, level, force_float)

    def _admit(self, tenant: str, level: int, force_float: bool) -> Decision:
        self.fair.record(tenant)
        with self._lock:
            self.stats["admitted"] += 1
            if force_float:
                self.stats["degraded_admits"] += 1
        return Decision(admitted=True, force_float=force_float, level=level)

    def _shed(self, tenant: str, level: int,
              priority: str = DEFAULT_PRIORITY) -> Decision:
        with self._lock:
            self.stats["shed"] += 1
            self.stats["shed_by_band"][priority] += 1
        return Decision(
            admitted=False, reason="shed",
            error=ShedError(
                f"load shed at degrade level {level} "
                f"(tenant {tenant!r}, {priority} band); retry with backoff",
                level=level,
            ),
            level=level,
        )

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            stats = dict(self.stats)
            stats["shed_by_band"] = dict(self.stats["shed_by_band"])
            level = self._level
        return {
            **stats,
            "level": level,
            "p99_ms_seen": round(self._p99_cached, 4),
            "bucket_tokens": round(self.bucket.level(), 2) if self.bucket else None,
            "window_admits": self.fair.snapshot(),
        }
