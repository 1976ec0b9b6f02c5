"""Seeded traffic traces: diurnal cycles, flash crowds, tenant mixes.

Real serving load is nothing like a constant-rate Poisson stream: offered
traffic breathes with a diurnal cycle, spikes by integer multiples when a
flash crowd hits, and is shared by tenants whose demand is heavy-tailed
(a few tenants dominate, a long tail trickles).  The scale benchmark
(:mod:`repro.analysis.scale`) replays these traces open-loop against an
engine to measure exactly the regime admission control exists for —
offered load well past capacity.

Everything is derived from one seed through ``numpy``'s Generator, so a
trace is a pure function of its :class:`TraceConfig`: the same config
replays the same arrivals, tenants, and flash crowd on every run.
Arrivals are an inhomogeneous Poisson process, sampled per
:data:`BIN_S` bin with the instantaneous rate

``rate(t) = base_rate x (1 + A sin(2 pi t / period)) x flash(t)``

where ``flash(t)`` is ``flash_multiplier`` inside the crowd window and 1
outside.

Each arrival also carries a **priority band** and optional **deadline**
(sampled from ``priority_mix`` / ``band_deadline_ms`` with an rng stream
*separate* from the arrival stream, so adding bands never changes the
arrival times of an existing seed), and traces round-trip through JSONL
(:func:`save_trace` / :func:`load_trace`) so a recorded production trace
replays through the same harness as the synthetic generator
(``python -m repro scale-bench --trace FILE``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .scheduler import DEFAULT_PRIORITY, PRIORITY_BANDS

__all__ = [
    "TraceConfig",
    "TraceEvent",
    "tenant_mix",
    "offered_rate",
    "generate_trace",
    "trace_stats",
    "save_trace",
    "load_trace",
]


@dataclass(frozen=True)
class TraceEvent:
    """One arrival: when it lands, who sent it, and how urgent it is.

    ``spec`` is optional routing for recorded traces that interleave
    multiple model specs; synthetic traces leave it ``None`` (the
    harness's configured spec applies).
    """

    at_s: float
    tenant: str
    priority: str = DEFAULT_PRIORITY
    deadline_ms: float | None = None
    spec: str | None = None


@dataclass
class TraceConfig:
    """Shape of one synthetic traffic trace (all rates in requests/s)."""

    duration_s: float = 8.0
    base_rate: float = 120.0  # steady-state offered load
    seed: int = 0
    diurnal_amplitude: float = 0.35  # sinusoid swing as a fraction of base
    diurnal_period_s: float = 8.0
    flash_at: float = 0.45  # crowd start, as a fraction of the duration
    flash_len: float = 0.25  # crowd length, as a fraction of the duration
    flash_multiplier: float = 4.0  # offered-load multiple inside the crowd
    tenants: int = 4
    tenant_skew: float = 1.1  # Zipf exponent; 0 = uniform mix
    # Priority-band mix of the offered traffic; sampled from a *separate*
    # rng stream so the arrival times of a seed never depend on the mix.
    priority_mix: dict[str, float] = field(
        default_factory=lambda: {
            "interactive": 0.3, "batch": 0.5, "best_effort": 0.2,
        }
    )
    # Per-band deadline attached to sampled arrivals (None = no deadline).
    band_deadline_ms: dict[str, float] = field(
        default_factory=lambda: {"interactive": 1500.0}
    )

    def __post_init__(self):
        if self.duration_s <= 0 or self.base_rate <= 0:
            raise ValueError("duration_s and base_rate must be > 0")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be within [0, 1)")
        if self.diurnal_period_s <= 0:
            raise ValueError("diurnal_period_s must be > 0")
        if not 0.0 <= self.flash_at <= 1.0 or not 0.0 <= self.flash_len <= 1.0:
            raise ValueError("flash_at and flash_len are fractions of the duration")
        if self.flash_multiplier < 1.0:
            raise ValueError("flash_multiplier must be >= 1 (1 disables the crowd)")
        if self.tenants < 1 or self.tenant_skew < 0:
            raise ValueError("tenants must be >= 1 and tenant_skew >= 0")
        for band in list(self.priority_mix) + list(self.band_deadline_ms):
            if band not in PRIORITY_BANDS:
                raise ValueError(f"unknown priority band {band!r}")
        if not self.priority_mix:
            raise ValueError("priority_mix must not be empty")
        total = sum(self.priority_mix.values())
        if any(v < 0 for v in self.priority_mix.values()) or total <= 0:
            raise ValueError("priority_mix fractions must be >= 0 and sum > 0")
        if any(v <= 0 for v in self.band_deadline_ms.values()):
            raise ValueError("band_deadline_ms values must be > 0")

    @property
    def flash_window(self) -> tuple[float, float]:
        start = self.flash_at * self.duration_s
        return (start, min(self.duration_s, start + self.flash_len * self.duration_s))


def tenant_mix(config: TraceConfig) -> dict[str, float]:
    """Per-tenant offered-traffic fractions (Zipf-skewed, sums to 1).

    These double as the fair-queue weights the admission controller is
    configured with in the scale benchmark: each tenant is entitled to
    the share of capacity proportional to its long-run demand.
    """
    ranks = np.arange(1, config.tenants + 1, dtype=np.float64)
    weights = ranks ** -config.tenant_skew
    weights /= weights.sum()
    return {f"tenant-{i}": float(w) for i, w in enumerate(weights)}


def offered_rate(config: TraceConfig, t: float) -> float:
    """Instantaneous offered load (requests/s) at trace time ``t``."""
    diurnal = 1.0 + config.diurnal_amplitude * np.sin(
        2.0 * np.pi * t / config.diurnal_period_s
    )
    start, end = config.flash_window
    flash = config.flash_multiplier if start <= t < end else 1.0
    return float(config.base_rate * diurnal * flash)


#: Poisson sampling resolution of :func:`generate_trace`, in seconds.
BIN_S = 0.05


def generate_trace(config: TraceConfig) -> list[TraceEvent]:
    """Sample the full arrival sequence for ``config`` (sorted by time)."""
    rng = np.random.default_rng(config.seed)
    mix = tenant_mix(config)
    names = list(mix)
    probs = np.array([mix[name] for name in names])
    events: list[TraceEvent] = []
    t = 0.0
    while t < config.duration_s:
        lam = offered_rate(config, t + BIN_S / 2.0) * BIN_S
        count = int(rng.poisson(lam))
        if count:
            offsets = rng.uniform(0.0, BIN_S, size=count)
            tenants = rng.choice(len(names), size=count, p=probs)
            events.extend(
                TraceEvent(at_s=min(t + off, config.duration_s), tenant=names[k])
                for off, k in zip(offsets, tenants)
            )
        t += BIN_S
    events.sort(key=lambda e: e.at_s)
    # Priority bands come from their own generator (seeded off the same
    # config seed but a distinct stream), so the arrival process above is
    # bit-identical to what the seed produced before bands existed.
    band_rng = np.random.default_rng([config.seed, 1])
    bands = sorted(config.priority_mix, key=lambda b: PRIORITY_BANDS[b])
    band_probs = np.array([config.priority_mix[b] for b in bands], dtype=np.float64)
    band_probs /= band_probs.sum()
    picks = band_rng.choice(len(bands), size=len(events), p=band_probs)
    return [
        TraceEvent(
            at_s=event.at_s,
            tenant=event.tenant,
            priority=bands[k],
            deadline_ms=config.band_deadline_ms.get(bands[k]),
        )
        for event, k in zip(events, picks)
    ]


def trace_stats(events: list[TraceEvent], config: TraceConfig) -> dict:
    """Summary of one sampled trace (JSON-serializable)."""
    per_tenant: dict[str, int] = {name: 0 for name in tenant_mix(config)}
    for event in events:
        per_tenant[event.tenant] = per_tenant.get(event.tenant, 0) + 1
    start, end = config.flash_window
    in_flash = sum(1 for e in events if start <= e.at_s < end)
    flash_rate = in_flash / (end - start) if end > start else 0.0
    steady = len(events) - in_flash
    steady_time = config.duration_s - (end - start)
    steady_rate = steady / steady_time if steady_time > 0 else 0.0
    per_band: dict[str, int] = {}
    for event in events:
        per_band[event.priority] = per_band.get(event.priority, 0) + 1
    return {
        "events": len(events),
        "duration_s": config.duration_s,
        "mean_rate_rps": round(len(events) / config.duration_s, 2),
        "steady_rate_rps": round(steady_rate, 2),
        "flash_rate_rps": round(flash_rate, 2),
        "flash_over_steady": round(flash_rate / steady_rate, 2) if steady_rate else 0.0,
        "flash_window_s": [round(start, 3), round(end, 3)],
        "per_tenant": per_tenant,
        "per_band": dict(sorted(per_band.items())),
    }


# ----------------------------------------------------------------------
# Recorded-trace round trip (JSONL: one arrival per line)
def save_trace(events: list[TraceEvent], path) -> None:
    """Write a trace as JSONL — one ``TraceEvent`` per line, ``None``
    fields omitted, so recorded and synthetic traces share a format."""
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            row = {k: v for k, v in asdict(event).items() if v is not None}
            handle.write(json.dumps(row, sort_keys=True) + "\n")


def load_trace(path) -> list[TraceEvent]:
    """Load a JSONL trace; validates fields and returns time-sorted events."""
    events: list[TraceEvent] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{lineno}: invalid JSON ({error})")
            if "at_s" not in row or "tenant" not in row:
                raise ValueError(f"{path}:{lineno}: needs at_s and tenant fields")
            priority = row.get("priority", DEFAULT_PRIORITY)
            if priority not in PRIORITY_BANDS:
                raise ValueError(
                    f"{path}:{lineno}: unknown priority {priority!r}"
                )
            deadline_ms = row.get("deadline_ms")
            if deadline_ms is not None and float(deadline_ms) <= 0:
                raise ValueError(f"{path}:{lineno}: deadline_ms must be > 0")
            events.append(TraceEvent(
                at_s=float(row["at_s"]),
                tenant=str(row["tenant"]),
                priority=priority,
                deadline_ms=None if deadline_ms is None else float(deadline_ms),
                spec=row.get("spec"),
            ))
    events.sort(key=lambda e: e.at_s)
    return events
