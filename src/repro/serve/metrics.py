"""Serving metrics: counters, distributions, and latency histograms.

Everything here is plain Python + NumPy and thread-safe under one lock per
instrument, so the scheduler, worker threads, and the load generator can
record concurrently.  :meth:`Metrics.snapshot` renders the whole registry
as a JSON-serializable dict — the interface the CLI prints and the
benchmarks persist.
"""

from __future__ import annotations

import json
import threading

import numpy as np

__all__ = ["ROLLUPS", "Counter", "Distribution", "Gauge", "Histogram", "Metrics"]

_PER_SPEC = ((), ("spec",))
#: The series one counted event lands in, per counter family: each tuple
#: names the labels of one series, ``()`` being the unlabelled total.
#: :meth:`Metrics.count` increments all of them, so a coarser series always
#: equals the sum of its finer children.  Unlisted families (``batches_total``,
#: ``responses_total``) keep only their unlabelled total.
ROLLUPS = {
    **dict.fromkeys((
        "requests_total", "rejected_total", "errors_total", "failovers_total",
        "guard_trips_total", "degraded_batches_total", "int_batches_total",
        "watchdog_restarts_total", "reroutes_total", "quarantines_total",
        "quarantine_batches_total", "shard_restarts_total", "shard_crashes_total",
        "shard_spawn_failures_total", "scale_ups_total", "scale_downs_total",
        "drift_alerts_total", "recalibrations_total",
        "recalibration_swaps_total", "recalibration_rejects_total",
    ), _PER_SPEC),
    "rejections_total": (("reason",), ("reason", "spec")),
    "deadline_misses_total": ((), ("band",), ("band", "spec")),
}


def _labelled(name: str, labels: dict | None) -> str:
    """Canonical instrument name with sorted Prometheus-style labels."""
    if not labels:
        return name
    inner = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonic counter."""

    def __init__(self):
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """Point-in-time value that can move both ways (e.g. live shard count)."""

    def __init__(self):
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Distribution:
    """Counts per discrete integer value (e.g. dispatched batch sizes)."""

    def __init__(self):
        self._counts: dict[int, int] = {}
        self._lock = threading.Lock()

    def observe(self, value: int) -> None:
        with self._lock:
            self._counts[int(value)] = self._counts.get(int(value), 0) + 1

    @property
    def total(self) -> int:
        with self._lock:
            return sum(self._counts.values())

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {str(k): v for k, v in sorted(self._counts.items())}


class Histogram:
    """Latency histogram with exact quantiles over a bounded reservoir.

    Keeps up to ``max_samples`` observations; beyond that, reservoir
    sampling (deterministic seed) keeps an unbiased subsample while count,
    sum, min, and max stay exact.  Serving runs here are small enough that
    the reservoir is rarely exercised, so quantiles are usually exact too.

    :meth:`snapshot` fields describe two different populations:

    * ``count``/``mean``/``min``/``max`` — the **full stream** of every
      value ever observed (since construction or the last :meth:`reset`).
      Min and max are tracked alongside sum/count, so they are exact even
      after reservoir eviction has dropped the extreme samples.
    * ``p50``/``p95``/``p99`` — the **reservoir subsample** only.  Once
      ``count`` exceeds ``max_samples`` these are unbiased estimates, not
      exact stream quantiles.

    The two populations coincide while ``count <= max_samples``.
    """

    def __init__(self, max_samples: int = 65536, seed: int = 0):
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self._samples: list[float] = []
        self._max_samples = max_samples
        self._rng = np.random.default_rng(seed)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if len(self._samples) < self._max_samples:
                self._samples.append(value)
            else:
                slot = int(self._rng.integers(0, self._count))
                if slot < self._max_samples:
                    self._samples[slot] = value

    @property
    def count(self) -> int:
        return self._count

    def reset(self) -> None:
        """Drop all state: stream statistics and the reservoir alike."""
        with self._lock:
            self._samples.clear()
            self._count = 0
            self._sum = 0.0
            self._min = float("inf")
            self._max = float("-inf")

    def percentile(self, q: float) -> float:
        with self._lock:
            if not self._samples:
                return 0.0
            return float(np.percentile(self._samples, q))

    def snapshot(self) -> dict[str, float]:
        """See the class docstring for which population each field covers:
        count/mean/min/max are exact over the full stream; the percentiles
        come from the reservoir subsample."""
        with self._lock:
            if self._count == 0:
                return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                        "p50": 0.0, "p95": 0.0, "p99": 0.0}
            if self._samples:
                p50, p95, p99 = (
                    float(p)
                    for p in np.percentile(self._samples, (50, 95, 99))
                )
            else:
                # count > 0 with an empty reservoir cannot happen through
                # observe()/reset(); degrade to the stream mean rather
                # than reporting quantiles of nothing as zero.
                p50 = p95 = p99 = self._sum / self._count
            return {
                "count": self._count,
                "mean": round(self._sum / self._count, 4),
                "min": round(self._min, 4),
                "max": round(self._max, 4),
                "p50": round(p50, 4),
                "p95": round(p95, 4),
                "p99": round(p99, 4),
            }


class Metrics:
    """Named registry of counters, distributions, and histograms."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._distributions: dict[str, Distribution] = {}
        self._histograms: dict[str, Histogram] = {}
        self._gauges: dict[str, Gauge] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, labels: dict | None = None) -> Counter:
        with self._lock:
            return self._counters.setdefault(_labelled(name, labels), Counter())

    def count(self, name: str, **labels) -> None:
        """Count one event into every series :data:`ROLLUPS` declares for
        ``name`` (``labels`` must carry each label those series use)."""
        for keys in ROLLUPS.get(name, ((),)):
            self.counter(name, {key: labels[key] for key in keys}).inc()

    def gauge(self, name: str, labels: dict | None = None) -> Gauge:
        with self._lock:
            return self._gauges.setdefault(_labelled(name, labels), Gauge())

    def distribution(self, name: str, labels: dict | None = None) -> Distribution:
        with self._lock:
            return self._distributions.setdefault(_labelled(name, labels), Distribution())

    def histogram(self, name: str, labels: dict | None = None) -> Histogram:
        with self._lock:
            return self._histograms.setdefault(_labelled(name, labels), Histogram())

    def snapshot(self, extra: dict | None = None) -> dict:
        """JSON-serializable view of every instrument (plus ``extra``)."""
        with self._lock:
            counters = dict(self._counters)
            distributions = dict(self._distributions)
            histograms = dict(self._histograms)
            gauges = dict(self._gauges)
        out: dict = {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "distributions": {
                name: d.snapshot() for name, d in sorted(distributions.items())
            },
            "histograms": {
                name: h.snapshot() for name, h in sorted(histograms.items())
            },
            "gauges": {name: g.value for name, g in sorted(gauges.items())},
        }
        if extra:
            out.update(extra)
        return out

    def to_json(self, extra: dict | None = None) -> str:
        return json.dumps(self.snapshot(extra), indent=2, sort_keys=True)
