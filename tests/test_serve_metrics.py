"""Tests for the serving metrics layer."""

import json
import re
import threading
from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest

from repro.serve import Counter, Distribution, Histogram, Metrics, ModelKey
from repro.serve.metrics import ROLLUPS


class TestCounter:
    def test_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_concurrent_increments(self):
        counter = Counter()

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 4000


class TestDistribution:
    def test_counts_per_value(self):
        dist = Distribution()
        for size in (1, 4, 4, 8, 8, 8):
            dist.observe(size)
        assert dist.snapshot() == {"1": 1, "4": 2, "8": 3}
        assert dist.total == 6


class TestHistogram:
    def test_exact_quantiles(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.observe(float(value))
        snap = histogram.snapshot()
        assert snap["count"] == 100
        assert snap["mean"] == pytest.approx(50.5)
        assert snap["p50"] == pytest.approx(50.5)
        assert snap["p99"] == pytest.approx(np.percentile(np.arange(1, 101), 99))
        assert snap["min"] == 1.0 and snap["max"] == 100.0

    def test_empty_snapshot(self):
        assert Histogram().snapshot()["count"] == 0

    def test_reservoir_keeps_exact_count_and_bounded_memory(self):
        histogram = Histogram(max_samples=100, seed=0)
        for value in range(1000):
            histogram.observe(float(value))
        assert histogram.count == 1000
        assert len(histogram._samples) == 100
        # The subsample still spans the distribution.
        assert histogram.percentile(50) == pytest.approx(500, abs=150)


class TestHistogramStreamStats:
    def test_min_max_exact_under_reservoir_eviction(self):
        # Stream min/max must survive even when reservoir sampling evicts
        # the extreme samples: observe the extremes first, then flood.
        histogram = Histogram(max_samples=8, seed=0)
        histogram.observe(-123.5)
        histogram.observe(987.25)
        for value in range(500):
            histogram.observe(50.0 + (value % 7))
        snap = histogram.snapshot()
        assert snap["count"] == 502
        assert snap["min"] == -123.5
        assert snap["max"] == 987.25
        # The extremes were almost surely evicted from the tiny reservoir;
        # the exact-stream fields must not depend on that.
        assert histogram.percentile(50) == pytest.approx(53.0, abs=4)

    def test_max_samples_validated(self):
        with pytest.raises(ValueError, match="max_samples"):
            Histogram(max_samples=0)

    def test_reset_clears_stream_and_reservoir(self):
        histogram = Histogram(max_samples=4)
        for value in (3.0, -1.0, 9.0):
            histogram.observe(value)
        histogram.reset()
        snap = histogram.snapshot()
        assert snap == {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                        "p50": 0.0, "p95": 0.0, "p99": 0.0}
        histogram.observe(2.5)
        snap = histogram.snapshot()
        assert snap["count"] == 1
        assert snap["min"] == 2.5 and snap["max"] == 2.5

    def test_nonempty_stream_with_empty_reservoir_degrades_to_mean(self):
        # Cannot arise through observe()/reset(); simulated directly to pin
        # the documented degradation: percentiles fall back to the stream
        # mean instead of reporting 0.0 for a population that isn't empty.
        histogram = Histogram(max_samples=4)
        for value in (2.0, 4.0):
            histogram.observe(value)
        histogram._samples.clear()
        snap = histogram.snapshot()
        assert snap["count"] == 2
        assert snap["mean"] == 3.0
        assert snap["p50"] == snap["p95"] == snap["p99"] == 3.0


class TestMetricsRegistry:
    def test_instruments_are_singletons_by_name(self):
        metrics = Metrics()
        assert metrics.counter("a") is metrics.counter("a")
        assert metrics.histogram("h") is metrics.histogram("h")
        assert metrics.distribution("d") is metrics.distribution("d")

    def test_snapshot_is_json_serializable(self):
        metrics = Metrics()
        metrics.counter("requests_total").inc(3)
        metrics.histogram("latency_ms").observe(1.25)
        metrics.distribution("batch_size").observe(4)
        text = metrics.to_json(extra={"registry": {"hit_rate": 0.5}})
        snap = json.loads(text)
        assert snap["counters"]["requests_total"] == 3
        assert snap["histograms"]["latency_ms"]["count"] == 1
        assert snap["distributions"]["batch_size"] == {"4": 1}
        assert snap["registry"]["hit_rate"] == 0.5


class TestEngineCounterLabelParity:
    """Every ``*_total`` family the engine maintains must keep its global
    counter equal to the sum of its per-spec labelled children — a global
    increment without the matching labelled increment (the old
    ``requests_total`` bug) breaks per-model accounting silently."""

    FAMILIES = (
        "requests_total",
        "rejected_total",
        "errors_total",
        "failovers_total",
        "guard_trips_total",
    )

    def test_global_equals_sum_of_per_spec(self, tmp_path, calib_images, tiny_data):
        from repro.serve import BatchPolicy, ModelRegistry, ServeEngine
        from tests.test_serve_registry import tiny_loader

        _, val_set = tiny_data
        registry = ModelRegistry(
            capacity=2,
            artifact_dir=tmp_path,
            loader=tiny_loader,
            calib_provider=lambda: calib_images[:16],
        )
        policy = BatchPolicy(max_batch_size=4, max_wait_ms=2.0, max_queue=64)
        specs = ("vit_s/quq/4", "vit_s/baseq/6")
        with ServeEngine(registry, policy) as engine:
            for spec in specs:
                engine.warm(spec)
            handles = [
                engine.submit(specs[i % len(specs)], image)
                for i, image in enumerate(val_set.images[:10])
            ]
            for handle in handles:
                handle.result(timeout=30.0)
        counters = engine.snapshot()["counters"]

        for family in self.FAMILIES:
            labelled_sum = sum(
                value
                for name, value in counters.items()
                if name.startswith(family + "{") and 'spec="' in name
            )
            assert counters.get(family, 0) == labelled_sum, family

        # The accepted traffic must show up per-spec, not just globally.
        per_spec_requests = {
            name: value
            for name, value in counters.items()
            if name.startswith('requests_total{spec="')
        }
        assert len(per_spec_requests) == len(specs)
        assert sum(per_spec_requests.values()) == 10


class TestRejectionReasonLabelParity:
    """Every refusal funnels through the lane core's ``_reject``, which must
    keep three views in lockstep: the unlabelled ``rejected_total``, the
    per-reason ``rejections_total{reason=...}`` counters, and their
    per-spec children — so dashboards can slice rejections by cause
    without the totals drifting apart."""

    SCRIPT = (
        ("vit_mini_s/quq/6/full", "shed"),
        ("vit_mini_s/quq/6/full", "shed"),
        ("vit_mini_s/quq/4/full", "queue_full"),
        ("vit_mini_s/quq/6/full", "timeout"),
        ("vit_mini_s/quq/4/full", "rate_limited"),
        ("vit_mini_s/quq/6/full", "breaker_open"),
        ("vit_mini_s/quq/4/full", "shed"),
        ("vit_mini_s/quq/6/full", "deadline"),
    )

    def _replay(self, engine):
        from repro.serve import DEFAULT_PRIORITY

        for spec, reason in self.SCRIPT:
            engine._reject(spec, reason, DEFAULT_PRIORITY)
        return engine.snapshot()["counters"]

    def _assert_parity(self, counters):
        from repro.serve import REJECT_REASONS

        assert counters["rejected_total"] == len(self.SCRIPT)
        reason_total = 0
        for reason in REJECT_REASONS:
            global_name = f'rejections_total{{reason="{reason}"}}'
            child_sum = sum(
                value
                for name, value in counters.items()
                if name.startswith(f'rejections_total{{reason="{reason}",spec="')
            )
            assert counters.get(global_name, 0) == child_sum, reason
            reason_total += counters.get(global_name, 0)
        # Every rejection carries exactly one reason label.
        assert reason_total == counters["rejected_total"]
        # Only documented reasons ever appear on the family.
        used = {
            name.split('reason="', 1)[1].split('"', 1)[0]
            for name in counters
            if name.startswith("rejections_total{")
        }
        assert used == set(REJECT_REASONS)

    def test_thread_engine_keeps_reason_parity(self):
        from repro.serve import ServeEngine

        self._assert_parity(self._replay(ServeEngine()))

    def test_cluster_engine_keeps_reason_parity(self):
        from repro.serve import ClusterEngine

        self._assert_parity(self._replay(ClusterEngine()))


def assert_rollups_hold(counters: dict) -> int:
    """Walk :data:`ROLLUPS`: every coarser series of a family must equal the
    sum of its finer children (a missing series counts as zero).  Returns
    how many coarse series were checked."""
    series = defaultdict(dict)  # family -> {frozenset(label items): value}
    for name, value in counters.items():
        family, _, inner = name.partition("{")
        series[family][frozenset(re.findall(r'(\w+)="([^"]*)"', inner))] = value
    checked = 0
    for family, rollups in ROLLUPS.items():
        for coarse, fine in zip(rollups, rollups[1:]):
            def of(keys):
                return {labels: value for labels, value in series[family].items()
                        if {key for key, _ in labels} == set(keys)}
            sums = defaultdict(int)
            for labels, value in of(fine).items():
                sums[frozenset((k, v) for k, v in labels if k in coarse)] += value
            assert of(coarse) == dict(sums), (family, coarse, fine)
            checked += len(sums)
    return checked


class _Servable:
    quantized = True

    def __init__(self, backend: str):
        self.backend = SimpleNamespace(name=backend)

    def predict(self, images, recorder=None):
        logits = np.zeros((len(images), 4), dtype=np.float32)
        logits[:, 1] = 1.0
        return logits

    def predict_float(self, images):
        return self.predict(images)


class _Registry:
    def __init__(self, servables: dict):
        self.servables = servables

    def get(self, spec):
        return self.servables[ModelKey.parse(spec).spec]

    def snapshot(self) -> dict:
        return {}


class TestDeclaredRollups:
    """Every counter family is counted through :meth:`Metrics.count`, so
    each rollup declared in :data:`ROLLUPS` — global + per-spec, per-reason
    + per-(reason, spec), global + per-band + per-(band, spec) — stays the
    sum of its children whatever the engine counted."""

    REJECTIONS = (
        ("shed", "batch"), ("shed", "best_effort"), ("queue_full", "batch"),
        ("timeout", "batch"), ("rate_limited", "interactive"),
        ("breaker_open", "batch"), ("deadline", "interactive"),
        ("deadline", "batch"), ("deadline", "interactive"),
    )

    def test_engine_counters_roll_up(self):
        from repro.resilience import ResiliencePolicy
        from repro.resilience.faults import BATCH_EXCEPTION, NUMERIC, FaultPlan, FaultSpec
        from repro.serve import REJECT_REASONS, BatchPolicy, ServeEngine

        specs = [ModelKey.parse(s).spec for s in ("vit_s/quq/4/full/int", "vit_s/baseq/6")]
        plan = FaultPlan([
            FaultSpec(BATCH_EXCEPTION, start=1, count=1, site=specs[0]),
            FaultSpec(NUMERIC, start=1, count=1, site=specs[1]),
        ])
        engine = ServeEngine(
            _Registry({specs[0]: _Servable("int"), specs[1]: _Servable("float")}),
            BatchPolicy(max_batch_size=4, max_wait_ms=2.0, max_queue=64),
            resilience=ResiliencePolicy(breaker_failures=5),
            faults=plan,
        )
        image = np.zeros((16, 16, 3), dtype=np.float32)
        with engine:
            for index in range(10):
                engine.submit(specs[index % 2], image).result(timeout=30.0)
            for index, (reason, band) in enumerate(self.REJECTIONS):
                engine._reject(specs[index % 2], reason, band)
            counters = engine.snapshot()["counters"]

        assert assert_rollups_hold(counters) > 0
        for family in ("requests_total", "failovers_total", "guard_trips_total",
                       "int_batches_total", "rejected_total", "deadline_misses_total"):
            assert counters[family] > 0, family  # the script reached every family
        assert counters['requests_total{spec="%s"}' % specs[1]] == 5
        reasons = {
            name.split('reason="', 1)[1].split('"', 1)[0]: value
            for name, value in counters.items()
            if name.startswith("rejections_total{") and 'spec="' not in name
        }
        # Every rejection carries exactly one documented reason.
        assert set(reasons) == set(REJECT_REASONS)
        assert sum(reasons.values()) == counters["rejected_total"] == len(self.REJECTIONS)

    def test_a_hand_rolled_increment_breaks_the_walk(self):
        metrics = Metrics()
        metrics.count("requests_total", spec="a")
        metrics.counter("requests_total").inc()  # global without its child
        with pytest.raises(AssertionError):
            assert_rollups_hold(metrics.snapshot()["counters"])
