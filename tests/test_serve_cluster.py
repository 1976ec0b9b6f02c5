"""Tests for the sharded multi-process cluster engine.

The stub servable below lives at module scope so forked shard processes
inherit it (and the loader closure) by address-space copy — no pickling,
no model build inside the child, instant spawn.
"""

import multiprocessing
import os
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.resilience import ResiliencePolicy
from repro.resilience.faults import (
    BATCH_EXCEPTION,
    NUMERIC,
    QUEUE_SPIKE,
    STALL,
    FaultPlan,
    FaultSpec,
)
from repro.resilience.soak import ChaosSoakConfig, run_chaos_soak
from repro.serve import cluster as cluster_module
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    Autoscaler,
    BatchPolicy,
    ClusterEngine,
    ClusterPolicy,
    ModelKey,
    ServeEngine,
)
from tests.test_serve_metrics import assert_rollups_hold

SPEC = "vit_s/quq/6"
FULL_SPEC = ModelKey.parse(SPEC).spec  # normalized lane/registry key
IMAGE = np.zeros((16, 16, 3), dtype=np.float32)


class StubServable:
    """Deterministic fake model: logits depend only on the input mean."""

    quantized = True
    classes = 10

    def predict(self, images, recorder=None):
        n = len(images)
        logits = np.zeros((n, self.classes), dtype=np.float32)
        logits[:, 1] = np.asarray(images).reshape(n, -1).mean(axis=1) + 1.0
        return logits

    def predict_float(self, images):
        return self.predict(images)


class IntStubServable(StubServable):
    """The stub on the integer-native backend."""

    backend = SimpleNamespace(name="int")


class CrashingServable(StubServable):
    """Its quantized forward kills the shard process; float still works."""

    def predict(self, images, recorder=None):
        os._exit(1)

    def predict_float(self, images):
        return StubServable.predict(self, images)


class WideServable(StubServable):
    """A 100-class stub whose top logit is the last column."""

    classes = 100

    def predict(self, images, recorder=None):
        logits = np.zeros((len(images), self.classes), dtype=np.float32)
        logits[:, -1] = 1.0
        return logits


class RaisingServable(StubServable):
    """Both of its paths raise one long message."""

    MESSAGE = "x" * 2000

    def predict(self, images, recorder=None):
        raise ValueError(self.MESSAGE)

    def predict_float(self, images):
        raise ValueError(self.MESSAGE)


SLOW = 7.0  # images at least this bright take SLOW_S to predict


class ScriptServable(StubServable):
    """The stub, slow on bright images (to finish past a deadline)."""

    SLOW_S = 1.2

    def predict(self, images, recorder=None):
        if np.asarray(images).max() >= SLOW:
            time.sleep(self.SLOW_S)
        return StubServable.predict(self, images)


class SleepyServable(StubServable):
    """The stub, three seconds a batch; ``started`` is set on entry."""

    def __init__(self, started):
        self.started = started

    def predict(self, images, recorder=None):
        self.started.set()
        time.sleep(3.0)
        return StubServable.predict(self, images)


def stub_loader(spec):
    return StubServable()


POLICY = BatchPolicy(max_batch_size=4, max_wait_ms=2.0, max_queue=64, timeout_ms=5000.0)


def rss_anon_mib(pid: int) -> int:
    """Resident anonymous memory of process ``pid`` (MiB), from /proc."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("RssAnon:"):
                return int(line.split()[1]) // 1024
    raise RuntimeError(f"no RssAnon for pid {pid}")


@pytest.fixture(autouse=True)
def no_shard_outlives_its_test():
    """Every engine here is stopped, and a stopped engine leaves no shard
    process behind."""
    yield
    deadline = time.monotonic() + 5.0
    while True:
        shards = [p.name for p in multiprocessing.active_children()
                  if p.name.startswith("shard-")]
        if not shards:
            return
        assert time.monotonic() < deadline, f"shards outlived the test: {shards}"
        time.sleep(0.05)


def make_engine(shards=2, stall_s=0.3, loader=stub_loader, max_redispatch=3,
                resilience=None, **kwargs):
    return ClusterEngine(
        loader=loader,
        policy=POLICY,
        cluster=ClusterPolicy(shards=shards, image_hw=16, max_redispatch=max_redispatch),
        resilience=resilience or ResiliencePolicy(watchdog_stall_s=stall_s),
        **kwargs,
    )


class TestClusterLifecycle:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ClusterPolicy(shards=0)
        with pytest.raises(ValueError):
            ClusterPolicy(max_redispatch=-1)

    def test_serves_requests_through_shard_processes(self):
        with make_engine() as engine:
            engine.warm(SPEC)
            handles = [engine.submit(SPEC, IMAGE) for _ in range(20)]
            results = [h.result(timeout=30.0) for h in handles]
            snap = engine.snapshot()
        assert all(r.label == 1 for r in results)
        assert all(r.quantized for r in results)
        assert snap["counters"]["responses_total"] == 20
        assert snap["counters"]["requests_total"] == 20
        lane = snap["lanes"][FULL_SPEC]
        assert len(lane["shards"]) == 2
        assert all(s["alive"] for s in lane["shards"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_image_rejected_at_submit(self, bad):
        image = IMAGE.copy()
        image[2, 7, 0] = bad
        with make_engine(shards=1) as engine:
            for spec in ("vit_s/fp32/32", SPEC, f"{SPEC}/full/int"):
                engine.warm(spec)
                with pytest.raises(ValueError, match="non-finite"):
                    engine.submit(spec, image)
            assert engine.snapshot()["counters"].get("requests_total", 0) == 0

    def test_loader_failure_surfaces_at_warm(self):
        def broken_loader(spec):
            raise RuntimeError("artifact missing")

        engine = ClusterEngine(
            loader=broken_loader,
            policy=BatchPolicy(max_batch_size=4),
            cluster=ClusterPolicy(shards=1, image_hw=16),
        )
        try:
            with pytest.raises(RuntimeError, match="artifact missing"):
                engine.warm(SPEC)
        finally:
            engine.stop()

    def test_failed_warm_leaves_no_lane_to_strand_requests(self):
        def broken_loader(spec):
            raise RuntimeError("artifact missing")

        with make_engine(shards=1, loader=broken_loader) as engine:
            with pytest.raises(RuntimeError, match="artifact missing"):
                engine.warm(SPEC)
            assert engine.lane_specs() == []
            assert engine.lane_stats(SPEC) is None
            # The next submit retries the open instead of queueing on a
            # lane no shard will ever serve.
            with pytest.raises(RuntimeError, match="artifact missing"):
                engine.submit(SPEC, IMAGE)
            assert engine.snapshot()["counters"].get("requests_total", 0) == 0
            assert engine.drain(timeout=1.0)

    def test_concurrent_first_submits_share_one_pool(self):
        with make_engine(shards=2) as engine:
            threads = [threading.Thread(target=engine.warm, args=(SPEC,))
                       for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            handles = [engine.submit(SPEC, IMAGE) for _ in range(4)]
            assert all(h.result(timeout=30.0).label == 1 for h in handles)
            assert len(engine.registry.snapshot()["shards"][FULL_SPEC]) == 2
            assert engine.shard_count(SPEC) == 2

    def test_int_backend_batches_are_counted(self):
        with make_engine(shards=1, loader=lambda spec: IntStubServable()) as engine:
            handles = [engine.submit(SPEC, IMAGE) for _ in range(4)]
            assert all(h.result(timeout=30.0).quantized for h in handles)
            counters = engine.snapshot()["counters"]
        assert counters["int_batches_total"] >= 1
        assert counters[f'int_batches_total{{spec="{FULL_SPEC}"}}'] == (
            counters["int_batches_total"]
        )

    def test_rejects_images_not_of_the_policy_shape(self):
        with make_engine(shards=1) as engine:
            engine.warm(SPEC)
            for shape in ((32, 32, 3), (16, 16, 1)):
                with pytest.raises(ValueError, match="image_hw"):
                    engine.submit(SPEC, np.zeros(shape, dtype=np.float32))
            assert engine.snapshot()["counters"].get("requests_total", 0) == 0

    def test_replies_carry_every_logit(self):
        with make_engine(shards=1, loader=lambda spec: WideServable()) as engine:
            result = engine.submit(SPEC, IMAGE).result(timeout=30.0)
        assert result.label == 99
        assert result.logits.shape == (100,)

    def test_shard_errors_arrive_whole(self):
        with make_engine(shards=1, loader=lambda spec: RaisingServable()) as engine:
            handle = engine.submit(SPEC, IMAGE)
            with pytest.raises(RuntimeError) as info:
                handle.result(timeout=30.0)
        assert str(info.value) == f"shard error: ValueError: {RaisingServable.MESSAGE}"

    @pytest.mark.skipif(cluster_module._malloc_trim is None
                        or not os.path.exists("/proc/self/status"),
                        reason="needs glibc's malloc_trim and /proc")
    def test_shard_starts_without_the_parents_free_heap(self):
        """Heap pages the parent freed are trimmed before the fork, so a
        shard starts resident in the parent's live memory only."""
        # 32 MiB of 64 KiB heap blocks, all freed but the last, which pins
        # the heap's top: the freed pages stay resident until trimmed.
        blocks = [np.ones(8192) for _ in range(512)]
        blocks = blocks[-1:]
        before = rss_anon_mib(os.getpid())
        with make_engine(shards=1) as engine:
            engine.warm(SPEC)
            (shard,) = engine.snapshot()["lanes"][FULL_SPEC]["shards"]
            started = rss_anon_mib(shard["pid"])
        assert started < before - 16, (before, started)

    def test_stop_is_idempotent_and_reports_registry(self):
        engine = make_engine(shards=1)
        engine.warm(SPEC)
        view = engine.registry.snapshot()
        assert view["entries"] == [FULL_SPEC]
        assert len(view["shards"][FULL_SPEC]) == 1
        engine.stop()
        engine.stop()

    def test_stop_does_not_wait_for_a_busy_shard(self):
        started = multiprocessing.get_context("fork").Event()
        with make_engine(shards=1, stall_s=30.0,
                         loader=lambda spec: SleepyServable(started)) as engine:
            handle = engine.submit(SPEC, IMAGE)
            assert started.wait(timeout=30.0), "the shard never began the batch"
            begun = time.monotonic()
            engine.stop()
            elapsed = time.monotonic() - begun
        assert elapsed < 0.5
        assert handle.done()
        with pytest.raises(RuntimeError, match="stopped"):
            handle.result(timeout=0.0)


class TestClusterSupervision:
    def test_shard_kill_recovers_without_silent_loss(self):
        with make_engine() as engine:
            engine.warm(SPEC)
            handles = [engine.submit(SPEC, IMAGE) for _ in range(12)]
            engine.kill_shard(SPEC, index=0)
            handles += [engine.submit(SPEC, IMAGE) for _ in range(12)]
            results = [h.result(timeout=30.0) for h in handles]
            # If shard 1 took every later batch, shard 0 died idle, and only
            # the sweep notices that.
            deadline = time.monotonic() + 30.0
            while True:
                snap = engine.snapshot()
                shards = snap["lanes"][FULL_SPEC]["shards"]
                if snap["counters"].get("shard_crashes_total") and all(
                    s["alive"] for s in shards
                ):
                    break
                assert time.monotonic() < deadline, "killed shard never respawned"
                engine.check_watchdog()
                time.sleep(0.01)
        # Zero silent loss: every admitted request got a real answer.
        assert len(results) == 24
        assert snap["counters"]["responses_total"] == 24
        assert snap["counters"]["shard_restarts_total"] >= 1
        assert snap["counters"]["shard_crashes_total"] >= 1
        assert all(s["alive"] for s in snap["lanes"][FULL_SPEC]["shards"])

    def test_idle_crash_is_respawned_by_check_watchdog(self):
        with make_engine(shards=1) as engine:
            engine.warm(SPEC)
            engine.kill_shard(SPEC, index=0)
            # Nothing but the sweep respawns an idle shard: wait until the
            # kill has landed, then drive the sweep.
            deadline = time.monotonic() + 5.0
            while engine.lane_stats(SPEC)["shards_alive"]:
                assert time.monotonic() < deadline, "killed shard still alive"
                time.sleep(0.005)
            restarted = engine.check_watchdog()
            assert restarted == [FULL_SPEC]
            result = engine.submit(SPEC, IMAGE).result(timeout=30.0)
        assert result.label == 1

    def test_injected_stall_trips_the_watchdog_restart(self):
        plan = FaultPlan([FaultSpec(STALL, start=1, count=1, stall_s=2.0)])
        with make_engine(stall_s=0.25, faults=plan) as engine:
            engine.warm(SPEC)
            handles = [engine.submit(SPEC, IMAGE) for _ in range(12)]
            results = [h.result(timeout=30.0) for h in handles]
            snap = engine.snapshot()
        assert len(results) == 12
        assert snap["counters"]["watchdog_restarts_total"] >= 1
        assert snap["counters"]["reroutes_total"] >= 1
        assert snap["counters"]["responses_total"] == 12

    def test_batch_exception_fails_over_to_float(self):
        plan = FaultPlan([FaultSpec(BATCH_EXCEPTION, start=0, count=1)])
        with make_engine(shards=1, faults=plan) as engine:
            engine.warm(SPEC)
            result = engine.submit(SPEC, IMAGE).result(timeout=30.0)
            snap = engine.snapshot()
        assert result.quantized is False
        assert snap["counters"]["failovers_total"] >= 1

    def test_redispatch_exhaustion_fails_without_float_failover(self):
        # Every quantized dispatch kills its shard; the float path would
        # answer, but a batch lost more than max_redispatch times fails.
        loader = lambda spec: CrashingServable()  # noqa: E731
        with make_engine(shards=1, loader=loader, max_redispatch=1) as engine:
            handle = engine.submit(SPEC, IMAGE)
            with pytest.raises(RuntimeError, match="abandoned after 2 shard losses"):
                handle.result(timeout=30.0)
            snap = engine.snapshot()
        counters = snap["counters"]
        assert counters["reroutes_total"] == 1
        assert counters["shard_crashes_total"] == 2
        assert counters["errors_total"] == 1
        assert counters.get("failovers_total", 0) == 0
        assert snap["lanes"][FULL_SPEC]["breaker"]["consecutive_failures"] == 0

    def test_degraded_lane_serves_the_float_path(self):
        with make_engine(shards=1) as engine:
            engine.warm(SPEC)
            lane = engine._lane(ModelKey.parse(SPEC))
            lane.degrade(engine.clock() + 100.0)
            result = engine.submit(SPEC, IMAGE).result(timeout=30.0)
            snap = engine.snapshot()
        assert result.quantized is False
        assert snap["counters"]["degraded_batches_total"] >= 1
        assert snap["lanes"][FULL_SPEC]["degraded"] is True

    def test_registry_invalidate_rolls_the_shards(self):
        with make_engine() as engine:
            engine.warm(SPEC)
            assert engine.registry.invalidate(SPEC) is True
            snap = engine.registry.snapshot()
            result = engine.submit(SPEC, IMAGE).result(timeout=30.0)
        assert all(s["restarts"] >= 1 for s in snap["shards"][FULL_SPEC])
        assert result.label == 1

    def test_rolling_restart_is_not_a_crash(self):
        # Respawning every idle shard of a lane is neither a crash nor a
        # stall, so the crash-loop breaker must not quarantine the lane.
        with make_engine(shards=3) as engine:
            engine.warm(SPEC)
            assert engine.registry.invalidate(SPEC) is True
            events = Autoscaler(engine).tick()
            stats = engine.lane_stats(SPEC)
            snap = engine.snapshot()
        assert not any(event["action"] == "quarantine" for event in events)
        assert stats["crash_times"] == []
        counters = snap["counters"]
        assert "shard_crashes_total" not in counters
        assert counters[f'shard_restarts_total{{spec="{FULL_SPEC}"}}'] == 3
        assert snap["lanes"][FULL_SPEC]["watchdog_restarts"] == 0


class TestClusterChaosSoak:
    def test_soak_rides_through_spikes_and_stalls(self):
        """Satellite: the PR 2 chaos harness audits the process topology
        unchanged — availability floor holds and nothing non-finite or
        silently dropped survives a queue spike plus a shard stall."""
        plan = FaultPlan([
            FaultSpec(QUEUE_SPIKE, start=10, count=2, spike=16),
            FaultSpec(STALL, start=4, count=1, stall_s=1.5),
        ])
        engine = make_engine(stall_s=0.25, faults=plan)
        config = ChaosSoakConfig(
            spec=SPEC, requests=48, rate=400.0, seed=0,
            availability_floor=0.5, image_size=16,
            watchdog_every=8, settle_s=15.0,
        )
        try:
            report = run_chaos_soak(engine, plan, config)
        finally:
            engine.stop()
        assert report["passed"], report["faults"]
        assert report["nonfinite_served"] == 0
        assert report["deadlock_free"] is True
        assert report["availability"] >= config.availability_floor
        assert report["faults"][STALL]["recovered"] is True
        assert report["faults"][QUEUE_SPIKE]["recovered"] is True
        # Ledger: every offered request was answered or explicitly refused.
        assert (report["completed"] + report["failed"] + report["rejected"]
                == report["offered"])


class TestScaleBenchmarkSmoke:
    def test_trace_replay_passes_all_gates(self):
        from repro.analysis.scale import (
            ScaleBenchConfig,
            format_scale_report,
            run_scale_benchmark,
        )
        from repro.serve import (
            AdmissionController,
            AdmissionPolicy,
            TraceConfig,
            tenant_mix,
        )

        trace = TraceConfig(
            duration_s=1.5, base_rate=200.0, seed=0, tenants=3,
            flash_multiplier=3.0,
        )
        admission = AdmissionController(
            AdmissionPolicy(tenant_weights=tenant_mix(trace))
        )
        engine = make_engine(admission=admission)
        config = ScaleBenchConfig(
            spec=SPEC, trace=trace, kill_shard_at=0.5, settle_s=10.0
        )
        try:
            report = run_scale_benchmark(engine, config)
        finally:
            engine.stop()
        assert report["schema_version"] == 2
        assert report["passed"], {
            key: report[key]
            for key in ("availability", "no_silent_drop", "fairness_ok",
                        "deadlock_free", "recovery_ok")
        }
        # Zero-silent-drop ledger.
        assert report["offered"] == report["admitted"] + report["rejected"]
        assert report["admitted"] == report["completed"] + report["failed"]
        assert report["nonfinite_served"] == 0
        # The mid-trace SIGKILL must have been noticed and repaired.
        assert report["recovery"]["killed_pid"] is not None
        assert report["recovery"]["shard_restarts_total"] >= 1
        rendered = format_scale_report(report)
        assert "Scale benchmark" in rendered
        assert "Shard-loss recovery" in rendered
        assert "Gates" in rendered

    def test_only_typed_refusals_are_booked(self):
        from repro.analysis.scale import ScaleBenchConfig, run_scale_benchmark
        from repro.serve import QueueFullError, ShedError, TraceConfig

        engine = make_engine(shards=1)
        refusals = iter([QueueFullError("full"), ShedError("shed"),
                         RuntimeError("not a refusal")])

        def submit(*args, **kwargs):
            raise next(refusals)

        engine.submit = submit
        config = ScaleBenchConfig(
            spec=SPEC, kill_shard_at=None, settle_s=1.0,
            trace=TraceConfig(duration_s=0.5, base_rate=50.0, seed=0,
                              tenants=1, flash_multiplier=1.0),
        )
        try:
            with pytest.raises(RuntimeError, match="not a refusal"):
                run_scale_benchmark(engine, config)
        finally:
            engine.stop()


class TestElasticCluster:
    """The add/retire/quarantine surface the autoscaler drives."""

    def test_add_shard_grows_the_pool_and_serves(self):
        with make_engine(shards=1) as engine:
            engine.warm(SPEC)
            assert engine.shard_count(SPEC) == 1
            assert engine.add_shard(SPEC) is True
            assert engine.shard_count(SPEC) == 2
            handles = [engine.submit(SPEC, IMAGE) for _ in range(12)]
            results = [h.result(timeout=30.0) for h in handles]
            snap = engine.snapshot()
        assert all(r.label == 1 for r in results)
        shards = snap["lanes"][FULL_SPEC]["shards"]
        assert len(shards) == 2 and all(s["alive"] for s in shards)
        assert snap["counters"]["scale_ups_total"] == 1
        assert snap["gauges"][f'shards_live{{spec="{FULL_SPEC}"}}'] == 2

    def test_retire_drains_in_flight_work_without_loss(self):
        with make_engine(shards=2) as engine:
            engine.warm(SPEC)
            # Work in flight while the retire fences and drains.
            handles = [engine.submit(SPEC, IMAGE) for _ in range(24)]
            assert engine.retire_shard(SPEC) is True
            results = [h.result(timeout=30.0) for h in handles]
            more = [engine.submit(SPEC, IMAGE) for _ in range(8)]
            results += [h.result(timeout=30.0) for h in more]
            snap = engine.snapshot()
        # Zero losses across the drain: every request completed.
        assert len(results) == 32
        assert all(r.label == 1 for r in results)
        assert snap["counters"]["responses_total"] == 32
        assert snap["counters"]["scale_downs_total"] == 1
        assert len(snap["lanes"][FULL_SPEC]["shards"]) == 1

    def test_retire_never_removes_the_last_shard(self):
        with make_engine(shards=1) as engine:
            engine.warm(SPEC)
            assert engine.retire_shard(SPEC) is False
            assert engine.shard_count(SPEC) == 1

    def test_lane_stats_expose_controller_signals(self):
        with make_engine(shards=2) as engine:
            engine.warm(SPEC)
            stats = engine.lane_stats(SPEC)
        assert stats["shards"] == 2 and stats["shards_alive"] == 2
        assert stats["queue_capacity"] == 64
        assert stats["quarantined"] is False
        assert stats["crash_times"] == []
        assert engine.lane_stats("vit_s/quq/8") is None
        assert engine.lane_specs() == [FULL_SPEC]

    def test_quarantine_serves_float_in_parent_and_recovers(self):
        with make_engine(shards=1) as engine:
            engine.warm(SPEC)
            assert engine.quarantine_lane(SPEC) is True
            # Kill the only shard: the quarantined lane must not respawn
            # it, and must keep answering via the in-parent float path.
            engine.kill_shard(SPEC, 0)
            handles = [engine.submit(SPEC, IMAGE) for _ in range(6)]
            results = [h.result(timeout=30.0) for h in handles]
            assert all(r.label == 1 for r in results)
            assert all(not r.quantized for r in results)
            mid = engine.snapshot()
            assert mid["counters"]["quarantine_batches_total"] >= 1
            assert mid["gauges"][f'lane_quarantined{{spec="{FULL_SPEC}"}}'] == 1
            # Probe: clear the quarantine, let the watchdog respawn, and
            # the lane returns to quantized shard serving.
            assert engine.clear_quarantine(SPEC) is True
            engine.check_watchdog()
            back = [engine.submit(SPEC, IMAGE) for _ in range(4)]
            results = [h.result(timeout=30.0) for h in back]
            snap = engine.snapshot()
        assert all(r.quantized for r in results)
        assert snap["gauges"][f'lane_quarantined{{spec="{FULL_SPEC}"}}'] == 0
        assert snap["counters"]["quarantines_total"] == 1

    def test_live_gauge_drops_a_shard_that_dies_in_quarantine(self):
        # The watchdog sweep skips a quarantined lane, so only a gauge
        # read at snapshot time sees this shard go.
        with make_engine(shards=2) as engine:
            engine.warm(SPEC)
            assert engine.quarantine_lane(SPEC) is True
            engine.kill_shard(SPEC, 0)
            engine._find(SPEC).executors[0].process.join(timeout=10.0)
            engine.check_watchdog()
            snap = engine.snapshot()
            stats = engine.lane_stats(SPEC)
        assert stats["shards_alive"] == 1
        assert snap["gauges"][f'shards_live{{spec="{FULL_SPEC}"}}'] == 1

    def test_quarantined_batches_record_no_breaker_outcome(self):
        plan = FaultPlan([FaultSpec(BATCH_EXCEPTION, start=0, count=1)])
        resilience = ResiliencePolicy(breaker_failures=1, breaker_cooldown_s=0.0)
        with make_engine(shards=1, faults=plan, resilience=resilience) as engine:
            # One failover opens the breaker; with no cooldown the next
            # quantized batch would be its half-open probe.
            assert engine.submit(SPEC, IMAGE).result(timeout=30.0).quantized is False
            assert engine.quarantine_lane(SPEC) is True
            results = [engine.submit(SPEC, IMAGE).result(timeout=30.0) for _ in range(3)]
            breaker = engine.snapshot()["lanes"][FULL_SPEC]["breaker"]
            assert not any(r.quantized for r in results)
            assert breaker["state"] == "open"
            assert (breaker["probes"], breaker["recoveries"], breaker["trips"]) == (0, 0, 1)
            # Back on the shards, the next batch takes the probe and closes it.
            assert engine.clear_quarantine(SPEC) is True
            assert engine.submit(SPEC, IMAGE).result(timeout=30.0).quantized is True
            breaker = engine.snapshot()["lanes"][FULL_SPEC]["breaker"]
        assert (breaker["state"], breaker["probes"], breaker["recoveries"]) == ("closed", 1, 1)

    def test_batch_lost_after_quarantine_is_answered_in_parent(self):
        plan = FaultPlan([FaultSpec(BATCH_EXCEPTION, start=0, count=1)])
        resilience = ResiliencePolicy(breaker_failures=1, breaker_cooldown_s=0.0,
                                      watchdog_stall_s=5.0)
        loader = lambda spec: ScriptServable()  # noqa: E731
        with make_engine(shards=1, loader=loader, faults=plan,
                         resilience=resilience) as engine:
            assert engine.submit(SPEC, IMAGE).result(timeout=30.0).quantized is False
            # The breaker is open with no cooldown: this slow batch is its
            # half-open probe, dispatched to the shard.
            handle = engine.submit(SPEC, IMAGE + SLOW)
            deadline = time.monotonic() + 10.0
            while not engine.lane_stats(SPEC)["in_flight"]:
                assert time.monotonic() < deadline, "batch never dispatched"
                time.sleep(0.005)
            assert engine.quarantine_lane(SPEC) is True
            engine.kill_shard(SPEC, 0)
            result = handle.result(timeout=30.0)
            snap = engine.snapshot()
        assert result.quantized is False
        counters = snap["counters"]
        assert counters["quarantine_batches_total"] == 1
        assert counters.get("shard_crashes_total", 0) == 0  # no respawn
        # Answered by the float stand-in: the probe records no outcome.
        breaker = snap["lanes"][FULL_SPEC]["breaker"]
        assert (breaker["state"], breaker["probes"], breaker["recoveries"]) == (
            "half_open", 1, 0
        )

    def test_crash_history_is_recorded_for_the_breaker(self):
        with make_engine(shards=2) as engine:
            engine.warm(SPEC)
            engine.kill_shard(SPEC, 0)
            handles = [engine.submit(SPEC, IMAGE) for _ in range(8)]
            for handle in handles:
                handle.result(timeout=30.0)
            # When the surviving shard took every batch, the dead one died
            # idle, and only the watchdog sweep notices it.
            deadline = time.monotonic() + 30.0
            while not engine.lane_stats(SPEC)["crash_times"]:
                assert time.monotonic() < deadline, "crash never recorded"
                engine.check_watchdog()
                time.sleep(0.01)


class TestClusterDeadlines:
    def test_late_completion_is_withheld_with_typed_error(self):
        from repro.serve import DeadlineExceededError

        with make_engine(shards=1) as engine:
            engine.warm(SPEC)
            # A deadline far tighter than a shard round trip can meet.
            handle = engine.submit(SPEC, IMAGE, deadline_ms=0.001)
            with pytest.raises(DeadlineExceededError) as info:
                handle.result(timeout=30.0)
            snap = engine.snapshot()
        assert getattr(info.value, "reason", None) == "deadline"
        counters = snap["counters"]
        assert counters["deadline_misses_total"] >= 1
        assert counters['rejections_total{reason="deadline"}'] >= 1


class TestClusterBorrowReturn:
    def test_shard_moves_between_lanes_and_back(self):
        """Cluster-level loan: the exact retire+add sequence the
        autoscaler's borrow pass performs, against real processes —
        capacity moves to the hot lane and returns, serving throughout."""
        hot, idle = SPEC, "vit_s/quq/4"
        hot_key = FULL_SPEC
        idle_key = ModelKey.parse(idle).spec
        with make_engine(shards=2) as engine:
            engine.warm(hot)
            engine.warm(idle)
            # Borrow: drain a shard out of the idle lane, respawn on hot.
            assert engine.retire_shard(idle) is True
            assert engine.add_shard(hot) is True
            assert engine.shard_count(hot) == 3
            assert engine.shard_count(idle) == 1
            handles = [engine.submit(hot, IMAGE) for _ in range(12)]
            handles += [engine.submit(idle, IMAGE) for _ in range(4)]
            results = [h.result(timeout=30.0) for h in handles]
            # Return: unwind the loan.
            assert engine.retire_shard(hot) is True
            assert engine.add_shard(idle) is True
            assert engine.shard_count(hot) == 2
            assert engine.shard_count(idle) == 2
            handles = [engine.submit(s, IMAGE) for s in (hot, idle)]
            results += [h.result(timeout=30.0) for h in handles]
            snap = engine.snapshot()
        assert len(results) == 18
        assert all(r.label == 1 for r in results)
        assert snap["counters"]["responses_total"] == 18
        assert snap["gauges"][f'shards_live{{spec="{hot_key}"}}'] == 2
        assert snap["gauges"][f'shards_live{{spec="{idle_key}"}}'] == 2


class _StubRegistry:
    def __init__(self, servable):
        self.servable = servable

    def get(self, spec):
        return self.servable

    def snapshot(self) -> dict:
        return {}


#: Counter families only one topology has.
TOPOLOGY_ONLY = ("shard_", "reroutes_total", "scale_", "quarantine")


class TestCrossTopology:
    """One script, both engines: the lane core decides every outcome and
    counter, so only where a batch ran may differ."""

    def run_script(self, engine):
        outcomes = []
        for step, image in enumerate((IMAGE, IMAGE, IMAGE, IMAGE + SLOW, IMAGE)):
            deadline_ms = 300.0 if step == 3 else None
            try:
                result = engine.submit(SPEC, image, deadline_ms=deadline_ms).result(
                    timeout=30.0
                )
                outcomes.append("quantized" if result.quantized else "float")
            except Exception as error:
                outcomes.append(type(error).__name__)
        return outcomes

    def test_same_script_same_outcomes_and_counters(self):
        def defenses():
            return dict(
                resilience=ResiliencePolicy(breaker_failures=5, watchdog_stall_s=5.0),
                # Step 2 raises in the quantized path, step 3 returns NaN.
                faults=FaultPlan([
                    FaultSpec(BATCH_EXCEPTION, start=1, count=1),
                    FaultSpec(NUMERIC, start=1, count=1, mode="nan"),
                ]),
                # The slow step 4 lifts p99 past 2.5x target: step 5 is shed.
                admission=AdmissionController(
                    AdmissionPolicy(p99_target_ms=400.0, latency_refresh_s=0.0)
                ),
            )

        engines = {
            "local": ServeEngine(_StubRegistry(ScriptServable()), POLICY, **defenses()),
            "cluster": ClusterEngine(
                loader=lambda spec: ScriptServable(), policy=POLICY,
                cluster=ClusterPolicy(shards=1, image_hw=16),
                **defenses(),
            ),
        }
        seen = {}
        for name, engine in engines.items():
            with engine:
                outcomes = self.run_script(engine)
                counters = engine.snapshot()["counters"]
            assert_rollups_hold(counters)
            seen[name] = outcomes, {
                key: value for key, value in counters.items()
                if not key.startswith(TOPOLOGY_ONLY)
            }
        outcomes, counters = seen["local"]
        assert outcomes == [
            "quantized", "float", "float", "DeadlineExceededError", "ShedError",
        ]
        assert counters["failovers_total"] == 2 and counters["guard_trips_total"] == 1
        assert counters['rejections_total{reason="shed"}'] == 1
        assert counters['deadline_misses_total{band="batch"}'] == 1
        assert seen["cluster"] == seen["local"]
