"""Integration tests: every fault class, injected and recovered from.

Each test drives the serving engine with a :class:`FaultPlan` window for
one fault class and asserts the full resilience contract:

* no deadlock — every submitted request resolves (the conftest timeout
  guard turns a hang into a failure);
* no bad payloads — no completed :class:`ServeResult` ever carries
  NaN/Inf logits;
* observability — the matching metric/stat incremented;
* recovery — the lane serves normally once the window has passed.

The engine runs on a fake clock (idle dispatch serves each request the
moment the worker is free, and breaker/watchdog transitions are driven
by explicit ``advance`` calls); the retry policy uses a no-op sleep.
"""

import time

import numpy as np
import pytest

from repro.resilience import (
    BATCH_EXCEPTION,
    CLOSED,
    LOAD_ERROR,
    NUMERIC,
    OPEN,
    QUEUE_SPIKE,
    STALL,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    NumericGuardError,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.resilience.faults import FAULT_KINDS
from repro.resilience.soak import ChaosSoakConfig, format_soak_report, run_chaos_soak
from repro.serve import BatchPolicy, ModelRegistry, QueueFullError, ServeEngine
from repro.serve.registry import ModelKey
from tests.test_serve_registry import tiny_loader

SPEC = "vit_s/quq/4"
LANE = ModelKey.parse(SPEC).spec  # canonical lane label in snapshots


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_registry(tmp_path, calib_images, plan, attempts=4):
    return ModelRegistry(
        capacity=2,
        artifact_dir=tmp_path,
        loader=tiny_loader,
        calib_provider=lambda: calib_images[:16],
        retry=RetryPolicy(attempts=attempts, backoff_s=0.01, sleep=lambda s: None),
        faults=plan,
    )


def make_engine(registry, plan, clock, workers=1, **policy_kwargs):
    defaults = dict(breaker_failures=2, breaker_cooldown_s=5.0, watchdog_stall_s=2.0)
    defaults.update(policy_kwargs)
    return ServeEngine(
        registry,
        BatchPolicy(max_batch_size=4, max_wait_ms=5.0, max_queue=64),
        workers=workers,
        clock=clock,
        resilience=ResiliencePolicy(**defaults),
        faults=plan,
    )


def serve_one(engine, image, timeout=30.0):
    result = engine.submit(SPEC, image).result(timeout=timeout)
    assert np.isfinite(result.logits).all()  # the no-bad-payloads contract
    return result


class TestLoadErrorRecovery:
    def test_retry_absorbs_transient_window(self, tmp_path, calib_images):
        plan = FaultPlan([FaultSpec(LOAD_ERROR, start=0, count=2)])
        registry = make_registry(tmp_path, calib_images, plan)
        servable = registry.get(SPEC)
        assert servable.quantized
        snap = registry.snapshot()
        assert snap["retries"] == 2 and snap["load_failures"] == 0
        assert plan.injected(LOAD_ERROR) == 2

    def test_exhausted_retries_fail_batch_then_lane_recovers(
        self, tmp_path, calib_images, tiny_data
    ):
        # Four injected failures against a three-attempt budget: the first
        # get() fails; its request is failed (not hung); the next get()
        # retries through the tail of the window and recovers.
        plan = FaultPlan([FaultSpec(LOAD_ERROR, start=0, count=4)])
        registry = make_registry(tmp_path, calib_images, plan, attempts=3)
        clock = FakeClock()
        _, val_set = tiny_data
        with make_engine(registry, plan, clock) as engine:
            handle = engine.submit(SPEC, val_set.images[0])
            with pytest.raises(FaultInjected):
                handle.result(timeout=30.0)
            assert registry.snapshot()["load_failures"] == 1
            assert engine.snapshot()["counters"]["errors_total"] == 1
            result = serve_one(engine, val_set.images[1])  # recovery
            assert result.quantized
        assert registry.snapshot()["retries"] == 3  # 2 + 1 across both gets


class TestCorruptStateRecovery:
    def test_checksum_reject_forces_recalibration(
        self, tmp_path, calib_images, tiny_data
    ):
        plan = FaultPlan([FaultSpec("corrupt_state", start=0, count=1)])
        registry = make_registry(tmp_path, calib_images, plan)
        _, val_set = tiny_data
        clock = FakeClock()
        with make_engine(registry, plan, clock) as engine:
            first = serve_one(engine, val_set.images[0])
            assert first.quantized
            # Drop the cached entry: the rebuild hits the (now tampered)
            # on-disk artifact, rejects it by checksum, and recalibrates.
            assert engine.registry.invalidate(SPEC)
            second = serve_one(engine, val_set.images[1])
            assert second.quantized
        snap = registry.snapshot()
        assert snap["checksum_rejects"] == 1
        assert snap["calibrations"] == 2  # initial + post-reject
        assert snap["fallbacks"] == 0  # recovered, not degraded
        assert plan.injected("corrupt_state") == 1


class TestBatchExceptionRecovery:
    def test_breaker_trips_to_float_then_probes_back(
        self, tmp_path, calib_images, tiny_data
    ):
        plan = FaultPlan([FaultSpec(BATCH_EXCEPTION, start=0, count=2)])
        registry = make_registry(tmp_path, calib_images, plan)
        _, val_set = tiny_data
        clock = FakeClock()
        with make_engine(registry, plan, clock, breaker_failures=2) as engine:
            engine.warm(SPEC)
            # Two injected batch exceptions: both fail over to float (the
            # requests still succeed), and the second trips the breaker.
            assert not serve_one(engine, val_set.images[0]).quantized
            assert not serve_one(engine, val_set.images[1]).quantized
            lane = engine.snapshot()["lanes"][LANE]
            assert lane["breaker"]["state"] == OPEN
            assert lane["breaker"]["trips"] == 1
            # Open: quantized path not even attempted, still serving float.
            assert not serve_one(engine, val_set.images[2]).quantized
            # Cooldown elapses on the fake clock: the half-open probe runs
            # the (now healthy) quantized path and closes the breaker.
            clock.advance(5.0)
            assert serve_one(engine, val_set.images[3]).quantized
            lane = engine.snapshot()["lanes"][LANE]
            assert lane["breaker"]["state"] == CLOSED
            assert lane["breaker"]["recoveries"] == 1
        counters = engine.snapshot()["counters"]
        assert counters["failovers_total"] == 2
        assert counters.get("errors_total", 0) == 0  # nothing user-visible failed


class TestDegradedBatchKeepsTheProbe:
    def test_degraded_batch_does_not_take_the_half_open_probe(
        self, tmp_path, calib_images, tiny_data
    ):
        plan = FaultPlan([FaultSpec(BATCH_EXCEPTION, start=0, count=1)])
        registry = make_registry(tmp_path, calib_images, plan)
        _, val_set = tiny_data
        clock = FakeClock()
        with make_engine(registry, plan, clock, breaker_failures=1) as engine:
            assert not serve_one(engine, val_set.images[0]).quantized  # trips
            clock.advance(5.0)  # cooldown over: the next quantized batch probes
            engine._lane(ModelKey.parse(SPEC)).degrade(clock() + 1.0)
            assert not serve_one(engine, val_set.images[1]).quantized
            breaker = engine.snapshot()["lanes"][LANE]["breaker"]
            assert (breaker["state"], breaker["probes"]) == (OPEN, 0)
            clock.advance(1.0)  # the degrade hold expires
            assert serve_one(engine, val_set.images[2]).quantized
            breaker = engine.snapshot()["lanes"][LANE]["breaker"]
            assert (breaker["state"], breaker["probes"]) == (CLOSED, 1)
        assert engine.snapshot()["counters"]["degraded_batches_total"] == 1


class TestNumericGuard:
    @pytest.mark.parametrize("mode", ["nan", "inf", "overflow"])
    def test_polluted_logits_fail_over_to_float(
        self, tmp_path, calib_images, tiny_data, mode
    ):
        plan = FaultPlan([FaultSpec(NUMERIC, start=0, count=1, mode=mode)])
        registry = make_registry(tmp_path, calib_images, plan)
        _, val_set = tiny_data
        clock = FakeClock()
        with make_engine(registry, plan, clock, breaker_failures=3) as engine:
            engine.warm(SPEC)
            first = serve_one(engine, val_set.images[0])
            assert not first.quantized  # guard caught it; float answered
            second = serve_one(engine, val_set.images[1])
            assert second.quantized  # window passed: quantized path back
        counters = engine.snapshot()["counters"]
        assert counters["guard_trips_total"] == 1
        assert counters["failovers_total"] == 1
        assert plan.injected(NUMERIC) == 1

    def test_bad_on_both_paths_is_failed_never_served(
        self, tmp_path, calib_images, tiny_data
    ):
        # A saturation limit below any real logit makes both the quantized
        # and the float path fail the scan — the batch must be failed.
        plan = FaultPlan()
        registry = make_registry(tmp_path, calib_images, plan)
        _, val_set = tiny_data
        clock = FakeClock()
        with make_engine(
            registry, plan, clock, guard_saturation=1e-12
        ) as engine:
            handle = engine.submit(SPEC, val_set.images[0])
            with pytest.raises(NumericGuardError):
                handle.result(timeout=30.0)
        counters = engine.snapshot()["counters"]
        assert counters["guard_trips_total"] >= 1
        assert counters["errors_total"] == 1
        assert counters.get("responses_total", 0) == 0  # never served


class TestStallWatchdog:
    def test_watchdog_restarts_stalled_lane(self, tmp_path, calib_images, tiny_data):
        plan = FaultPlan([FaultSpec(STALL, start=0, count=1, stall_s=60.0)])
        registry = make_registry(tmp_path, calib_images, plan)
        _, val_set = tiny_data
        clock = FakeClock()
        with make_engine(registry, plan, clock, watchdog_stall_s=2.0) as engine:
            engine.warm(SPEC)
            stuck = engine.submit(SPEC, val_set.images[0])
            # Wait (real time) until the worker is wedged inside the batch.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                lanes = engine.snapshot()["lanes"]
                if lanes and next(iter(lanes.values()))["queued"] == 0:
                    break
                time.sleep(0.005)
            clock.advance(2.0)  # past the stall threshold
            assert engine.check_watchdog() == [LANE]
            # The replacement worker keeps the lane serving while the
            # wedged one is still blocked.  The wedged batch keeps the
            # lane non-idle, so dispatch rides the batching timer — which
            # on the frozen clock needs an explicit advance.
            fresh_handle = engine.submit(SPEC, val_set.images[1])
            clock.advance(0.01)
            fresh = fresh_handle.result(timeout=30.0)
            assert np.isfinite(fresh.logits).all()
            assert fresh.quantized
            # Releasing the stall lets the wedged worker finish its batch.
            plan.release_stalls()
            result = stuck.result(timeout=30.0)
            assert np.isfinite(result.logits).all()
        counters = engine.snapshot()["counters"]
        assert counters["watchdog_restarts_total"] == 1
        lane = engine.snapshot()["lanes"][LANE]
        assert lane["watchdog_restarts"] == 1
        assert plan.injected(STALL) == 1

    def test_idle_sibling_does_not_hide_a_wedged_worker(
        self, tmp_path, calib_images, tiny_data
    ):
        plan = FaultPlan([FaultSpec(STALL, start=0, count=1, stall_s=60.0)])
        registry = make_registry(tmp_path, calib_images, plan)
        _, val_set = tiny_data
        clock = FakeClock()
        with make_engine(registry, plan, clock, workers=2) as engine:
            engine.warm(SPEC)
            stuck = engine.submit(SPEC, val_set.images[0])
            # Wait (real time) until one worker is wedged inside the batch.
            deadline = time.monotonic() + 10.0
            while plan.injected(STALL) == 0 and time.monotonic() < deadline:
                time.sleep(0.005)
            clock.advance(2.0)  # past the stall threshold
            time.sleep(0.3)  # the idle sibling beats on every 0.1 s pass
            assert engine.check_watchdog() == [LANE]
            # The wedged worker was retired with its replacement, so a
            # second sweep finds nothing to replace.
            assert engine.check_watchdog() == []
            plan.release_stalls()
            assert np.isfinite(stuck.result(timeout=30.0).logits).all()
        counters = engine.snapshot()["counters"]
        assert counters["watchdog_restarts_total"] == 1
        assert engine.snapshot()["lanes"][LANE]["watchdog_restarts"] == 1

    def test_check_watchdog_ignores_idle_lanes(self, tmp_path, calib_images, tiny_data):
        plan = FaultPlan()
        registry = make_registry(tmp_path, calib_images, plan)
        _, val_set = tiny_data
        clock = FakeClock()
        with make_engine(registry, plan, clock, watchdog_stall_s=2.0) as engine:
            serve_one(engine, val_set.images[0])
            clock.advance(100.0)  # ancient beat, but the lane is idle
            assert engine.check_watchdog() == []
        assert engine.snapshot()["counters"].get("watchdog_restarts_total", 0) == 0


class TestQueueSpike:
    def test_spike_is_bounded_and_fully_accounted(
        self, tmp_path, calib_images, tiny_data
    ):
        plan = FaultPlan([FaultSpec(QUEUE_SPIKE, start=1, count=1, spike=16)])
        registry = make_registry(tmp_path, calib_images, plan)
        _, val_set = tiny_data
        clock = FakeClock()
        engine = ServeEngine(
            registry,
            BatchPolicy(max_batch_size=2, max_wait_ms=5.0, max_queue=4),
            clock=clock,
            resilience=ResiliencePolicy(),
            faults=plan,
        )
        with engine:
            engine.warm(SPEC)
            handles, rejected, offered = [], 0, 0
            for index in range(3):
                spike = plan.fire(QUEUE_SPIKE, site=SPEC)
                burst = 1 + (spike.spike if spike is not None else 0)
                for _ in range(burst):
                    offered += 1
                    try:
                        handles.append(engine.submit(SPEC, val_set.images[index]))
                    except QueueFullError:
                        rejected += 1
            results = [h.result(timeout=30.0) for h in handles]
        assert plan.injected(QUEUE_SPIKE) == 1
        assert offered == 3 + 16
        assert rejected > 0  # a 16-burst cannot fit a queue of 4
        assert len(results) + rejected == offered  # nothing dropped silently
        for result in results:
            assert np.isfinite(result.logits).all()
        counters = engine.snapshot()["counters"]
        assert counters["rejected_total"] == rejected
        assert counters["requests_total"] == len(handles)


class TestChaosSoakMini:
    def test_seeded_soak_passes_end_to_end(self, tmp_path, calib_images):
        plan = FaultPlan.seeded(seed=0, kinds=FAULT_KINDS, horizon=8,
                                max_width=2, stall_s=0.1, spike=8)
        registry = ModelRegistry(
            capacity=2,
            artifact_dir=tmp_path,
            loader=tiny_loader,
            calib_provider=lambda: calib_images[:16],
            retry=RetryPolicy(attempts=4, backoff_s=0.01),
            faults=plan,
        )
        engine = ServeEngine(
            registry,
            BatchPolicy(max_batch_size=4, max_wait_ms=5.0, max_queue=64,
                        timeout_ms=10000.0),
            resilience=ResiliencePolicy(breaker_failures=2,
                                        breaker_cooldown_s=0.2,
                                        watchdog_stall_s=0.05),
            faults=plan,
        )
        config = ChaosSoakConfig(spec=SPEC, requests=64, rate=250.0, seed=0,
                                 availability_floor=0.5, image_size=16,
                                 settle_s=10.0)
        with engine:
            report = run_chaos_soak(engine, plan, config)
        assert report["deadlock_free"], report
        assert report["nonfinite_served"] == 0, report
        assert report["availability"] >= 0.5, report
        assert report["faults"], "the seeded plan injected nothing"
        for kind, entry in report["faults"].items():
            assert entry["injected"] >= 1
            assert entry["recovered"], (kind, report)
        assert report["passed"], report
        rendered = format_soak_report(report)
        assert "Chaos soak" in rendered and "PASS" in rendered

    def test_breaker_opened_at_the_end_is_probed_closed(self, tmp_path, calib_images):
        # Traffic lasts 4 ms: the two injected failures trip the breaker
        # as it ends, so only settle-phase probes can close it.
        plan = FaultPlan([FaultSpec(BATCH_EXCEPTION, start=0, count=2)])
        registry = make_registry(tmp_path, calib_images, plan)
        engine = ServeEngine(
            registry,
            BatchPolicy(max_batch_size=4, max_wait_ms=5.0, max_queue=64),
            resilience=ResiliencePolicy(breaker_failures=2, breaker_cooldown_s=0.2),
            faults=plan,
        )
        config = ChaosSoakConfig(spec=SPEC, requests=4, rate=1000.0,
                                 image_size=16, settle_s=2.0)
        with engine:
            report = run_chaos_soak(engine, plan, config)
        assert report["faults"][BATCH_EXCEPTION] == {"injected": 2, "recovered": True}
        assert report["snapshot"]["lanes"][LANE]["breaker"]["state"] == CLOSED
        assert report["passed"], report
        # Probes count as offered, and the ledger still balances.
        assert report["offered"] > config.requests
        assert (report["completed"] + report["failed"] + report["rejected"]
                == report["offered"])
