"""End-to-end tests for the serving engine, also under the open-loop replay."""

import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.scale import Replay, image_pool
from repro.serve import (
    BatchPolicy,
    ModelKey,
    ModelRegistry,
    QueueFullError,
    ServeEngine,
    ServeRequest,
    TraceEvent,
)
from tests.test_serve_registry import tiny_loader

SPEC = "vit_s/quq/4"
FLOAT_SPEC = "vit_s/fp32/32"


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class SteppingClock:
    """A clock that jumps ``step`` seconds every time it is read."""

    def __init__(self, step=0.1):
        self.now = 0.0
        self.step = step
        self._lock = threading.Lock()

    def __call__(self):
        with self._lock:
            self.now += self.step
            return self.now


class _Result:
    def __init__(self, batch):
        self.data = np.zeros((batch, 10), dtype=np.float32)


class BlockingModel:
    """A float model whose forward blocks until ``gate`` is set."""

    def __init__(self, gate):
        self.gate = gate

    def eval(self):
        pass

    def __call__(self, tensor):
        self.gate.wait(timeout=30.0)
        return _Result(tensor.data.shape[0])


class RaisingModel:
    def eval(self):
        pass

    def __call__(self, tensor):
        raise RuntimeError("model exploded mid-batch")


def blocking_registry(gate):
    return ModelRegistry(capacity=2, loader=lambda name: (BlockingModel(gate), 0.0))


@pytest.fixture
def registry(tmp_path, calib_images):
    return ModelRegistry(
        capacity=2,
        artifact_dir=tmp_path,
        loader=tiny_loader,
        calib_provider=lambda: calib_images[:16],
    )


class TestServeEngine:
    def test_results_match_direct_inference(self, registry, tiny_data):
        _, val_set = tiny_data
        images = val_set.images[:12]
        policy = BatchPolicy(max_batch_size=4, max_wait_ms=5.0, max_queue=64)
        with ServeEngine(registry, policy) as engine:
            engine.warm(SPEC)
            reference = registry.get(SPEC).predict(images).argmax(axis=-1)
            handles = [engine.submit(SPEC, image) for image in images]
            results = [handle.result(timeout=30.0) for handle in handles]

        assert [r.label for r in results] == list(reference)
        assert all(r.quantized for r in results)
        assert all(1 <= r.batch_size <= 4 for r in results)
        snapshot = engine.snapshot()
        assert snapshot["counters"]["responses_total"] == 12
        assert snapshot["counters"]["requests_total"] == 12
        assert snapshot["histograms"]["e2e_latency_ms"]["count"] == 12
        assert sum(
            int(size) * count
            for size, count in snapshot["distributions"]["batch_size"].items()
        ) == 12

    def test_backpressure_surfaces_queue_full(self, registry, tiny_data):
        _, val_set = tiny_data
        # With a queue bound of 1 and batch size 1, a burst of submissions
        # races the worker; the exact rejection count depends on timing, so
        # only the accounting invariant is asserted (the deterministic
        # rejection behaviour itself is covered in test_serve_scheduler).
        policy = BatchPolicy(max_batch_size=1, max_wait_ms=0.0, max_queue=1)
        with ServeEngine(registry, policy) as engine:
            engine.warm(SPEC)
            rejected = 0
            handles = []
            for image in val_set.images[:32]:
                try:
                    handles.append(engine.submit(SPEC, image))
                except QueueFullError:
                    rejected += 1
            for handle in handles:
                handle.result(timeout=30.0)
        assert rejected + len(handles) == 32
        assert engine.snapshot()["counters"].get("rejected_total", 0) == rejected

    def test_degraded_model_still_serves(self, tmp_path, tiny_data):
        def broken_calib():
            raise RuntimeError("no calibration data")

        registry = ModelRegistry(
            capacity=2, artifact_dir=tmp_path, loader=tiny_loader,
            calib_provider=broken_calib,
        )
        _, val_set = tiny_data
        with ServeEngine(registry) as engine:
            handle = engine.submit(SPEC, val_set.images[0])
            result = handle.result(timeout=30.0)
        assert not result.quantized  # float fallback answered
        assert registry.snapshot()["fallbacks"] == 1

    def test_stop_rejects_new_work(self, registry):
        engine = ServeEngine(registry)
        engine.stop()
        with pytest.raises(RuntimeError):
            engine.submit(SPEC, np.zeros((16, 16, 3), dtype=np.float32))


class TestNonFiniteImages:
    """A quantized lane's first input tap parks NaN at a finite code and
    clips inf, so the logits guard never sees them: every lane refuses a
    non-finite image at submit, before it is counted."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_every_lane_rejects_at_submit(self, registry, tiny_data, bad):
        _, val_set = tiny_data
        image = val_set.images[0].copy()
        image[3, 5, 1] = bad
        with ServeEngine(registry, BatchPolicy(max_batch_size=2, max_wait_ms=1.0)) as engine:
            for spec in (FLOAT_SPEC, SPEC, f"{SPEC}/full/int"):
                engine.warm(spec)
                with pytest.raises(ValueError, match="non-finite"):
                    engine.submit(spec, image)
            assert engine.snapshot()["counters"].get("requests_total", 0) == 0
            # The lanes still serve finite images.
            assert engine.submit(SPEC, val_set.images[0]).result(timeout=30.0).quantized


class TestMisShapedImages:
    """A batch stacks its images, so a lane holds every image to the
    shape of its first: another shape fails alone, at submit."""

    def test_odd_shape_fails_alone_and_the_lane_serves_on(self):
        gate = threading.Event()
        gate.set()
        good = np.zeros((16, 16, 3), dtype=np.float32)
        with ServeEngine(blocking_registry(gate)) as engine:
            first = engine.submit(FLOAT_SPEC, good)
            with pytest.raises(ValueError, match=r"\(8, 8, 3\).*\(16, 16, 3\)"):
                engine.submit(FLOAT_SPEC, np.zeros((8, 8, 3), dtype=np.float32))
            last = engine.submit(FLOAT_SPEC, good)
            assert first.result(timeout=10.0).logits.shape == (10,)
            assert last.result(timeout=10.0).logits.shape == (10,)
            assert engine.snapshot()["counters"]["requests_total"] == 2


class TestShutdownUnderLoad:
    """stop() must join workers and fail pending requests — never hang."""

    def test_stop_with_batch_in_flight_fails_pending_requests(self):
        gate = threading.Event()
        engine = ServeEngine(blocking_registry(gate), clock=FakeClock())
        image = np.zeros((16, 16, 3), dtype=np.float32)
        handle = engine.submit(FLOAT_SPEC, image)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:  # wait until the batch is taken
            lanes = engine.snapshot()["lanes"]
            if lanes and next(iter(lanes.values()))["queued"] == 0:
                break
            time.sleep(0.005)
        engine.stop()  # the wedged worker cannot join: its batch must fail
        assert handle.done()
        with pytest.raises(RuntimeError, match="engine stopped"):
            handle.result(timeout=0.0)
        gate.set()  # let the abandoned daemon finish (first-wins no-op)

    def test_stop_with_queued_requests_fails_them(self):
        gate = threading.Event()
        engine = ServeEngine(
            blocking_registry(gate),
            BatchPolicy(max_batch_size=1, max_wait_ms=0.0, max_queue=8),
            clock=FakeClock(),
        )
        image = np.zeros((16, 16, 3), dtype=np.float32)
        handles = [engine.submit(FLOAT_SPEC, image) for _ in range(4)]
        engine.stop()
        gate.set()
        for handle in handles:
            assert handle.done()
            with pytest.raises((QueueFullError, RuntimeError)):
                handle.result(timeout=5.0)

    def test_stop_joins_workers_when_predict_raises(self):
        registry = ModelRegistry(capacity=2, loader=lambda n: (RaisingModel(), 0.0))
        engine = ServeEngine(registry, clock=FakeClock())
        image = np.zeros((16, 16, 3), dtype=np.float32)
        before = set(threading.enumerate())
        handles = [engine.submit(FLOAT_SPEC, image) for _ in range(6)]
        workers = set(threading.enumerate()) - before
        for handle in handles:
            with pytest.raises(RuntimeError, match="exploded"):
                handle.result(timeout=30.0)
        engine.stop()
        # One errors_total increment per failed batch (requests coalesce).
        assert engine.snapshot()["counters"]["errors_total"] >= 1
        assert workers and not any(thread.is_alive() for thread in workers)


class TestDrainClock:
    def test_drain_deadline_runs_on_injected_clock(self):
        # A stepping clock races through the 5s drain budget in ~50 reads
        # even though almost no real time passes — proving the deadline is
        # measured on the injected clock, not time.monotonic().
        gate = threading.Event()
        engine = ServeEngine(blocking_registry(gate), clock=SteppingClock(step=0.1))
        image = np.zeros((16, 16, 3), dtype=np.float32)
        engine.submit(FLOAT_SPEC, image)
        started = time.monotonic()
        assert engine.drain(timeout=5.0) is False
        assert time.monotonic() - started < 5.0  # fake 5s ≪ real 5s
        gate.set()
        engine.stop()

    def test_drain_returns_true_once_quiet(self, registry, tiny_data):
        _, val_set = tiny_data
        with ServeEngine(registry) as engine:
            handle = engine.submit(SPEC, val_set.images[0])
            handle.result(timeout=30.0)
            assert engine.drain(timeout=10.0) is True


class TestSubmitMetricsAccounting:
    def test_rejected_submissions_do_not_count_as_requests(self):
        gate = threading.Event()
        engine = ServeEngine(
            blocking_registry(gate),
            BatchPolicy(max_batch_size=1, max_wait_ms=0.0, max_queue=1),
            clock=FakeClock(),
        )
        image = np.zeros((16, 16, 3), dtype=np.float32)
        accepted, rejected = 0, 0
        for _ in range(8):
            try:
                engine.submit(FLOAT_SPEC, image)
                accepted += 1
            except QueueFullError:
                rejected += 1
        counters = engine.snapshot()["counters"]
        assert rejected > 0  # queue of 1 with a wedged worker must reject
        assert counters["requests_total"] == accepted
        assert counters["rejected_total"] == rejected
        lane_key = next(iter(engine.snapshot()["lanes"]))
        assert counters[f'rejected_total{{spec="{lane_key}"}}'] == rejected
        assert engine.snapshot()["distributions"]["queue_depth"]
        gate.set()
        engine.stop()


class TestServeBenchmark:
    @pytest.mark.slow
    def test_open_loop_run_produces_full_snapshot(self, registry):
        policy = BatchPolicy(
            max_batch_size=8, max_wait_ms=5.0, max_queue=256, timeout_ms=30000.0
        )
        key = ModelKey.parse(SPEC)
        arrivals = [TraceEvent(index / 500.0, "default") for index in range(200)]
        with ServeEngine(registry, policy) as engine:
            engine.warm(key)
            replay = Replay(engine, key, image_pool(200, 16, seed=0))
            outcomes = replay.run(arrivals, settle_s=30.0)
            snapshot = engine.snapshot()
        assert sum(outcome.result is not None for outcome in outcomes) == 200
        latency = snapshot["histograms"]["e2e_latency_ms"]
        assert latency["count"] == 200
        assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"]
        assert snapshot["distributions"]["batch_size"]
        # Warmed once, then every batch is a registry hit.
        assert snapshot["registry"]["hit_rate"] > 0.5

    def test_outcome_scan_waits_one_budget_in_all(self):
        class SilentEngine:
            """Admits every request and answers none."""

            policy = BatchPolicy(timeout_ms=100.0)
            guard = SimpleNamespace(saturation_limit=1e6)

            def submit(self, spec, image, **kwargs):
                return ServeRequest(image, enqueued_at=0.0)

            def check_watchdog(self):
                return []

            def drain(self, timeout):
                return False

        wait_budget = 5.0  # the scan's floor; twice the policy timeout is less
        replay = Replay(SilentEngine(), ModelKey.parse(SPEC), image_pool(4, 16, seed=0))
        begun = time.monotonic()
        outcomes = replay.run([TraceEvent(0.0, "default")] * 20, settle_s=0.1)
        assert time.monotonic() - begun < 2 * wait_budget
        assert len(outcomes) == 20
        assert all(isinstance(outcome.error, TimeoutError) for outcome in outcomes)
        assert replay.resolved is False


class TestSnapshotConsistencyUnderLoad:
    """``snapshot()`` collects lane state under the engine lock with each
    lane's lock and the scheduler's atomic ``stats()`` held, so every view
    describes one instant — and taking it must never deadlock against the
    workers, submitters, or completions racing it."""

    LANE_KEYS = {"queued", "timed_out", "rejected", "breaker",
                 "watchdog_restarts", "in_flight", "degraded"}

    def test_snapshot_under_concurrent_mutation(self, registry, tiny_data):
        from repro.serve import ModelKey

        _, val_set = tiny_data
        images = val_set.images[:8]
        policy = BatchPolicy(max_batch_size=4, max_wait_ms=1.0, max_queue=16)
        expected_lanes = {ModelKey.parse(s).spec for s in (SPEC, FLOAT_SPEC)}
        stop = threading.Event()
        errors = []

        with ServeEngine(registry, policy) as engine:
            for spec in (SPEC, FLOAT_SPEC):
                engine.warm(spec)

            def pound(spec):
                index = 0
                while not stop.is_set():
                    try:
                        handle = engine.submit(spec, images[index % len(images)])
                        handle.result(timeout=30.0)
                    except QueueFullError:
                        pass
                    except Exception as error:  # pragma: no cover - fail loud
                        errors.append(error)
                        return
                    index += 1

            threads = [
                threading.Thread(target=pound, args=(spec,), daemon=True)
                for spec in (SPEC, FLOAT_SPEC)
                for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            # A lane opens on its spec's first submit, not on warm(): wait
            # for both before asserting on the snapshot's lane set.
            deadline = time.monotonic() + 30.0
            while set(engine.snapshot()["lanes"]) != expected_lanes:
                assert time.monotonic() < deadline, "lanes never opened"
                time.sleep(0.001)

            last = {"requests_total": 0, "responses_total": 0, "rejected_total": 0}
            for _ in range(60):
                snap = engine.snapshot()
                lanes = snap["lanes"]
                assert set(lanes) == expected_lanes
                for view in lanes.values():
                    assert self.LANE_KEYS <= set(view)
                    assert view["queued"] >= 0
                    assert view["in_flight"] >= 0
                # timeouts_total is derived from the same per-lane reads, so
                # it must agree exactly with the views it was computed from.
                assert snap["timeouts_total"] == sum(
                    view["timed_out"] for view in lanes.values()
                )
                counters = snap["counters"]
                for name, floor in last.items():
                    value = counters.get(name, 0)
                    assert value >= floor, name
                    last[name] = value
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
            final = engine.snapshot()["counters"]
        assert not errors
        assert final.get("responses_total", 0) > 0  # traffic actually flowed
