"""Tests for drift-aware serving: monitor wiring, shadow recalibration,
canary gating, cooldown, and the engine integration."""

import dataclasses

import numpy as np
import pytest

from repro.data import corrupt_images
from repro.quant import drift as drift_module
from repro.quant.drift import DriftThresholds, TapFingerprint
from repro.serve import (
    BatchPolicy,
    DriftPolicy,
    ModelKey,
    ModelRegistry,
    RecalibrationManager,
    ServeEngine,
)
from repro.serve.metrics import Metrics
from tests.test_serve_registry import tiny_loader

SPEC = "vit_s/quq/4"


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def registry(tmp_path, calib_images):
    return ModelRegistry(
        capacity=4,
        artifact_dir=tmp_path,
        loader=tiny_loader,
        calib_provider=lambda: calib_images[:16],
    )


def make_policy(**overrides):
    # Tuned so the tiny fixtures can trigger every transition quickly.
    # The canary floor is 0.0 because the untrained tiny model's logits
    # are near-uniform, making quantized-vs-float agreement meaningless.
    defaults = dict(
        thresholds=DriftThresholds(consecutive=2, min_samples=16),
        sample_every=1,
        buffer_size=48,
        min_recalibration_images=16,
        canary_count=8,
        canary_agreement_floor=0.0,
        cooldown_s=100.0,
    )
    defaults.update(overrides)
    return DriftPolicy(**defaults)


def drifted_batches(images, count, batch=16, severity=5):
    for index in range(count):
        chunk = images[index * batch : (index + 1) * batch]
        yield corrupt_images(chunk, "gaussian_noise", severity, seed=index)


class TestRegistryShadowSwap:
    def test_shadow_build_leaves_serving_entry_alone(self, registry, calib_images):
        key = ModelKey.parse(SPEC)
        original = registry.get(key)
        candidate = registry.shadow_build(key, calib_images[:16])
        assert candidate is not original
        assert candidate.quantized and candidate.fingerprints
        assert registry.get(key) is original  # not installed yet
        assert registry.snapshot()["calibrations"] == 2

    def test_swap_installs_atomically_and_counts(self, registry, calib_images):
        key = ModelKey.parse(SPEC)
        registry.get(key)
        candidate = registry.shadow_build(key, calib_images[:16])
        registry.swap(key, candidate)
        assert registry.get(key) is candidate
        assert registry.snapshot()["swaps"] == 1

    def test_swap_rejects_mismatched_key(self, registry, calib_images):
        registry.get(SPEC)
        candidate = registry.shadow_build(ModelKey.parse(SPEC), calib_images[:16])
        with pytest.raises(ValueError, match="not"):
            registry.swap(ModelKey.parse("vit_s/quq/6"), candidate)

    def test_shadow_build_rejects_fp32(self, registry, calib_images):
        with pytest.raises(ValueError, match="fp32"):
            registry.shadow_build(ModelKey.parse("vit_s/fp32/32"), calib_images[:16])


class TestRecalibrationManager:
    def test_sustained_drift_swaps_and_resets(self, registry, tiny_data):
        _, val_set = tiny_data
        key = ModelKey.parse(SPEC)
        clock = FakeClock()
        metrics = Metrics()
        manager = RecalibrationManager(
            registry, make_policy(), metrics=metrics, clock=clock
        )
        original = registry.get(key)
        swapped_at = None
        for index, chunk in enumerate(drifted_batches(val_set.images, 4)):
            servable = registry.get(key)
            servable.predict(chunk, recorder=manager.recorder_for(key, servable))
            outcome = manager.finish_batch(key, servable, chunk)
            if outcome.swapped:
                swapped_at = index
                break
        assert swapped_at is not None
        replacement = registry.get(key)
        assert replacement is not original
        assert registry.snapshot()["swaps"] == 1
        assert metrics.counter("drift_alerts_total").value >= 1
        assert metrics.counter("recalibration_swaps_total").value == 1
        lane = manager.snapshot()[key.spec]
        assert lane["swaps"] == 1 and lane["attempts"] == 1
        # The swap reseeded the monitor: its streak state starts clean.
        assert lane["monitor"]["consecutive_drifted"] == 0

    def test_canary_reject_keeps_stale_entry(self, registry, tiny_data):
        _, val_set = tiny_data
        key = ModelKey.parse(SPEC)
        metrics = Metrics()
        manager = RecalibrationManager(
            registry,
            make_policy(canary_agreement_floor=1.0),  # untrained model: ~0
            metrics=metrics,
            clock=FakeClock(),
        )
        original = registry.get(key)
        outcomes = []
        for chunk in drifted_batches(val_set.images, 4):
            servable = registry.get(key)
            servable.predict(chunk, recorder=manager.recorder_for(key, servable))
            outcomes.append(manager.finish_batch(key, servable, chunk))
        assert any(o.rejected for o in outcomes)
        assert not any(o.swapped for o in outcomes)
        assert registry.get(key) is original
        assert registry.snapshot()["swaps"] == 0
        assert metrics.counter("recalibration_rejects_total").value >= 1

    def test_cooldown_blocks_immediate_retry(self, registry, tiny_data):
        _, val_set = tiny_data
        key = ModelKey.parse(SPEC)
        clock = FakeClock()
        manager = RecalibrationManager(
            registry,
            make_policy(canary_agreement_floor=1.0, cooldown_s=100.0),
            metrics=Metrics(),
            clock=clock,
        )
        outcomes = []
        for chunk in drifted_batches(val_set.images, 6):
            servable = registry.get(key)
            servable.predict(chunk, recorder=manager.recorder_for(key, servable))
            outcomes.append(manager.finish_batch(key, servable, chunk))
        attempts = [o for o in outcomes if o.attempted]
        assert len(attempts) == 1  # breaker-style: one attempt, then cooldown
        assert any(o.skip_reason == "cooldown" for o in outcomes)
        # After the cooldown elapses the next sustained batch retries.
        clock.advance(101.0)
        chunk = corrupt_images(val_set.images[:16], "gaussian_noise", 5, seed=99)
        servable = registry.get(key)
        outcome = manager.finish_batch(key, servable, chunk)
        assert outcome.attempted

    def test_unmonitored_lanes_return_none(self, registry, tiny_data):
        _, val_set = tiny_data
        manager = RecalibrationManager(registry, make_policy(), metrics=Metrics())
        key = ModelKey.parse("vit_s/fp32/32")
        servable = registry.get(key)
        assert manager.recorder_for(key, servable) is None
        assert manager.finish_batch(key, servable, val_set.images[:8]) is None
        assert manager.snapshot() == {}

    def test_clean_traffic_never_recalibrates(self, registry, tiny_data):
        _, val_set = tiny_data
        key = ModelKey.parse(SPEC)
        metrics = Metrics()
        manager = RecalibrationManager(
            registry, make_policy(), metrics=metrics, clock=FakeClock()
        )
        for start in range(0, 64, 16):
            chunk = val_set.images[start : start + 16]
            servable = registry.get(key)
            servable.predict(chunk, recorder=manager.recorder_for(key, servable))
            outcome = manager.finish_batch(key, servable, chunk)
            assert not outcome.verdict.sustained
        assert metrics.counter("recalibrations_total").value == 0
        assert registry.snapshot()["swaps"] == 0


class TestEngineIntegration:
    def test_drift_policy_wires_a_manager_into_the_loop(
        self, registry, tiny_data
    ):
        _, val_set = tiny_data
        policy = BatchPolicy(max_batch_size=8, max_wait_ms=5.0, max_queue=128)
        drift = make_policy(
            thresholds=DriftThresholds(consecutive=1, min_samples=8),
            min_recalibration_images=8,
            canary_count=4,
            buffer_size=16,
            cooldown_s=0.0,
        )
        corrupted = corrupt_images(
            val_set.images[:48], "gaussian_noise", 5, seed=0
        )
        with ServeEngine(registry, policy, drift=drift) as engine:
            engine.warm(SPEC)
            handles = [engine.submit(SPEC, image) for image in corrupted]
            results = [h.result(timeout=30.0) for h in handles]
        assert all(r.quantized for r in results)
        snapshot = engine.snapshot()
        assert snapshot["counters"]["drift_alerts_total"] >= 1
        assert snapshot["counters"]["recalibration_swaps_total"] >= 1
        assert snapshot["registry"]["swaps"] >= 1
        lane = snapshot["drift"][ModelKey.parse(SPEC).spec]
        assert lane["swaps"] >= 1

    def test_engine_without_drift_reports_empty_section(self, registry, tiny_data):
        _, val_set = tiny_data
        with ServeEngine(registry) as engine:
            engine.submit(SPEC, val_set.images[0]).result(timeout=30.0)
        assert engine.snapshot()["drift"] == {}


@pytest.fixture
def fingerprint_calls(monkeypatch):
    """Pipelines fingerprinted through the drift module, in call order."""
    calls = []
    real = drift_module.fingerprint_pipeline

    def counting(pipeline, images, *args, **kwargs):
        calls.append(pipeline)
        return real(pipeline, images, *args, **kwargs)

    monkeypatch.setattr(drift_module, "fingerprint_pipeline", counting)
    return calls


class TestFingerprintsOnFirstRead:
    """Only a drift manager reads fingerprints, so a build takes none."""

    def test_get_runs_no_fingerprint_pass(
        self, tmp_path, calib_images, fingerprint_calls
    ):
        def fresh_registry():
            return ModelRegistry(
                artifact_dir=tmp_path, loader=tiny_loader,
                calib_provider=lambda: calib_images[:16],
            )

        calibrated = fresh_registry()
        assert calibrated.get(SPEC).quantized
        warm = fresh_registry()  # warm-starts from the artifact just saved
        assert warm.get(SPEC).quantized
        assert calibrated.stats["calibrations"] == 1 and warm.stats["warm_loads"] == 1
        assert fingerprint_calls == []

    def test_warm_start_needs_no_calibration_images(self, tmp_path, calib_images):
        def unavailable():
            raise OSError("calibration set unavailable")

        ModelRegistry(artifact_dir=tmp_path, loader=tiny_loader,
                      calib_provider=lambda: calib_images[:16]).get(SPEC)
        warm = ModelRegistry(artifact_dir=tmp_path, loader=tiny_loader,
                             calib_provider=unavailable)
        servable = warm.get(SPEC)
        assert servable.quantized and warm.stats["warm_loads"] == 1
        assert servable.fingerprints is None

    def test_monitored_lane_fingerprints_once(
        self, registry, calib_images, tiny_data, fingerprint_calls
    ):
        _, val_set = tiny_data
        policy = BatchPolicy(max_batch_size=4, max_wait_ms=1.0)
        with ServeEngine(registry, policy, drift=make_policy()) as engine:
            for image in val_set.images[:12]:
                engine.submit(SPEC, image).result(timeout=30.0)
            assert engine.snapshot()["counters"]["batches_total"] >= 3
        servable = registry.get(SPEC)
        assert fingerprint_calls == [servable.pipeline]
        lazy = servable.fingerprints
        eager = drift_module.fingerprint_pipeline(servable.pipeline, calib_images[:16])
        assert lazy.keys() == eager.keys()
        for tap, expected in eager.items():
            for field in dataclasses.fields(TapFingerprint):
                got, want = getattr(lazy[tap], field.name), getattr(expected, field.name)
                if isinstance(want, np.ndarray):
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), (tap, field.name)
                else:
                    assert got == want, (tap, field.name)

    def test_fingerprint_failure_leaves_lane_unmonitored(
        self, registry, tiny_data, monkeypatch
    ):
        calls = []

        def failing(pipeline, images, *args, **kwargs):
            calls.append(pipeline)
            raise RuntimeError("no fingerprints today")

        monkeypatch.setattr(drift_module, "fingerprint_pipeline", failing)
        _, val_set = tiny_data
        key = ModelKey.parse(SPEC)
        manager = RecalibrationManager(registry, make_policy(), metrics=Metrics())
        chunk = val_set.images[:8]
        for _ in range(2):
            servable = registry.get(key)
            assert manager.recorder_for(key, servable) is None
            servable.predict(chunk)
            assert manager.finish_batch(key, servable, chunk) is None
        assert servable.fingerprints is None
        assert len(calls) == 1  # the failure is kept, not retried per batch
        assert manager.snapshot() == {}
