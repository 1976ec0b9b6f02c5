"""Tests for calibration fingerprints and the activation-drift monitor."""

import numpy as np
import pytest

from repro.quant import PTQPipeline
from repro.quant.drift import (
    INPUT_TAP,
    DriftMonitor,
    DriftThresholds,
    TapFingerprint,
    fingerprint_pipeline,
    population_stability_index,
)
from repro.quant.observers import TapKind, classify_tap


@pytest.fixture(scope="module")
def reference():
    return np.random.default_rng(0).normal(0.0, 1.0, size=20000)


@pytest.fixture(scope="module")
def fingerprint(reference):
    return TapFingerprint.from_data(reference)


class TestPSI:
    def test_identical_distributions_score_zero(self):
        probs = np.full(16, 1 / 16)
        assert population_stability_index(probs, probs) == pytest.approx(0.0)

    def test_shift_scores_positive_and_grows(self):
        base = np.full(16, 1 / 16)
        mild = base.copy()
        mild[0] += 0.05
        severe = base.copy()
        severe[0] += 0.5
        assert 0 < population_stability_index(base, mild) < population_stability_index(
            base, severe
        )


class TestTapFingerprint:
    def test_same_distribution_is_quiet(self, fingerprint):
        live = np.random.default_rng(1).normal(0.0, 1.0, size=4096)
        scores = fingerprint.compare(live)
        assert scores.psi < 0.1
        assert scores.clip_rate < 0.05
        assert scores.overflow_ratio < 1.5
        assert scores.nonfinite_rate == 0.0
        assert not scores.reasons(DriftThresholds())

    def test_scaled_distribution_overflows(self, fingerprint):
        live = np.random.default_rng(1).normal(0.0, 3.0, size=4096)
        scores = fingerprint.compare(live)
        reasons = scores.reasons(DriftThresholds())
        assert scores.overflow_ratio > 1.5 and scores.clip_rate > 0.05
        assert any("overflow" in r for r in reasons)
        assert any("clip_rate" in r for r in reasons)

    def test_shifted_distribution_moves_psi(self, fingerprint):
        live = np.random.default_rng(1).normal(2.5, 0.3, size=4096)
        assert fingerprint.compare(live).psi > 0.25

    def test_nonfinite_values_count_as_clipped(self, fingerprint):
        live = np.random.default_rng(1).normal(0.0, 1.0, size=1000)
        live[:100] = np.inf
        scores = fingerprint.compare(live)
        assert scores.nonfinite_rate == pytest.approx(0.1)
        assert scores.clip_rate >= 0.1
        assert any("nonfinite" in r for r in scores.reasons(DriftThresholds()))

    def test_thresholds_validate(self):
        with pytest.raises(ValueError):
            DriftThresholds(psi=0.0)
        with pytest.raises(ValueError):
            DriftThresholds(consecutive=0)


class TestDriftMonitor:
    def _monitor(self, fingerprint, **kwargs):
        defaults = dict(consecutive=3, min_samples=100)
        defaults.update(kwargs)
        return DriftMonitor(
            {INPUT_TAP: fingerprint}, DriftThresholds(**defaults)
        )

    def test_clean_batches_never_alert(self, fingerprint):
        monitor = self._monitor(fingerprint)
        rng = np.random.default_rng(3)
        for _ in range(10):
            monitor.observe(INPUT_TAP, rng.normal(0.0, 1.0, size=512))
            verdict = monitor.complete_batch()
            assert not verdict.drifted and not verdict.sustained
        assert monitor.alerts == 0

    def test_sustained_requires_consecutive_batches(self, fingerprint):
        monitor = self._monitor(fingerprint)
        rng = np.random.default_rng(3)
        verdicts = []
        for _ in range(4):
            monitor.observe(INPUT_TAP, rng.normal(0.0, 4.0, size=512))
            verdicts.append(monitor.complete_batch())
        assert [v.drifted for v in verdicts] == [True] * 4
        assert [v.sustained for v in verdicts] == [False, False, True, True]
        assert monitor.alerts == 1  # one entry into the sustained state

    def test_min_samples_gates_sustained(self, fingerprint):
        monitor = self._monitor(fingerprint, min_samples=10_000)
        rng = np.random.default_rng(3)
        for _ in range(5):
            monitor.observe(INPUT_TAP, rng.normal(0.0, 4.0, size=512))
            verdict = monitor.complete_batch()
        assert verdict.drifted and not verdict.sustained

    def test_clean_batch_resets_the_streak(self, fingerprint):
        monitor = self._monitor(fingerprint)
        rng = np.random.default_rng(3)
        for scale in (4.0, 4.0, 1.0, 4.0, 4.0):
            monitor.observe(INPUT_TAP, rng.normal(0.0, scale, size=512))
            verdict = monitor.complete_batch()
        assert monitor.consecutive_drifted == 2
        assert not verdict.sustained and monitor.alerts == 0

    def test_reset_clears_streak_but_keeps_alert_count(self, fingerprint):
        monitor = self._monitor(fingerprint)
        rng = np.random.default_rng(3)
        for _ in range(3):
            monitor.observe(INPUT_TAP, rng.normal(0.0, 4.0, size=512))
            monitor.complete_batch()
        assert monitor.alerts == 1
        monitor.reset()
        assert monitor.consecutive_drifted == 0 and monitor.samples_seen == 0
        assert monitor.alerts == 1
        snapshot = monitor.snapshot()
        assert snapshot["alerts"] == 1 and snapshot["consecutive_drifted"] == 0

    def test_unknown_tap_is_ignored(self, fingerprint):
        monitor = self._monitor(fingerprint)
        assert monitor.observe("not_a_tap", np.ones(8)) is None
        verdict = monitor.complete_batch()
        assert not verdict.drifted

    def test_requires_fingerprints(self):
        with pytest.raises(ValueError):
            DriftMonitor({})


class TestFingerprintPipeline:
    @pytest.fixture(scope="class")
    def pipeline(self, calib_images):
        from repro.models.configs import ModelConfig
        from repro.models.vit import build_vit

        tiny = ModelConfig("tiny_vit", "vit", 16, 4, 3, 10, 32, 2, 2)
        pipeline = PTQPipeline(
            build_vit(tiny, seed=0), method="quq", bits=6, coverage="full"
        )
        pipeline.calibrate(calib_images)
        return pipeline

    def test_covers_activation_taps_plus_input(self, pipeline, calib_images):
        fingerprints = fingerprint_pipeline(pipeline, calib_images)
        assert INPUT_TAP in fingerprints
        names = set(fingerprints) - {INPUT_TAP}
        assert names  # at least one activation tap
        assert all(classify_tap(n) is not TapKind.WEIGHT for n in names)
        expected = {
            n for n in pipeline.tap_names()
            if classify_tap(n) is not TapKind.WEIGHT
        }
        assert names == expected

    def test_each_batch_is_subsampled_to_the_cap(self, pipeline, calib_images, monkeypatch):
        from repro.quant import drift

        cap, batch = 1000, 8
        monkeypatch.setattr(drift, "_FINGERPRINT_SAMPLES_PER_BATCH", cap)
        fingerprints = fingerprint_pipeline(
            pipeline, calib_images, batch_size=batch, include_input=False
        )
        sizes = {
            name: values[0].size
            for name, values in pipeline.observe(calib_images[:batch], list(fingerprints)).values.items()
        }
        assert max(sizes.values()) > cap
        batches = len(calib_images) // batch
        for name, fingerprint in fingerprints.items():
            n = sizes[name]
            kept = n if n <= cap else len(range(0, n, n // cap + 1))
            assert fingerprint.count == kept * batches, name

    def test_restores_quantize_phase_and_recorder(self, pipeline, calib_images):
        sentinel = object()
        pipeline.detach()
        with pipeline.env.recording(sentinel):
            fingerprint_pipeline(pipeline, calib_images)
            assert pipeline.model.tap_dispatcher is pipeline.env
            assert pipeline.env.recorder is sentinel
        assert pipeline.env.recorder is None

    def test_fingerprints_match_live_recorder_stats(self, pipeline, calib_images):
        """Clean traffic through the live recorder must look un-drifted —
        fingerprints and recorder observe the same (pre-quantization) values."""
        from repro.autograd import Tensor, no_grad

        fingerprints = fingerprint_pipeline(pipeline, calib_images)
        monitor = DriftMonitor(
            fingerprints, DriftThresholds(consecutive=1, min_samples=1)
        )
        with pipeline.env.recording(monitor), no_grad():
            pipeline.model(Tensor(calib_images[:16]))
        monitor.observe(INPUT_TAP, calib_images[:16])
        verdict = monitor.complete_batch()
        assert not verdict.drifted, verdict.reasons
