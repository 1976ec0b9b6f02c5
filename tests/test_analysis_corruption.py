"""Tests for the corruption-sweep and recovery-curve harnesses.

Accuracy *values* are meaningless on the untrained tiny model (its logits
are near-uniform), so these tests pin structure, determinism, and the
drift -> recalibrate -> swap mechanics; the accuracy-level acceptance
checks run against the trained zoo model in
``benchmarks/bench_corruption_robustness.py``.
"""

import json

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.analysis import (
    CorruptionSweepConfig,
    RecoveryCurveConfig,
    format_corruption_sweep,
    format_recovery_report,
    run_corruption_sweep,
    run_recovery_curve,
)
from repro.models.configs import ModelConfig
from repro.models.vit import build_vit
from repro.quant.drift import DriftThresholds
from repro.serve import DriftPolicy, ModelRegistry
from tests.test_serve_registry import tiny_loader

TINY = ModelConfig("tiny_vit", "vit", 16, 4, 3, 10, 32, 2, 2)


@pytest.fixture
def registry(tmp_path, calib_images):
    return ModelRegistry(
        capacity=4,
        artifact_dir=tmp_path,
        loader=tiny_loader,
        calib_provider=lambda: calib_images[:16],
    )


def recovery_config(**overrides):
    defaults = dict(
        spec="vit_s/quq/4",
        corruption="gaussian_noise",
        severity=4,
        eval_count=32,
        stream_batches=6,
        batch_size=16,
        seed=0,
        policy=DriftPolicy(
            thresholds=DriftThresholds(consecutive=2, min_samples=64),
            sample_every=2,
            buffer_size=48,
            min_recalibration_images=16,
            canary_count=8,
            canary_agreement_floor=0.0,  # untrained model: agreement ~0
            cooldown_s=3600.0,
        ),
    )
    defaults.update(overrides)
    return RecoveryCurveConfig(**defaults)


class TestCorruptionSweep:
    def test_grid_structure_and_determinism(self, tiny_data, calib_images):
        _, val_set = tiny_data
        model = build_vit(TINY, seed=0)
        config = CorruptionSweepConfig(
            methods=("fp32", "quq"),
            corruptions=("gaussian_noise", "occlusion"),
            severities=(1, 4),
            bits=4,
            eval_count=32,
            seed=0,
        )
        report = run_corruption_sweep(model, calib_images, val_set, config)
        assert len(report["rows"]) == 2 * 2 * 2
        assert set(report["summary"]) == {"fp32", "quq"}
        for entry in report["summary"].values():
            assert np.isfinite(entry["clean_top1"])
        rerun = run_corruption_sweep(model, calib_images, val_set, config)
        assert json.dumps(report, sort_keys=True) == json.dumps(
            rerun, sort_keys=True
        )
        text = format_corruption_sweep(report)
        assert "gaussian_noise" in text and "degradation" in text

    def test_model_left_detached(self, tiny_data, calib_images):
        _, val_set = tiny_data
        model = build_vit(TINY, seed=0)
        config = CorruptionSweepConfig(
            methods=("quq",), corruptions=("blur",), severities=(3,),
            bits=4, eval_count=16, seed=0,
        )
        before = model(Tensor(val_set.images[:4])).data
        run_corruption_sweep(model, calib_images, val_set, config)
        after = model(Tensor(val_set.images[:4])).data
        np.testing.assert_array_equal(before, after)

    def test_rejects_unknown_inputs(self):
        with pytest.raises(ValueError):
            CorruptionSweepConfig(methods=("awq",))
        with pytest.raises(ValueError):
            CorruptionSweepConfig(corruptions=("fog",))
        with pytest.raises(ValueError):
            CorruptionSweepConfig(severities=(0,))


class TestRecoveryCurve:
    def test_drift_fires_swaps_and_is_deterministic(
        self, registry, tiny_data, calib_images, tmp_path
    ):
        _, val_set = tiny_data
        report = run_recovery_curve(
            registry, val_set, calib_images, recovery_config()
        )
        checks = report["checks"]
        assert checks["no_false_positive_on_clean"], checks
        assert checks["monitor_fired_and_swapped"], checks
        assert checks["zero_nonfinite_served"], checks
        assert checks["swap_counted_in_snapshot"], checks
        assert report["swap_batch"] is not None
        assert len(report["recovery_curve"]) == 6
        assert report["snapshot"]["counters"]["recalibration_swaps_total"] == 1
        # The report states the thresholds the drift monitor ran.
        thresholds = report["config"]["thresholds"]
        assert (thresholds["consecutive"], thresholds["min_samples"]) == (2, 64)

        # Same seed from a fresh registry -> byte-identical report.
        rerun_registry = ModelRegistry(
            capacity=4,
            artifact_dir=tmp_path / "rerun",
            loader=tiny_loader,
            calib_provider=lambda: calib_images[:16],
        )
        rerun = run_recovery_curve(
            rerun_registry, val_set, calib_images, recovery_config()
        )
        assert json.dumps(report, sort_keys=True) == json.dumps(
            rerun, sort_keys=True
        )
        text = format_recovery_report(report)
        assert "<- swap" in text and "Checks" in text

    def test_needs_enough_validation_images(self, registry, tiny_data, calib_images):
        _, val_set = tiny_data
        with pytest.raises(ValueError, match="images"):
            run_recovery_curve(
                registry, val_set, calib_images,
                recovery_config(stream_batches=40),
            )
