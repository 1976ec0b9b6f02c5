"""Tests for quantized-model export and mixed-precision allocation."""

import numpy as np
import pytest

from repro.analysis import kind_sensitivity, tap_sensitivity
from repro.quant import (
    PTQPipeline,
    allocate_mixed_precision,
    deployment_report,
    export_quantized,
    load_quantized,
)
from repro.training import evaluate_top1


@pytest.fixture
def quq_pipeline(tiny_trained, calib_images):
    pipeline = PTQPipeline(tiny_trained, method="quq", bits=6, coverage="full")
    pipeline.calibrate(calib_images)
    yield pipeline
    pipeline.detach()


class TestExport:
    def test_roundtrip_weights(self, quq_pipeline, tmp_path):
        artifact = export_quantized(quq_pipeline, tmp_path / "model.npz")
        loaded = load_quantized(tmp_path / "model.npz")
        assert set(loaded.weights) == set(artifact.weights)
        assert set(loaded.activations) == set(artifact.activations)
        for tap in artifact.weights:
            np.testing.assert_allclose(
                loaded.weight_values(tap), artifact.weight_values(tap)
            )

    def test_decoded_weights_close_to_float(self, quq_pipeline, tiny_trained, tmp_path):
        artifact = export_quantized(quq_pipeline, tmp_path / "model.npz")
        parameters = dict(tiny_trained.named_parameters())
        tap = next(iter(artifact.weights))
        param_name = tap.split(".", 1)[1]
        original = parameters[param_name].data
        decoded = artifact.weight_values(tap).reshape(original.shape)
        # Error bounded by the coarsest quantization step of that tensor.
        coarsest = max(s.delta for _, s in artifact.weights[tap][3].active())
        assert np.abs(decoded - original).max() <= coarsest / 2 + 1e-6

    def test_shapes_preserved(self, quq_pipeline, tiny_trained, tmp_path):
        export_quantized(quq_pipeline, tmp_path / "model.npz")
        loaded = load_quantized(tmp_path / "model.npz")
        parameters = dict(tiny_trained.named_parameters())
        for tap, (qubs, _, _, _) in loaded.weights.items():
            assert qubs.shape == parameters[tap.split(".", 1)[1]].data.shape

    def test_payload_smaller_than_fp32(self, quq_pipeline, tiny_trained, tmp_path):
        artifact = export_quantized(quq_pipeline, tmp_path / "model.npz")
        fp32 = sum(
            p.data.nbytes for p in dict(tiny_trained.named_parameters()).values()
        )
        assert artifact.payload_bytes() < fp32

    def test_payload_counts_the_bitstream(self, quq_pipeline, tmp_path):
        """Each weight is stored as its dense 6-bit QUB bitstream, the
        format PackedWeightStore holds, not one word per byte."""
        artifact = export_quantized(quq_pipeline, tmp_path / "model.npz")
        stored = np.load(tmp_path / "model.npz")
        expected = 10 * len(artifact.activations)
        for tap, (qubs, _, _, params) in artifact.weights.items():
            assert params.bits == 6
            bitstream = -(-qubs.size * 6 // 8)
            assert stored[f"w:{tap}"].nbytes == bitstream
            expected += bitstream + 10
        assert artifact.payload_bytes() == expected
        assert load_quantized(tmp_path / "model.npz").payload_bytes() == expected

    def test_requires_quq(self, tiny_trained, calib_images, tmp_path):
        pipeline = PTQPipeline(tiny_trained, method="baseq", bits=6).calibrate(calib_images)
        with pytest.raises(ValueError):
            export_quantized(pipeline, tmp_path / "model.npz")
        pipeline.detach()

    def test_deployment_report(self, quq_pipeline):
        report = deployment_report(quq_pipeline)
        # 6-bit weights + constant side info: > 4.5x smaller than fp32.
        assert report["compression"] > 4.5
        assert report["quantized_megabytes"] < report["fp32_megabytes"]


class TestSensitivity:
    def test_kind_sensitivity_nonnegative(self, quq_pipeline, calib_images):
        result = kind_sensitivity(quq_pipeline, calib_images[:8])
        assert all(v >= 0 for v in result.values())
        assert "weight" in result and "residual" in result

    def test_quantizers_restored_after_analysis(self, quq_pipeline, calib_images):
        before = set(quq_pipeline.env.quantizers)
        kind_sensitivity(quq_pipeline, calib_images[:8])
        assert set(quq_pipeline.env.quantizers) == before

    def test_tap_sensitivity_subset(self, quq_pipeline, calib_images):
        taps = quq_pipeline.tap_names()[:3]
        result = tap_sensitivity(quq_pipeline, calib_images[:8], taps=taps)
        assert set(result) == set(taps)


class TestMixedPrecision:
    def test_budget_respected(self, quq_pipeline, calib_images):
        sensitivities = {name: 1.0 for name in quq_pipeline.tap_names()}
        allocation = allocate_mixed_precision(
            quq_pipeline, sensitivities, budget_bits=6.0, calib_images=calib_images
        )
        mean_bits = np.mean(list(allocation.values()))
        assert mean_bits <= 6.0 + 1e-9
        assert set(allocation.values()) <= {4, 6, 8}

    def test_sensitive_taps_get_more_bits(self, quq_pipeline, calib_images):
        taps = quq_pipeline.tap_names()
        sensitivities = {name: 0.0 for name in taps}
        hot = taps[0]
        sensitivities[hot] = 100.0
        allocation = allocate_mixed_precision(
            quq_pipeline, sensitivities, budget_bits=4.5, calib_images=calib_images
        )
        assert allocation[hot] >= max(
            v for k, v in allocation.items() if k != hot
        ) or allocation[hot] == 8

    def test_refit_keeps_model_functional(
        self, quq_pipeline, calib_images, tiny_data
    ):
        _, val_set = tiny_data
        sensitivities = tap_sensitivity(
            quq_pipeline, calib_images[:8], taps=quq_pipeline.tap_names()[:5]
        )
        allocate_mixed_precision(
            quq_pipeline, sensitivities, budget_bits=6.0, calib_images=calib_images
        )
        acc = evaluate_top1(quq_pipeline.model, val_set.subset(64, seed=0))
        assert acc > 15.0

    def test_invalid_budget_rejected(self, quq_pipeline, calib_images):
        with pytest.raises(ValueError):
            allocate_mixed_precision(quq_pipeline, {}, 3.0, calib_images)
        with pytest.raises(ValueError):
            allocate_mixed_precision(quq_pipeline, {}, 9.0, calib_images)
