"""Tests for the exported QUQ artifact and mixed-precision allocation."""

import numpy as np
import pytest

from repro.analysis import kind_sensitivity, tap_sensitivity
from repro.backend import PackedWeightStore
from repro.quant import (
    ChecksumError,
    PTQPipeline,
    allocate_mixed_precision,
    legalize_for_hardware,
)
from repro.training import evaluate_top1


@pytest.fixture
def quq_pipeline(tiny_trained, calib_images):
    pipeline = PTQPipeline(tiny_trained, method="quq", bits=6, coverage="full")
    pipeline.calibrate(calib_images)
    yield pipeline
    pipeline.detach()


@pytest.fixture
def exported(quq_pipeline, tiny_trained, tmp_path):
    store = PackedWeightStore.from_pipeline(tiny_trained, quq_pipeline, 6)
    return store, store.save(quq_pipeline, tmp_path / "model.npz")


class TestExport:
    def test_roundtrip_weights(self, exported, quq_pipeline):
        store, path = exported
        header, quantizers, loaded = PackedWeightStore.load(path)
        assert header == {"method": "quq", "bits": 6, "coverage": "full"}
        assert set(quantizers) == set(quq_pipeline.tap_names())
        assert list(loaded.weights) == list(store.weights)
        for weight in store:
            restored = loaded[weight.tap]
            np.testing.assert_array_equal(restored.buffer, weight.buffer)
            np.testing.assert_array_equal(restored.lut, weight.lut)
            assert restored.registers == weight.registers
            assert restored.base_delta == weight.base_delta

    def test_decoded_weights_close_to_float(self, exported, tiny_trained):
        _, path = exported
        _, quantizers, loaded = PackedWeightStore.load(path)
        parameters = dict(tiny_trained.named_parameters())
        weight = next(iter(loaded))
        original = parameters[weight.tap.split(".", 1)[1]].data
        # Error bounded by the coarsest quantization step of that tensor.
        params = legalize_for_hardware(quantizers[weight.tap].params)
        coarsest = max(s.delta for _, s in params.active())
        assert np.abs(weight.to_float() - original).max() <= coarsest / 2 + 1e-6

    def test_shapes_preserved(self, exported, tiny_trained):
        _, path = exported
        _, _, loaded = PackedWeightStore.load(path)
        parameters = dict(tiny_trained.named_parameters())
        for weight in loaded:
            assert weight.shape == parameters[weight.tap.split(".", 1)[1]].data.shape

    def test_payload_smaller_than_fp32(self, exported, tiny_trained):
        _, path = exported
        fp32 = sum(
            p.data.nbytes for p in dict(tiny_trained.named_parameters()).values()
        )
        assert PackedWeightStore.load(path)[2].packed_bytes < fp32

    def test_payload_counts_the_bitstream(self, exported):
        """Each weight is its dense 6-bit QUB bitstream plus the FC register
        pair, not one word per byte."""
        store, path = exported
        expected = 0
        for weight in PackedWeightStore.load(path)[2]:
            bitstream = -(-weight.elements * 6 // 8)
            assert weight.buffer.nbytes == bitstream
            assert weight.packed_bytes == bitstream + 2
            expected += bitstream + 2
        assert store.packed_bytes == expected

    def test_requires_quq(self, tiny_trained, calib_images):
        pipeline = PTQPipeline(tiny_trained, method="baseq", bits=6).calibrate(calib_images)
        with pytest.raises(ValueError):
            PackedWeightStore.from_pipeline(tiny_trained, pipeline, 6)
        pipeline.detach()

    def test_summary_reports_compression(self, exported):
        summary = exported[0].summary()
        # 6-bit weights + constant side info: > 4.5x smaller than fp32.
        assert summary["reduction"] > 4.5
        assert summary["packed_weight_bytes"] < summary["float_weight_bytes"]

    def test_saves_to_the_path_given(self, quq_pipeline, tiny_trained, tmp_path):
        """A path without the ``.npz`` suffix is written as given, not with
        the suffix appended."""
        store = PackedWeightStore.from_pipeline(tiny_trained, quq_pipeline, 6)
        path = store.save(quq_pipeline, tmp_path / "model.bin")
        assert path == tmp_path / "model.bin" and path.exists()
        assert not (tmp_path / "model.bin.npz").exists()
        loaded = PackedWeightStore.load(path)[2]
        assert [w.buffer.tobytes() for w in loaded] == [w.buffer.tobytes() for w in store]

    def test_flipped_bitstream_bit_is_rejected(self, exported):
        store, path = exported
        with np.load(path) as archive:
            payload = {name: archive[name] for name in archive.files}
        payload[f"x:qub:{next(iter(store)).tap}"][0] ^= 1
        np.savez(path, **payload)
        with pytest.raises(ChecksumError):
            PackedWeightStore.load(path)

    @pytest.mark.parametrize("family", ["swin", "cnn"])
    def test_packs_every_linear_of_other_families(self, family, tiny_swin):
        from repro.models.cnn import build_cnn
        from repro.nn import Linear

        model = tiny_swin if family == "swin" else build_cnn(seed=0)
        size = 16 if family == "swin" else model.config.image_size
        images = np.random.default_rng(0).standard_normal((2, size, size, 3))
        pipeline = PTQPipeline(model, bits=6).calibrate(images.astype(np.float32))
        store = PackedWeightStore.from_pipeline(model, pipeline, 6)
        linears = [m for m in model.modules() if isinstance(m, Linear)]
        assert [w.shape for w in store] == [m.weight.data.shape for m in linears]
        pipeline.detach()


class TestSensitivity:
    def test_kind_sensitivity_nonnegative(self, quq_pipeline, calib_images):
        result = kind_sensitivity(quq_pipeline, calib_images[:8])
        assert all(v >= 0 for v in result.values())
        assert "weight" in result and "residual" in result

    def test_quantizers_restored_after_analysis(self, quq_pipeline, calib_images):
        before = set(quq_pipeline.env.quantizers)
        kind_sensitivity(quq_pipeline, calib_images[:8])
        assert set(quq_pipeline.env.quantizers) == before

    @pytest.mark.parametrize("sweep", [kind_sensitivity, tap_sensitivity])
    def test_quantizers_restored_when_a_pass_raises(
        self, sweep, quq_pipeline, calib_images, monkeypatch
    ):
        from repro.analysis import sensitivity

        original = dict(quq_pipeline.env.quantizers)
        predict, calls = sensitivity.predict_logits, []

        def fails_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("pass failed")
            return predict(*args, **kwargs)

        monkeypatch.setattr(sensitivity, "predict_logits", fails_second)
        with pytest.raises(RuntimeError):
            sweep(quq_pipeline, calib_images[:8])
        restored = quq_pipeline.env.quantizers
        assert restored.keys() == original.keys()
        assert all(restored[name] is quantizer for name, quantizer in original.items())

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
