"""Tests for the integer-native serving backend and its attestation."""

import numpy as np
import pytest

from repro.backend import (
    FloatFakeQuantBackend,
    IntNativeBackend,
    attest_int_backend,
    make_backend,
)
from repro.hw.executor import ModelExecutor
from repro.quant.qmodel import PTQPipeline


@pytest.fixture(scope="module")
def quantized_at():
    """``bits -> (model, pipeline, images)``: a tiny ViT calibrated at
    that QUB width, built once per width."""
    from repro.models.configs import ModelConfig
    from repro.models.vit import build_vit

    built = {}

    def build(bits):
        if bits not in built:
            model = build_vit(
                ModelConfig("tiny_vit", "vit", 16, 4, 3, 10, 32, 2, 2), seed=0
            )
            rng = np.random.default_rng(0)
            calib = rng.normal(size=(24, 16, 16, 3)).astype(np.float32)
            pipeline = PTQPipeline(model, method="quq", bits=bits)
            pipeline.calibrate(calib)
            images = rng.normal(size=(4, 16, 16, 3)).astype(np.float32)
            built[bits] = model, pipeline, images
        return built[bits]

    return build


@pytest.fixture(scope="module")
def quantized(quantized_at):
    return quantized_at(8)


class TestIntNativeBackend:
    # Every serving width in both SFU modes; the 8-bit cases keep their
    # original bare ``[False]`` / ``[True]`` IDs.
    @pytest.mark.parametrize("bits,integer_sfu", [
        pytest.param(bits, sfu, id=str(sfu) if bits == 8 else f"{bits}bit-{sfu}")
        for bits in (8, 6, 4) for sfu in (False, True)
    ])
    def test_bit_exact_with_reference_executor(self, quantized_at, bits, integer_sfu):
        model, pipeline, images = quantized_at(bits)
        backend = IntNativeBackend(model, pipeline, integer_sfu=integer_sfu)
        executor = ModelExecutor(model, pipeline, bits=bits, integer_sfu=integer_sfu)
        np.testing.assert_array_equal(backend.predict(images), executor.run(images))

    def test_bit_exact_with_distillation_head(self):
        """The final norm runs on the class and distillation rows only."""
        from repro.models.configs import ModelConfig
        from repro.models.vit import build_vit

        model = build_vit(
            ModelConfig("tiny_deit", "deit", 16, 4, 3, 10, 32, 2, 2, distilled=True),
            seed=0,
        )
        rng = np.random.default_rng(1)
        pipeline = PTQPipeline(model, method="quq", bits=8)
        pipeline.calibrate(rng.normal(size=(24, 16, 16, 3)).astype(np.float32))
        images = rng.normal(size=(4, 16, 16, 3)).astype(np.float32)
        backend = IntNativeBackend(model, pipeline, integer_sfu=True)
        executor = ModelExecutor(model, pipeline, bits=8, integer_sfu=True)
        assert backend.predict(images).tobytes() == executor.run(images).tobytes()

    def test_reference_kernels_bit_identical(self, quantized, monkeypatch):
        """Default (fast) kernels, REPRO_KERNELS=reference and the executor
        give the same logits to the last bit."""
        from repro.kernels import KERNELS

        model, pipeline, images = quantized
        executor = ModelExecutor(model, pipeline, bits=8, integer_sfu=True)
        expected = executor.run(images)
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        KERNELS.reset_counters()
        fast = IntNativeBackend(model, pipeline, integer_sfu=True).predict(images)
        assert KERNELS.counters.get("qub.store_load:inplace", 0) > 0
        monkeypatch.setenv("REPRO_KERNELS", "reference")
        reference = IntNativeBackend(model, pipeline, integer_sfu=True).predict(images)
        assert KERNELS.counters.get("qub.shifted:reference", 0) > 0
        assert fast.tobytes() == reference.tobytes() == expected.tobytes()

    def test_float_parity_within_tolerance(self, quantized):
        model, pipeline, images = quantized
        report = attest_int_backend(model, pipeline, images)
        assert report["bit_exact"]
        # Fake-quant and integer stores round in different float orders,
        # so exact-zero divergence is not expected — but it must be tiny.
        assert report["float_max_abs_diff"] < 1e-4
        assert report["float_top1_agreement"] == 1.0

    def test_attest_reuses_provided_backend(self, quantized):
        model, pipeline, images = quantized
        backend = IntNativeBackend(model, pipeline)
        before = backend.counters()["batches_total"]
        report = attest_int_backend(model, pipeline, images, backend=backend)
        assert report["bit_exact"]
        assert backend.counters()["batches_total"] == before + 1

    def test_counters_track_kernel_calls(self, quantized):
        model, pipeline, images = quantized
        backend = IntNativeBackend(model, pipeline)
        backend.predict(images)
        counters = backend.counters()
        assert counters["batches_total"] == 1
        # Per batch: patch embed + head + 4 linears and 2 attention
        # matmuls per block (2 blocks) = 2 + 2*6 GEMMs.
        assert counters["int_gemm_calls"] == 14
        assert counters["int_store_load_calls"] > 0

    def test_memory_info_reports_packed_bytes(self, quantized):
        model, pipeline, _ = quantized
        backend = IntNativeBackend(model, pipeline)
        info = backend.memory_info()
        assert 0 < info["packed_weight_bytes"] < info["float_weight_bytes"]
        assert info["reduction"] > 1.0

    def test_recorder_sees_every_quantized_tap(self, quantized):
        model, pipeline, images = quantized

        class Recorder:
            def __init__(self):
                self.taps = []

            def record(self, name, data):
                self.taps.append(name)

        backend = IntNativeBackend(model, pipeline)
        recorder = Recorder()
        backend.predict(images, recorder=recorder)
        assert "tiny_vit.patch_embed.proj.input" in recorder.taps
        assert "tiny_vit.blocks.0.attn.scores" in recorder.taps
        assert "tiny_vit.blocks.1.mlp_residual" in recorder.taps
        assert "tiny_vit.final_norm_input" in recorder.taps

    def test_rejects_uncalibrated_pipeline(self, tiny_vit):
        pipeline = PTQPipeline(tiny_vit, method="quq", bits=8)
        with pytest.raises(RuntimeError, match="calibrated"):
            IntNativeBackend(tiny_vit, pipeline)

    def test_rejects_non_quq_pipeline(self, tiny_vit, calib_images):
        pipeline = PTQPipeline(tiny_vit, method="baseq", bits=8)
        pipeline.calibrate(calib_images[:8])
        with pytest.raises(ValueError, match="QUQ"):
            IntNativeBackend(tiny_vit, pipeline)

    def test_rejects_non_vit_topology(self, tiny_swin, calib_images):
        pipeline = PTQPipeline(tiny_swin, method="quq", bits=8)
        pipeline.calibrate(calib_images[:8])
        with pytest.raises(ValueError, match="ViT"):
            IntNativeBackend(tiny_swin, pipeline)

    def test_four_bit_model_halves_weight_storage(self):
        from repro.models.configs import ModelConfig
        from repro.models.vit import build_vit

        model = build_vit(
            ModelConfig("tiny_vit", "vit", 16, 4, 3, 10, 32, 2, 2), seed=0
        )
        rng = np.random.default_rng(1)
        calib = rng.normal(size=(16, 16, 16, 3)).astype(np.float32)
        pipeline = PTQPipeline(model, method="quq", bits=4)
        pipeline.calibrate(calib)
        backend = IntNativeBackend(model, pipeline)
        info = backend.memory_info()
        assert info["reduction"] >= 2.0
        report = attest_int_backend(
            model, pipeline, calib[:2].astype(np.float32), backend=backend
        )
        assert report["bit_exact"]


class TestFloatFakeQuantBackend:
    def test_matches_model_forward(self, quantized):
        model, pipeline, images = quantized
        from repro.autograd import Tensor, no_grad

        backend = FloatFakeQuantBackend(model, pipeline)
        model.eval()
        with no_grad():
            expected = model(Tensor(images)).data
        np.testing.assert_array_equal(backend.predict(images), expected)
        assert backend.counters()["batches_total"] == 1

    def test_describe_merges_name_memory_counters(self, quantized):
        model, pipeline, _ = quantized
        backend = FloatFakeQuantBackend(model, pipeline)
        described = backend.describe()
        assert described["backend"] == "float"
        assert described["packed_weight_bytes"] == 0
        assert described["float_weight_bytes"] > 0
        assert described["batches_total"] == 0


class TestMakeBackend:
    def test_builds_by_name(self, quantized):
        model, pipeline, _ = quantized
        assert make_backend("float", model, pipeline).name == "float"
        assert make_backend("int", model, pipeline, bits=8).name == "int"

    def test_rejects_unknown_name(self, quantized):
        model, pipeline, _ = quantized
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu", model, pipeline)
