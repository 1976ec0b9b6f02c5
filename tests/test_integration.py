"""Cross-module integration tests: the paper's claims end to end (tiny scale)."""

import numpy as np
import pytest

from repro import quantize_model
from repro.autograd import Tensor, no_grad
from repro.hw import QUA, encode_tensor
from repro.models.swin import build_swin
from repro.quant import (
    PTQPipeline,
    QUQQuantizer,
    UniformQuantizer,
    mse,
    progressive_relaxation,
)
from repro.training import evaluate_top1, predict_logits
from tests.conftest import TINY_SWIN


class TestQuantizedAccuracyOrdering:
    """Shape of Tables 2/3 at tiny scale: QUQ >= BaseQ, less harm at 8 bits."""

    def test_quq_at_least_as_good_as_baseq_low_bit(
        self, tiny_trained, calib_images, tiny_data
    ):
        _, val_set = tiny_data
        val = val_set.subset(96, seed=1)
        accs = {}
        for method in ("baseq", "quq"):
            pipeline = quantize_model(
                tiny_trained, calib_images, method=method, bits=4, coverage="full"
            )
            accs[method] = evaluate_top1(tiny_trained, val)
            pipeline.detach()
        assert accs["quq"] >= accs["baseq"] - 4.0

    def test_eight_bit_nearly_lossless(self, tiny_trained, calib_images, tiny_data):
        _, val_set = tiny_data
        val = val_set.subset(96, seed=1)
        reference = evaluate_top1(tiny_trained, val)
        pipeline = quantize_model(
            tiny_trained, calib_images, method="quq", bits=8, coverage="full"
        )
        quantized = evaluate_top1(tiny_trained, val)
        pipeline.detach()
        assert quantized >= reference - 5.0

    def test_partial_no_worse_than_full(self, tiny_trained, calib_images, tiny_data):
        _, val_set = tiny_data
        val = val_set.subset(96, seed=1)
        accs = {}
        for coverage in ("partial", "full"):
            pipeline = quantize_model(
                tiny_trained, calib_images, method="baseq", bits=4, coverage=coverage
            )
            accs[coverage] = evaluate_top1(tiny_trained, val)
            pipeline.detach()
        assert accs["partial"] >= accs["full"] - 4.0


class TestSwinQuantization:
    def test_full_pipeline_on_swin(self):
        rng = np.random.default_rng(0)
        model = build_swin(TINY_SWIN, seed=0)
        images = rng.normal(size=(8, 16, 16, 3)).astype(np.float32) * 0.5
        pipeline = PTQPipeline(model, method="quq", bits=8, coverage="full")
        pipeline.calibrate(images)
        with no_grad():
            out = model(Tensor(images))
        assert out.shape == (8, 10)
        assert np.isfinite(out.data).all()
        pipeline.detach()


class TestFakeQuantVsHardwarePath:
    def test_linear_layer_agrees_with_qua(self, tiny_trained, calib_images):
        """The fake-quantized Linear and the integer QUA GEMM must agree
        when driven with the same QUQ parameters."""
        layer = tiny_trained.blocks[0].attn.qkv
        x = calib_images[:4]
        with no_grad():
            tokens = tiny_trained.patch_embed(Tensor(x))
        activations = tokens.data.reshape(-1, tokens.shape[-1]).astype(np.float64)
        weights = layer.weight.data.astype(np.float64)

        x_params = progressive_relaxation(activations, 8)
        w_params = progressive_relaxation(weights, 8)
        ex = encode_tensor(activations, 8, params=x_params)
        ew = encode_tensor(weights, 8, params=w_params)
        hw_out = QUA().integer_gemm(ex, ew) * (ex.base_delta * ew.base_delta)
        ref_out = ex.to_float() @ ew.to_float()
        np.testing.assert_allclose(hw_out, ref_out, rtol=1e-10)

    def test_uniform_is_special_case_of_quq(self, rng):
        """The paper's Section 3.2 claim, checked numerically: with matched
        per-side scales, Mode D QUQ reproduces symmetric uniform points."""
        x = rng.normal(size=5000).astype(np.float64)
        uni = UniformQuantizer(6).fit(x)
        quq = QUQQuantizer(6).fit(x)
        if quq.params.mode.value == "D":
            err_quq = mse(x, quq.fake_quantize(x))
            err_uni = mse(x, uni.fake_quantize(x))
            assert err_quq <= err_uni * 1.02


class TestLogitsConsistency:
    def test_quantized_logits_close_at_8bit(self, tiny_trained, calib_images, tiny_data):
        _, val_set = tiny_data
        images = val_set.images[:16]
        reference = predict_logits(tiny_trained, images)
        pipeline = quantize_model(
            tiny_trained, calib_images, method="quq", bits=8, coverage="full",
            hessian=False,
        )
        quantized = predict_logits(tiny_trained, images)
        pipeline.detach()
        agreement = np.mean(reference.argmax(-1) == quantized.argmax(-1))
        assert agreement >= 0.8
