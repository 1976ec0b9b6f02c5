"""Tests for the CNN extension (conv layer + MiniConvNet + quantization)."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, unfold_windows
from repro.models.cnn import CNN_MINI, CNNConfig, build_cnn
from repro.nn import Conv2d, GlobalAveragePool
from repro.quant import PTQPipeline, TapKind, classify_tap
from repro.training import TrainConfig, evaluate_top1, train_classifier


class TestUnfoldWindows:
    def test_output_shape(self, rng):
        x = Tensor(rng.normal(size=(2, 8, 8, 3)).astype(np.float32))
        out = unfold_windows(x, kernel=3, stride=2, padding=1)
        assert out.shape == (2, 16, 27)  # 4x4 positions, 3*3*3 window

    def test_stride_one_identity_kernel(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1)
        out = unfold_windows(Tensor(x), kernel=1)
        np.testing.assert_allclose(out.data.reshape(-1), x.reshape(-1))

    def test_gradients(self, rng):
        check_gradients(
            lambda a: unfold_windows(a, 3, 2, 1), [rng.normal(size=(1, 6, 6, 2))]
        )

    def test_rejects_bad_args(self, rng):
        x = Tensor(rng.normal(size=(1, 4, 4, 1)).astype(np.float32))
        with pytest.raises(ValueError):
            unfold_windows(x, kernel=0)
        with pytest.raises(ValueError):
            unfold_windows(x, kernel=8)  # larger than padded input


class TestConv2d:
    def test_matches_direct_convolution(self, rng):
        conv = Conv2d(2, 3, kernel_size=3, stride=1, padding=1, rng=rng)
        x = rng.normal(size=(1, 5, 5, 2)).astype(np.float32)
        out = conv(Tensor(x)).data
        # Direct reference computation at one output position.
        w = conv.proj.weight.data.reshape(3, 3, 2, 3)
        padded = np.pad(x[0], ((1, 1), (1, 1), (0, 0)))
        # Output (i, j) sees padded[i : i+3, j : j+3].
        expected = (
            np.einsum("hwc,hwco->o", padded[2:5, 2:5], w) + conv.proj.bias.data
        )
        np.testing.assert_allclose(out[0, 2, 2], expected, rtol=1e-4, atol=1e-6)

    def test_strided_output_size(self, rng):
        conv = Conv2d(3, 8, kernel_size=3, stride=2, padding=1, rng=rng)
        out = conv(Tensor(rng.normal(size=(2, 8, 8, 3)).astype(np.float32)))
        assert out.shape == (2, 4, 4, 8)

    def test_channel_mismatch_rejected(self, rng):
        conv = Conv2d(3, 8, kernel_size=3, rng=rng)
        with pytest.raises(ValueError):
            conv(Tensor(rng.normal(size=(1, 8, 8, 4)).astype(np.float32)))

    def test_gradients_flow(self, rng):
        conv = Conv2d(2, 4, kernel_size=3, padding=1, rng=rng)
        out = conv(Tensor(rng.normal(size=(1, 4, 4, 2)).astype(np.float32)))
        out.sum().backward()
        assert conv.proj.weight.grad is not None

    def test_gap(self, rng):
        x = rng.normal(size=(2, 4, 4, 8)).astype(np.float32)
        out = GlobalAveragePool()(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(1, 2)), rtol=1e-5)


class TestMiniConvNet:
    def test_forward_shape(self, rng):
        model = build_cnn()
        out = model(Tensor(rng.normal(size=(4, 32, 32, 3)).astype(np.float32)))
        assert out.shape == (4, CNN_MINI.num_classes)

    def test_taps_classifiable(self, rng):
        model = build_cnn()
        from repro.quant import TapRecorder

        recorder = TapRecorder()
        model.set_tap_dispatcher(recorder)
        model(Tensor(rng.normal(size=(1, 32, 32, 3)).astype(np.float32)))
        model.set_tap_dispatcher(None)
        kinds = {classify_tap(name) for name in recorder.values}
        assert TapKind.WEIGHT in kinds
        assert TapKind.GEMM_INPUT in kinds
        assert TapKind.GELU_INPUT in kinds

    def test_trains_above_chance(self):
        from repro.data import make_splits

        train_set, val_set = make_splits(train_count=256, val_count=128, size=32, seed=2)
        model = build_cnn(CNNConfig("tiny_cnn", 32, 3, 10, (8, 16)), seed=0)
        train_classifier(model, train_set, TrainConfig(epochs=2, batch_size=64, lr=2e-3))
        assert evaluate_top1(model, val_set) > 20.0

    def test_quantizes_with_full_pipeline(self, rng):
        # The whole PTQ machinery must apply to CNNs unchanged.
        model = build_cnn(CNNConfig("tiny_cnn2", 32, 3, 10, (8, 16)), seed=0)
        calib = rng.normal(size=(16, 32, 32, 3)).astype(np.float32)
        pipeline = PTQPipeline(model, method="quq", bits=8, coverage="full")
        pipeline.calibrate(calib)
        out = model(Tensor(calib[:4]))
        assert np.isfinite(out.data).all()
        pipeline.detach()
