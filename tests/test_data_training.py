"""Tests for the SynthShapes dataset and the training substrate."""

import numpy as np
import pytest

from repro.data import (
    CLASS_NAMES,
    batches,
    calibration_set,
    denormalize,
    generate,
    make_splits,
    normalize,
)
from repro.models import zoo
from repro.models.vit import build_vit
from repro.nn import Linear
from repro.nn.module import Parameter
from repro.autograd import Tensor
from repro.training import (
    AdamW,
    SGD,
    TrainConfig,
    cosine_warmup,
    evaluate_top1,
    predict_logits,
    train_classifier,
)
from tests.conftest import TINY_VIT


class TestSynthShapes:
    def test_deterministic_generation(self):
        a = generate(64, size=16, seed=5)
        b = generate(64, size=16, seed=5)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = generate(64, size=16, seed=5)
        b = generate(64, size=16, seed=6)
        assert not np.array_equal(a.images, b.images)

    def test_class_balance(self):
        ds = generate(100, size=16, seed=0)
        counts = np.bincount(ds.labels, minlength=len(CLASS_NAMES))
        assert counts.min() == counts.max() == 10

    def test_normalize_roundtrip(self, rng):
        images = rng.uniform(0, 1, size=(4, 8, 8, 3)).astype(np.float32)
        np.testing.assert_allclose(denormalize(normalize(images)), images, atol=1e-6)

    def test_subset_deterministic_and_sized(self):
        ds = generate(64, size=16, seed=0)
        sub = ds.subset(16, seed=1)
        assert len(sub) == 16
        np.testing.assert_array_equal(sub.labels, ds.subset(16, seed=1).labels)

    def test_subset_too_large_rejected(self):
        with pytest.raises(ValueError):
            generate(8, size=16).subset(9)

    def test_make_splits_disjoint_seeds(self):
        train, val = make_splits(train_count=32, val_count=32, size=16, seed=0)
        assert not np.array_equal(train.images[:32], val.images[:32])

    def test_images_normalized_float32(self):
        ds = generate(16, size=16, seed=0)
        assert ds.images.dtype == np.float32
        assert abs(float(ds.images.mean())) < 1.5


class TestLoader:
    def test_batches_cover_dataset(self):
        ds = generate(50, size=16, seed=0)
        seen = sum(len(lbl) for _, lbl in batches(ds, 16))
        assert seen == 50

    def test_drop_last(self):
        ds = generate(50, size=16, seed=0)
        seen = sum(len(lbl) for _, lbl in batches(ds, 16, drop_last=True))
        assert seen == 48

    def test_shuffle_changes_order_not_content(self):
        ds = generate(64, size=16, seed=0)
        plain = np.concatenate([lbl for _, lbl in batches(ds, 16)])
        shuffled = np.concatenate([lbl for _, lbl in batches(ds, 16, shuffle=True, seed=1)])
        assert not np.array_equal(plain, shuffled)
        np.testing.assert_array_equal(np.sort(plain), np.sort(shuffled))

    def test_calibration_set_size(self):
        ds = generate(64, size=16, seed=0)
        calib = calibration_set(ds, 32)
        assert calib.shape[0] == 32


class TestOptimizers:
    def _quadratic_param(self):
        return Parameter(np.array([5.0, -3.0], dtype=np.float32))

    def test_sgd_converges_on_quadratic(self):
        p = self._quadratic_param()
        opt = SGD([p], lr=0.1, momentum=0.5)
        for _ in range(100):
            p.grad = 2 * p.data
            opt.step()
        assert np.abs(p.data).max() < 1e-3

    def test_adamw_converges_on_quadratic(self):
        p = self._quadratic_param()
        opt = AdamW([p], lr=0.3, weight_decay=0.0)
        for _ in range(200):
            p.grad = 2 * p.data
            opt.step()
        assert np.abs(p.data).max() < 1e-2

    def test_adamw_weight_decay_shrinks_params(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = AdamW([p], lr=0.01, weight_decay=0.5)
        for _ in range(10):
            p.grad = np.zeros(1, dtype=np.float32)
            opt.step()
        assert p.data[0] < 1.0

    def test_skips_params_without_grad(self):
        p = Parameter(np.array([1.0], dtype=np.float32))
        AdamW([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [1.0])

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.0)

    def test_zero_grad_clears(self):
        layer = Linear(2, 2)
        out = layer(Tensor(np.ones((1, 2))))
        out.sum().backward()
        opt = SGD(layer.parameters(), lr=0.1)
        opt.zero_grad()
        assert layer.weight.grad is None


class TestSchedule:
    def test_warmup_ramps_linearly(self):
        assert cosine_warmup(0, 100, 1.0, warmup_steps=10) == pytest.approx(0.1)
        assert cosine_warmup(9, 100, 1.0, warmup_steps=10) == pytest.approx(1.0)

    def test_cosine_decays_to_min(self):
        end = cosine_warmup(99, 100, 1.0, warmup_steps=0, min_lr=0.05)
        assert end == pytest.approx(0.05, abs=0.01)

    def test_monotone_decay_after_warmup(self):
        values = [cosine_warmup(s, 50, 1.0, warmup_steps=5) for s in range(5, 50)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_total(self):
        with pytest.raises(ValueError):
            cosine_warmup(0, 0, 1.0)


class TestTrainer:
    def test_training_reduces_loss_and_beats_chance(self, tiny_data):
        train_set, val_set = tiny_data
        model = build_vit(TINY_VIT, seed=0)
        history = train_classifier(
            model, train_set, TrainConfig(epochs=2, batch_size=64, lr=2e-3)
        )
        assert history[-1] < history[0]
        acc = evaluate_top1(model, val_set)
        assert acc > 2 * 100.0 / 10  # comfortably above the 10% chance level

    def test_predict_logits_shape_and_batch_invariance(self, tiny_trained, tiny_data):
        _, val_set = tiny_data
        a = predict_logits(tiny_trained, val_set.images[:10], batch_size=3)
        b = predict_logits(tiny_trained, val_set.images[:10], batch_size=10)
        assert a.shape == (10, 10)
        np.testing.assert_allclose(a, b, atol=1e-5)

    def test_model_left_in_eval_mode(self, tiny_trained):
        assert not tiny_trained.training


class TestZooCheckpoint:
    def test_training_call_returns_the_weights_later_calls_load(
        self, tmp_path, monkeypatch
    ):
        # Training left float64 weights behind (the schedule's learning
        # rate is a NumPy float64); a stand-in does the same, fast.
        def train_to_float64(model, train_set, config):
            for param in model.parameters():
                param.data = param.data.astype(np.float64)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(
            zoo, "DATASET_SPEC", {"train_count": 8, "val_count": 16, "size": 32, "seed": 0}
        )
        monkeypatch.setattr(zoo, "train_classifier", train_to_float64)
        trained, trained_top1 = zoo.get_trained_model("vit_mini_s")
        loaded, loaded_top1 = zoo.get_trained_model("vit_mini_s", train_if_missing=False)
        assert trained_top1 == loaded_top1
        trained_state, loaded_state = trained.state_dict(), loaded.state_dict()
        assert trained_state.keys() == loaded_state.keys()
        for name, weights in trained_state.items():
            assert weights.dtype == loaded_state[name].dtype == np.float32, name
            assert weights.tobytes() == loaded_state[name].tobytes(), name
