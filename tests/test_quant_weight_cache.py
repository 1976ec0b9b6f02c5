"""Tests for the weight-tap fake-quantization cache.

The cache (``QuantEnv.cached_fake_weight``) replays a weight tap's
fake-quantized array across batches instead of recomputing it.  The
contract is *bit-exactness*: the cached path must be indistinguishable
from the uncached path for every method, bit-width, and life-cycle event
(recalibration, serialization round-trip, shadow-build + swap, weight
updates, QAT).  These tests pin that contract and the invalidation rules.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, no_grad
from repro.models.vit import build_vit
from repro.quant import PTQPipeline, UniformQuantizer
from repro.serve import ModelKey, ModelRegistry
from tests.conftest import TINY_VIT
from tests.test_serve_registry import tiny_loader

METHODS_UNDER_TEST = ("baseq", "quq", "biscaled", "fqvit", "ptq4vit")


def _make_calib(count=12, seed=3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(count, 16, 16, 3)).astype(np.float32) * 0.5


def _make_batch(seed, batch=3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, 16, 16, 3)).astype(np.float32) * 0.5


def _forward(model, images):
    model.eval()
    with no_grad():
        return model(Tensor(images)).data


#: Calibrated pipelines are expensive; one per (method, bits) for the
#: whole module (hypothesis re-draws examples against the same pipeline).
_PIPELINES: dict[tuple[str, int], PTQPipeline] = {}


def _pipeline(method: str, bits: int) -> PTQPipeline:
    key = (method, bits)
    if key not in _PIPELINES:
        model = build_vit(TINY_VIT, seed=0)
        pipeline = PTQPipeline(model, method=method, bits=bits, coverage="full")
        pipeline.calibrate(_make_calib(), batch_size=8)
        _PIPELINES[key] = pipeline
    return _PIPELINES[key]


def _logits_cached_and_uncached(pipeline, images):
    """Forward the same batch with the weight cache on and off."""
    env = pipeline.env
    env.weight_cache_enabled = True
    cached = _forward(pipeline.model, images)
    env.weight_cache_enabled = False
    try:
        uncached = _forward(pipeline.model, images)
    finally:
        env.weight_cache_enabled = True
    return cached, uncached


class TestBitExactness:
    @given(
        method=st.sampled_from(METHODS_UNDER_TEST),
        bits=st.sampled_from([4, 6, 8]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=20, deadline=None)
    def test_cached_matches_uncached(self, method, bits, seed):
        pipeline = _pipeline(method, bits)
        cached, uncached = _logits_cached_and_uncached(
            pipeline, _make_batch(seed)
        )
        assert np.array_equal(cached, uncached)

    def test_cache_actually_hit(self):
        pipeline = _pipeline("quq", 6)
        before = pipeline.weight_cache_info()["hits"]
        _forward(pipeline.model, _make_batch(0))
        after = pipeline.weight_cache_info()["hits"]
        assert after > before  # every weight tap replayed from cache

    def test_load_quantizers_roundtrip_bit_exact(self, tmp_path):
        calib = _make_calib()
        batch = _make_batch(7)

        original = build_vit(TINY_VIT, seed=0)
        pipeline = PTQPipeline(original, method="quq", bits=6, coverage="full")
        pipeline.calibrate(calib, batch_size=8)
        reference = _forward(original, batch)
        path = pipeline.save_quantizers(tmp_path / "state.npz")

        restored_model = build_vit(TINY_VIT, seed=0)
        restored = PTQPipeline(restored_model, method="quq", bits=6, coverage="full")
        restored.load_quantizers(path)
        # load_quantizers pre-warms the cache; the very first batch must
        # already match the original pipeline bit-for-bit.
        assert restored.weight_cache_info()["entries"] > 0
        assert np.array_equal(_forward(restored_model, batch), reference)
        cached, uncached = _logits_cached_and_uncached(restored, batch)
        assert np.array_equal(cached, uncached)

    def test_recalibration_manager_swap_stays_bit_exact(self, tmp_path):
        """After a shadow-build + swap, the installed entry's cache serves
        the new quantizers, never a stale replay of the old ones."""
        calib = _make_calib(count=16)
        registry = ModelRegistry(
            capacity=2,
            artifact_dir=tmp_path,
            loader=tiny_loader,
            calib_provider=lambda: calib,
        )
        key = ModelKey.parse("vit_s/quq/4")
        registry.get(key)
        shifted = calib * 1.5 + 0.1  # different distribution: new params
        candidate = registry.shadow_build(key, shifted)
        registry.swap(key, candidate)

        servable = registry.get(key)
        assert servable is candidate
        batch = _make_batch(11)
        cached, uncached = _logits_cached_and_uncached(
            servable.pipeline, batch
        )
        assert np.array_equal(cached, uncached)
        assert np.array_equal(servable.predict(batch), cached)


class TestInvalidation:
    def test_param_version_advances_on_every_fit(self):
        rng = np.random.default_rng(0)
        quantizer = UniformQuantizer(6)
        assert quantizer.param_version == 0
        quantizer.fit(rng.normal(size=100))
        first = quantizer.param_version
        assert first > 0
        quantizer.fit(rng.normal(size=100) * 3)
        assert quantizer.param_version > first

    def test_refit_invalidates_cache_entry(self):
        rng = np.random.default_rng(1)
        model = build_vit(TINY_VIT, seed=0)
        pipeline = PTQPipeline(model, method="baseq", bits=6, coverage="full")
        pipeline.calibrate(_make_calib(), batch_size=8)
        batch = _make_batch(5)
        before = _forward(model, batch)

        # Refit one weight quantizer in place on different data: the next
        # forward must recompute that tap (a miss), not replay the old one.
        name = next(
            n for n in pipeline.tap_names() if n.endswith(".weight")
        )
        misses_before = pipeline.weight_cache_info()["misses"]
        pipeline.env.quantizers[name].fit(rng.normal(size=500) * 10)
        after = _forward(model, batch)
        assert pipeline.weight_cache_info()["misses"] > misses_before
        assert not np.array_equal(before, after)  # new params took effect
        cached, uncached = _logits_cached_and_uncached(pipeline, batch)
        assert np.array_equal(cached, uncached)

    def test_recalibrate_resets_cache(self):
        model = build_vit(TINY_VIT, seed=0)
        pipeline = PTQPipeline(model, method="baseq", bits=6, coverage="full")
        pipeline.calibrate(_make_calib(), batch_size=8)
        before = pipeline.weight_cache_info()
        pipeline.calibrate(_make_calib(seed=9), batch_size=8)
        info = pipeline.weight_cache_info()
        # install() rebuilt every weight entry: one fresh fill per weight tap.
        weights = [n for n in pipeline.tap_names() if n.endswith(".weight")]
        assert info["entries"] == len(weights) > 0
        assert info["misses"] == before["misses"] + len(weights)
        batch = _make_batch(2)
        cached, uncached = _logits_cached_and_uncached(pipeline, batch)
        assert np.array_equal(cached, uncached)

    def test_weight_rebind_invalidates_entry(self):
        """Optimizer steps rebind ``param.data``; the identity check must
        catch that and recompute instead of replaying stale weights."""
        model = build_vit(TINY_VIT, seed=0)
        pipeline = PTQPipeline(model, method="baseq", bits=6, coverage="full")
        pipeline.calibrate(_make_calib(), batch_size=8)
        batch = _make_batch(4)
        before = _forward(model, batch)

        name = next(n for n in pipeline.tap_names() if n.endswith(".weight"))
        param_name = name.split(".", 1)[1]
        param = dict(model.named_parameters())[param_name]
        param.data = param.data * 1.5  # rebind, like optim.py does

        after = _forward(model, batch)
        assert not np.array_equal(before, after)
        cached, uncached = _logits_cached_and_uncached(pipeline, batch)
        assert np.array_equal(cached, uncached)

    def test_gradients_bypass_cache(self):
        """QAT runs with gradients enabled and mutating weights; the cache
        must not serve (or record) anything there."""
        model = build_vit(TINY_VIT, seed=0)
        pipeline = PTQPipeline(model, method="baseq", bits=6, coverage="full")
        pipeline.calibrate(_make_calib(), batch_size=8)
        info_before = pipeline.weight_cache_info()
        model.train()
        model(Tensor(_make_batch(8)))  # gradients enabled: no no_grad()
        model.eval()
        info_after = pipeline.weight_cache_info()
        assert info_after["hits"] == info_before["hits"]
        assert info_after["misses"] == info_before["misses"]

    def test_disabling_cache_is_equivalent_and_cold(self):
        pipeline = _pipeline("baseq", 8)
        env = pipeline.env
        hits_before = env.weight_cache_hits
        env.weight_cache_enabled = False
        try:
            _forward(pipeline.model, _make_batch(6))
        finally:
            env.weight_cache_enabled = True
        assert env.weight_cache_hits == hits_before
