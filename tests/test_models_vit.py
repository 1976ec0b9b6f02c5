"""Tests for the ViT/DeiT models and the config registry."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.models import MINI_CONFIGS, MINI_FOR_PAPER, PAPER_CONFIGS, get_config
from repro.models.configs import ModelConfig
from repro.models.vit import build_vit
from repro.quant import TapRecorder
from tests.conftest import TINY_DEIT, TINY_VIT


class TestConfigs:
    def test_registry_lookup(self):
        assert get_config("vit_mini_s").embed_dim == 64
        assert get_config("vit_l").depth == 24

    def test_unknown_config_rejected(self):
        with pytest.raises(KeyError):
            get_config("resnet50")

    def test_num_tokens_accounts_for_special_tokens(self):
        vit = get_config("vit_s")
        deit = get_config("deit_s")
        assert vit.num_tokens == 197  # 14*14 + cls
        assert deit.num_tokens == 198  # + distillation token

    def test_every_paper_model_has_a_mini_counterpart(self):
        for paper_name, mini_name in MINI_FOR_PAPER.items():
            paper = PAPER_CONFIGS[paper_name]
            mini = MINI_CONFIGS[mini_name]
            assert mini.family == paper.family

    def test_small_vs_large_ordering_preserved(self):
        assert MINI_CONFIGS["vit_mini_l"].embed_dim > MINI_CONFIGS["vit_mini_s"].embed_dim
        assert MINI_CONFIGS["deit_mini_b"].embed_dim > MINI_CONFIGS["deit_mini_s"].embed_dim


class TestVisionTransformer:
    def test_forward_shape(self, tiny_vit, rng):
        images = rng.normal(size=(3, 16, 16, 3)).astype(np.float32)
        assert tiny_vit(Tensor(images)).shape == (3, 10)

    def test_features_token_count(self, tiny_vit, rng):
        images = rng.normal(size=(2, 16, 16, 3)).astype(np.float32)
        tokens = tiny_vit.features(Tensor(images))
        assert tokens.shape == (2, TINY_VIT.num_tokens, TINY_VIT.embed_dim)

    def test_seed_determinism(self, rng):
        a = build_vit(TINY_VIT, seed=7)
        b = build_vit(TINY_VIT, seed=7)
        images = rng.normal(size=(1, 16, 16, 3)).astype(np.float32)
        np.testing.assert_allclose(a(Tensor(images)).data, b(Tensor(images)).data)

    def test_different_seeds_differ(self, rng):
        a = build_vit(TINY_VIT, seed=0)
        b = build_vit(TINY_VIT, seed=1)
        images = rng.normal(size=(1, 16, 16, 3)).astype(np.float32)
        assert not np.allclose(a(Tensor(images)).data, b(Tensor(images)).data)

    def test_attention_maps_per_block(self, tiny_vit, rng):
        images = rng.normal(size=(2, 16, 16, 3)).astype(np.float32)
        recorder = TapRecorder()
        tiny_vit.set_tap_dispatcher(recorder)
        tiny_vit(Tensor(images))
        maps = [v for name, v in recorder.values.items() if name.endswith(".attn.probs")]
        assert len(maps) == TINY_VIT.depth
        tokens = TINY_VIT.num_tokens
        assert [m[0].shape for m in maps] == [(2, TINY_VIT.num_heads, tokens, tokens)] * len(maps)

    def test_build_vit_rejects_swin_family(self):
        bad = ModelConfig("x", "swin", 16, 4, 3, 10, 32, 2, 2)
        with pytest.raises(ValueError):
            build_vit(bad)


class TestDeiT:
    def test_train_mode_returns_both_heads(self, tiny_deit, rng):
        images = rng.normal(size=(2, 16, 16, 3)).astype(np.float32)
        tiny_deit.train()
        out = tiny_deit(Tensor(images))
        assert out.shape == (2, 2, 10)

    def test_eval_mode_averages_heads(self, tiny_deit, rng):
        images = rng.normal(size=(2, 16, 16, 3)).astype(np.float32)
        tiny_deit.train()
        both = tiny_deit(Tensor(images)).data
        tiny_deit.eval()
        avg = tiny_deit(Tensor(images)).data
        np.testing.assert_allclose(avg, both.mean(axis=1), rtol=2e-4, atol=1e-5)

    def test_distillation_token_present(self, tiny_deit):
        assert tiny_deit.dist_token is not None
        assert tiny_deit.head_dist is not None
