"""Tests for attention, MLP and transformer blocks."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import Mlp, MultiHeadSelfAttention, TransformerBlock
from repro.nn.module import TapDispatcher
from repro.quant import TapRecorder


class _Collector(TapDispatcher):
    def __init__(self):
        self.names = []

    def tap(self, name, value):
        self.names.append(name)
        return value


class TestMultiHeadSelfAttention:
    def test_output_shape(self, rng):
        attn = MultiHeadSelfAttention(16, 4, rng=rng)
        out = attn(Tensor(rng.normal(size=(2, 5, 16)).astype(np.float32)))
        assert out.shape == (2, 5, 16)

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ValueError):
            MultiHeadSelfAttention(10, 3)

    def test_attention_rows_normalized(self, rng):
        attn = MultiHeadSelfAttention(8, 2, rng=rng)
        recorder = TapRecorder(["probs"])
        attn.set_tap_dispatcher(recorder)
        attn(Tensor(rng.normal(size=(1, 4, 8)).astype(np.float32)))
        (probs,) = recorder.values["probs"]
        assert probs.shape == (1, 2, 4, 4)
        np.testing.assert_allclose(probs.sum(-1), np.ones((1, 2, 4)), rtol=1e-5)

    def test_gradients_flow_to_qkv(self, rng):
        attn = MultiHeadSelfAttention(8, 2, rng=rng)
        out = attn(Tensor(rng.normal(size=(1, 4, 8)).astype(np.float32)))
        out.sum().backward()
        assert attn.qkv.weight.grad is not None
        assert np.abs(attn.qkv.weight.grad).max() > 0

    def test_permutation_equivariance(self, rng):
        # Self-attention without positional info commutes with permutation.
        attn = MultiHeadSelfAttention(8, 2, rng=rng)
        attn.eval()
        x = rng.normal(size=(1, 5, 8)).astype(np.float32)
        perm = np.array([3, 1, 4, 0, 2])
        out = attn(Tensor(x)).data
        out_perm = attn(Tensor(x[:, perm])).data
        np.testing.assert_allclose(out[:, perm], out_perm, atol=1e-4)


class TestMlp:
    def test_shape_and_hidden_dim(self, rng):
        mlp = Mlp(8, 32, rng=rng)
        assert mlp.fc1.out_features == 32
        out = mlp(Tensor(rng.normal(size=(2, 3, 8)).astype(np.float32)))
        assert out.shape == (2, 3, 8)


class TestTransformerBlock:
    def test_forward_shape(self, rng):
        block = TransformerBlock(16, 4, rng=rng)
        out = block(Tensor(rng.normal(size=(2, 5, 16)).astype(np.float32)))
        assert out.shape == (2, 5, 16)

    def test_residual_identity_at_zero_weights(self, rng):
        block = TransformerBlock(8, 2, rng=rng)
        # Zero the branch output projections: block must become identity.
        block.attn.proj.weight.data[:] = 0
        block.attn.proj.bias.data[:] = 0
        block.mlp.fc2.weight.data[:] = 0
        block.mlp.fc2.bias.data[:] = 0
        x = rng.normal(size=(1, 4, 8)).astype(np.float32)
        np.testing.assert_allclose(block(Tensor(x)).data, x, atol=1e-6)

    def test_emits_expected_taps(self, rng):
        block = TransformerBlock(8, 2, rng=rng)
        block.assign_tap_names(prefix="blk.")
        collector = _Collector()
        block.set_tap_dispatcher(collector)
        block(Tensor(rng.normal(size=(1, 4, 8)).astype(np.float32)))
        expected = {
            "blk.block_input",
            "blk.mid_input",
            "blk.attn_residual",
            "blk.mlp_residual",
            "blk.attn.q",
            "blk.attn.k",
            "blk.attn.v",
            "blk.attn.scores",
            "blk.attn.probs",
            "blk.attn.qkv.weight",
            "blk.attn.qkv.input",
            "blk.attn.proj.weight",
            "blk.attn.proj.input",
            "blk.mlp.fc1.input",
            "blk.mlp.fc2.input",
            "blk.mlp.act.input",
        }
        assert expected <= set(collector.names)
