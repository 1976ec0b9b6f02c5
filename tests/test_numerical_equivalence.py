"""Brute-force numerical equivalence checks for the trickiest kernels."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.models.swin import WindowAttention, _shift_attention_mask
from repro.nn import MultiHeadSelfAttention
from repro.quant import QuantEnv, UniformQuantizer


class TestAttentionBruteForce:
    def test_msa_matches_manual_computation(self, rng):
        attn = MultiHeadSelfAttention(8, 2, rng=rng)
        attn.eval()
        x = rng.normal(size=(1, 3, 8)).astype(np.float32)
        with no_grad():
            out = attn(Tensor(x)).data

        # Manual: qkv -> per-head softmax(QK^T/sqrt(d))V -> proj.
        qkv = x @ attn.qkv.weight.data + attn.qkv.bias.data
        q, k, v = np.split(qkv, 3, axis=-1)

        def heads(t):
            return t.reshape(1, 3, 2, 4).transpose(0, 2, 1, 3)

        q, k, v = heads(q), heads(k), heads(v)
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(4)
        probs = np.exp(scores - scores.max(-1, keepdims=True))
        probs = probs / probs.sum(-1, keepdims=True)
        ctx = (probs @ v).transpose(0, 2, 1, 3).reshape(1, 3, 8)
        expected = ctx @ attn.proj.weight.data + attn.proj.bias.data
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-6)

    def test_window_attention_equals_msa_when_unmasked(self, rng):
        """With the bias table zeroed and no mask, window attention over a
        full-grid window is ordinary self-attention."""
        window = WindowAttention(8, window_size=2, num_heads=2, rng=rng)
        window.relative_bias_table.data[:] = 0.0
        msa = MultiHeadSelfAttention(8, 2, rng=rng)
        # Share weights.
        msa.qkv.weight.data = window.qkv.weight.data.copy()
        msa.qkv.bias.data = window.qkv.bias.data.copy()
        msa.proj.weight.data = window.proj.weight.data.copy()
        msa.proj.bias.data = window.proj.bias.data.copy()

        x = rng.normal(size=(2, 4, 8)).astype(np.float32)  # one 2x2 window
        with no_grad():
            np.testing.assert_allclose(
                window(Tensor(x)).data, msa(Tensor(x)).data, rtol=1e-4, atol=1e-6
            )

    def test_shift_mask_matches_region_map(self):
        """The additive mask must block exactly cross-region pairs of the
        rolled image — verified against a brute-force region labeling."""
        resolution, window, shift = 8, 4, 2
        mask = _shift_attention_mask(resolution, window, shift)
        # Rebuild region ids exactly as Swin does.
        img = np.zeros((resolution, resolution), dtype=int)
        slices = (slice(0, -window), slice(-window, -shift), slice(-shift, None))
        region = 0
        for hs in slices:
            for ws in slices:
                img[hs, ws] = region
                region += 1
        # Partition and compare pairwise.
        for wi in range(mask.shape[0]):
            wy, wx = divmod(wi, resolution // window)
            patch = img[
                wy * window : (wy + 1) * window, wx * window : (wx + 1) * window
            ].reshape(-1)
            expected = patch[:, None] != patch[None, :]
            np.testing.assert_array_equal(mask[wi], expected)


class TestStraightThroughInPipeline:
    def test_gradients_flow_through_quantize_phase(self, rng):
        env = QuantEnv()
        env.quantizers["a"] = UniformQuantizer(4).fit(rng.normal(size=100))
        x = Tensor(rng.normal(size=(5,)).astype(np.float32), requires_grad=True)
        out = env.tap("a", x)
        out.backward(np.ones(5, dtype=np.float32))
        np.testing.assert_allclose(x.grad, np.ones(5))  # STE: identity grad


class TestDeiTLossPath:
    def test_dual_head_loss_averages(self, tiny_deit, rng):
        from repro.training.trainer import _loss_for
        from repro.nn import cross_entropy

        images = rng.normal(size=(4, 16, 16, 3)).astype(np.float32)
        labels = np.array([0, 1, 2, 3])
        tiny_deit.train()
        logits = tiny_deit(Tensor(images))
        combined = _loss_for(logits, labels, 0.0)
        separate = 0.5 * (
            float(cross_entropy(logits[:, 0], labels).data)
            + float(cross_entropy(logits[:, 1], labels).data)
        )
        assert float(combined.data) == pytest.approx(separate, rel=1e-5)
