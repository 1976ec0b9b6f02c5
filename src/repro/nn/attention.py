"""Attention and MLP blocks shared by the transformer models.

Every GEMM input and every hard-to-quantize activation boundary is routed
through a named tap (see :class:`repro.nn.module.Module.tap`), mirroring the
green/red dataflow arrows of Figure 1 in the QUQ paper:

* green (quantized even in *partial* quantization): Linear/MatMul inputs —
  ``qkv.input``, ``proj.input``, ``fc1.input``, ``fc2.input`` and the matmul
  operand taps ``q``, ``k``, ``v``, ``probs``;
* red (quantized only in *full* quantization): Softmax input ``scores``,
  GELU input (``act.input``), LayerNorm inputs and the residual-add
  operands (tapped at the block level in the model files).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, gelu, softmax
from .linear import Linear
from .module import Module
from .norm import LayerNorm

__all__ = ["MultiHeadSelfAttention", "Mlp", "TransformerBlock"]


class MultiHeadSelfAttention(Module):
    """Standard ViT multi-head self-attention.

    The attention probabilities, shape ``(B, heads, N, N)``, pass through
    the ``probs`` tap, where a recorder reads them for the attention-map
    analysis of Figure 7.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        qkv_bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if dim % num_heads:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.scale = self.head_dim**-0.5
        self.qkv = Linear(dim, dim * 3, bias=qkv_bias, rng=rng)
        self.proj = Linear(dim, dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        b, n, c = x.shape
        qkv = self.qkv(x)
        qkv = qkv.reshape(b, n, 3, self.num_heads, self.head_dim)
        qkv = qkv.transpose(2, 0, 3, 1, 4)  # (3, B, heads, N, head_dim)
        q, k, v = qkv[0], qkv[1], qkv[2]

        q = self.tap("q", q)
        k = self.tap("k", k)
        scores = (q @ k.swapaxes(-1, -2)) * self.scale
        scores = self.tap("scores", scores)
        probs = softmax(scores, axis=-1)
        probs = self.tap("probs", probs)

        v = self.tap("v", v)
        out = probs @ v  # (B, heads, N, head_dim)
        out = out.transpose(0, 2, 1, 3).reshape(b, n, c)
        return self.proj(out)


class Mlp(Module):
    """Transformer feed-forward block: Linear -> GELU -> Linear."""

    def __init__(
        self,
        dim: int,
        hidden_dim: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.fc1 = Linear(dim, hidden_dim, rng=rng)
        self.fc2 = Linear(hidden_dim, dim, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        hidden = self.fc1(x)
        hidden = self.tap("act.input", hidden)
        hidden = gelu(hidden)
        return self.fc2(hidden)


class TransformerBlock(Module):
    """Pre-norm transformer block: ``x + MSA(LN(x))`` then ``x + MLP(LN(x))``.

    The residual-add operands are tapped (``attn_residual`` / ``mlp_residual``
    for the branch outputs, ``block_input`` / ``mid_input`` for the stream)
    because the paper's *full* quantization covers the inputs of element-wise
    addition.
    """

    def __init__(
        self,
        dim: int,
        num_heads: int,
        mlp_ratio: float = 4.0,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadSelfAttention(dim, num_heads, rng=rng)
        self.norm2 = LayerNorm(dim)
        self.mlp = Mlp(dim, int(dim * mlp_ratio), rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        x = self.tap("block_input", x)
        branch = self.attn(self.norm1(x))
        branch = self.tap("attn_residual", branch)
        x = x + branch
        x = self.tap("mid_input", x)
        branch = self.mlp(self.norm2(x))
        branch = self.tap("mlp_residual", branch)
        return x + branch
