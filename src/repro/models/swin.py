"""Swin Transformer: windowed attention with shifted windows.

Implements the hierarchical architecture of Liu et al. (ICCV 2021) on top of
:mod:`repro.nn`: window-partitioned multi-head attention with relative
position bias, cyclic-shifted windows with the standard additive attention
mask, and patch merging between stages.  All activation boundaries carry the
same quantization taps as the columnar ViT blocks.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, masked_fill, roll, softmax, take
from ..nn import LayerNorm, Linear, Mlp, Module, ModuleList, PatchEmbedding
from ..nn.init import trunc_normal
from ..nn.module import Parameter
from .configs import SwinConfig

__all__ = ["SwinTransformer", "WindowAttention", "SwinBlock", "PatchMerging", "build_swin"]


def _relative_position_index(window_size: int) -> np.ndarray:
    """Pairwise relative-position index into the bias table, shape (ws^2, ws^2)."""
    coords = np.stack(
        np.meshgrid(np.arange(window_size), np.arange(window_size), indexing="ij")
    )  # (2, ws, ws)
    flat = coords.reshape(2, -1)  # (2, ws^2)
    relative = flat[:, :, None] - flat[:, None, :]  # (2, ws^2, ws^2)
    relative = relative.transpose(1, 2, 0) + (window_size - 1)
    return relative[:, :, 0] * (2 * window_size - 1) + relative[:, :, 1]


def _window_partition(x: Tensor, window: int) -> Tensor:
    """(B, H, W, C) -> (B * nW, window*window, C)."""
    b, h, w, c = x.shape
    x = x.reshape(b, h // window, window, w // window, window, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return x.reshape(-1, window * window, c)


def _window_reverse(x: Tensor, window: int, h: int, w: int) -> Tensor:
    """(B * nW, window*window, C) -> (B, H, W, C)."""
    nw = (h // window) * (w // window)
    b = x.shape[0] // nw
    c = x.shape[-1]
    x = x.reshape(b, h // window, w // window, window, window, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return x.reshape(b, h, w, c)


def _shift_attention_mask(resolution: int, window: int, shift: int) -> np.ndarray:
    """Boolean mask (nW, ws^2, ws^2): True where attention must be blocked."""
    img_mask = np.zeros((resolution, resolution), dtype=np.int64)
    slices = (slice(0, -window), slice(-window, -shift), slice(-shift, None))
    region = 0
    for hs in slices:
        for ws in slices:
            img_mask[hs, ws] = region
            region += 1
    # Partition the region map into windows.
    m = img_mask.reshape(
        resolution // window, window, resolution // window, window
    ).transpose(0, 2, 1, 3).reshape(-1, window * window)
    return m[:, :, None] != m[:, None, :]


class WindowAttention(Module):
    """Multi-head attention inside a window, with relative position bias."""

    def __init__(
        self,
        dim: int,
        window_size: int,
        num_heads: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if dim % num_heads:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        self.dim = dim
        self.window_size = window_size
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.scale = self.head_dim**-0.5

        rng = rng if rng is not None else np.random.default_rng(0)
        table_size = (2 * window_size - 1) ** 2
        self.relative_bias_table = Parameter(
            trunc_normal((table_size, num_heads), rng)
        )
        self._relative_index = _relative_position_index(window_size)

        self.qkv = Linear(dim, dim * 3, rng=rng)
        self.proj = Linear(dim, dim, rng=rng)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        bw, n, c = x.shape  # bw = batch * num_windows, n = window^2
        qkv = self.qkv(x)
        qkv = qkv.reshape(bw, n, 3, self.num_heads, self.head_dim)
        qkv = qkv.transpose(2, 0, 3, 1, 4)
        q, k, v = qkv[0], qkv[1], qkv[2]

        q = self.tap("q", q)
        k = self.tap("k", k)
        scores = (q @ k.swapaxes(-1, -2)) * self.scale

        bias = take(self.relative_bias_table, self._relative_index.reshape(-1))
        bias = bias.reshape(n, n, self.num_heads).transpose(2, 0, 1)
        scores = scores + bias.reshape(1, self.num_heads, n, n)

        if mask is not None:
            num_windows = mask.shape[0]
            scores = scores.reshape(bw // num_windows, num_windows, self.num_heads, n, n)
            scores = masked_fill(scores, mask[None, :, None, :, :], -100.0)
            scores = scores.reshape(bw, self.num_heads, n, n)

        scores = self.tap("scores", scores)
        probs = softmax(scores, axis=-1)
        probs = self.tap("probs", probs)

        v = self.tap("v", v)
        out = probs @ v
        out = out.transpose(0, 2, 1, 3).reshape(bw, n, c)
        return self.proj(out)


class SwinBlock(Module):
    """W-MSA / SW-MSA block over tokens laid out as a square grid."""

    def __init__(
        self,
        dim: int,
        resolution: int,
        num_heads: int,
        window_size: int,
        shift: int,
        mlp_ratio: float = 4.0,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if resolution <= window_size:
            # Window covers the whole grid: no point shifting, shrink window.
            window_size = resolution
            shift = 0
        if shift >= window_size:
            raise ValueError(f"shift {shift} must be < window {window_size}")
        self.resolution = resolution
        self.window_size = window_size
        self.shift = shift

        self.norm1 = LayerNorm(dim)
        self.attn = WindowAttention(dim, window_size, num_heads, rng=rng)
        self.norm2 = LayerNorm(dim)
        self.mlp = Mlp(dim, int(dim * mlp_ratio), rng=rng)
        self._mask = (
            _shift_attention_mask(resolution, window_size, shift) if shift else None
        )

    def forward(self, x: Tensor) -> Tensor:
        b, length, c = x.shape
        res = self.resolution
        if length != res * res:
            raise ValueError(f"expected {res * res} tokens, got {length}")

        x = self.tap("block_input", x)
        shortcut = x
        x = self.norm1(x)
        grid = x.reshape(b, res, res, c)
        if self.shift:
            grid = roll(grid, (-self.shift, -self.shift), (1, 2))
        windows = _window_partition(grid, self.window_size)
        windows = self.attn(windows, mask=self._mask)
        grid = _window_reverse(windows, self.window_size, res, res)
        if self.shift:
            grid = roll(grid, (self.shift, self.shift), (1, 2))
        branch = grid.reshape(b, length, c)
        branch = self.tap("attn_residual", branch)
        x = shortcut + branch

        x = self.tap("mid_input", x)
        branch = self.mlp(self.norm2(x))
        branch = self.tap("mlp_residual", branch)
        return x + branch


class PatchMerging(Module):
    """Downsample 2x: concatenate 2x2 neighbours, LayerNorm, project to 2C."""

    def __init__(self, dim: int, resolution: int, rng: np.random.Generator | None = None):
        super().__init__()
        if resolution % 2:
            raise ValueError(f"resolution {resolution} must be even to merge")
        self.dim = dim
        self.resolution = resolution
        self.norm = LayerNorm(4 * dim)
        self.reduction = Linear(4 * dim, 2 * dim, bias=False, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        b, length, c = x.shape
        res = self.resolution
        x = self.tap("merge_norm_input", x)
        grid = x.reshape(b, res // 2, 2, res // 2, 2, c)
        grid = grid.transpose(0, 1, 3, 2, 4, 5)
        merged = grid.reshape(b, (res // 2) ** 2, 4 * c)
        return self.reduction(self.norm(merged))


class SwinTransformer(Module):
    """Hierarchical Swin transformer for image classification."""

    def __init__(self, config: SwinConfig, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.config = config

        self.patch_embed = PatchEmbedding(
            config.image_size, config.patch_size, config.in_channels,
            config.embed_dim, rng=rng,
        )
        self.stages = ModuleList()
        self.merges = ModuleList()
        for stage in range(config.num_stages):
            dim = config.stage_dim(stage)
            resolution = config.stage_resolution(stage)
            blocks = ModuleList()
            for i in range(config.depths[stage]):
                shift = 0 if i % 2 == 0 else config.window_size // 2
                blocks.append(
                    SwinBlock(
                        dim, resolution, config.num_heads[stage],
                        config.window_size, shift, config.mlp_ratio, rng=rng,
                    )
                )
            self.stages.append(blocks)
            if stage < config.num_stages - 1:
                self.merges.append(PatchMerging(dim, resolution, rng=rng))

        final_dim = config.stage_dim(config.num_stages - 1)
        self.norm = LayerNorm(final_dim)
        self.head = Linear(final_dim, config.num_classes, rng=rng)
        self.assign_tap_names(prefix=f"{config.name}.")

    def features(self, images: Tensor) -> Tensor:
        x = self.patch_embed(images)
        for stage, blocks in enumerate(self.stages):
            for block in blocks:
                x = block(x)
            if stage < len(self.merges):
                x = self.merges[stage](x)
        x = self.tap("final_norm_input", x)
        return self.norm(x)

    def forward(self, images: Tensor) -> Tensor:
        tokens = self.features(images)
        pooled = tokens.mean(axis=1)
        return self.head(pooled)


def build_swin(config: SwinConfig, seed: int = 0) -> SwinTransformer:
    """Construct a Swin transformer from a config."""
    return SwinTransformer(config, seed=seed)
