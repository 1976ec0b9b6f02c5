"""Vision Transformer (ViT) and DeiT models.

DeiT shares the ViT trunk and adds a distillation token; at inference the
class and distillation heads are averaged, as in the original DeiT.  (With
no ImageNet teacher available, the distillation head is trained with the
same cross-entropy target — the *architecture*, which is what quantization
cares about, is faithful.)
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, concat
from ..nn import LayerNorm, Linear, Module, ModuleList, PatchEmbedding, TransformerBlock
from ..nn.init import trunc_normal
from ..nn.module import Parameter
from .configs import ModelConfig

__all__ = ["VisionTransformer", "build_vit"]


class VisionTransformer(Module):
    """ViT/DeiT for image classification over ``(B, H, W, C)`` inputs."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.config = config
        dim = config.embed_dim

        self.patch_embed = PatchEmbedding(
            config.image_size, config.patch_size, config.in_channels, dim, rng=rng
        )
        self.cls_token = Parameter(trunc_normal((1, 1, dim), rng))
        self.dist_token = (
            Parameter(trunc_normal((1, 1, dim), rng)) if config.distilled else None
        )
        self.pos_embed = Parameter(trunc_normal((1, config.num_tokens, dim), rng))

        self.blocks = ModuleList(
            TransformerBlock(dim, config.num_heads, config.mlp_ratio, rng=rng)
            for _ in range(config.depth)
        )
        self.norm = LayerNorm(dim)
        self.head = Linear(dim, config.num_classes, rng=rng)
        self.head_dist = (
            Linear(dim, config.num_classes, rng=rng) if config.distilled else None
        )
        self.assign_tap_names(prefix=f"{config.name}.")

    # ------------------------------------------------------------------
    def _prepend_tokens(self, patches: Tensor) -> Tensor:
        b = patches.shape[0]
        ones = Tensor(np.ones((b, 1, 1), dtype=np.float32))
        cls = ones * self.cls_token
        tokens = [cls, patches]
        if self.dist_token is not None:
            tokens.insert(1, ones * self.dist_token)
        return concat(tokens, axis=1)

    def features(self, images: Tensor) -> Tensor:
        """Run the encoder, returning normalized token features."""
        x = self.patch_embed(images)
        x = self._prepend_tokens(x)
        x = x + self.pos_embed
        for block in self.blocks:
            x = block(x)
        x = self.tap("final_norm_input", x)
        return self.norm(x)

    def forward(self, images: Tensor) -> Tensor:
        tokens = self.features(images)
        cls_logits = self.head(tokens[:, 0])
        if self.head_dist is None:
            return cls_logits
        dist_logits = self.head_dist(tokens[:, 1])
        if self.training:
            # Training returns both so the loss can supervise each head.
            return concat(
                [cls_logits.reshape(cls_logits.shape[0], 1, -1),
                 dist_logits.reshape(dist_logits.shape[0], 1, -1)],
                axis=1,
            )
        return (cls_logits + dist_logits) * 0.5


def build_vit(config: ModelConfig, seed: int = 0) -> VisionTransformer:
    """Construct a ViT/DeiT from a config."""
    if config.family not in ("vit", "deit"):
        raise ValueError(f"build_vit cannot build family {config.family!r}")
    return VisionTransformer(config, seed=seed)
