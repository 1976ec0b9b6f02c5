"""Attention-map analysis for Figure 7.

The paper visualizes ViT attention maps under quantization: at 8 bits
uniform quantization starts losing attention on crucial regions while QUQ
stays close to the original; at 6 bits uniform attention collapses
entirely.  Without a display, we quantify the same comparison: attention
rollout saliency per image, its Pearson correlation with the FP32 rollout,
and the fraction of attention energy retained inside the FP32 map's
"crucial region" (its top-quantile cells) — plus ASCII heatmaps.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, no_grad
from ..models.vit import VisionTransformer
from ..quant.observers import QuantEnv, TapRecorder
from ..quant.qmodel import PTQPipeline

__all__ = [
    "attention_rollout",
    "rollout_for_images",
    "crucial_region_energy",
    "rollout_correlation",
    "ascii_heatmap",
]


def attention_rollout(maps: list[np.ndarray], num_prefix_tokens: int = 1) -> np.ndarray:
    """Attention rollout (Abnar & Zuidema): fold attention across layers.

    ``maps`` holds per-block attention ``(B, heads, N, N)``.  Returns the
    class token's saliency over patch tokens, shape ``(B, patches)``.
    """
    if not maps:
        raise ValueError("need at least one attention map")
    batch, _, tokens, _ = maps[0].shape
    rollout = np.eye(tokens, dtype=np.float64)[None].repeat(batch, axis=0)
    for attn in maps:
        mean_heads = attn.astype(np.float64).mean(axis=1)  # (B, N, N)
        mixed = 0.5 * mean_heads + 0.5 * np.eye(tokens)[None]
        mixed /= mixed.sum(axis=-1, keepdims=True)
        rollout = mixed @ rollout
    cls_row = rollout[:, 0, num_prefix_tokens:]
    total = cls_row.sum(axis=-1, keepdims=True)
    return cls_row / np.where(total > 0, total, 1.0)


def rollout_for_images(model: VisionTransformer, images: np.ndarray) -> np.ndarray:
    """Forward ``images`` and return the attention rollout saliency.

    The maps are each block's ``attn.probs`` tap, the softmax output before
    its own quantization.  A quantized model (its dispatcher a
    :class:`QuantEnv`) records them through ``env.recording``, so they are
    the quantized model's; otherwise a float pass records them.
    """
    named = model.named_modules(prefix=f"{model.config.name}.")
    taps = [f"{path}.probs" for path, _ in named if path.endswith(".attn")]
    recorder = TapRecorder(taps)
    env = model.tap_dispatcher
    if isinstance(env, QuantEnv):
        route = env.recording(recorder)
    else:
        route = PTQPipeline(model).observing(recorder)
    model.eval()
    with route, no_grad():
        model(Tensor(images))
    maps = [recorder.values[name][0] for name in taps]
    prefix = 2 if model.dist_token is not None else 1
    return attention_rollout(maps, num_prefix_tokens=prefix)


def crucial_region_energy(
    reference: np.ndarray, candidate: np.ndarray, quantile: float = 0.8
) -> float:
    """Mean attention energy ``candidate`` keeps in ``reference``'s hot cells.

    The crucial region is where the FP32 rollout exceeds its ``quantile``;
    a collapsed attention map scores near the region's area fraction
    (uniform attention), a faithful one scores near the reference energy.
    """
    if reference.shape != candidate.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {candidate.shape}")
    energies = []
    for ref_row, cand_row in zip(reference, candidate):
        threshold = np.quantile(ref_row, quantile)
        region = ref_row >= threshold
        energies.append(float(cand_row[region].sum()))
    return float(np.mean(energies))


def rollout_correlation(reference: np.ndarray, candidate: np.ndarray) -> float:
    """Mean per-image Pearson correlation between two rollout saliencies."""
    if reference.shape != candidate.shape:
        raise ValueError(f"shape mismatch: {reference.shape} vs {candidate.shape}")
    correlations = []
    for ref_row, cand_row in zip(reference, candidate):
        if ref_row.std() == 0 or cand_row.std() == 0:
            correlations.append(0.0)
            continue
        correlations.append(float(np.corrcoef(ref_row, cand_row)[0, 1]))
    return float(np.mean(correlations))


_SHADES = " .:-=+*#%@"


def ascii_heatmap(saliency: np.ndarray) -> str:
    """Render one image's patch saliency as an ASCII heatmap."""
    patches = saliency.reshape(-1)
    side = int(round(np.sqrt(patches.size)))
    if side * side != patches.size:
        raise ValueError(f"saliency length {patches.size} is not a square grid")
    grid = patches.reshape(side, side)
    span = grid.max() - grid.min()
    normalized = (grid - grid.min()) / span if span > 0 else np.zeros_like(grid)
    rows = []
    for row in normalized:
        rows.append("".join(_SHADES[int(v * (len(_SHADES) - 1))] * 2 for v in row))
    return "\n".join(rows)
