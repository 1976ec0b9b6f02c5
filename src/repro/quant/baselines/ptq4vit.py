"""PTQ4ViT-style baseline (Yuan et al., ECCV 2022).

PTQ4ViT introduces *twin uniform quantization* for the two problematic
activation types — post-Softmax (two magnitude regimes) and post-GELU
(asymmetric signs) — and optimizes scales with a Hessian-guided search.
The paper positions twin uniform quantization as a subset of QUQ
(Section 5): two uniform regions with a power-of-two scale relationship,
without QUQ's four-way partition or mode merging.

PTQ4ViT is a *partial* quantization method: it covers GEMM inputs only.
"""

from __future__ import annotations

import numpy as np

from ..base import Quantizer, finite_values

__all__ = ["TwinUniformQuantizer"]


class TwinUniformQuantizer(Quantizer):
    """Two uniform regions sharing the code space, split at zero or by magnitude.

    ``asymmetric="sign"`` splits negative/positive (post-GELU);
    ``asymmetric="magnitude"`` splits small/large values (post-Softmax).
    The second region's scale is constrained to ``2^m`` times the first,
    mirroring PTQ4ViT's shift-friendly twin ranges.
    """

    def __init__(self, bits: int, split: str = "sign"):
        super().__init__(bits)
        if split not in ("sign", "magnitude"):
            raise ValueError(f"split must be 'sign' or 'magnitude', got {split}")
        self.split = split
        self.delta_small: float = 0.0
        self.delta_large: float = 0.0

    def fit(self, x: np.ndarray) -> "TwinUniformQuantizer":
        flat = finite_values(x)
        half_levels = 2 ** (self.bits - 1) - 1
        if self.split == "sign":
            neg = -flat[flat < 0]
            pos = flat[flat > 0]
            small_bound = float(neg.max()) if neg.size else 1e-8
            large_bound = float(pos.max()) if pos.size else 1e-8
        else:
            magnitudes = np.abs(flat)
            small_bound = float(np.quantile(magnitudes, 0.99)) if flat.size else 1e-8
            large_bound = float(magnitudes.max()) if flat.size else 1e-8
        small_bound = max(small_bound, 1e-8)
        large_bound = max(large_bound, small_bound)

        # The large region's scale covers its bound exactly (never worse
        # than plain uniform there).  The small region's scale is
        # ``delta_large / 2^m`` — the shift-friendly relationship — with
        # ``m`` chosen by the calibration-MSE search PTQ4ViT uses for its
        # twin ranges.  ``m = 0`` degenerates to plain uniform, so the
        # fitted quantizer is never worse than the uniform baseline.
        self.delta_large = large_bound / half_levels
        best = None
        for m in range(0, 8):
            self.delta_small = self.delta_large / 2.0**m
            self.fitted = True
            err = float(np.mean((self.fake_quantize(flat) - flat) ** 2))
            if best is None or err < best[0]:
                best = (err, m)
        self.delta_small = self.delta_large / 2.0 ** best[1]
        self.fitted = True
        return self

    def scaled(self, factor: float) -> "TwinUniformQuantizer":
        """Copy with both region scales multiplied by ``factor``."""
        self._require_fitted()
        clone = TwinUniformQuantizer(self.bits, self.split)
        clone.delta_small = self.delta_small * factor
        clone.delta_large = self.delta_large * factor
        clone.fitted = True
        return clone

    def fake_quantize(self, x: np.ndarray) -> np.ndarray:
        self._require_fitted()
        x = np.asarray(x, dtype=np.float64)
        half_levels = 2 ** (self.bits - 1) - 1
        if self.split == "sign":
            small_region = x < 0
        else:
            small_region = np.abs(x) <= self.delta_small * half_levels
        small = np.clip(np.rint(x / self.delta_small), -half_levels, half_levels)
        large = np.clip(np.rint(x / self.delta_large), -half_levels, half_levels)
        out = np.where(small_region, small * self.delta_small, large * self.delta_large)
        return out.astype(np.float32)
