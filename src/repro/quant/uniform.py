"""Uniform quantization (Eq. 1 of the paper) — the BaseQ baseline.

Provides the symmetric scheme the paper quantizes against, plus the
asymmetric (affine) and row-wise variants needed by the FQ-ViT baseline.
"""

from __future__ import annotations

import numpy as np

from .base import Quantizer, finite_values

__all__ = [
    "symmetric_uniform_quantize",
    "symmetric_uniform_dequantize",
    "UniformQuantizer",
    "AsymmetricUniformQuantizer",
    "RowwiseUniformQuantizer",
]


def symmetric_uniform_quantize(x: np.ndarray, delta: float, bits: int) -> np.ndarray:
    """Eq. (1): ``clip(round(x / delta), -2^(b-1), 2^(b-1) - 1)``.

    Returns integer codes as ``int64``.
    """
    if delta <= 0:
        raise ValueError(f"scale factor must be positive, got {delta}")
    low, high = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    codes = np.rint(np.asarray(x, dtype=np.float64) / delta)
    return np.clip(codes, low, high).astype(np.int64)


def symmetric_uniform_dequantize(codes: np.ndarray, delta: float) -> np.ndarray:
    """Inverse of :func:`symmetric_uniform_quantize` (up to clipping)."""
    return (codes.astype(np.float64) * delta).astype(np.float32)


def _percentile_absmax(x: np.ndarray, percentile: float) -> float:
    magnitudes = np.abs(x.reshape(-1))
    if magnitudes.size == 0:
        return 0.0
    if percentile >= 100.0:
        return float(magnitudes.max())
    return float(np.percentile(magnitudes, percentile))


class UniformQuantizer(Quantizer):
    """Symmetric uniform quantization with an abs-max (or percentile) scale.

    This is "BaseQ" in the paper's tables: one scale factor for the whole
    tensor, codes in ``[-2^(b-1), 2^(b-1) - 1]``.
    """

    def __init__(self, bits: int, percentile: float = 100.0):
        super().__init__(bits)
        if not 0.0 < percentile <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {percentile}")
        self.percentile = percentile
        self.delta: float = 0.0

    def fit(self, x: np.ndarray) -> "UniformQuantizer":
        bound = _percentile_absmax(finite_values(x, dtype=None), self.percentile)
        levels = 2 ** (self.bits - 1) - 1
        self.delta = bound / levels if bound > 0 else 1.0
        self.fitted = True
        return self

    def quantize(self, x: np.ndarray) -> np.ndarray:
        self._require_fitted()
        return symmetric_uniform_quantize(x, self.delta, self.bits)

    def dequantize(self, codes: np.ndarray) -> np.ndarray:
        self._require_fitted()
        return symmetric_uniform_dequantize(codes, self.delta)

    def fake_quantize(self, x: np.ndarray) -> np.ndarray:
        return self.dequantize(self.quantize(x))

    def scaled(self, factor: float) -> "UniformQuantizer":
        """Copy with the scale factor multiplied by ``factor``."""
        clone = UniformQuantizer(self.bits, self.percentile)
        clone.delta = self.delta * factor
        clone.fitted = self.fitted
        return clone


class AsymmetricUniformQuantizer(Quantizer):
    """Affine (zero-point) uniform quantization over ``[min, max]``.

    Used by the FQ-ViT-style baseline for activations whose range is
    one-sided; *not* used by QUQ, which instead anchors every subrange at
    zero precisely to avoid carrying zero points (Section 3.2).
    """

    def __init__(self, bits: int):
        super().__init__(bits)
        self.delta: float = 0.0
        self.zero_point: int = 0

    def fit(self, x: np.ndarray) -> "AsymmetricUniformQuantizer":
        flat = finite_values(x)
        low = float(min(flat.min(), 0.0)) if flat.size else 0.0
        high = float(max(flat.max(), 0.0)) if flat.size else 1.0
        span = high - low
        levels = 2**self.bits - 1
        self.delta = span / levels if span > 0 else 1.0
        self.zero_point = int(np.rint(-low / self.delta))
        self.fitted = True
        return self

    def quantize(self, x: np.ndarray) -> np.ndarray:
        self._require_fitted()
        codes = np.rint(np.asarray(x, dtype=np.float64) / self.delta) + self.zero_point
        return np.clip(codes, 0, 2**self.bits - 1).astype(np.int64)

    def dequantize(self, codes: np.ndarray) -> np.ndarray:
        self._require_fitted()
        return ((codes.astype(np.float64) - self.zero_point) * self.delta).astype(
            np.float32
        )

    def fake_quantize(self, x: np.ndarray) -> np.ndarray:
        return self.dequantize(self.quantize(x))

    def scaled(self, factor: float) -> "AsymmetricUniformQuantizer":
        """Copy with the scale factor multiplied by ``factor``."""
        clone = AsymmetricUniformQuantizer(self.bits)
        clone.delta = self.delta * factor
        clone.zero_point = self.zero_point
        clone.fitted = self.fitted
        return clone


class RowwiseUniformQuantizer(Quantizer):
    """Symmetric uniform quantization with one scale per output row.

    Models FQ-ViT's row-wise weight quantization.  The paper points out the
    cost of this scheme (distinct parameters per row vector, extra memory
    and requantization complexity); :meth:`bits_per_element` accounts for
    the per-row scale storage so the memory comparison is fair.
    """

    def __init__(self, bits: int, axis: int = -1):
        super().__init__(bits)
        self.axis = axis
        self.deltas: np.ndarray | None = None
        self._row_count = 0
        self._elements = 0

    def fit(self, x: np.ndarray) -> "RowwiseUniformQuantizer":
        x = np.asarray(x, dtype=np.float64)
        moved = np.moveaxis(x, self.axis, -1)
        rows = moved.reshape(-1, moved.shape[-1]) if moved.ndim > 1 else moved[None, :]
        # A non-finite element is ignored within its row.
        bounds = np.where(np.isfinite(rows), np.abs(rows), 0.0).max(axis=-1)
        levels = 2 ** (self.bits - 1) - 1
        self.deltas = np.where(bounds > 0, bounds / levels, 1.0)
        self._row_count = rows.shape[0]
        self._elements = x.size
        self.fitted = True
        return self

    def fake_quantize(self, x: np.ndarray) -> np.ndarray:
        self._require_fitted()
        x = np.asarray(x, dtype=np.float64)
        moved = np.moveaxis(x, self.axis, -1)
        original_shape = moved.shape
        rows = moved.reshape(-1, original_shape[-1])
        if rows.shape[0] != len(self.deltas):
            raise ValueError(
                f"row count changed between fit ({len(self.deltas)}) and "
                f"quantize ({rows.shape[0]})"
            )
        low, high = -(2 ** (self.bits - 1)), 2 ** (self.bits - 1) - 1
        codes = np.clip(np.rint(rows / self.deltas[:, None]), low, high)
        out = (codes * self.deltas[:, None]).reshape(original_shape)
        return np.moveaxis(out, -1, self.axis).astype(np.float32)

    def scaled(self, factor: float) -> "RowwiseUniformQuantizer":
        """Copy with every row scale multiplied by ``factor``."""
        self._require_fitted()
        clone = RowwiseUniformQuantizer(self.bits, self.axis)
        clone.deltas = self.deltas * factor
        clone._row_count = self._row_count
        clone._elements = self._elements
        clone.fitted = True
        return clone

    def bits_per_element(self) -> float:
        self._require_fitted()
        # One fp32 scale per row, amortized over the tensor.
        overhead = 32.0 * self._row_count / max(1, self._elements)
        return self.bits + overhead
