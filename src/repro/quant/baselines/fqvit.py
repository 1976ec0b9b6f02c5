"""FQ-ViT-style baseline (Lin et al.).

FQ-ViT fully quantizes ViTs using row-wise (per-output-channel) weight
quantization, log2 quantization for the post-Softmax attention maps
(log-int-softmax) and affine uniform quantization elsewhere.  The paper
compares against it in Table 3 and criticizes the row-wise scheme's memory
and datapath overhead (Section 5), which
:meth:`~repro.quant.uniform.RowwiseUniformQuantizer.bits_per_element`
makes visible.
"""

from __future__ import annotations

import numpy as np

from ..base import Quantizer, finite_values

__all__ = ["Log2Quantizer"]


class Log2Quantizer(Quantizer):
    """Log2 quantization for non-negative attention probabilities.

    Codes are ``clip(round(-log2(p)), 0, 2^b - 1)``; dequantization returns
    ``2^(-code)``.  Exact zeros map to the largest code (smallest
    representable probability), as in FQ-ViT's log-int-softmax.
    """

    def __init__(self, bits: int):
        super().__init__(bits)

    def fit(self, x: np.ndarray) -> "Log2Quantizer":
        finite = finite_values(x)
        if finite.size and float(finite.min()) < -1e-6:
            raise ValueError("Log2Quantizer requires non-negative inputs")
        self.fitted = True
        return self

    def quantize(self, x: np.ndarray) -> np.ndarray:
        self._require_fitted()
        x = np.asarray(x, dtype=np.float64)
        max_code = 2**self.bits - 1
        with np.errstate(divide="ignore"):
            codes = np.rint(-np.log2(np.maximum(x, 0.0)))
        codes = np.where(np.isfinite(codes), codes, max_code)
        return np.clip(codes, 0, max_code).astype(np.int64)

    def dequantize(self, codes: np.ndarray) -> np.ndarray:
        self._require_fitted()
        return (2.0 ** (-codes.astype(np.float64))).astype(np.float32)

    def fake_quantize(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        out = self.dequantize(self.quantize(x))
        # Values quantized to the deepest code represent "effectively zero".
        max_code = 2**self.bits - 1
        out = np.where(
            self.quantize(x) == max_code, np.where(x < 2.0**-max_code, 0.0, out), out
        )
        return out.astype(np.float32)
