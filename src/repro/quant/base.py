"""Quantizer protocol shared by QUQ and every baseline."""

from __future__ import annotations

import numpy as np

__all__ = ["Quantizer", "finite_values"]


def finite_values(x: np.ndarray, dtype=np.float64) -> np.ndarray:
    """``x`` flattened (as ``dtype``; ``None`` keeps its own) with NaN and
    ±Inf dropped.

    Every quantizer's ``fit`` reads its data through here, so the finite
    values alone choose the parameters: one stray Inf cannot blow a range
    out to infinity, nor a NaN poison a scale factor.  All-finite data
    comes back as is, without a filtered copy.
    """
    flat = np.asarray(x, dtype=dtype).reshape(-1)
    finite = np.isfinite(flat)
    return flat if finite.all() else flat[finite]


class Quantizer:
    """A post-training quantizer for one tensor (weight or activation).

    Life cycle: construct with a bit-width, :meth:`fit` on calibration data,
    then :meth:`fake_quantize` during inference (quantize-dequantize round
    trip in float, the standard PTQ simulation).  Implementations that
    support a real integer datapath also expose ``quantize``/``dequantize``.
    """

    def __init__(self, bits: int):
        if bits < 2:
            raise ValueError(f"bit-width must be >= 2, got {bits}")
        self.bits = bits
        self._fitted = False
        self.param_version = 0

    @property
    def fitted(self) -> bool:
        return self._fitted

    @fitted.setter
    def fitted(self, value: bool) -> None:
        # Every (re)fit — fit(), a serialization restore, a scaled() clone —
        # marks itself by setting ``fitted = True``, so the version counter
        # advances whenever the quantization parameters may have changed.
        # Caches of quantized outputs (the weight cache in
        # :mod:`repro.quant.observers`) key on this counter to invalidate.
        if value:
            self.param_version += 1
        self._fitted = bool(value)

    def fit(self, x: np.ndarray) -> "Quantizer":
        """Choose quantization parameters from calibration tensor ``x``."""
        raise NotImplementedError

    def fake_quantize(self, x: np.ndarray) -> np.ndarray:
        """Quantize-dequantize ``x`` (same shape, discretized values)."""
        raise NotImplementedError

    def bits_per_element(self) -> float:
        """Storage cost of one quantized element, in bits.

        Used by the memory accounting; schemes with side tables (e.g.
        BiScaled-FxP's outlier index) report their amortized overhead here.
        """
        return float(self.bits)

    def _require_fitted(self) -> None:
        if not self.fitted:
            raise RuntimeError(f"{type(self).__name__} used before fit()")
