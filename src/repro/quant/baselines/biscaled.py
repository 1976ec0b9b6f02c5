"""BiScaled-FxP baseline (Jain et al., DAC 2019).

Two scale factors per tensor: a fine one for the bulk of the data and a
coarse one for outliers, plus an *index table* recording which elements are
outliers.  The paper reproduces this method for ViTs (Table 3) and notes
two weaknesses QUQ avoids: the index table's unpredictable overhead when
outliers are numerous, and poor handling of asymmetric distributions
(BiScaled shares one split threshold across both signs).

The split threshold is chosen by minimizing calibration MSE over a sweep
of candidate outlier fractions, which is the strongest reasonable variant
(the original picks the fraction heuristically).
"""

from __future__ import annotations

import numpy as np

from ..base import Quantizer, finite_values

__all__ = ["BiScaledQuantizer"]


class BiScaledQuantizer(Quantizer):
    """Two-scale symmetric quantizer with an outlier index table."""

    #: Candidate outlier fractions swept during fit.  Capped at 1%: the
    #: scheme's premise is that outliers are *rare* (the index table stores
    #: one entry per outlier, and the paper's Section 5 criticism is
    #: precisely its "unpredictable overhead when there are numerous
    #: outliers to be indexed").  Letting the search choose dense outlier
    #: sets would turn it into a different, more expensive scheme.
    CANDIDATE_FRACTIONS = (0.001, 0.003, 0.01)

    def __init__(self, bits: int):
        super().__init__(bits)
        self.delta_bulk: float = 0.0
        self.delta_outlier: float = 0.0
        self.threshold: float = 0.0
        self._outlier_fraction: float = 0.0

    def _quantize_with(
        self, x: np.ndarray, threshold: float, delta_bulk: float, delta_outlier: float
    ) -> np.ndarray:
        low, high = -(2 ** (self.bits - 1)), 2 ** (self.bits - 1) - 1
        outlier = np.abs(x) > threshold
        bulk_codes = np.clip(np.rint(x / delta_bulk), low, high)
        outlier_codes = np.clip(np.rint(x / delta_outlier), low, high)
        return np.where(outlier, outlier_codes * delta_outlier, bulk_codes * delta_bulk)

    def fit(self, x: np.ndarray) -> "BiScaledQuantizer":
        flat = finite_values(x)
        magnitudes = np.abs(flat)
        max_mag = float(magnitudes.max()) if flat.size else 1.0
        levels = 2 ** (self.bits - 1) - 1

        best = None
        for fraction in self.CANDIDATE_FRACTIONS:
            threshold = float(np.quantile(magnitudes, 1.0 - fraction)) if flat.size else 1.0
            if threshold <= 0:
                continue
            delta_bulk = threshold / levels
            delta_outlier = max(max_mag, threshold) / levels
            err = float(
                np.mean(
                    (self._quantize_with(flat, threshold, delta_bulk, delta_outlier) - flat)
                    ** 2
                )
            )
            if best is None or err < best[0]:
                best = (err, threshold, delta_bulk, delta_outlier, fraction)

        if best is None:  # degenerate input (all zeros)
            self.threshold, self.delta_bulk, self.delta_outlier = 0.0, 1.0, 1.0
            self._outlier_fraction = 0.0
        else:
            _, self.threshold, self.delta_bulk, self.delta_outlier, fraction = best
            self._outlier_fraction = fraction
        self.fitted = True
        return self

    def fake_quantize(self, x: np.ndarray) -> np.ndarray:
        self._require_fitted()
        x = np.asarray(x, dtype=np.float64)
        return self._quantize_with(
            x, self.threshold, self.delta_bulk, self.delta_outlier
        ).astype(np.float32)

    def scaled(self, factor: float) -> "BiScaledQuantizer":
        """Copy with both scales (and the split threshold) rescaled."""
        self._require_fitted()
        clone = BiScaledQuantizer(self.bits)
        clone.delta_bulk = self.delta_bulk * factor
        clone.delta_outlier = self.delta_outlier * factor
        clone.threshold = self.threshold * factor
        clone._outlier_fraction = self._outlier_fraction
        clone.fitted = True
        return clone

    def bits_per_element(self) -> float:
        self._require_fitted()
        # The index table stores one entry per outlier; following the
        # original's sparse-index format we charge 16 bits per entry,
        # amortized over the tensor.
        return self.bits + 16.0 * self._outlier_fraction
