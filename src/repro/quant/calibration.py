"""Alternative range-calibration strategies for the uniform baselines.

The paper fits BaseQ with the plain abs-max rule; production PTQ toolkits
offer more robust range estimators, which we provide both as an ablation
axis and to make the BaseQ baseline as strong as possible:

* :func:`absmax_bound` — the default (max |x|).
* :func:`percentile_bound` — clip at a magnitude percentile.
* :func:`mse_bound` — sweep clip candidates, keep the MSE minimizer.
* :func:`kl_bound` — TensorRT-style: minimize the KL divergence between
  the clipped-and-quantized histogram and the original distribution.

:func:`calibrated_uniform` wires any of them into a
:class:`~repro.quant.uniform.UniformQuantizer`.
"""

from __future__ import annotations

import numpy as np

from .base import finite_values
from .uniform import UniformQuantizer

__all__ = [
    "absmax_bound",
    "percentile_bound",
    "mse_bound",
    "kl_bound",
    "calibrated_uniform",
    "CALIBRATION_STRATEGIES",
]


#: Smallest bound any strategy may return: keeps the derived scale factor
#: strictly positive even for all-zero, constant, or denormal-magnitude
#: calibration tensors (a zero or NaN scale would poison every later
#: quantize call with divide-by-zero).
_MIN_BOUND = 1e-12


def absmax_bound(x: np.ndarray, bits: int) -> float:
    """The largest (finite) magnitude — no clipping."""
    magnitudes = np.abs(finite_values(x))
    if magnitudes.size == 0 or magnitudes.max() == 0:
        return 1.0
    return max(float(magnitudes.max()), _MIN_BOUND)


def percentile_bound(x: np.ndarray, bits: int, percentile: float = 99.9) -> float:
    """Magnitude percentile (clips the extreme tail)."""
    magnitudes = np.abs(finite_values(x))
    if magnitudes.size == 0 or magnitudes.max() == 0:
        return 1.0
    return max(float(np.percentile(magnitudes, percentile)), _MIN_BOUND)


def mse_bound(x: np.ndarray, bits: int, candidates: int = 20) -> float:
    """Sweep clip bounds; return the quantization-MSE minimizer."""
    flat = finite_values(x)
    if flat.size == 0:
        return 1.0
    max_mag = float(np.abs(flat).max())
    if max_mag == 0:
        return 1.0
    levels = 2 ** (bits - 1) - 1
    best_bound, best_err = max_mag, None
    for fraction in np.linspace(0.3, 1.0, candidates):
        bound = max_mag * fraction
        delta = bound / levels
        quantized = np.clip(np.rint(flat / delta), -levels - 1, levels) * delta
        err = float(np.mean((quantized - flat) ** 2))
        if best_err is None or err < best_err:
            best_bound, best_err = bound, err
    return max(best_bound, _MIN_BOUND)


def kl_bound(x: np.ndarray, bits: int, histogram_bins: int = 1024) -> float:
    """TensorRT-style KL calibration on the magnitude histogram.

    For each candidate clip point, the reference distribution (counts up
    to the clip, tail folded into the last bin) is compared against its
    quantized re-expansion over ``2^(bits-1)`` levels; the candidate with
    the smallest KL divergence wins.
    """
    flat = np.abs(finite_values(x))
    if flat.size == 0 or flat.max() == 0:
        return 1.0
    counts, edges = np.histogram(flat, bins=histogram_bins)
    target_levels = 2 ** (bits - 1)

    best_bound, best_divergence = float(flat.max()), None
    for stop in range(target_levels * 2, histogram_bins + 1, max(1, histogram_bins // 64)):
        reference = counts[:stop].astype(np.float64).copy()
        reference[-1] += counts[stop:].sum()  # fold the clipped tail in
        if reference.sum() == 0:
            continue

        # Re-expand: group `stop` bins into `target_levels` buckets.
        groups = np.array_split(np.arange(stop), target_levels)
        quantized = np.zeros(stop)
        for group in groups:
            occupied = counts[group] > 0
            total = reference[group].sum()
            if occupied.sum():
                quantized[group[occupied]] = total / occupied.sum()

        p = reference / reference.sum()
        q = quantized / max(quantized.sum(), 1e-12)
        mask = p > 0
        divergence = float(np.sum(p[mask] * np.log(p[mask] / np.maximum(q[mask], 1e-12))))
        if best_divergence is None or divergence < best_divergence:
            best_divergence = divergence
            best_bound = float(edges[stop])
    return max(best_bound, _MIN_BOUND)


CALIBRATION_STRATEGIES = {
    "absmax": absmax_bound,
    "percentile": percentile_bound,
    "mse": mse_bound,
    "kl": kl_bound,
}


def calibrated_uniform(x: np.ndarray, bits: int, strategy: str = "absmax") -> UniformQuantizer:
    """Fit a symmetric uniform quantizer with the chosen range strategy."""
    if strategy not in CALIBRATION_STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; choices: {sorted(CALIBRATION_STRATEGIES)}"
        )
    bound = CALIBRATION_STRATEGIES[strategy](np.asarray(x), bits)
    quantizer = UniformQuantizer(bits)
    quantizer.delta = max(bound, 1e-12) / (2 ** (bits - 1) - 1)
    quantizer.fitted = True
    return quantizer
