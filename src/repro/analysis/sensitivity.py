"""Per-tap quantization sensitivity analysis.

Measures how much each tap (or group of taps) contributes to accuracy loss
by enabling quantization one group at a time — the diagnostic behind the
paper's observation that the hard-to-quantize activations (LayerNorm /
residual / Softmax inputs) dominate the full-quantization gap, and the
signal the mixed-precision allocator (:mod:`repro.quant.mixed`) consumes.
"""

from __future__ import annotations

import numpy as np

from ..quant.observers import TapKind, classify_tap
from ..quant.qmodel import PTQPipeline
from ..training import predict_logits

__all__ = ["kind_sensitivity", "tap_sensitivity"]


def _logit_distortion(model, images: np.ndarray, reference: np.ndarray) -> float:
    quantized = predict_logits(model, images)
    return float(np.mean((quantized - reference) ** 2))


def kind_sensitivity(
    pipeline: PTQPipeline, images: np.ndarray
) -> dict[str, float]:
    """Mean-squared logit distortion when quantizing one tap *kind* at a time.

    The pipeline must be calibrated; its quantizer set is temporarily
    restricted per kind and restored afterwards, also when a pass raises.
    """
    if not pipeline.calibrated:
        raise RuntimeError("calibrate the pipeline first")
    model = pipeline.model
    all_quantizers = dict(pipeline.env.quantizers)

    results: dict[str, float] = {}
    try:
        pipeline.env.quantizers = {}
        reference = predict_logits(model, images)
        for kind in TapKind:
            selected = {
                name: quantizer
                for name, quantizer in all_quantizers.items()
                if classify_tap(name) is kind
            }
            if not selected:
                continue
            pipeline.env.quantizers = selected
            results[kind.value] = _logit_distortion(model, images, reference)
    finally:
        pipeline.env.quantizers = all_quantizers
    return results


def tap_sensitivity(
    pipeline: PTQPipeline, images: np.ndarray, taps: list[str] | None = None
) -> dict[str, float]:
    """Per-tap logit distortion (quantizing exactly one tap at a time).

    Expensive (one forward sweep per tap); restrict with ``taps`` when only
    a subset matters.
    """
    if not pipeline.calibrated:
        raise RuntimeError("calibrate the pipeline first")
    model = pipeline.model
    all_quantizers = dict(pipeline.env.quantizers)
    taps = taps if taps is not None else sorted(all_quantizers)

    results: dict[str, float] = {}
    try:
        pipeline.env.quantizers = {}
        reference = predict_logits(model, images)
        for name in taps:
            pipeline.env.quantizers = {name: all_quantizers[name]}
            results[name] = _logit_distortion(model, images, reference)
    finally:
        pipeline.env.quantizers = all_quantizers
    return results
