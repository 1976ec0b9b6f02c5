"""Extend the library with your own quantization scheme.

The PTQ pipeline works with any object implementing the
``repro.quant.Quantizer`` protocol (``fit`` + ``fake_quantize``; add
``scaled`` to opt into the Hessian-weighted grid search).  This example
plugs a simple percentile-clipped uniform quantizer into a full-coverage
pipeline (``observe`` the calibration set, fit the custom quantizers,
``install`` them), and compares it against BaseQ and QUQ on a trained
model.

    python examples/custom_quantizer.py
"""

import numpy as np

from repro.data import calibration_set, make_splits
from repro.models import get_trained_model
from repro.models.zoo import DATASET_SPEC
from repro.quant import PTQPipeline, Quantizer, UniformQuantizer
from repro.training import evaluate_top1


class PercentileClippedUniform(Quantizer):
    """Symmetric uniform quantization clipped at the 99.9th percentile.

    A classic outlier-robust heuristic: give up exactness on the extreme
    tail to buy resolution for the bulk.
    """

    def __init__(self, bits: int, percentile: float = 99.9):
        super().__init__(bits)
        self._inner = UniformQuantizer(bits, percentile=percentile)

    def fit(self, x: np.ndarray) -> "PercentileClippedUniform":
        self._inner.fit(x)
        self.fitted = True
        return self

    def fake_quantize(self, x: np.ndarray) -> np.ndarray:
        self._require_fitted()
        return self._inner.fake_quantize(x)

    def scaled(self, factor: float) -> "PercentileClippedUniform":
        clone = PercentileClippedUniform(self.bits)
        clone._inner = self._inner.scaled(factor)
        clone.fitted = True
        return clone


def evaluate_with(model, calib, val, bits, build):
    """Calibrate a full-coverage pipeline, then replace every fitted
    quantizer (weights included) with ``build(bits).fit(observations)``."""
    pipeline = PTQPipeline(model, method="baseq", bits=bits, coverage="full")
    pipeline.calibrate(calib)
    # One float pass records every covered tap; a weight tap records the
    # parameter tensor it passes.
    recorder = pipeline.observe(calib, pipeline.tap_names(), batch_size=len(calib))
    pipeline.install({
        name: build(bits).fit(recorder.observed(name)) if name in recorder.values else quantizer
        for name, quantizer in pipeline.env.quantizers.items()
    })
    accuracy = evaluate_top1(model, val)
    pipeline.detach()
    return accuracy


def main():
    model, fp32 = get_trained_model("vit_mini_s", verbose=True)
    train_set, val_set = make_splits(**DATASET_SPEC)
    calib = calibration_set(train_set, 32)
    val = val_set.subset(384, seed=0)

    print(f"FP32: {fp32:.2f}%")
    for bits in (6, 4):
        custom = evaluate_with(model, calib, val, bits, PercentileClippedUniform)
        print(f"{bits}-bit full, percentile-clipped uniform: {custom:.2f}%")

        from repro import quantize_model

        for method in ("baseq", "quq"):
            pipeline = quantize_model(model, calib, method=method, bits=bits,
                                      coverage="full", hessian=False)
            print(f"{bits}-bit full, {method}: {evaluate_top1(model, val):.2f}%")
            pipeline.detach()


if __name__ == "__main__":
    main()
