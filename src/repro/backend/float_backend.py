"""The float fake-quantization backend: today's tapped forward pass.

Wraps the historical serving path — the model's own forward with the PTQ
pipeline's tap dispatcher attached, fake-quantizing activations in float
and replaying cached pre-quantized weights — behind the
:class:`~repro.backend.base.ServingBackend` interface, so the registry
and engine treat it and the integer-native backend uniformly.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from ..autograd import Tensor, no_grad
from ..nn import Linear
from .base import ServingBackend

__all__ = ["FloatFakeQuantBackend"]


class FloatFakeQuantBackend(ServingBackend):
    """Tapped float forward with cached fake-quantization."""

    name = "float"

    def __init__(self, model, pipeline):
        self.model = model
        self.pipeline = pipeline
        self._batches = 0

    def predict(self, images: np.ndarray, recorder=None) -> np.ndarray:
        self._batches += 1
        if recorder is None or self.pipeline is None:
            recording = nullcontext()
        else:
            recording = self.pipeline.env.recording(recorder)
        self.model.eval()
        with recording, no_grad():
            return self.model(Tensor(images)).data

    def memory_info(self) -> dict:
        # Every GEMM weight: a Conv2d is a Linear over im2col patches.  A
        # model without a module tree (a serving-test stub) counts none.
        modules = getattr(self.model, "modules", list)
        float_bytes = sum(m.weight.data.nbytes for m in modules() if isinstance(m, Linear))
        return {"packed_weight_bytes": 0, "float_weight_bytes": int(float_bytes)}

    def counters(self) -> dict:
        return {"batches_total": self._batches}
