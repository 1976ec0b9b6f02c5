"""Backend interface: how a servable model turns image batches into logits.

A :class:`ServingBackend` owns one loaded model's inference strategy.  The
registry builds one per entry (selected by the ``backend`` segment of the
model spec) and the serving engine calls :meth:`predict` for every batch;
:meth:`memory_info` and :meth:`counters` feed the registry snapshot so
operators can see what each entry costs and how it is being exercised.

Two implementations exist:

* :class:`~repro.backend.float_backend.FloatFakeQuantBackend` — the tapped
  float forward pass with cached fake-quantization (the historical path).
* :class:`~repro.backend.int_backend.IntNativeBackend` — the integer
  walk of :mod:`repro.hw.walk` over QUB-packed weights and batched
  integer GEMM / shift-requantize kernels; bit-exact with
  :class:`repro.hw.executor.ModelExecutor`, which runs the same walk on
  the behavioral accelerator (:class:`repro.hw.accelerator.QUA`).

Backends assume the caller serializes :meth:`predict` calls per instance
(the :class:`~repro.serve.registry.ServableModel` lock does this); they
keep no per-call locks of their own.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ServingBackend", "BACKEND_NAMES"]

#: Valid values of the model spec's backend segment.
BACKEND_NAMES = ("float", "int")


class ServingBackend:
    """One model's inference strategy behind the serving hot path."""

    #: Short identifier, also the spec segment that selects the backend.
    name: str = "?"

    def predict(self, images: np.ndarray, recorder=None) -> np.ndarray:
        """Logits for a batch of images.

        ``recorder`` (a lane's :class:`~repro.quant.drift.DriftMonitor`, or
        any object with ``record(name, data)``) is fed the
        *pre-quantization* activation values at every quantized tap, so
        drift monitoring sees the same distributions regardless of which
        backend serves the batch.
        """
        raise NotImplementedError

    def memory_info(self) -> dict:
        """Weight-storage accounting (bytes), JSON-serializable."""
        return {}

    def counters(self) -> dict:
        """Monotonic usage counters (batches served, kernel calls)."""
        return {}

    def describe(self) -> dict:
        """Registry-snapshot view: name + memory + counters."""
        return {"backend": self.name, **self.memory_info(), **self.counters()}
