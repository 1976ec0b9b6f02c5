"""Integer-native serving backend: batched QUA kernels, packed weights.

Runs a calibrated QUQ model the way the accelerator would — activations
quantize through the fused four-slot kernels into shifted integers, every
GEMM is an int64 matmul against QUB-packed weights decoded by LUT, and
requantization is the Eq. (6)-(7) shift/scale.  The step order and all
float glue are the integer walk of :mod:`repro.hw.walk`, the same walk
:class:`repro.hw.executor.ModelExecutor` runs on the behavioral QUA, so
``predict`` is bit-exact with ``ModelExecutor.run`` by construction (same
op order, same GEMM and SFU kernels) wherever the two datapaths encode
alike; the backend test suite checks that they do.

:class:`PackedDatapath` differs from the QUA datapath
(:class:`repro.hw.accelerator.QUA`) only mechanically:

* weights are encoded and bit-packed **once** at build time
  (:class:`~repro.backend.packed.PackedWeightStore`) instead of
  re-encoded from float on every call — the memory story;
* each activation tap builds one
  :class:`~repro.backend.kernels.FusedEncoder` on first use and reuses its
  tables instead of running the QUB encode per tensor, and quantizes in
  one in-place pass per tap (the fast implementation of registry ops
  ``qub.shifted`` / ``qub.store_load``, :meth:`FusedEncoder.shifted_f64`):
  one float64 codes buffer, one selector and a few boolean masks, and no
  int64 round trip on the store/load path — the latency story.  Most of the old
  encoder time was allocation, not arithmetic: on a 1 MB tap tensor
  (8x66x256 float64, one Xeon vCPU, NumPy 2.4) ``np.rint(x / d)`` took
  0.7-1.0 ms into fresh arrays and 0.14 ms into ``out=`` buffers,
  because page-faulting new memory costs 5-7x the arithmetic;
* no fault sites: a stored tensor is never re-fetched through parity or
  TMR, and no accumulator can flip.
"""

from __future__ import annotations

import numpy as np

from ..hw.walk import check_walkable, run_model
from ..kernels import get_kernel
from ..quant.qmodel import PTQPipeline
from .base import ServingBackend
from .kernels import FusedEncoder
from .packed import PackedWeightStore

__all__ = ["IntNativeBackend", "PackedDatapath"]


class PackedDatapath:
    """The walk's serving datapath: per-tap encoders, packed weights, ``gemm.int``.

    Activations quantize through their tap's encoder, built on the tap's
    first use and owned here (:meth:`FusedEncoder.shifted`,
    :meth:`FusedEncoder.store_load`), weights decode from the store
    (:meth:`PackedWeight.shifted`), and every GEMM is one ``gemm.int``
    dispatch.  A ``recorder`` set for a batch sees every tap's
    pre-quantization values.
    """

    def __init__(self, pipeline: PTQPipeline, weights: PackedWeightStore, bits: int):
        self.pipeline = pipeline
        self.weights = weights
        self.bits = bits
        self.recorder = None
        self.encoders: dict[str, FusedEncoder] = {}
        self.gemm_calls = self.store_load_calls = 0

    def _encoder(self, values: np.ndarray, tap: str) -> FusedEncoder:
        if self.recorder is not None:
            # Pre-quantization values, same as the float path's tap hook,
            # so drift fingerprints compare like with like.
            self.recorder.record(tap, values)
        encoder = self.encoders.get(tap)
        if encoder is None:
            encoder = FusedEncoder(self.pipeline.quantizer_for(tap).params, self.bits)
            self.encoders[tap] = encoder
        return encoder

    def _gemm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        self.gemm_calls += 1
        return get_kernel("gemm.int")(a, b)

    def store_load(self, values: np.ndarray, tap: str) -> np.ndarray:
        self.store_load_calls += 1
        return self._encoder(values, tap).store_load(values)

    def linear(self, values: np.ndarray, name: str, layer) -> tuple[np.ndarray, float]:
        encoder = self._encoder(values, f"{name}.input")
        weight = self.weights[f"{name}.weight"]
        acc = self._gemm(encoder.shifted(values), weight.shifted())
        return acc, encoder.base_delta * weight.base_delta

    def matmul(self, a, a_tap: str, b, b_tap: str, site: str) -> tuple[np.ndarray, float]:
        ea, eb = self._encoder(a, a_tap), self._encoder(b, b_tap)
        return self._gemm(ea.shifted(a), eb.shifted(b)), ea.base_delta * eb.base_delta


class IntNativeBackend(ServingBackend):
    """Batched integer inference over a calibrated QUQ pipeline."""

    name = "int"

    def __init__(self, model, pipeline: PTQPipeline, bits: int | None = None,
                 integer_sfu: bool = False):
        check_walkable(pipeline, model)
        self.model = model
        self.pipeline = pipeline
        self.bits = pipeline.bits if bits is None else bits
        self.integer_sfu = integer_sfu
        self.weights = PackedWeightStore.from_pipeline(model, pipeline, self.bits)
        self.datapath = PackedDatapath(pipeline, self.weights, self.bits)
        self._batches = 0

    def predict(self, images: np.ndarray, recorder=None) -> np.ndarray:
        """Logits for a batch: the integer walk on the packed datapath."""
        self._batches += 1
        self.datapath.recorder = recorder
        return run_model(self.datapath, self.model, images, self.integer_sfu)

    def memory_info(self) -> dict:
        return self.weights.summary()

    def counters(self) -> dict:
        return {
            "batches_total": self._batches,
            "int_gemm_calls": self.datapath.gemm_calls,
            "int_store_load_calls": self.datapath.store_load_calls,
        }
