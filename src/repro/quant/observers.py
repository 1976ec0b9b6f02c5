"""Tap classification and calibration observation.

The models route every activation through named taps (see
:mod:`repro.nn.module`).  This module classifies each tap into the
dataflow categories of Figure 1 — which determines whether *partial*
quantization covers it — and provides the two dispatchers the PTQ
pipeline attaches: :class:`TapRecorder`, the one store of tap
observations (calibration tensors, their gradients, fingerprint samples
and attention maps), and :class:`QuantEnv`, which rewrites activations
through the fitted quantizers.
"""

from __future__ import annotations

from contextlib import contextmanager
from enum import Enum

import numpy as np

from ..autograd import Tensor, is_grad_enabled, straight_through
from ..nn.module import TapDispatcher
from .base import Quantizer

__all__ = ["TapKind", "classify_tap", "taps_for_coverage", "TapRecorder", "QuantEnv"]


class TapKind(Enum):
    """Dataflow category of a tap, following Figure 1's color coding."""

    WEIGHT = "weight"  # green: GEMM weights
    GEMM_INPUT = "gemm_input"  # green: Linear/MatMul input activations
    SOFTMAX_INPUT = "softmax_input"  # red: attention scores
    GELU_INPUT = "gelu_input"  # red: MLP hidden pre-activation
    NORM_INPUT = "norm_input"  # red: LayerNorm inputs
    RESIDUAL = "residual"  # red: element-wise addition operands


_GEMM_INPUT_SUFFIXES = (
    ".qkv.input",
    ".proj.input",
    ".fc1.input",
    ".fc2.input",
    ".head.input",
    ".head_dist.input",
    ".reduction.input",
    ".q",
    ".k",
    ".v",
    ".probs",
)
_NORM_SUFFIXES = (".final_norm_input", ".merge_norm_input")
_RESIDUAL_SUFFIXES = (".block_input", ".mid_input", ".attn_residual", ".mlp_residual")


def classify_tap(name: str) -> TapKind:
    """Map a tap's dotted name to its dataflow category."""
    if name.endswith(".weight"):
        return TapKind.WEIGHT
    if name.endswith(_GEMM_INPUT_SUFFIXES):
        return TapKind.GEMM_INPUT
    if name.endswith(".scores"):
        return TapKind.SOFTMAX_INPUT
    if name.endswith(".act.input"):
        return TapKind.GELU_INPUT
    if name.endswith(_NORM_SUFFIXES):
        return TapKind.NORM_INPUT
    if name.endswith(_RESIDUAL_SUFFIXES):
        return TapKind.RESIDUAL
    raise ValueError(f"cannot classify tap {name!r}")


#: Tap kinds covered by partial quantization (GEMM operands only, the green
#: components of Figure 1) vs full quantization (the whole dataflow).
_PARTIAL_KINDS = frozenset({TapKind.WEIGHT, TapKind.GEMM_INPUT})


def taps_for_coverage(kind: TapKind, coverage: str) -> bool:
    """Whether a tap of ``kind`` is quantized under the given coverage."""
    if coverage == "partial":
        return kind in _PARTIAL_KINDS
    if coverage == "full":
        return True
    raise ValueError(f"coverage must be 'partial' or 'full', got {coverage!r}")


class TapRecorder(TapDispatcher):
    """Keeps a copy of every tensor seen at its watched taps.

    It records on every route a tap value takes: as the model's dispatcher
    for float passes (:meth:`tap`), or through :meth:`record` as the
    recorder of :meth:`QuantEnv.recording` or ``PackedDatapath.recorder``,
    which see each tap's pre-quantization values.  ``taps=None`` watches
    every tap.  With ``grads``, each watched tap also keeps the gradient
    flowing back through it when gradients are enabled (for the
    Hessian-weighted search).  Tensors pass through unchanged, so a
    forward under a recorder is the float forward; the observations live
    here and are dropped with the recorder.
    """

    def __init__(self, taps=None, grads: bool = False):
        self.taps = None if taps is None else set(taps)
        self.grads = grads
        self.values: dict[str, list[np.ndarray]] = {}
        self.gradients: dict[str, list[np.ndarray]] = {}

    def observed(self, name: str) -> np.ndarray:
        """Every recorded tensor at ``name``, flattened and concatenated."""
        if name not in self.values:
            raise KeyError(f"no observations recorded for tap {name!r}")
        return np.concatenate([r.reshape(-1) for r in self.values[name]])

    def observed_gradients(self, name: str) -> np.ndarray:
        if name not in self.gradients:
            raise KeyError(f"no gradients recorded for tap {name!r}")
        return np.concatenate([g.reshape(-1) for g in self.gradients[name]])

    def record(self, name: str, data: np.ndarray) -> None:
        """Keep a copy of ``data`` if tap ``name`` is watched."""
        if self.taps is None or name in self.taps:
            self.values.setdefault(name, []).append(np.array(data, order="C"))

    def tap(self, name: str, value: Tensor) -> Tensor:
        self.record(name, value.data)
        # A watched tap has a record by now; only those keep gradients.
        if not (self.grads and is_grad_enabled() and name in self.values):
            return value
        store = self.gradients.setdefault(name, [])

        def capture(g):
            store.append(np.asarray(g, dtype=np.float32).copy())
            return (g,)

        return Tensor._make(value.data, (value,), capture)


class QuantEnv(TapDispatcher):
    """Tap dispatcher that fake-quantizes each tap through its fitted quantizer.

    Tensors pass through a straight-through node, so fake quantization is
    active in forward while gradients (when enabled) flow unchanged.  A
    tap without a quantizer is the identity.  The env quantizes whenever
    it is the model's dispatcher (:meth:`PTQPipeline.attach`); detaching
    it is what turns quantization off.  A ``recorder`` set through
    :meth:`recording` sees every tap's pre-quantization tensor.
    """

    def __init__(self):
        self.quantizers: dict[str, Quantizer] = {}
        # Recorder hook (``record(name, data)``: a TapRecorder, or a lane's
        # DriftMonitor); set only through ``recording``.
        self.recorder = None
        # Weight cache: weight taps always see the same parameter tensor
        # between calibrations, so their fake-quantized arrays are computed
        # once and replayed per batch.  ``PTQPipeline.install`` clears and
        # refills it; an entry is stale once its quantizer's
        # ``param_version`` moves (any refit) or the weight array is
        # replaced (every weight update in this codebase rebinds
        # ``param.data``, and the QAT path runs with gradients enabled,
        # which bypasses the cache entirely).
        self.weight_cache_enabled = True
        self.weight_cache_hits = 0
        self.weight_cache_misses = 0
        self._weight_cache: dict[str, tuple] = {}

    @contextmanager
    def recording(self, recorder):
        """Route every tap's pre-quantization tensor to ``recorder.record``
        for the duration of the block (``None`` records nothing)."""
        previous, self.recorder = self.recorder, recorder
        try:
            yield recorder
        finally:
            self.recorder = previous

    # ------------------------------------------------------------------
    def invalidate_weight_cache(self) -> None:
        """Drop every cached weight.

        ``PTQPipeline.install`` calls it whenever the set of fitted
        quantizers is replaced wholesale (recalibration, deserialization)
        — per-entry staleness from a refit or a weight rebind is caught by
        the entry checks instead.
        """
        self._weight_cache.clear()

    def cached_fake_weight(
        self, name: str, quantizer: Quantizer, data: np.ndarray
    ) -> np.ndarray:
        """The fake-quantized array for weight tap ``name``, cached.

        A hit requires the same weight array (by identity) and the same
        quantizer object at the same ``param_version`` — any mismatch
        recomputes, so the cached path is bit-exact with the uncached one
        by construction.

        ``quantizer.fake_quantize`` dispatches through the kernel
        registry, so both the cached fill and the uncached path honour
        ``REPRO_KERNELS`` (e.g. ``REPRO_KERNELS=reference`` during a
        bisection).  Because hits replay a stored array, flipping the
        env var mid-run only takes effect after
        :meth:`invalidate_weight_cache`.
        """
        entry = self._weight_cache.get(name)
        if (
            entry is not None
            and entry[0] is data
            and entry[1] is quantizer
            and entry[2] == quantizer.param_version
        ):
            self.weight_cache_hits += 1
            return entry[3]
        self.weight_cache_misses += 1
        quantized = np.asarray(quantizer.fake_quantize(data), dtype=np.float32)
        quantized.setflags(write=False)  # shared across batches: freeze it
        self._weight_cache[name] = (data, quantizer, quantizer.param_version, quantized)
        return quantized

    def weight_cache_info(self) -> dict:
        """JSON-serializable cache statistics (observability, tests)."""
        return {
            "enabled": self.weight_cache_enabled,
            "entries": len(self._weight_cache),
            "hits": self.weight_cache_hits,
            "misses": self.weight_cache_misses,
        }

    # ------------------------------------------------------------------
    def tap(self, name: str, value: Tensor) -> Tensor:
        if self.recorder is not None:
            self.recorder.record(name, value.data)
        quantizer = self.quantizers.get(name)
        if quantizer is None:
            return value
        if self.weight_cache_enabled and name.endswith(".weight") and not is_grad_enabled():
            # Static weight tap on the inference path: replay the cached
            # quantized array instead of re-fake-quantizing.  QAT
            # (gradients enabled) bypasses the cache because the weights
            # change every optimizer step.
            quantized = self.cached_fake_weight(name, quantizer, value.data)
            return straight_through(value, lambda _data: quantized)
        return straight_through(value, quantizer.fake_quantize)
