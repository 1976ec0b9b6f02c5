"""Pluggable serving backends for quantized inference.

Two implementations of one interface (:class:`ServingBackend`):

``float``
    :class:`FloatFakeQuantBackend` — the historical path: the model's own
    forward pass with fake-quantization simulated in float and cached
    pre-quantized weights.
``int``
    :class:`IntNativeBackend` — batched integer-native execution: the
    integer walk of :mod:`repro.hw.walk` over QUB bit-packed weight
    storage (:class:`PackedWeightStore`, also the exported artifact's
    weight format), in-place activation encoders
    (:class:`FusedEncoder`), int64 GEMMs, and the integer SFUs of
    :mod:`repro.hw.int_sfu`.  The reference
    :class:`repro.hw.executor.ModelExecutor` runs the same walk on the
    behavioral QUA, so the two are bit-exact by construction; the backend
    test suite checks the datapaths against each other and the walk
    against the float model.

The serve registry picks a backend per model spec (``.../int`` suffix)
and the engine dispatches through it uniformly; see DESIGN.md for the
selection and parity story.
"""

from .base import BACKEND_NAMES, ServingBackend
from .float_backend import FloatFakeQuantBackend
from .int_backend import IntNativeBackend
from .kernels import FusedEncoder, decode_lut
from .packed import PackedWeight, PackedWeightStore

__all__ = [
    "BACKEND_NAMES",
    "ServingBackend",
    "FloatFakeQuantBackend",
    "IntNativeBackend",
    "FusedEncoder",
    "decode_lut",
    "PackedWeight",
    "PackedWeightStore",
    "make_backend",
]


def make_backend(name: str, model, pipeline, bits: int | None = None) -> ServingBackend:
    """Build the backend ``name`` (``"float"`` or ``"int"``) for a model."""
    if name == "float":
        return FloatFakeQuantBackend(model, pipeline)
    if name == "int":
        return IntNativeBackend(model, pipeline, bits=bits)
    raise ValueError(f"unknown backend {name!r}; expected one of {BACKEND_NAMES}")
