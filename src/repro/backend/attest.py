"""Bit-exactness attestation for the integer-native backend.

The int backend's claim is strong: it does *not* approximate the QUA
reference executor, it reproduces it bit for bit — the packed weights
decode to the same integers ``encode_tensor`` would produce, the fused
activation kernels emit the same codes, and the float glue copies the
reference operation order.  This module turns that claim into a runtime
check: run both stacks on the same batch and require ``array_equal`` on
the logits, in both SFU modes.  The backend test suite gates on the
result at every serving width, so a refactor that silently breaks
equivalence fails the build rather than shipping a subtly different model.

Alongside the hard gate it reports soft diagnostics: worst-case logit
divergence from the *fake-quantized* float model (the accuracy-table
reference — expected small but nonzero, since store/load rounding orders
differ) and the packed-weight memory summary.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, no_grad
from ..hw.executor import ModelExecutor
from .int_backend import IntNativeBackend

__all__ = ["attest_int_backend"]


def attest_int_backend(
    model,
    pipeline,
    images: np.ndarray,
    bits: int | None = None,
    integer_sfu: bool = False,
    backend: IntNativeBackend | None = None,
) -> dict:
    """Attest one batch: int backend vs reference executor vs float model.

    Returns a JSON-serializable report whose ``bit_exact`` field is the
    hard gate (logits of :class:`IntNativeBackend` must equal
    :class:`ModelExecutor`'s exactly); ``float_max_abs_diff`` and
    ``float_top1_agreement`` compare against the fake-quantized forward
    pass for context.  Pass ``backend`` to attest an already-built
    instance (e.g. the one a registry entry serves) instead of building
    a fresh one.
    """
    images = np.asarray(images)
    if backend is None:
        backend = IntNativeBackend(model, pipeline, bits=bits, integer_sfu=integer_sfu)
    executor = ModelExecutor(
        backend.model,
        backend.pipeline,
        bits=backend.bits,
        integer_sfu=backend.integer_sfu,
    )

    int_logits = backend.predict(images)
    ref_logits = executor.run(images)

    backend.model.eval()
    with no_grad():
        float_logits = backend.model(Tensor(images)).data

    bit_exact = bool(np.array_equal(int_logits, ref_logits))
    report = {
        "bits": backend.bits,
        "integer_sfu": backend.integer_sfu,
        "batch": int(images.shape[0]),
        "bit_exact": bit_exact,
        "executor_max_abs_diff": float(np.max(np.abs(int_logits - ref_logits)))
        if int_logits.shape == ref_logits.shape
        else float("inf"),
        "float_max_abs_diff": float(np.max(np.abs(int_logits - float_logits))),
        "float_top1_agreement": float(
            np.mean(int_logits.argmax(axis=-1) == float_logits.argmax(axis=-1))
        ),
        "memory": backend.memory_info(),
    }
    return report
