"""Built-in kernel registrations: every op the serving paths dispatch.

Imported lazily by :mod:`repro.kernels` on first dispatch (never at
package-import time), so this module may import freely from ``quant``,
``backend`` and ``hw`` without cycles — by the time a kernel is *called*
those modules are fully loaded.  It must **not** import
``hw.accelerator``, ``hw.executor`` or the serving backends: those are
registry *callers*, and importing them here would close the loop.

Registered ops, one ``KERNELS.register(op, reference, fast)`` line each:

===================  =====================  ==============================
op                   reference              fast
===================  =====================  ==============================
``quq.fake_quantize``quantize->dequantize   one in-place float64 pass on
                                            the shared four-slot route
``qub.shifted``      encode, decode,        one-pass
                     ``D << n_sh``          :meth:`FusedEncoder.shifted_f64`
``qub.store_load``   encode, decode,        float64 throughout
                     ``to_float`` formula
``qub.pack``         pure-Python bit loop   vectorized ``np.packbits``
``qub.decode_lut``   fresh table per call   shared per ``(registers, bits)``
``gemm.int``         int64 matmul           exact-window BLAS float64
``sfu.softmax``      ``hw.int_sfu``         (none)
``sfu.gelu``         ``hw.int_sfu``         (none)
``sfu.layernorm``    ``hw.int_sfu``         (none)
===================  =====================  ==============================

The encode is :func:`repro.quant.qub.quantize_encode`, the spec path
(Eq. 3, then the QUB words).  The ``sfu.*`` ops have one implementation
each; they are registered so the integer walk's SFU calls dispatch, and
count, like every other kernel.  The harness in
:mod:`repro.kernels.parity` (and the hypothesis suite in ``tests/``)
requires every fast implementation to equal its reference bit for bit
over fitted and hand-built parameters and adversarial inputs.
"""

from __future__ import annotations

import threading

import numpy as np

from ..backend.kernels import FusedEncoder, decode_lut
from ..hw.int_sfu import i_gelu, i_layernorm, i_softmax
from ..quant.params import QUQParams
from ..quant.qub import (
    FCRegisters,
    decode,
    legalize_for_hardware,
    pack_qub_words,
    quantize_encode,
)
from ..quant.quq import fake_quantize_with_params, quantize_with_params
from . import KERNELS

__all__ = ["fused_encoder", "cache_info", "clear_caches"]

_CACHE_LOCK = threading.Lock()


# ---------------------------------------------------------------------------
# quq.* — quantization kernels
# ---------------------------------------------------------------------------

def _fake_quantize_reference(x: np.ndarray, params: QUQParams) -> np.ndarray:
    """The value a round trip through the code path produces: float32, ``x``'s
    shape, for any float input."""
    return quantize_with_params(x, params).dequantize()


KERNELS.register("quq.fake_quantize", _fake_quantize_reference, fake_quantize_with_params)


# ---------------------------------------------------------------------------
# qub.* — hardware encoding kernels
# ---------------------------------------------------------------------------

#: Fused encoders memoized per (legal params, bits) — QUQParams is frozen,
#: so equal parameter sets (e.g. successive batches at one tap) share the
#: precomputed tables instead of rebuilding them per construction.  An
#: encoder is filed under its legalized params (its own ``params``) and
#: under the raw params it was asked for, so both resolve to one instance
#: with one dict lookup, and legalization runs only on a miss.
_ENCODER_CACHE: dict[tuple[QUQParams, int], FusedEncoder] = {}


def _shared_encoder(params: QUQParams, bits: int) -> tuple[FusedEncoder, bool]:
    """``(encoder, cache_hit)`` for ``(params, bits)``, uncounted."""
    key = (params, bits)
    with _CACHE_LOCK:
        encoder = _ENCODER_CACHE.get(key)
    if encoder is not None:
        return encoder, True
    legal_key = (legalize_for_hardware(params), bits)
    with _CACHE_LOCK:
        encoder = _ENCODER_CACHE.get(legal_key)
    hit = encoder is not None
    if not hit:
        encoder = FusedEncoder(params, bits)
    with _CACHE_LOCK:
        encoder = _ENCODER_CACHE.setdefault(legal_key, encoder)
        _ENCODER_CACHE[key] = encoder
    return encoder, hit


def fused_encoder(params: QUQParams, bits: int) -> FusedEncoder:
    """The shared :class:`FusedEncoder` for ``(params, bits)`` (memoized).

    Each lookup counts under ``qub.encode:cache_hit`` or
    ``qub.encode:cache_miss``, the keys the serving snapshot reports.
    """
    encoder, hit = _shared_encoder(params, bits)
    KERNELS.count("qub.encode:cache_hit" if hit else "qub.encode:cache_miss")
    return encoder


def _decoded_words(
    x: np.ndarray, params: QUQParams, bits: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """``(D, n_sh, base_delta)`` of the encode's QUB words for ``x``.

    Raises :class:`ValueError` when the legalized ``params.bits`` exceed
    the QUB width ``bits``.
    """
    qubs, registers, base_delta = quantize_encode(x, params, bits)
    return *decode(qubs, registers, bits), base_delta


def _shifted_reference(
    x: np.ndarray, params: QUQParams, bits: int
) -> np.ndarray:
    """``D << n_sh`` of the encode's words: the PE-array operand, int64."""
    d, n_sh, _ = _decoded_words(x, params, bits)
    return d << n_sh


def _shifted_inplace(
    x: np.ndarray, params: QUQParams, bits: int
) -> np.ndarray:
    """:meth:`FusedEncoder.shifted_f64` cast to int64: ``D * 2**n_sh`` is an
    exact integer, so the cast equals the decoded words' ``D << n_sh``."""
    # The backend's own encoder for this tap; the lookup is not a
    # ``qub.encode`` cache event (see fused_encoder), so it is not counted.
    encoder, _ = _shared_encoder(params, bits)
    out = np.empty(np.shape(x), dtype=np.int64)
    # The output's bytes double as the pass's scratch until the cast.
    shifted = encoder.shifted_f64(x, out.view(np.float64))
    np.copyto(out, shifted, casting="unsafe")
    return out


def _store_load_reference(
    x: np.ndarray, params: QUQParams, bits: int
) -> np.ndarray:
    """The encode's words reloaded, float64: the ``EncodedTensor.to_float()``
    formula ``(D * 2**n_sh) * base_delta``."""
    d, n_sh, base_delta = _decoded_words(x, params, bits)
    return (d.astype(np.float64) * (1 << n_sh).astype(np.float64)) * base_delta


def _store_load_inplace(
    x: np.ndarray, params: QUQParams, bits: int
) -> np.ndarray:
    """The reference's float operation order (``D * 2**n_sh``, then
    ``* base_delta``) without the QUB words."""
    encoder, _ = _shared_encoder(params, bits)
    values = encoder.shifted_f64(x)
    # +0.0 turns a -0.0 code into the +0.0 an int64 round trip gives.
    np.add(values, 0.0, out=values)
    np.multiply(values, encoder.base_delta, out=values)
    return values


KERNELS.register("qub.shifted", _shifted_reference, _shifted_inplace)
KERNELS.register("qub.store_load", _store_load_reference, _store_load_inplace)


def _pack_words_reference(qubs: np.ndarray, bits: int) -> np.ndarray:
    """Pure-Python MSB-first bitstream packer (the format specification)."""
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")
    words = np.asarray(qubs).reshape(-1).astype(np.uint32)
    if words.size and int(words.max()) >> bits:
        raise ValueError(f"QUB word exceeds {bits} bits")
    out = bytearray((int(words.size) * bits + 7) // 8)
    position = 0
    for word in words.tolist():
        for offset in range(bits - 1, -1, -1):
            if (word >> offset) & 1:
                out[position >> 3] |= 1 << (7 - (position & 7))
            position += 1
    return np.frombuffer(bytes(out), dtype=np.uint8).copy()


KERNELS.register("qub.pack", _pack_words_reference, pack_qub_words)


#: Decode LUTs shared per (registers, bits) — FCRegisters is frozen, so
#: every packed weight under one register pair gathers from one
#: write-protected table instead of rebuilding it per construction.
_LUT_CACHE: dict[tuple[FCRegisters, int], np.ndarray] = {}


def _decode_lut_cached(registers: FCRegisters, bits: int) -> np.ndarray:
    """:func:`decode_lut`, computed once per ``(registers, bits)`` and
    shared read-only."""
    key = (registers, bits)
    with _CACHE_LOCK:
        lut = _LUT_CACHE.get(key)
    if lut is not None:
        KERNELS.count("qub.decode_lut:cache_hit")
        return lut
    lut = decode_lut(registers, bits)
    lut.setflags(write=False)  # shared across consumers: no mutation
    with _CACHE_LOCK:
        lut = _LUT_CACHE.setdefault(key, lut)
    KERNELS.count("qub.decode_lut:cache_miss")
    return lut


KERNELS.register("qub.decode_lut", decode_lut, _decode_lut_cached)


# ---------------------------------------------------------------------------
# gemm.int — the PE-array matmul
# ---------------------------------------------------------------------------

def _gemm_int_reference(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """int64 matmul over shifted operands — the hardware accumulation.

    ``x`` is ``(..., M, K)`` and ``w`` ``(..., K, N)`` with matmul
    broadcasting; the result holds the int64 accumulators.
    """
    x = np.asarray(x, dtype=np.int64)
    w = np.asarray(w, dtype=np.int64)
    return x @ w


def _max_magnitude(a: np.ndarray) -> int:
    """``max |a|`` as a Python int: ``np.abs`` would wrap INT64_MIN."""
    return max(-int(a.min()), int(a.max()))


def _gemm_int_blas_f64(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """BLAS float64 matmul inside its exact-integer window, else int64.

    numpy's int64 matmul is a naive loop; the float64 one is BLAS.  Every
    float64 arithmetic result below ``2**53`` in magnitude is an exact
    integer, so when ``k * max|x| * max|w| < 2**53`` every product and
    every partial sum is exact and the BLAS path reproduces the int64
    accumulation bit for bit.  QUB operands are at most
    ``2**(bits-1) << 7``, which keeps serving-width GEMMs (k up to a few
    thousand) far inside the window; the guard is evaluated in Python
    integers so it can itself never overflow.
    """
    x = np.asarray(x, dtype=np.int64)
    w = np.asarray(w, dtype=np.int64)
    if x.size == 0 or w.size == 0:
        return x @ w
    k = x.shape[-1] if x.ndim else 1
    bound = k * _max_magnitude(x) * _max_magnitude(w)
    if bound < (1 << 53):
        return (x.astype(np.float64) @ w.astype(np.float64)).astype(np.int64)
    return x @ w


KERNELS.register("gemm.int", _gemm_int_reference, _gemm_int_blas_f64)


# ---------------------------------------------------------------------------
# sfu.* — integer special functions, one implementation each
# ---------------------------------------------------------------------------

KERNELS.register("sfu.softmax", i_softmax)
KERNELS.register("sfu.gelu", i_gelu)
KERNELS.register("sfu.layernorm", i_layernorm)


# ---------------------------------------------------------------------------
# cache observability
# ---------------------------------------------------------------------------

def cache_info() -> dict:
    """Sizes of the shared kernel caches (hit/miss counts live in the
    registry counters, keys ``qub.encode:cache_*`` and
    ``qub.decode_lut:cache_*``)."""
    with _CACHE_LOCK:
        return {
            "fused_encoders": len({id(e) for e in _ENCODER_CACHE.values()}),
            "decode_luts": len(_LUT_CACHE),
        }


def clear_caches() -> None:
    """Drop the shared encoder/LUT caches (tests and long-lived servers)."""
    with _CACHE_LOCK:
        _ENCODER_CACHE.clear()
        _LUT_CACHE.clear()
