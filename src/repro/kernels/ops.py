"""Built-in kernel registrations: every op the serving paths dispatch.

Imported lazily by :mod:`repro.kernels` on first dispatch (never at
package-import time), so this module may import freely from ``quant``,
``backend`` and ``hw`` without cycles — by the time a kernel is *called*
those modules are fully loaded.  It must **not** import
``hw.accelerator``, ``hw.executor`` or the serving backends: those are
registry *callers*, and importing them here would close the loop.

Registered ops (reference + fast variants):

===================  =====================  ==============================
op                   reference              fast
===================  =====================  ==============================
``quq.quantize``     masked four-pass       (none — codes path is the spec)
``quq.fake_quantize``quantize->dequantize   ``fused`` one in-place
                                            float64 pass on the shared
                                            four-slot route
``qub.encode``       quantize + encode      ``fused`` :class:`FusedEncoder`
``qub.shifted``      route + ``<< shift``   ``inplace`` one-pass
                                            :meth:`FusedEncoder.shifted_f64`
``qub.store_load``   route + int64 decode   ``inplace`` float64 throughout
``qub.encode_batch`` per-tensor loop        ``fused`` one concatenated pass
``qub.pack``         pure-Python bit loop   ``packbits`` vectorized
``qub.decode_lut``   fresh table per call   ``cached`` shared per
                                            ``(registers, bits)``
``gemm.int``         int64 matmul           ``blas_f64`` exact-window BLAS
``sfu.sqrt``         Newton iteration       ``vector`` f64 root + fixups
``sfu.exp``          scalar-reference poly  ``vector`` batched poly
``sfu.softmax``      scalar-reference       ``vector`` batched
``sfu.gelu``         scalar-reference       ``vector`` batched
``sfu.layernorm``    scalar-reference       ``vector`` batched
===================  =====================  ==============================

Every fast variant declares a bit-exact :class:`ParitySpec`; the harness
in :mod:`repro.kernels.parity` (and the hypothesis suite in ``tests/``)
drives each pair over fitted and hand-built parameters and adversarial
inputs.
"""

from __future__ import annotations

import threading

import numpy as np

from ..backend.kernels import FusedEncoder, decode_lut
from ..backend.sfu import v_i_exp, v_i_gelu, v_i_layernorm, v_i_softmax, v_i_sqrt
from ..hw.int_sfu import i_exp, i_gelu, i_layernorm, i_softmax, i_sqrt
from ..quant.params import QUQParams
from ..quant.qub import (
    FCRegisters,
    _encode_batch_fused,
    _encode_batch_reference,
    _encode_codes,
    legalize_for_hardware,
    pack_qub_words,
)
from ..quant.quq import fake_quantize_with_params, quantize_with_params
from . import KERNELS
from .registry import ParitySpec

__all__ = ["fused_encoder", "cache_info", "clear_caches"]

_CACHE_LOCK = threading.Lock()


# ---------------------------------------------------------------------------
# quq.* — quantization kernels
# ---------------------------------------------------------------------------

def _fake_quantize_reference(x: np.ndarray, params: QUQParams) -> np.ndarray:
    """The value a round trip through the code path produces."""
    return quantize_with_params(x, params).dequantize()


KERNELS.register(
    "quq.quantize",
    "reference",
    quantize_with_params,
    contract={
        "inputs": "(x: float array, params: QUQParams)",
        "output": "QuantizedTensor (int64 codes + int8 subrange ids)",
        "domain": "any float input; NaN parks at the unassigned-bucket code",
    },
)

KERNELS.register(
    "quq.fake_quantize",
    "reference",
    _fake_quantize_reference,
    contract={
        "inputs": "(x: float array, params: QUQParams)",
        "output": "float32 array, x's shape",
        "domain": "any float input",
    },
)

KERNELS.register(
    "quq.fake_quantize",
    "fused",
    fake_quantize_with_params,
    parity=ParitySpec(
        bit_exact=True,
        notes="one in-place float64 pass over the four-slot route shared "
        "with FusedEncoder.shifted_f64; codes times the kept deltas, +0.0, "
        "then float32, so zeros match the reference by sign; NaN parks at "
        "nan_park_value, +/-inf clips to the side's representable extreme",
    ),
    contract={
        "inputs": "(x: float array, params: QUQParams)",
        "output": "float32 array, x's shape",
        "domain": "any float input",
    },
)


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
    """The shared :class:`FusedEncoder` for ``(params, bits)`` (memoized)."""
    encoder, hit = _shared_encoder(params, bits)
    KERNELS.count("qub.encode:cache_hit" if hit else "qub.encode:cache_miss")
    return encoder


def _encode_reference(
    x: np.ndarray, params: QUQParams, bits: int
) -> tuple[np.ndarray, FCRegisters, float]:
    """Quantize ``x`` under hardware-legal params and QUB-encode at ``bits``.

    Returns ``(qubs, registers, base_delta)`` — the wire-format triple the
    accelerator's :class:`~repro.hw.accelerator.EncodedTensor` wraps.
    """
    params = legalize_for_hardware(params)
    if params.bits > bits:
        raise ValueError(
            f"{params.bits}-bit parameters do not fit {bits}-bit QUBs"
        )
    qt = quantize_with_params(x, params)
    registers = FCRegisters.from_params(params)
    qubs = _encode_codes(qt.codes, qt.subranges, registers, bits)
    return qubs, registers, params.base_delta


def _encode_fused(
    x: np.ndarray, params: QUQParams, bits: int
) -> tuple[np.ndarray, FCRegisters, float]:
    encoder = fused_encoder(params, bits)
    return encoder.encode(x), encoder.registers, encoder.base_delta


_ENCODE_CONTRACT = {
    "inputs": "(x: float array, params: QUQParams, bits: int)",
    "output": "(qubs: uint8|uint16 array, FCRegisters, base_delta: float)",
    "domain": "any float input; raises ValueError when the legalized "
    "params.bits exceed the QUB width",
}

KERNELS.register(
    "qub.encode", "reference", _encode_reference, contract=_ENCODE_CONTRACT
)
KERNELS.register(
    "qub.encode",
    "fused",
    _encode_fused,
    parity=ParitySpec(
        bit_exact=True,
        notes="FusedEncoder.encode equals the quantize+encode round trip "
        "word for word, including the NaN park and zero re-homing",
    ),
    contract=_ENCODE_CONTRACT,
)


def _shifted_reference(
    x: np.ndarray, params: QUQParams, bits: int
) -> np.ndarray:
    """``D << n_sh`` from the route formula, with freshly built tables."""
    encoder = FusedEncoder(params, bits)
    codes, selector = encoder.route(x)
    return codes << encoder._shift[selector]


def _shifted_inplace(
    x: np.ndarray, params: QUQParams, bits: int
) -> np.ndarray:
    # The backend's own encoder for this tap; the lookup is not a
    # ``qub.encode`` cache event, so it is not counted as one.
    encoder, _ = _shared_encoder(params, bits)
    out = np.empty(np.shape(x), dtype=np.int64)
    # The output's bytes double as the pass's scratch until the cast.
    shifted = encoder.shifted_f64(x, out.view(np.float64))
    np.copyto(out, shifted, casting="unsafe")
    return out


def _store_load_reference(
    x: np.ndarray, params: QUQParams, bits: int
) -> np.ndarray:
    """Decoded floats from the route formula, with freshly built tables."""
    encoder = FusedEncoder(params, bits)
    codes, selector = encoder.route(x)
    return (codes.astype(np.float64) * encoder._pow2[selector]) * encoder.base_delta


def _store_load_inplace(
    x: np.ndarray, params: QUQParams, bits: int
) -> np.ndarray:
    encoder, _ = _shared_encoder(params, bits)
    values = encoder.shifted_f64(x)
    # +0.0 turns a -0.0 code into the +0.0 an int64 round trip gives.
    np.add(values, 0.0, out=values)
    np.multiply(values, encoder.base_delta, out=values)
    return values


_SHIFTED_CONTRACT = {
    "inputs": "(x: float array, params: QUQParams, bits: int)",
    "output": "int64 array, x's shape: the PE-array operand D << n_sh",
    "domain": "any float input; raises ValueError when the legalized "
    "params.bits exceed the QUB width",
}
_STORE_LOAD_CONTRACT = {
    "inputs": "(x: float array, params: QUQParams, bits: int)",
    "output": "float64 array, x's shape: (D * 2**n_sh) * base_delta",
    "domain": "any float input; raises ValueError when the legalized "
    "params.bits exceed the QUB width",
}

KERNELS.register(
    "qub.shifted", "reference", _shifted_reference, contract=_SHIFTED_CONTRACT
)
KERNELS.register(
    "qub.shifted",
    "inplace",
    _shifted_inplace,
    parity=ParitySpec(
        bit_exact=True,
        notes="FusedEncoder.shifted_f64: one in-place float64 pass over "
        "the four-slot route shared with the fused fake-quantize kernel; "
        "D * 2**n_sh is an exact integer, so its int64 cast equals "
        "codes << shift",
    ),
    contract=_SHIFTED_CONTRACT,
)
KERNELS.register(
    "qub.store_load",
    "reference",
    _store_load_reference,
    contract=_STORE_LOAD_CONTRACT,
)
KERNELS.register(
    "qub.store_load",
    "inplace",
    _store_load_inplace,
    parity=ParitySpec(
        bit_exact=True,
        notes="same float operation order as the reference (codes * 2**n_sh, "
        "then * base_delta) without the int64 round trip; -0.0 codes are "
        "normalised to +0.0 first",
    ),
    contract=_STORE_LOAD_CONTRACT,
)

_ENCODE_BATCH_CONTRACT = {
    "inputs": "(tensors: list[QuantizedTensor] sharing one QUQParams)",
    "output": "(list of QUB arrays in input order, shared FCRegisters)",
    "domain": "zero-size members are legal; an empty list raises "
    "EmptyBatchError, mixed params raise ValueError",
}

KERNELS.register(
    "qub.encode_batch",
    "reference",
    _encode_batch_reference,
    contract=_ENCODE_BATCH_CONTRACT,
)
KERNELS.register(
    "qub.encode_batch",
    "fused",
    _encode_batch_fused,
    parity=ParitySpec(
        bit_exact=True,
        notes="one pass over the concatenated codes; per-tensor slices "
        "equal the reference loop's arrays exactly",
    ),
    contract=_ENCODE_BATCH_CONTRACT,
)


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


_PACK_CONTRACT = {
    "inputs": "(qubs: unsigned int array, bits: 1..16)",
    "output": "uint8 buffer of ceil(n*bits/8) bytes, MSB-first",
    "domain": "words must fit `bits`; zero-size input packs to zero bytes",
}

KERNELS.register(
    "qub.pack", "reference", _pack_words_reference, contract=_PACK_CONTRACT
)
KERNELS.register(
    "qub.pack",
    "packbits",
    pack_qub_words,
    parity=ParitySpec(
        bit_exact=True,
        notes="np.packbits over the exploded bitstream; identical bytes "
        "including the zero-padded trailing partial byte",
    ),
    contract=_PACK_CONTRACT,
)


#: Decode LUTs shared per (registers, bits) — FCRegisters is frozen, so
#: every consumer of one tap's registers (the packed weight store used to
#: rebuild per construction, FusedEncoder kept a private memo) now gathers
#: from one write-protected table.
_LUT_CACHE: dict[tuple[FCRegisters, int], np.ndarray] = {}


def _decode_lut_cached(registers: FCRegisters, bits: int) -> np.ndarray:
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


_LUT_CONTRACT = {
    "inputs": "(registers: FCRegisters, bits: int)",
    "output": "int64 array of 2**bits shifted integers (D << n_sh)",
    "domain": "any legal register pair; cached variant returns a shared "
    "read-only table",
}

KERNELS.register(
    "qub.decode_lut", "reference", decode_lut, contract=_LUT_CONTRACT
)
KERNELS.register(
    "qub.decode_lut",
    "cached",
    _decode_lut_cached,
    parity=ParitySpec(
        bit_exact=True,
        notes="same table, computed once per (registers, bits) and shared",
    ),
    contract=_LUT_CONTRACT,
)


# ---------------------------------------------------------------------------
# gemm.int — the PE-array matmul
# ---------------------------------------------------------------------------

def _gemm_int_reference(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """int64 matmul over shifted operands — the hardware accumulation."""
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


KERNELS.register(
    "gemm.int",
    "reference",
    _gemm_int_reference,
    contract={
        "inputs": "(x: int array (..., M, K), w: int array (..., K, N))",
        "output": "int64 accumulators, matmul broadcasting",
        "domain": "shifted QUB operands (|D| < 2**(bits-1), shifts <= 7)",
    },
)
KERNELS.register(
    "gemm.int",
    "blas_f64",
    _gemm_int_blas_f64,
    parity=ParitySpec(
        bit_exact=True,
        notes="exact inside the 2**53 window (guard in Python ints), "
        "falls back to the int64 matmul outside it",
    ),
    contract={
        "inputs": "(x: int array (..., M, K), w: int array (..., K, N))",
        "output": "int64 accumulators, matmul broadcasting",
        "domain": "any int64 operands; exactness guard picks the path",
    },
)


# ---------------------------------------------------------------------------
# sfu.* — integer special functions (scalar references vs vectorized)
# ---------------------------------------------------------------------------

def _register_sfu(name: str, reference, fast, contract: dict) -> None:
    KERNELS.register(f"sfu.{name}", "reference", reference, contract=contract)
    KERNELS.register(
        f"sfu.{name}",
        "vector",
        fast,
        parity=ParitySpec(
            bit_exact=True,
            notes="exact integer equality with the scalar reference at "
            "every bit-width (same algorithm, batched)",
        ),
        contract=contract,
    )


_register_sfu(
    "sqrt",
    i_sqrt,
    v_i_sqrt,
    {
        "inputs": "(n: non-negative int64 array)",
        "output": "floor(sqrt(n)) as int64",
        "domain": "n >= 0; negative inputs raise ValueError",
    },
)
_register_sfu(
    "exp",
    i_exp,
    v_i_exp,
    {
        "inputs": "(q: non-positive int64 array, s: float scale)",
        "output": "(q_out, s_out) integer exp",
        "domain": "q <= 0 (pre-shifted by max); positives raise ValueError",
    },
)
_register_sfu(
    "softmax",
    i_softmax,
    v_i_softmax,
    {
        "inputs": "(q: int64 array, s: float, axis=-1, out_bits=16)",
        "output": "(codes in [0, 2**out_bits - 1], scale 2**-out_bits)",
        "domain": "any int64 logits",
    },
)
_register_sfu(
    "gelu",
    i_gelu,
    v_i_gelu,
    {
        "inputs": "(q: int64 array, s: float scale)",
        "output": "(q_out, s_out) integer GELU via polynomial erf",
        "domain": "any int64 codes",
    },
)
_register_sfu(
    "layernorm",
    i_layernorm,
    v_i_layernorm,
    {
        "inputs": "(q: int64 array, s: float, weight=None, bias=None, "
        "out_bits=8)",
        "output": "(normalized codes, scale 2**-out_bits)",
        "domain": "any int64 codes; reduces over the last axis",
    },
)


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
