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
                                            the shared four-slot route, or
                                            its scalar branch on one-delta
                                            params
``qub.shifted``      encode, decode,        one-pass
                     ``D << n_sh``          :meth:`FusedEncoder.shifted_f64`
                                            (same route, same branch)
``qub.store_load``   encode, decode,        float64 throughout
                     ``to_float`` formula
``qub.pack``         pure-Python bit loop   vectorized ``np.packbits``
``gemm.int``         int64 matmul           exact-window BLAS float64
``sfu.softmax``      ``hw.int_sfu`` formula ``i_exp`` gathered from
                                            ``EXP_TABLE`` at the walk's
                                            scale, else the formula
``sfu.gelu``         ``hw.int_sfu`` formula GELU's factor gathered from
                                            ``GELU_TABLE`` at the walk's
                                            scale, else the formula
``sfu.layernorm``    ``hw.int_sfu`` formula the per-row divide in float64
                                            inside its exact window, else
                                            the formula
===================  =====================  ==============================

The ``qub.*`` activation ops take ``(x, encoder)``, the tap's
:class:`FusedEncoder`: the fast pass runs on the tables the encoder built
once, and the reference reads only ``encoder.params`` and
``encoder.bits``.  The encode is :func:`repro.quant.qub.quantize_encode`,
the spec path (Eq. 3, then the QUB words).  The ``sfu.*`` references
are the I-BERT formula of :mod:`repro.hw.int_sfu`; their fast
implementations gather from the tables that module builds from the
formula, or divide in float64 where that is exact, and run the formula
everywhere else.  The harness in :mod:`repro.kernels.parity` (and the
hypothesis suite in ``tests/``) requires every fast implementation to
equal its reference bit for bit over fitted and hand-built parameters
and adversarial inputs, over every step point of each parameter set for
the three quantizer ops, and over every table index for the SFUs.  Each
fast implementation makes its choice (one-delta or four-slot, table or
formula, float64 or int64 divide) inside itself, so it adds no op; the
references stay the general formula.
"""

from __future__ import annotations

import numpy as np

from ..backend.kernels import FusedEncoder
from ..hw.int_sfu import (
    EXP_TABLE, GELU_SCALE, GELU_TABLE, TABLE_SCALE, i_gelu, i_layernorm, i_softmax, i_sqrt_f64,
)
from ..quant.params import QUQParams
from ..quant.qub import decode, pack_qub_words, quantize_encode
from ..quant.quq import fake_quantize_with_params, quantize_with_params
from . import KERNELS


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

def _decoded_words(
    x: np.ndarray, encoder: FusedEncoder
) -> tuple[np.ndarray, np.ndarray, float]:
    """``(D, n_sh, base_delta)`` of the encode's QUB words for ``x``, read
    from the encoder's params and width alone, none of its tables."""
    qubs, registers, base_delta = quantize_encode(x, encoder.params, encoder.bits)
    return *decode(qubs, registers, encoder.bits), base_delta


def _shifted_reference(x: np.ndarray, encoder: FusedEncoder) -> np.ndarray:
    """``D << n_sh`` of the encode's words: the PE-array operand, int64."""
    d, n_sh, _ = _decoded_words(x, encoder)
    return d << n_sh


def _shifted_inplace(x: np.ndarray, encoder: FusedEncoder) -> np.ndarray:
    """:meth:`FusedEncoder.shifted_f64` cast to int64: ``D * 2**n_sh`` is an
    exact integer, so the cast equals the decoded words' ``D << n_sh``."""
    out = np.empty(np.shape(x), dtype=np.int64)
    # The output's bytes double as the pass's scratch until the cast.
    shifted = encoder.shifted_f64(x, out.view(np.float64))
    np.copyto(out, shifted, casting="unsafe")
    return out


def _store_load_reference(x: np.ndarray, encoder: FusedEncoder) -> np.ndarray:
    """The encode's words reloaded, float64: the ``EncodedTensor.to_float()``
    formula ``(D * 2**n_sh) * base_delta``."""
    d, n_sh, base_delta = _decoded_words(x, encoder)
    return (d.astype(np.float64) * (1 << n_sh).astype(np.float64)) * base_delta


def _store_load_inplace(x: np.ndarray, encoder: FusedEncoder) -> np.ndarray:
    """The reference's float operation order (``D * 2**n_sh``, then
    ``* base_delta``) without the QUB words."""
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
# sfu.* — integer special functions: exact tables and an exact divide
# ---------------------------------------------------------------------------

_INT64 = np.iinfo(np.int64)
_GELU_CLIP = GELU_TABLE.size // 2


def _softmax_table(q, s: float, axis: int = -1, out_bits: int = 16):
    """:func:`i_softmax` with ``i_exp(q - max)`` gathered from ``EXP_TABLE``.

    The table holds ``i_exp(-d)`` up to its last, zero entry, past which
    ``i_exp`` stays 0, so ``EXP_TABLE[min(d, last)]`` is every exp.  Any
    other scale runs the formula, and so does a row whose ``max - q``
    wraps: there the formula's ``q - max`` is positive (``i_exp`` raises)
    or ``INT64_MIN``.
    """
    if s != TABLE_SCALE:
        return i_softmax(q, s, axis, out_bits)
    q = np.asarray(q, dtype=np.int64)
    d = np.subtract(q.max(axis=axis, keepdims=True), q, out=np.empty(q.shape, np.int64))
    if d.size and d.min() < 0:
        return i_softmax(q, s, axis, out_bits)
    # Each exp lands on its own index: the gather may overwrite ``d``.
    q_exp = EXP_TABLE.take(d, mode="clip", out=d)
    total = q_exp.sum(axis=axis, keepdims=True)
    np.multiply(q_exp, np.int64(2**out_bits), out=q_exp)
    return np.floor_divide(q_exp, np.maximum(total, 1), out=q_exp), 2.0**-out_bits


def _gelu_table(q, s: float):
    """:func:`i_gelu` as ``q * GELU_TABLE[clip(q, -clip, clip) + clip]``.

    Any other scale runs the formula, and so do the int64 extremes: an
    ``INT64_MIN`` code (the one a NaN casts to) has no ``|q|``, and past
    ``INT64_MAX - clip`` the index would wrap.
    """
    if s != TABLE_SCALE:
        return i_gelu(q, s)
    q = np.asarray(q, dtype=np.int64)
    if q.size and (q.min() == _INT64.min or q.max() > _INT64.max - _GELU_CLIP):
        return i_gelu(q, s)
    index = np.add(q, _GELU_CLIP, out=np.empty(q.shape, np.int64))
    g = GELU_TABLE.take(index, mode="clip", out=index)
    return np.multiply(q, g, out=g), GELU_SCALE


def _layernorm_f64(q, s: float, weight=None, bias=None, out_bits: int = 8):
    """:func:`i_layernorm` with its per-row divide in float64.

    For integers ``|a| < 2**53`` and ``b >= 1``, ``floor(a / b)`` in
    float64 is exact: the quotient's rounding error, at most
    ``|a/b| * 2**-53``, is smaller than the ``1/b`` gap from ``a/b`` to the
    next integer.  So when ``max|centered| << out_bits < 2**53`` the
    divide ``floor_divide(centered << out_bits, std)`` runs in float64, as
    ``centered / (std / 2**out_bits)`` (an exact divisor, so the same
    rounded quotient); otherwise the formula runs.  The affine fold's
    ``floor_divide`` by ``2**out_bits`` is a right shift, identical on
    int64.
    """
    q = np.asarray(q, dtype=np.int64)
    n = q.shape[-1]
    mean = np.floor_divide(q.sum(axis=-1, keepdims=True), n)
    centered = q - mean
    # int64 sums wrap alike in any order: einsum's equals the formula's.
    var = np.floor_divide(np.einsum("...i,...i->...", centered, centered)[..., None], n)
    std = np.maximum(i_sqrt_f64(var), 1)
    factor = np.int64(1) << out_bits
    if factor <= 0 or (centered.size and _max_magnitude(centered) * int(factor) >= 1 << 53):
        return i_layernorm(q, s, weight, bias, out_bits)
    quotient = np.divide(centered, std / float(factor))
    normalized = np.floor(quotient, out=quotient).astype(np.int64)
    s_out = 2.0**-out_bits
    if weight is not None:
        q_w = np.rint(np.asarray(weight, dtype=np.float64) / s_out).astype(np.int64)
        normalized = np.right_shift(normalized * q_w, out_bits)
    if bias is not None:
        normalized = normalized + np.rint(
            np.asarray(bias, dtype=np.float64) / s_out
        ).astype(np.int64)
    return normalized, s_out


KERNELS.register("sfu.softmax", i_softmax, _softmax_table)
KERNELS.register("sfu.gelu", i_gelu, _gelu_table)
KERNELS.register("sfu.layernorm", i_layernorm, _layernorm_f64)
