"""Integer-only special functions (the I-BERT / I-ViT lineage).

Section 4.2 of the QUQ paper streams decoded integers through the same
SFUs as an integer-only uniform-quantization accelerator [I-BERT, I-ViT].
This module provides those integer-only kernels so the SFU path can be
simulated without any floating-point arithmetic:

* :func:`i_exp` / :func:`i_softmax` — I-BERT's polynomial exp on integers
  (range-reduced by ``ln 2``; second-order polynomial), softmax normalized
  with an integer reciprocal.
* :func:`i_gelu` — I-BERT's integer GELU via a second-order polynomial
  approximation of ``erf``.
* :func:`i_layernorm` — integer mean/variance; the standard deviation is
  the floor square root :func:`i_sqrt_f64`.
* :func:`i_sqrt_f64` — floor square root from one float64 ``sqrt`` plus
  two exact integer corrections.
* :func:`i_sqrt` — the integer Newton iteration: :func:`i_sqrt_f64`'s
  fallback at or above ``2**52`` and its test reference.

All kernels take integer tensors ``q`` with a scale ``s`` (value =
``q * s``) and return ``(q_out, s_out)``, each in whole-tensor passes.
They are the formula, the reference implementation of the registry ops
``sfu.softmax`` / ``sfu.gelu`` / ``sfu.layernorm``; the fast
implementations in :mod:`repro.kernels.ops` must return the same codes.

As a hardware SFU keeps exp and GELU in a ROM indexed by the input code,
this module also builds, at import, the two tables the fast kernels
gather from at :data:`TABLE_SCALE`, the one scale the integer walk hands
softmax and GELU: :data:`EXP_TABLE` (``i_exp`` up to the first input
past which it is certainly 0) and :data:`GELU_TABLE` (GELU's factor over
its clip range, past which it is constant).  Both
come from the formula itself, so a gather returns the formula's codes.
They are constants, read-only, about 166 KB together.

The test suite pins the codes with a golden fixture, checks them against
a scalar evaluation and the float functions, and the accuracy ablation
bench measures their end-to-end cost on a quantized model.
"""

from __future__ import annotations

import numpy as np

__all__ = ["i_sqrt", "i_sqrt_f64", "i_exp", "i_softmax", "i_gelu", "i_layernorm",
           "exp_table", "gelu_table", "TABLE_SCALE", "EXP_TABLE", "GELU_TABLE", "GELU_SCALE"]

_LN2 = float(np.log(2.0))

# I-BERT's second-order polynomial coefficients.
_EXP_A, _EXP_B, _EXP_C = 0.3585, 1.353, 0.344
_ERF_A, _ERF_B, _ERF_C = -0.2888, -1.769, 1.0

#: At or above this, one float64 sqrt can be off by more than one step.
_SQRT_EXACT_LIMIT = np.int64(1) << 52


def i_sqrt(n: np.ndarray) -> np.ndarray:
    """Integer square root by Newton iteration (floor of the true root)."""
    n = np.asarray(n, dtype=np.int64)
    if (n < 0).any():
        raise ValueError("i_sqrt requires non-negative inputs")
    x = np.where(n > 0, np.int64(1) << ((_bit_length(n) + 1) // 2), 0)
    for _ in range(20):
        positive = x > 0
        new_x = np.where(positive, (x + np.floor_divide(n, np.maximum(x, 1))) // 2, 0)
        if (new_x >= x).all():
            break
        x = np.where(new_x < x, new_x, x)
    return x


def _bit_length(n: np.ndarray) -> np.ndarray:
    n = np.maximum(np.asarray(n, dtype=np.int64), 1)
    return np.floor(np.log2(n)).astype(np.int64) + 1


def i_sqrt_f64(n: np.ndarray) -> np.ndarray:
    """Integer square root (floor of the true root) in one float64 pass.

    ``float64`` carries 53 significand bits, so for ``n < 2**52`` the
    rounded float sqrt is within one of the true floor and two exact
    integer corrections pin it.  A tensor with any larger input goes
    through :func:`i_sqrt` instead: Newton's early exit is data-dependent
    and runs up to 20 whole-tensor passes, so it is only the fallback.
    """
    n = np.asarray(n, dtype=np.int64)
    if (n < 0).any():
        raise ValueError("i_sqrt_f64 requires non-negative inputs")
    if (n >= _SQRT_EXACT_LIMIT).any():
        return i_sqrt(n)
    root = np.sqrt(n.astype(np.float64)).astype(np.int64)
    root = np.where((root + 1) * (root + 1) <= n, root + 1, root)
    return np.where(root * root > n, root - 1, root)


def _i_poly(q: np.ndarray, s: float, a: float, b: float, c: float) -> tuple[np.ndarray, float]:
    """Integer evaluation of ``a*(x + b)^2 + c`` at ``x = q*s``."""
    q_b = np.int64(np.floor(b / s))
    q_c = np.int64(np.floor(c / (a * s * s)))
    return (q + q_b) ** 2 + q_c, a * s * s


def i_exp(q: np.ndarray, s: float) -> tuple[np.ndarray, float]:
    """Integer exp for non-positive inputs (I-BERT Algorithm: exp-shift).

    Decomposes ``x = (-z) * ln2 + p`` with ``p in (-ln2, 0]``, evaluates the
    polynomial at ``p`` and shifts right by ``z``.
    """
    q = np.asarray(q, dtype=np.int64)
    if (q > 0).any():
        raise ValueError("i_exp expects non-positive inputs (pre-shifted by max)")
    q_ln2 = np.int64(np.floor(_LN2 / s))
    z = np.floor_divide(-q, q_ln2)
    # p/s, in (-ln2/s, 0], is never named, so the polynomial frees it.
    q_l, s_l = _i_poly(q + z * q_ln2, s, _EXP_A, _EXP_B, _EXP_C)
    z = np.minimum(z, 62)
    return np.floor_divide(q_l, np.int64(1) << z), s_l


def i_softmax(q: np.ndarray, s: float, axis: int = -1, out_bits: int = 16) -> tuple[np.ndarray, float]:
    """Integer-only softmax over ``axis``.

    Returns codes in ``[0, 2^out_bits]`` with scale ``2^-out_bits``
    (probabilities).  The top code ``2^out_bits`` is probability 1.0: a
    row whose other entries all underflow to 0, a one-element row among
    them, returns it, so the codes need ``out_bits + 1`` bits.
    """
    q = np.asarray(q, dtype=np.int64)
    q_exp, _ = i_exp(q - q.max(axis=axis, keepdims=True), s)
    total = q_exp.sum(axis=axis, keepdims=True)
    factor = np.int64(2**out_bits)
    return np.floor_divide(q_exp * factor, np.maximum(total, 1)), 2.0**-out_bits


def _gelu_clip(s: float) -> np.int64:
    """The code past which GELU's erf polynomial is flat: ``-b`` at ``s / sqrt2``."""
    return np.int64(np.floor(-_ERF_B / (s / np.sqrt(2.0))))


def _gelu_factor(q: np.ndarray, s: float) -> tuple[np.ndarray, float]:
    """``g(q) = 1 + erf(x/sqrt2)`` in integers at ``x = q*s``, and the scale
    of ``q * g(q)``, GELU's output."""
    s_erf_in = s / np.sqrt(2.0)
    # erf is odd: evaluate the polynomial on |x| clipped to [0, -b], where
    # erf(|x|) ~ a*(|x| + b)^2 + c (I-BERT's fit; note a < 0 makes the
    # polynomial's output scale negative, which the integer pipeline
    # carries through consistently).
    q_clip = np.minimum(np.abs(q), _gelu_clip(s))
    q_l, s_l = _i_poly(q_clip, s_erf_in, _ERF_A, _ERF_B, _ERF_C)
    # 1 + erf in the same scale.
    return np.sign(q) * q_l + np.int64(np.floor(1.0 / s_l)), s * s_l / 2.0


def i_gelu(q: np.ndarray, s: float) -> tuple[np.ndarray, float]:
    """Integer-only GELU: ``x * (1 + erf(x/sqrt2)) / 2`` with polynomial erf."""
    q = np.asarray(q, dtype=np.int64)
    q_sum, s_out = _gelu_factor(q, s)
    return q * q_sum, s_out


def i_layernorm(
    q: np.ndarray,
    s: float,
    weight: np.ndarray | None = None,
    bias: np.ndarray | None = None,
    out_bits: int = 8,
) -> tuple[np.ndarray, float]:
    """Integer-only LayerNorm over the last axis.

    Mean and variance are computed in integers; the standard deviation is
    :func:`i_sqrt_f64` of the integer variance.  The affine parameters
    (float) are folded in through a single requantization step, as an
    accelerator would via its output scale.
    """
    q = np.asarray(q, dtype=np.int64)
    n = q.shape[-1]
    mean = np.floor_divide(q.sum(axis=-1, keepdims=True), n)
    centered = q - mean
    var = np.floor_divide((centered * centered).sum(axis=-1, keepdims=True), n)
    std = np.maximum(i_sqrt_f64(var), 1)
    # Normalized value in Q(out_bits) fixed point.
    factor = np.int64(1) << out_bits
    normalized = np.floor_divide(centered * factor, std)
    s_out = 2.0**-out_bits
    if weight is not None:
        q_w = np.rint(np.asarray(weight, dtype=np.float64) / s_out).astype(np.int64)
        normalized = np.floor_divide(normalized * q_w, factor)
    if bias is not None:
        normalized = normalized + np.rint(
            np.asarray(bias, dtype=np.float64) / s_out
        ).astype(np.int64)
    return normalized, s_out


# ---------------------------------------------------------------------------
# Tables: the formula's codes at the walk's scale, built once at import
# ---------------------------------------------------------------------------

def exp_table(s: float) -> np.ndarray:
    """``i_exp(-d, s)`` for ``d`` in ``[0, z0 * q_ln2]``; the last entry is 0.

    ``z0`` is the bit length of the polynomial's largest value (its value
    at ``z = 0``) and ``q_ln2 = floor(ln2 / s)``.  From ``d = z0 * q_ln2``
    on, ``i_exp`` shifts that polynomial right by at least ``z0`` bits, so
    it is 0 for every larger ``d``: ``table[min(d, last)]`` is
    ``i_exp(-d, s)`` for every ``d >= 0``.  15,599 entries at ``2**-10``.
    """
    q_ln2 = int(np.floor(_LN2 / s))
    z0 = int(i_exp(-np.arange(q_ln2), s)[0].max()).bit_length()
    return i_exp(-np.arange(z0 * q_ln2 + 1), s)[0]


def gelu_table(s: float) -> tuple[np.ndarray, float]:
    """GELU's factor ``g`` on ``[-clip, clip]`` and the output scale.

    :func:`i_gelu` is ``q * g(q)``, and ``g`` is constant beyond
    ``+/-clip`` (:func:`_gelu_clip`), so ``table[clip(q, -clip, clip) +
    clip]`` is ``g(q)`` for every int64 ``q`` but ``INT64_MIN``, which has
    no ``|q|``.  5,123 entries at ``2**-10``.
    """
    clip = int(_gelu_clip(s))
    return _gelu_factor(np.arange(-clip, clip + 1, dtype=np.int64), s)


#: The one scale the integer walk hands ``sfu.softmax`` and ``sfu.gelu``.
TABLE_SCALE = 2.0**-10

EXP_TABLE = exp_table(TABLE_SCALE)
GELU_TABLE, GELU_SCALE = gelu_table(TABLE_SCALE)
EXP_TABLE.setflags(write=False)
GELU_TABLE.setflags(write=False)
