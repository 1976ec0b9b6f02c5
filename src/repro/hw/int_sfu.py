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
They are the one implementation both integer datapaths run (registry ops
``sfu.softmax`` / ``sfu.gelu`` / ``sfu.layernorm``).  The test suite pins
their codes with a golden fixture, checks them against a scalar
evaluation and the float functions, and the accuracy ablation bench
measures their end-to-end cost on a quantized model.
"""

from __future__ import annotations

import numpy as np

__all__ = ["i_sqrt", "i_sqrt_f64", "i_exp", "i_softmax", "i_gelu", "i_layernorm"]

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

    Returns codes in ``[0, 2^out_bits - 1]`` with scale ``2^-out_bits``
    (probabilities).
    """
    q = np.asarray(q, dtype=np.int64)
    q_exp, _ = i_exp(q - q.max(axis=axis, keepdims=True), s)
    total = q_exp.sum(axis=axis, keepdims=True)
    factor = np.int64(2**out_bits)
    return np.floor_divide(q_exp * factor, np.maximum(total, 1)), 2.0**-out_bits


def i_gelu(q: np.ndarray, s: float) -> tuple[np.ndarray, float]:
    """Integer-only GELU: ``x * (1 + erf(x/sqrt2)) / 2`` with polynomial erf."""
    q = np.asarray(q, dtype=np.int64)
    s_erf_in = s / np.sqrt(2.0)
    # erf is odd: evaluate the polynomial on |x| clipped to [0, -b], where
    # erf(|x|) ~ a*(|x| + b)^2 + c (I-BERT's fit; note a < 0 makes the
    # polynomial's output scale negative, which the integer pipeline
    # carries through consistently).
    q_clip = np.minimum(np.abs(q), np.int64(np.floor(-_ERF_B / s_erf_in)))
    q_l, s_l = _i_poly(q_clip, s_erf_in, _ERF_A, _ERF_B, _ERF_C)
    # 1 + erf in the same scale.
    q_sum = np.sign(q) * q_l + np.int64(np.floor(1.0 / s_l))
    return q * q_sum, s * s_l / 2.0


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
