"""Exact-equality checks of the integer SFU kernels the int backend runs.

The kernels of :mod:`repro.hw.int_sfu` are vectorized (``VI``): each
evaluates I-BERT's integer algorithms as whole-tensor numpy passes.  Here
they are checked, with ``assert_array_equal`` and never a tolerance,
against independent references:

* the floor square root :func:`i_sqrt_f64` against the Newton iteration
  :func:`i_sqrt`;
* exp / softmax / GELU / LayerNorm against the scalar evaluation below,
  which restates I-BERT's coefficients and runs element by element on
  Python integers (no int64 wrap-around, ``math.isqrt`` for the root).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.int_sfu import i_exp, i_gelu, i_layernorm, i_softmax, i_sqrt, i_sqrt_f64

SCALES = (2.0**-4, 2.0**-6, 2.0**-8, 2.0**-10)

# I-BERT's second-order fits: exp on (-ln2, 0], erf on [0, -b].
EXP_A, EXP_B, EXP_C = 0.3585, 1.353, 0.344
ERF_A, ERF_B, ERF_C = -0.2888, -1.769, 1.0


def _poly(q: int, s: float, a: float, b: float, c: float) -> tuple[int, float]:
    """``a*(x + b)**2 + c`` at ``x = q*s``, in integers at scale ``a*s*s``."""
    return (q + math.floor(b / s)) ** 2 + math.floor(c / (a * s * s)), a * s * s


def scalar_exp(q: int, s: float) -> tuple[int, float]:
    q_ln2 = math.floor(math.log(2.0) / s)
    z = -q // q_ln2
    q_l, s_l = _poly(q + z * q_ln2, s, EXP_A, EXP_B, EXP_C)
    return q_l // (1 << min(z, 62)), s_l


def scalar_softmax(q: np.ndarray, s: float, axis: int = -1, out_bits: int = 16) -> np.ndarray:
    def row(values):
        top = max(values)
        exps = [scalar_exp(v - top, s)[0] for v in values]
        total = max(sum(exps), 1)
        return [e * 2**out_bits // total for e in exps]

    return np.apply_along_axis(lambda r: np.array(row(r.tolist()), dtype=np.int64), axis, q)


def scalar_gelu(q: int, s: float) -> tuple[int, float]:
    s_erf_in = s / math.sqrt(2.0)
    q_l, s_l = _poly(min(abs(q), math.floor(-ERF_B / s_erf_in)), s_erf_in, ERF_A, ERF_B, ERF_C)
    sign = (q > 0) - (q < 0)
    return q * (sign * q_l + math.floor(1.0 / s_l)), s * s_l / 2.0


def scalar_layernorm(q: np.ndarray, weight=None, bias=None, out_bits: int = 8) -> np.ndarray:
    factor, s_out = 1 << out_bits, 2.0**-out_bits

    def row(values):
        n = len(values)
        mean = sum(values) // n
        centered = [v - mean for v in values]
        std = max(math.isqrt(sum(c * c for c in centered) // n), 1)
        out = [c * factor // std for c in centered]
        if weight is not None:
            out = [o * round(w / s_out) // factor for o, w in zip(out, weight.tolist())]
        if bias is not None:
            out = [o + round(b / s_out) for o, b in zip(out, bias.tolist())]
        return out

    return np.array([row(r) for r in q.reshape(-1, q.shape[-1]).tolist()],
                    dtype=np.int64).reshape(q.shape)


def elementwise(fn, q: np.ndarray, s: float) -> tuple[np.ndarray, float]:
    """``fn`` over every element of ``q``: its codes and (shared) scale."""
    codes = [fn(v, s)[0] for v in q.ravel().tolist()]
    return np.array(codes, dtype=np.int64).reshape(q.shape), fn(0, s)[1]


class TestVISqrt:
    def test_exact_over_small_range(self):
        n = np.arange(0, 5000)
        np.testing.assert_array_equal(i_sqrt_f64(n), i_sqrt(n))

    @given(st.integers(0, 2**52 - 1))
    @settings(max_examples=200, deadline=None)
    def test_property_floor_sqrt(self, n):
        root = int(i_sqrt_f64(np.array([n]))[0])
        assert root * root <= n < (root + 1) * (root + 1)

    def test_exact_around_perfect_squares(self):
        roots = np.array([1, 2, 255, 4096, 2**26 - 1], dtype=np.int64)
        squares = roots * roots
        for n in np.concatenate([squares - 1, squares, squares + 1]):
            if n >= 0:
                np.testing.assert_array_equal(
                    i_sqrt_f64(np.array([n])), i_sqrt(np.array([n]))
                )

    def test_falls_back_above_float_exact_limit(self):
        n = np.array([2**60], dtype=np.int64)
        np.testing.assert_array_equal(i_sqrt_f64(n), i_sqrt(n))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            i_sqrt_f64(np.array([-1]))


class TestVIExp:
    @pytest.mark.parametrize("scale", SCALES)
    def test_equals_reference(self, rng, scale):
        x = -np.abs(rng.normal(size=500)) * 6
        q = np.rint(x / scale).astype(np.int64)
        q_v, s_v = i_exp(q, scale)
        q_r, s_r = elementwise(scalar_exp, q, scale)
        np.testing.assert_array_equal(q_v, q_r)
        assert s_v == s_r

    def test_rejects_positive(self):
        with pytest.raises(ValueError):
            i_exp(np.array([1]), 0.01)


class TestVISoftmax:
    @pytest.mark.parametrize("scale", SCALES)
    def test_equals_reference(self, rng, scale):
        x = rng.normal(size=(8, 32)) * 4
        q = np.rint(x / scale).astype(np.int64)
        q_v, s_v = i_softmax(q, scale, out_bits=16)
        np.testing.assert_array_equal(q_v, scalar_softmax(q, scale, out_bits=16))
        assert s_v == 2.0**-16

    def test_equals_reference_other_axis_and_width(self, rng):
        q = np.rint(rng.normal(size=(3, 5, 7)) / 2.0**-8).astype(np.int64)
        q_v, _ = i_softmax(q, 2.0**-8, axis=1, out_bits=8)
        np.testing.assert_array_equal(q_v, scalar_softmax(q, 2.0**-8, axis=1, out_bits=8))


class TestVIGelu:
    @pytest.mark.parametrize("scale", SCALES)
    def test_equals_reference(self, rng, scale):
        x = rng.normal(size=1000) * 3
        q = np.rint(x / scale).astype(np.int64)
        q_v, s_v = i_gelu(q, scale)
        q_r, s_r = elementwise(scalar_gelu, q, scale)
        np.testing.assert_array_equal(q_v, q_r)
        assert s_v == s_r

    def test_equals_reference_at_saturation(self):
        scale = 2.0**-10
        q = np.rint(np.array([12.0, -12.0, 0.0]) / scale).astype(np.int64)
        q_v, _ = i_gelu(q, scale)
        np.testing.assert_array_equal(q_v, elementwise(scalar_gelu, q, scale)[0])


class TestVILayerNorm:
    @pytest.mark.parametrize("scale", (2.0**-14, 2.0**-10))
    def test_equals_reference(self, rng, scale):
        x = rng.normal(size=(16, 64)) * 3 + 2
        q = np.rint(x / scale).astype(np.int64)
        q_v, s_v = i_layernorm(q, scale, out_bits=12)
        np.testing.assert_array_equal(q_v, scalar_layernorm(q, out_bits=12))
        assert s_v == 2.0**-12

    def test_equals_reference_with_affine(self, rng):
        x = rng.normal(size=(4, 32))
        weight = rng.uniform(0.5, 1.5, size=32)
        bias = rng.normal(size=32)
        scale = 2.0**-14
        q = np.rint(x / scale).astype(np.int64)
        q_v, _ = i_layernorm(q, scale, weight=weight, bias=bias, out_bits=12)
        np.testing.assert_array_equal(
            q_v, scalar_layernorm(q, weight=weight, bias=bias, out_bits=12)
        )

    @given(
        rows=st.lists(
            st.lists(st.integers(-(2**20), 2**20), min_size=4, max_size=4),
            min_size=1, max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_property_equals_reference(self, rows):
        q = np.asarray(rows, dtype=np.int64)
        q_v, _ = i_layernorm(q, 2.0**-10, out_bits=8)
        np.testing.assert_array_equal(q_v, scalar_layernorm(q, out_bits=8))
