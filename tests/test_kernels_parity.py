"""Property-based parity: every registry pair, hypothesis-driven inputs.

The deterministic harness (``repro.kernels.parity``) runs the same pairs
in CI environments without hypothesis; this suite fuzzes deeper — float
strategies with NaN/±inf/denormals enabled, random shapes including
zero-size, all bit-widths — and pins that the deterministic harness
itself passes and stays deterministic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import get_kernel, kernel_pairs, run_kernel_parity
from repro.kernels.parity import fitted_params_pool, mode_params_pool
from repro.quant.quq import QUQQuantizer, quantize_with_params

BITS = (4, 6, 8)
ACTIVATION_OPS = ("qub.shifted", "qub.store_load")


@pytest.fixture(scope="module")
def params_pool():
    return fitted_params_pool(seed=0)


def _params_for(params_pool, bits):
    return [p for _, b, p in params_pool if b == bits]


def _modes_for(bits):
    return [p for _, b, p in mode_params_pool((bits,))]


FLOATS = st.floats(
    min_value=-1e6, max_value=1e6, allow_subnormal=True, width=64,
)
ADVERSARIAL = st.sampled_from([
    np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310,
])
ELEMENTS = st.one_of(FLOATS, ADVERSARIAL)
FLOAT_ARRAYS = st.lists(ELEMENTS, min_size=0, max_size=64).map(
    lambda values: np.array(values, dtype=np.float64)
)


class TestFloatOpPairs:
    @pytest.mark.parametrize("bits", BITS)
    @settings(max_examples=40, deadline=None)
    @given(x=FLOAT_ARRAYS, index=st.integers(0, 4))
    def test_fake_quantize(self, params_pool, bits, x, index):
        params = _params_for(params_pool, bits)[index]
        fast = get_kernel("quq.fake_quantize", "fused")(x, params)
        ref = get_kernel("quq.fake_quantize", "reference")(x, params)
        assert fast.dtype == ref.dtype and fast.shape == ref.shape
        # Bit for bit, so signed zeros must agree too.
        assert fast.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("bits", BITS)
    @settings(max_examples=40, deadline=None)
    @given(x=FLOAT_ARRAYS, index=st.integers(0, 4))
    def test_encode(self, params_pool, bits, x, index):
        params = _params_for(params_pool, bits)[index]
        fast_q, fast_r, fast_d = get_kernel("qub.encode", "fused")(x, params, bits)
        ref_q, ref_r, ref_d = get_kernel("qub.encode", "reference")(x, params, bits)
        np.testing.assert_array_equal(fast_q, ref_q)
        assert fast_r == ref_r
        assert fast_d == ref_d

    @pytest.mark.parametrize("op", ACTIVATION_OPS)
    @pytest.mark.parametrize("bits", BITS)
    @settings(max_examples=40, deadline=None)
    @given(x=FLOAT_ARRAYS, data=st.data())
    def test_activation_encode(self, params_pool, op, bits, x, data):
        """Fitted params and every mode, over signed zeros, NaN, +/-inf,
        subnormals, zero-size and strided views."""
        params = data.draw(st.sampled_from(
            _params_for(params_pool, bits) + _modes_for(bits)
        ))
        view = data.draw(st.sampled_from(["flat", "strided", "float32"]))
        if view == "strided":
            x = np.stack([x, -x, 2.0 * x], axis=-1)[..., ::2].T
        elif view == "float32":
            x = x.astype(np.float32)
        fast = get_kernel(op, "inplace")(x, params, bits)
        ref = get_kernel(op, "reference")(x, params, bits)
        assert fast.dtype == ref.dtype and fast.shape == ref.shape
        # Bit for bit, so signed zeros must agree too.
        assert fast.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("op", ACTIVATION_OPS)
    def test_activation_encode_bits_overflow(self, params_pool, op):
        _, _, wide = params_pool[-1]
        for variant in ("inplace", "reference"):
            with pytest.raises(ValueError, match="do not fit"):
                get_kernel(op, variant)(np.zeros(3), wide, wide.bits - 1)

    @pytest.mark.parametrize("bits", BITS)
    @settings(max_examples=20, deadline=None)
    @given(
        chunks=st.lists(FLOAT_ARRAYS, min_size=1, max_size=5),
        index=st.integers(0, 4),
    )
    def test_encode_batch(self, params_pool, bits, chunks, index):
        params = _params_for(params_pool, bits)[index]
        tensors = [quantize_with_params(chunk, params) for chunk in chunks]
        fast_out, fast_r = get_kernel("qub.encode_batch", "fused")(tensors)
        ref_out, ref_r = get_kernel("qub.encode_batch", "reference")(tensors)
        assert fast_r == ref_r
        assert len(fast_out) == len(ref_out)
        for fast_arr, ref_arr in zip(fast_out, ref_out):
            np.testing.assert_array_equal(fast_arr, ref_arr)


class TestIntOpPairs:
    @settings(max_examples=40, deadline=None)
    @given(
        bits=st.integers(1, 16),
        words=st.data(),
    )
    def test_pack(self, bits, words):
        values = words.draw(st.lists(
            st.integers(0, 2**bits - 1), min_size=0, max_size=80
        ))
        qubs = np.array(values, dtype=np.uint32)
        fast = get_kernel("qub.pack", "packbits")(qubs, bits)
        ref = get_kernel("qub.pack", "reference")(qubs, bits)
        np.testing.assert_array_equal(fast, ref)

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(0, 6), k=st.integers(0, 32), n=st.integers(0, 6),
        scale=st.sampled_from([1, 1 << 10, 1 << 14, 1 << 30, 1 << 40]),
        seed=st.integers(0, 2**16),
    )
    def test_gemm(self, m, k, n, scale, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(-scale, scale + 1, size=(m, k))
        w = rng.integers(-scale, scale + 1, size=(k, n))
        fast = get_kernel("gemm.int", "blas_f64")(x, w)
        ref = get_kernel("gemm.int", "reference")(x, w)
        np.testing.assert_array_equal(fast, ref)
        assert fast.dtype == ref.dtype == np.int64

    def test_gemm_int64_min_falls_back(self):
        """np.abs wraps INT64_MIN, which used to under-report the bound and
        send this product down the inexact BLAS path."""
        x = np.array([[np.iinfo(np.int64).min, 1]], dtype=np.int64)
        w = np.array([[2], [1]], dtype=np.int64)
        np.testing.assert_array_equal(
            get_kernel("gemm.int", "blas_f64")(x, w),
            get_kernel("gemm.int", "reference")(x, w),
        )

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(st.integers(0, (1 << 53) - 1), min_size=0, max_size=32)
    )
    def test_sqrt(self, values):
        q = np.array(values, dtype=np.int64)
        np.testing.assert_array_equal(
            get_kernel("sfu.sqrt", "vector")(q),
            get_kernel("sfu.sqrt", "reference")(q),
        )

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(st.integers(-(1 << 14), 0), min_size=1, max_size=32),
        scale=st.sampled_from([2.0**-8, 2.0**-10, 2.0**-12]),
    )
    def test_exp(self, values, scale):
        q = np.array(values, dtype=np.int64)
        fast_q, fast_s = get_kernel("sfu.exp", "vector")(q, scale)
        ref_q, ref_s = get_kernel("sfu.exp", "reference")(q, scale)
        np.testing.assert_array_equal(fast_q, ref_q)
        assert fast_s == ref_s

    @pytest.mark.parametrize("out_bits", [12, 16])
    @settings(max_examples=20, deadline=None)
    @given(
        rows=st.integers(1, 4), cols=st.integers(1, 16),
        seed=st.integers(0, 2**16),
    )
    def test_softmax(self, out_bits, rows, cols, seed):
        rng = np.random.default_rng(seed)
        q = rng.integers(-(1 << 12), 1 << 12, size=(rows, cols))
        fast_q, fast_s = get_kernel("sfu.softmax", "vector")(
            q, 2.0**-10, out_bits=out_bits
        )
        ref_q, ref_s = get_kernel("sfu.softmax", "reference")(
            q, 2.0**-10, out_bits=out_bits
        )
        np.testing.assert_array_equal(fast_q, ref_q)
        assert fast_s == ref_s

    @settings(max_examples=20, deadline=None)
    @given(size=st.integers(0, 48), seed=st.integers(0, 2**16))
    def test_gelu(self, size, seed):
        rng = np.random.default_rng(seed)
        q = rng.integers(-(1 << 12), 1 << 12, size=size)
        fast_q, fast_s = get_kernel("sfu.gelu", "vector")(q, 2.0**-10)
        ref_q, ref_s = get_kernel("sfu.gelu", "reference")(q, 2.0**-10)
        np.testing.assert_array_equal(fast_q, ref_q)
        assert fast_s == ref_s

    @pytest.mark.parametrize("affine", [False, True])
    @settings(max_examples=20, deadline=None)
    @given(
        rows=st.integers(1, 4), cols=st.integers(1, 24),
        seed=st.integers(0, 2**16),
    )
    def test_layernorm(self, affine, rows, cols, seed):
        rng = np.random.default_rng(seed)
        q = rng.integers(-(1 << 12), 1 << 12, size=(rows, cols))
        kwargs = {"out_bits": 12}
        if affine:
            kwargs["weight"] = rng.normal(1.0, 0.1, size=cols)
            kwargs["bias"] = rng.normal(0.0, 0.1, size=cols)
        fast_q, fast_s = get_kernel("sfu.layernorm", "vector")(
            q, 2.0**-14, **kwargs
        )
        ref_q, ref_s = get_kernel("sfu.layernorm", "reference")(
            q, 2.0**-14, **kwargs
        )
        np.testing.assert_array_equal(fast_q, ref_q)
        assert fast_s == ref_s


class TestActivationKernelsReadOnly:
    """The in-place kernels write only buffers they allocate: the int
    backend reuses its block input for the residual add after encoding it,
    and ``np.asarray(x, float64)`` hands a float64 caller's own array
    straight through."""

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(4)
        x = rng.normal(0.0, 1.0, size=(8, 66, 64))
        x[0, :3, 0] = [np.nan, -0.0, -np.inf]
        # The int backend's qkv transpose: q, k, v are strided views.
        qkv = rng.normal(0.0, 1.0, size=(2, 5, 3, 4, 16)).transpose(2, 0, 3, 1, 4)
        return {
            "float64": x,
            "float32": x.astype(np.float32),
            "q_view": qkv[0],
            "k_view": qkv[1],
            "v_view": qkv[2],
        }

    @pytest.mark.parametrize("op", ACTIVATION_OPS + ("quq.fake_quantize",))
    def test_input_bytes_unchanged(self, params_pool, op):
        if op == "quq.fake_quantize":
            kernel, bits = get_kernel(op, "fused"), ()
        else:
            kernel, bits = get_kernel(op, "inplace"), (6,)
        for name, x in self._inputs().items():
            for p in _params_for(params_pool, 6) + _modes_for(6):
                before = x.tobytes()
                kernel(x, p, *bits)
                assert x.tobytes() == before, (name, p.describe())


class TestHarness:
    def test_deterministic_harness_passes(self):
        report = run_kernel_parity(seed=0, cases=2)
        assert report["passed"]
        assert report["source"] == "kernel-registry"
        assert report["pairs_checked"] == len(kernel_pairs())
        assert report["failures"] == 0

    def test_harness_deterministic(self):
        first = run_kernel_parity(seed=3, cases=2)
        second = run_kernel_parity(seed=3, cases=2)
        assert first == second

    def test_one_sided_negative_params_covered(self, params_pool):
        kinds = {kind for kind, _, _ in params_pool}
        assert "negative_one_sided" in kinds
        assert "positive_softmax" in kinds

    @pytest.mark.parametrize("bits", BITS)
    def test_all_negative_one_sided_nan(self, bits):
        """Regression pin for the one-sided NaN int64-garbage bug."""
        rng = np.random.default_rng(9)
        params = QUQQuantizer(bits).fit(
            -np.abs(rng.normal(size=512)) - 1e-3
        ).params
        x = np.array([np.nan, -1.0, np.nan, -0.5, np.inf, -np.inf])
        fast = get_kernel("quq.fake_quantize", "fused")(x, params)
        ref = get_kernel("quq.fake_quantize", "reference")(x, params)
        assert fast.dtype == ref.dtype and fast.tobytes() == ref.tobytes()
        assert np.isfinite(ref).all()
