"""Tests for the QUA behavioral model: bit-exact datapath, QU, SFU, cycles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import QUA, EncodedTensor, encode_tensor, gemm_cycles
from repro.quant import progressive_relaxation


class TestEncodedTensor:
    def test_to_float_matches_dequantized(self, rng):
        x = rng.standard_t(df=3, size=(8, 16)) * 0.5
        encoded = encode_tensor(x, 6)
        recon = encoded.to_float()
        # Quantization error is bounded by half the coarsest active step.
        assert np.abs(recon - x).max() < 1.0
        assert recon.shape == x.shape

    def test_explicit_params_are_legalized(self, rng):
        x = np.concatenate([rng.normal(size=5000) * 1e-5, rng.normal(size=4) * 10])
        params = progressive_relaxation(x, 8)
        encoded = encode_tensor(x, 8, params=params)
        _, n_sh = encoded.decoded()
        assert n_sh.max() <= 7


class TestIntegerGEMM:
    @pytest.mark.parametrize("bits", [4, 6, 8])
    def test_bit_exact_vs_dequantized_reference(self, rng, bits):
        x = rng.standard_t(df=4, size=(16, 32)) * 0.3
        w = rng.normal(size=(32, 24)) * 0.05
        ex, ew = encode_tensor(x, bits), encode_tensor(w, bits)
        qua = QUA()
        hw = qua.gemm(ex, ew)
        ref = ex.to_float() @ ew.to_float()
        np.testing.assert_allclose(hw, ref, rtol=1e-12, atol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        ex = encode_tensor(rng.normal(size=(4, 5)), 6)
        ew = encode_tensor(rng.normal(size=(6, 4)), 6)
        with pytest.raises(ValueError):
            QUA().integer_gemm(ex, ew)

    def test_accumulators_are_integers(self, rng):
        ex = encode_tensor(rng.normal(size=(4, 8)), 6)
        ew = encode_tensor(rng.normal(size=(8, 4)), 6)
        acc = QUA().integer_gemm(ex, ew)
        assert acc.dtype == np.int64

    @given(st.integers(0, 300), st.sampled_from([4, 6, 8]))
    @settings(max_examples=25, deadline=None)
    def test_property_bit_exactness(self, seed, bits):
        rng = np.random.default_rng(seed)
        x = rng.standard_t(df=3, size=(6, 10)) * rng.uniform(0.01, 10)
        w = rng.normal(size=(10, 7)) * rng.uniform(0.001, 1)
        ex, ew = encode_tensor(x, bits), encode_tensor(w, bits)
        hw = QUA().gemm(ex, ew)
        ref = ex.to_float() @ ew.to_float()
        np.testing.assert_allclose(hw, ref, rtol=1e-10, atol=1e-12)

    def test_gemm_approximates_float(self, rng):
        x = rng.normal(size=(32, 64)) * 0.5
        w = rng.normal(size=(64, 32)) * 0.05
        hw = QUA().gemm(encode_tensor(x, 8), encode_tensor(w, 8))
        exact = x @ w
        correlation = np.corrcoef(hw.reshape(-1), exact.reshape(-1))[0, 1]
        assert correlation > 0.999


class TestQuantizationUnit:
    def test_requantize_matches_direct_quantization(self, rng):
        x = rng.normal(size=(8, 16)) * 0.3
        w = rng.normal(size=(16, 8)) * 0.05
        ex, ew = encode_tensor(x, 8), encode_tensor(w, 8)
        qua = QUA()
        acc = qua.integer_gemm(ex, ew)
        out_values = acc.astype(np.float64) * ex.base_delta * ew.base_delta
        out_params = progressive_relaxation(out_values, 8)
        qt = qua.requantize(acc, ex.base_delta * ew.base_delta, out_params)
        err = np.abs(qt.dequantize() - out_values)
        coarsest = max(s.delta for _, s in qt.params.active())
        assert err.max() <= coarsest / 2 + 1e-9

    def test_full_pipeline_produces_encoded_tensor(self, rng):
        x = rng.normal(size=(8, 16)) * 0.3
        w = rng.normal(size=(16, 8)) * 0.05
        ex, ew = encode_tensor(x, 6), encode_tensor(w, 6)
        qua = QUA()
        acc = qua.integer_gemm(ex, ew)
        out_params = progressive_relaxation(
            acc.astype(np.float64) * ex.base_delta * ew.base_delta, 6
        )
        out = qua.gemm_requantized(ex, ew, out_params)
        assert isinstance(out, EncodedTensor)
        assert out.shape == (8, 8)


class TestSFU:
    def test_softmax_rows_sum_to_one(self, rng):
        encoded = encode_tensor(rng.normal(size=(4, 8)), 8)
        out = QUA().sfu(encoded, "softmax")
        np.testing.assert_allclose(out.sum(-1), np.ones(4), rtol=1e-9)

    def test_gelu_matches_reference(self, rng):
        from scipy.special import erf

        x = rng.normal(size=(4, 8))
        encoded = encode_tensor(x, 8)
        out = QUA().sfu(encoded, "gelu")
        decoded = encoded.to_float()
        np.testing.assert_allclose(
            out, decoded * 0.5 * (1 + erf(decoded / np.sqrt(2))), rtol=1e-9
        )

    def test_layernorm_statistics(self, rng):
        encoded = encode_tensor(rng.normal(size=(4, 16)) * 3, 8)
        out = QUA().sfu(encoded, "layernorm")
        np.testing.assert_allclose(out.mean(-1), np.zeros(4), atol=1e-6)

    def test_add_combines_tensors(self, rng):
        a = encode_tensor(rng.normal(size=(4,)), 8)
        b = encode_tensor(rng.normal(size=(4,)), 8)
        out = QUA().sfu(a, "add", other=b)
        np.testing.assert_allclose(out, a.to_float() + b.to_float(), rtol=1e-12)

    def test_unknown_function_rejected(self, rng):
        encoded = encode_tensor(rng.normal(size=(4,)), 8)
        with pytest.raises(ValueError):
            QUA().sfu(encoded, "sigmoid")


class TestCycleModel:
    def test_single_tile(self):
        assert gemm_cycles(16, 16, 16, 16) == 32  # one tile: m + fill

    def test_tiles_scale_with_k_and_n(self):
        base = gemm_cycles(16, 16, 16, 16)
        assert gemm_cycles(16, 32, 16, 16) == 2 * base
        assert gemm_cycles(16, 16, 32, 16) == 2 * base

    def test_bigger_array_fewer_cycles(self):
        small = gemm_cycles(128, 128, 128, 16)
        large = gemm_cycles(128, 128, 128, 64)
        assert large < small

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            gemm_cycles(0, 4, 4, 4)


class TestEncodedTensorCaching:
    """decoded() is memoized: verification passes re-decode the same
    packed weights many times, and the second pass must be a cache hit
    rather than another full DU sweep."""

    def test_decoded_is_cached(self, rng):
        encoded = encode_tensor(rng.normal(size=(8, 8)), 8)
        first = encoded.decoded()
        assert encoded.decoded() is first

    def test_decoded_values_unchanged_by_caching(self, rng):
        from repro.quant.qub import decode

        encoded = encode_tensor(rng.normal(size=(8, 8)), 8)
        d, n_sh = encoded.decoded()
        d_ref, n_ref = decode(encoded.qubs, encoded.registers, encoded.bits)
        np.testing.assert_array_equal(d, d_ref)
        np.testing.assert_array_equal(n_sh, n_ref)

    def test_caches_do_not_affect_equality_or_repr(self, rng):
        x = rng.normal(size=(3, 3))
        a = encode_tensor(x, 8)
        b = encode_tensor(x, 8)
        a.decoded()
        assert "decoded" not in repr(a)
        np.testing.assert_array_equal(a.qubs, b.qubs)
