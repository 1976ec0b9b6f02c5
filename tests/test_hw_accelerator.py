"""Tests for the QUA behavioral model: bit-exact datapath, QU, SFU, cycles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import QUA, EncodedTensor, encode_tensor, gemm_cycles
from repro.hw.walk import _gelu, _layernorm, _softmax
from repro.nn import LayerNorm
from repro.quant import progressive_relaxation
from repro.quant.qub import legalize_for_hardware, quantize_encode


def _gemm(qua, ex, ew):
    """The PE-array accumulators scaled back to real values (float64)."""
    return qua.integer_gemm(ex, ew) * (ex.base_delta * ew.base_delta)


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
        hw = _gemm(QUA(), ex, ew)
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
        hw = _gemm(QUA(), ex, ew)
        ref = ex.to_float() @ ew.to_float()
        np.testing.assert_allclose(hw, ref, rtol=1e-10, atol=1e-12)

    def test_gemm_approximates_float(self, rng):
        x = rng.normal(size=(32, 64)) * 0.5
        w = rng.normal(size=(64, 32)) * 0.05
        hw = _gemm(QUA(), encode_tensor(x, 8), encode_tensor(w, 8))
        exact = x @ w
        correlation = np.corrcoef(hw.reshape(-1), exact.reshape(-1))[0, 1]
        assert correlation > 0.999


class TestWalkDatapath:
    def test_walk_calls_need_a_pipeline(self, rng):
        # Without a pipeline there are no tap parameters to encode under.
        with pytest.raises(RuntimeError, match="pipeline"):
            QUA().store_load(rng.normal(size=(2, 4)), "tiny_vit.blocks.0.block_input")


class TestQuantizationUnit:
    """The QU is the one encode of a float tensor, ``quantize_encode``."""

    def test_requantize_matches_direct_quantization(self, rng):
        x = rng.normal(size=(8, 16)) * 0.3
        w = rng.normal(size=(16, 8)) * 0.05
        ex, ew = encode_tensor(x, 8), encode_tensor(w, 8)
        out_values = _gemm(QUA(), ex, ew)
        out_params = progressive_relaxation(out_values, 8)
        out = EncodedTensor(*quantize_encode(out_values, out_params, 8), 8)
        err = np.abs(out.to_float() - out_values)
        coarsest = max(s.delta for _, s in legalize_for_hardware(out_params).active())
        assert err.max() <= coarsest / 2 + 1e-9

    def test_full_pipeline_produces_encoded_tensor(self, rng):
        x = rng.normal(size=(8, 16)) * 0.3
        w = rng.normal(size=(16, 8)) * 0.05
        ex, ew = encode_tensor(x, 6), encode_tensor(w, 6)
        out_values = _gemm(QUA(), ex, ew)
        out_params = progressive_relaxation(out_values, 6)
        out = EncodedTensor(*quantize_encode(out_values, out_params, 6), 6)
        assert out.shape == (8, 8)
        assert out.qubs.max() < 2**6


class TestSFU:
    """The walk's float special functions over the QUA's SFU load path."""

    def test_softmax_rows_sum_to_one(self, rng):
        encoded = encode_tensor(rng.normal(size=(4, 8)), 8)
        out = _softmax(QUA().sfu_load(encoded), False)
        np.testing.assert_allclose(out.sum(-1), np.ones(4), rtol=1e-9)

    def test_gelu_matches_reference(self, rng):
        from scipy.special import erf

        x = rng.normal(size=(4, 8))
        encoded = encode_tensor(x, 8)
        out = _gelu(QUA().sfu_load(encoded), False)
        decoded = encoded.to_float()
        np.testing.assert_allclose(
            out, decoded * 0.5 * (1 + erf(decoded / np.sqrt(2))), rtol=1e-9
        )

    def test_layernorm_statistics(self, rng):
        encoded = encode_tensor(rng.normal(size=(4, 16)) * 3, 8)
        out = _layernorm(QUA().sfu_load(encoded), LayerNorm(16), False)
        np.testing.assert_allclose(out.mean(-1), np.zeros(4), atol=1e-6)


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
    """EncodedTensor is a plain record: decoded() runs the DU on every
    call, since every walk operand is re-encoded per call and a memo
    would never hit."""

    def test_decoded_values_unchanged_by_caching(self, rng):
        from repro.quant.qub import decode

        encoded = encode_tensor(rng.normal(size=(8, 8)), 8)
        d, n_sh = encoded.decoded()
        d_ref, n_ref = decode(encoded.qubs, encoded.registers, encoded.bits)
        np.testing.assert_array_equal(d, d_ref)
        np.testing.assert_array_equal(n_sh, n_ref)
