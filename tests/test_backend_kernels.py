"""Parity tests: the in-place encoders vs the reference QUA path.

The contract is exact equality — the fused four-slot pass is the same
arithmetic as ``quantize_with_params`` + ``encode``, reorganized, so for
any finite input its shifted PE operands and store/load floats equal,
bit for bit, what decoding the QUB words of ``encode_tensor`` gives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import FusedEncoder, decode_lut
from repro.hw.accelerator import encode_tensor
from repro.quant.qub import FCRegisters, decode, legalize_for_hardware
from repro.quant.quq import QUQQuantizer

BITS = (4, 6, 8)


def fitted_params(data, bits):
    return QUQQuantizer(bits).fit(data).params


def reference_fits(rng):
    """A spread of parameter shapes: two-sided, positive-only, mixed."""
    return {
        "two_sided": rng.normal(size=2048) * 1.7,
        "positive_softmax": rng.uniform(0.0, 1.0, size=2048) ** 4,
        "gelu_like": np.where(
            rng.normal(size=2048) > 0,
            rng.normal(size=2048) * 2,
            rng.normal(size=2048) * 0.05,
        ),
        "heavy_tail": rng.standard_t(df=2, size=2048),
    }


@pytest.fixture(scope="module")
def fits():
    rng = np.random.default_rng(0)
    return reference_fits(rng)


class TestFusedEncoderParity:
    @pytest.mark.parametrize("bits", BITS)
    @pytest.mark.parametrize(
        "case", ["two_sided", "positive_softmax", "gelu_like", "heavy_tail"]
    )
    def test_encode_matches_reference(self, fits, case, bits):
        params = fitted_params(fits[case], bits)
        encoder = FusedEncoder(params, bits)
        rng = np.random.default_rng(7)
        # In-range, far out-of-range, and exact-zero inputs.
        x = np.concatenate([
            rng.normal(size=512) * np.abs(fits[case]).max(),
            rng.normal(size=64) * 100.0,
            np.zeros(8),
            np.array([np.finfo(np.float32).tiny, -np.finfo(np.float32).tiny]),
        ])
        reference = encode_tensor(x, bits, params=params)
        d, n_sh = reference.decoded()
        np.testing.assert_array_equal(encoder.shifted(x), d << n_sh)
        np.testing.assert_array_equal(encoder.store_load(x), reference.to_float())

    @pytest.mark.parametrize("bits", BITS)
    def test_store_load_bit_identical(self, fits, bits):
        params = fitted_params(fits["two_sided"], bits)
        encoder = FusedEncoder(params, bits)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(16, 33)) * 2.5
        reference = encode_tensor(x, bits, params=params)
        np.testing.assert_array_equal(encoder.store_load(x), reference.to_float())

    @pytest.mark.parametrize("bits", BITS)
    def test_shifted_matches_reference_decode(self, fits, bits):
        params = fitted_params(fits["gelu_like"], bits)
        encoder = FusedEncoder(params, bits)
        rng = np.random.default_rng(5)
        x = rng.normal(size=257)
        reference = encode_tensor(x, bits, params=params)
        d, n_sh = reference.decoded()
        np.testing.assert_array_equal(encoder.shifted(x), d << n_sh)

    @given(
        values=st.lists(
            st.floats(
                min_value=-1e6, max_value=1e6,
                allow_nan=False, allow_infinity=False, width=64,
            ),
            min_size=1, max_size=64,
        ),
        bits=st.sampled_from(BITS),
    )
    @settings(max_examples=120, deadline=None)
    def test_property_any_finite_input(self, fits, values, bits):
        params = fitted_params(fits["two_sided"], bits)
        encoder = FusedEncoder(params, bits)
        x = np.asarray(values)
        reference = encode_tensor(x, bits, params=params)
        d, n_sh = reference.decoded()
        np.testing.assert_array_equal(encoder.shifted(x), d << n_sh)
        np.testing.assert_array_equal(encoder.store_load(x), reference.to_float())

    def test_preserves_shape(self, fits):
        params = fitted_params(fits["two_sided"], 6)
        encoder = FusedEncoder(params, 6)
        x = np.zeros((2, 3, 5))
        assert encoder.store_load(x).shape == (2, 3, 5)
        assert encoder.shifted(x).shape == (2, 3, 5)

    def test_rejects_params_wider_than_qubs(self, fits):
        params = fitted_params(fits["two_sided"], 8)
        with pytest.raises(ValueError, match="fit"):
            FusedEncoder(params, 4)


class TestDecodeLut:
    @pytest.mark.parametrize("bits", BITS)
    @pytest.mark.parametrize("case", ["two_sided", "positive_softmax"])
    def test_lut_reproduces_decode_for_every_word(self, fits, case, bits):
        params = legalize_for_hardware(fitted_params(fits[case], bits))
        registers = FCRegisters.from_params(params)
        words = np.arange(2**bits, dtype=np.uint32)
        d, n_sh = decode(words, registers, bits)
        np.testing.assert_array_equal(decode_lut(registers, bits), d << n_sh)
