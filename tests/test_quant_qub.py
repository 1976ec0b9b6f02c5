"""Tests for the QUB codec (Eq. 6-7) and FC registers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from repro.quant import (
    FCRegisters,
    MAX_SHIFT,
    QUQParams,
    QUQQuantizer,
    SUBRANGE_IDS,
    SpaceRegister,
    Subrange,
    SubrangeSpec,
    decode,
    encode,
    legalize_for_hardware,
    quantize_with_params,
)


class TestSpaceRegister:
    @given(st.integers(0, 255))
    @settings(max_examples=100, deadline=None)
    def test_pack_unpack_roundtrip(self, byte):
        # Bytes with both the both-sides and negative-reserved flags set
        # encode a layout pack() can never produce: strict unpack rejects
        # them.  Every other byte round-trips exactly.
        if byte >> 7 & 1 and byte >> 6 & 1:
            with pytest.raises(ValueError, match="inconsistent register byte"):
                SpaceRegister.unpack(byte)
            return
        reg = SpaceRegister.unpack(byte)
        assert reg.pack() == byte
        assert SpaceRegister.unpack(reg.pack()) == reg

    def test_bit_layout(self):
        reg = SpaceRegister(both_sides=True, negative_reserved=False, shift_neg=5, shift_pos=2)
        byte = reg.pack()
        assert byte >> 7 == 1
        assert (byte >> 3) & 0b111 == 5
        assert byte & 0b111 == 2

    def test_both_sides_with_negative_reserved_rejected(self):
        with pytest.raises(ValueError, match="inconsistent register"):
            SpaceRegister(both_sides=True, negative_reserved=True, shift_neg=0, shift_pos=0)

    def test_shift_field_width_enforced(self):
        with pytest.raises(ValueError):
            SpaceRegister(False, False, 8, 0)

    def test_unpack_range_check(self):
        with pytest.raises(ValueError):
            SpaceRegister.unpack(256)
        with pytest.raises(ValueError):
            SpaceRegister.unpack(-1)


class TestFCRegistersPackUnpack:
    def test_roundtrip(self, rng):
        q = QUQQuantizer(6).fit(rng.standard_t(df=3, size=2000))
        regs = FCRegisters.from_params(legalize_for_hardware(q.params))
        fine_byte, coarse_byte = regs.pack()
        assert FCRegisters.unpack(fine_byte, coarse_byte) == regs

    def test_unpack_rejects_inconsistent_byte(self):
        with pytest.raises(ValueError, match="inconsistent register byte"):
            FCRegisters.unpack(0b1100_0000, 0)
        with pytest.raises(ValueError, match="inconsistent register byte"):
            FCRegisters.unpack(0, 0b1100_0000)

    def test_unpack_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            FCRegisters.unpack(300, 0)


def _roundtrip_case(x, bits):
    q = QUQQuantizer(bits).fit(x)
    q.params = legalize_for_hardware(q.params)
    qt = q.quantize(x)
    qubs, registers = encode(qt)
    d, n_sh = decode(qubs, registers, bits)
    recon = d.astype(np.float64) * (2.0**n_sh) * q.params.base_delta
    return qt, qubs, d, n_sh, recon


class TestRoundTrip:
    @pytest.mark.parametrize("bits", [4, 6, 8])
    def test_two_sided_exact(self, rng, bits):
        x = rng.standard_t(df=3, size=4000) * 0.2
        qt, qubs, d, n_sh, recon = _roundtrip_case(x, bits)
        np.testing.assert_allclose(recon, qt.dequantize(), rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("bits", [4, 6, 8])
    def test_nonnegative_exact(self, rng, bits):
        x = rng.dirichlet(np.ones(64), size=50).reshape(-1)
        qt, _, _, _, recon = _roundtrip_case(x, bits)
        np.testing.assert_allclose(recon, qt.dequantize(), rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("bits", [4, 6, 8])
    def test_gelu_mode_c_exact(self, rng, bits):
        g = rng.normal(size=4000)
        x = g * 0.5 * (1 + erf(g / np.sqrt(2)))
        qt, _, _, _, recon = _roundtrip_case(x, bits)
        np.testing.assert_allclose(recon, qt.dequantize(), rtol=1e-6, atol=1e-9)

    def test_nonpositive_zero_clamp_documented(self, rng):
        # One-sided negative space has no zero pattern: exact zeros decode
        # one step below.  Everything else must round-trip exactly.
        x = -np.abs(rng.standard_t(df=3, size=2000))
        x[:10] = 0.0
        qt, _, _, _, recon = _roundtrip_case(x, 6)
        ref = qt.dequantize()
        diff = np.abs(recon - ref)
        assert (diff[ref != 0] <= np.abs(ref[ref != 0]) * 1e-6 + 1e-9).all()
        assert diff.max() <= qt.params.base_delta * (2.0**MAX_SHIFT) + 1e-9

    @given(st.integers(0, 500), st.sampled_from([4, 6, 8]))
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip(self, seed, bits):
        rng = np.random.default_rng(seed)
        x = rng.standard_t(df=3, size=1000) * rng.uniform(1e-3, 100)
        qt, _, _, _, recon = _roundtrip_case(x, bits)
        np.testing.assert_allclose(recon, qt.dequantize(), rtol=1e-6, atol=1e-9)


def _random_legal_params(rng, bits: int, pattern: str) -> QUQParams:
    """Randomized QUQParams covering every mode's level layout.

    Deltas are ``base * 2^k`` with ``k`` possibly beyond ``MAX_SHIFT`` so
    the caller's ``legalize_for_hardware`` pass is exercised too.
    """
    quarter = 2 ** (bits - 2)
    half = 2 ** (bits - 1)
    base = float(2.0 ** int(rng.integers(-12, 3)))

    def spec(levels: int) -> SubrangeSpec:
        return SubrangeSpec(base * 2.0 ** int(rng.integers(0, 10)), levels)

    layouts = {
        # Mode A: all four subranges.
        "A": dict(f_neg=spec(quarter), f_pos=spec(quarter),
                  c_neg=spec(quarter), c_pos=spec(quarter)),
        # Mode B: one-sided data — the decode branch for the other sign
        # is empty (positive case) or the zero code is clamped (negative).
        "B+": dict(f_neg=None, f_pos=spec(half), c_neg=None, c_pos=spec(half)),
        "B-": dict(f_neg=spec(half), f_pos=None, c_neg=spec(half), c_pos=None),
        # Mode C: one coarse side merged away, its space one-sided.
        "C+": dict(f_neg=spec(quarter), f_pos=spec(quarter),
                   c_neg=None, c_pos=spec(half)),
        "C-": dict(f_neg=spec(quarter), f_pos=spec(quarter),
                   c_neg=spec(half), c_pos=None),
        # Mode D: a single subrange per space, on opposite sides.
        "D+": dict(f_neg=None, f_pos=spec(half), c_neg=spec(half), c_pos=None),
        "D-": dict(f_neg=spec(half), f_pos=None, c_neg=None, c_pos=spec(half)),
    }
    return QUQParams(bits, **layouts[pattern])


class TestEncodeDecodeProperty:
    """Satellite: encode -> decode is bit-exact for *any* legal registers,
    not just the layouts the fitting pipeline happens to produce."""

    @given(
        st.integers(0, 400),
        st.sampled_from([4, 6, 8]),
        st.sampled_from(["A", "B+", "B-", "C+", "C-", "D+", "D-"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_bit_exact_roundtrip(self, seed, bits, pattern):
        rng = np.random.default_rng([seed, bits])
        params = legalize_for_hardware(_random_legal_params(rng, bits, pattern))
        for subrange, _ in params.active():
            assert params.shift(subrange) <= MAX_SHIFT
        # Sampling representable points makes the expected integers exact.
        x = rng.choice(params.quantization_points(), size=256)
        qt = quantize_with_params(x, params)
        qubs, registers = encode(qt)
        d, n_sh = decode(qubs, registers, bits)

        shifts = np.zeros(x.shape, dtype=np.int64)
        for subrange, _ in params.active():
            mask = qt.subranges == SUBRANGE_IDS[subrange]
            shifts[mask] = params.shift(subrange)
        expected = qt.codes.astype(np.int64) << shifts
        got = d.astype(np.int64) << n_sh

        # The documented deviation: a one-sided negative space cannot
        # encode zero, so those codes clamp to -1 (one step below).
        clamped = np.zeros(x.shape, dtype=bool)
        fine = (qt.subranges == SUBRANGE_IDS[Subrange.F_NEG]) | (
            qt.subranges == SUBRANGE_IDS[Subrange.F_POS]
        )
        for mask, register in ((fine, registers.fine), (~fine, registers.coarse)):
            if register.negative_reserved:
                clamped |= mask & (qt.codes == 0)
        assert np.array_equal(got[~clamped], expected[~clamped])
        assert np.array_equal(
            got[clamped], -(np.int64(1) << n_sh[clamped])
        )  # d == -1 at the register's negative shift


class TestDecodedOperandWidth:
    @pytest.mark.parametrize("bits", [4, 6, 8])
    def test_d_fits_signed_multiplier(self, rng, bits):
        """Section 4.1's claim: a b-bit signed multiplier handles any mode."""
        x = rng.standard_t(df=3, size=3000)
        _, _, d, n_sh, _ = _roundtrip_case(x, bits)
        assert d.min() >= -(2 ** (bits - 1))
        assert d.max() <= 2 ** (bits - 1) - 1
        assert n_sh.min() >= 0 and n_sh.max() <= MAX_SHIFT

    def test_qub_dtype_single_byte(self, rng):
        x = rng.normal(size=100)
        q = QUQQuantizer(8).fit(x)
        qubs, _ = encode(q.quantize(x))
        assert qubs.dtype == np.uint8


class TestLegalization:
    def test_pathological_shifts_reduced(self, rng):
        x = np.concatenate([rng.normal(size=10000) * 1e-5, rng.normal(size=5) * 10])
        q = QUQQuantizer(8).fit(x)
        legal = legalize_for_hardware(q.params)
        for subrange, _ in legal.active():
            assert legal.shift(subrange) <= MAX_SHIFT

    def test_already_legal_untouched(self, rng):
        q = QUQQuantizer(6).fit(rng.normal(size=1000))
        legal = legalize_for_hardware(q.params)
        assert legal == q.params

    def test_legalized_params_still_valid(self, rng):
        x = np.concatenate([rng.normal(size=10000) * 1e-5, rng.normal(size=5) * 10])
        legal = legalize_for_hardware(QUQQuantizer(6).fit(x).params)
        assert sum(s.levels for _, s in legal.active()) == 64


class TestFCRegistersFromParams:
    def test_mode_a_both_sides(self, rng):
        q = QUQQuantizer(6).fit(rng.standard_t(df=2, size=20000))
        regs = FCRegisters.from_params(q.params)
        assert regs.fine.both_sides
        assert regs.coarse.both_sides

    def test_mode_b_positive_reserved(self, rng):
        q = QUQQuantizer(6).fit(np.abs(rng.standard_t(df=3, size=5000)))
        regs = FCRegisters.from_params(q.params)
        assert not regs.fine.both_sides
        assert not regs.fine.negative_reserved
