"""Tests for the integer-only special-function kernels (I-BERT/I-ViT style)."""

import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from repro.hw import i_exp, i_gelu, i_layernorm, i_softmax, i_sqrt
from repro.kernels import get_kernel

DATA = Path(__file__).parent / "data"


class TestISqrt:
    def test_exact_small_values(self):
        n = np.arange(0, 200)
        np.testing.assert_array_equal(i_sqrt(n), np.floor(np.sqrt(n)).astype(np.int64))

    @given(st.integers(0, 2**52))
    @settings(max_examples=200, deadline=None)
    def test_property_floor_sqrt(self, n):
        root = int(i_sqrt(np.array([n]))[0])
        assert root * root <= n
        assert (root + 1) * (root + 1) > n

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            i_sqrt(np.array([-1]))


class TestIExp:
    def test_matches_float_exp(self, rng):
        x = -np.abs(rng.normal(size=500)) * 4
        scale = 2.0**-12
        q = np.rint(x / scale).astype(np.int64)
        q_out, s_out = i_exp(q, scale)
        err = np.abs(q_out * s_out - np.exp(x))
        assert err.max() < 0.02

    def test_rejects_positive_inputs(self):
        with pytest.raises(ValueError):
            i_exp(np.array([1]), 0.01)

    def test_monotone(self, rng):
        x = -np.sort(np.abs(rng.normal(size=100)) * 3)[::-1]  # ascending
        scale = 2.0**-12
        q = np.rint(x / scale).astype(np.int64)
        q_out, _ = i_exp(q, scale)
        assert (np.diff(q_out) >= 0).all()


class TestISoftmax:
    def test_close_to_float_softmax(self, rng):
        x = rng.normal(size=(8, 32)) * 4
        scale = 2.0**-10
        q = np.rint(x / scale).astype(np.int64)
        q_out, s_out = i_softmax(q, scale)
        ref = np.exp(x - x.max(-1, keepdims=True))
        ref /= ref.sum(-1, keepdims=True)
        assert np.abs(q_out * s_out - ref).max() < 0.01

    def test_rows_sum_close_to_one(self, rng):
        x = rng.normal(size=(4, 16))
        q = np.rint(x / 2.0**-10).astype(np.int64)
        q_out, s_out = i_softmax(q, 2.0**-10)
        sums = (q_out * s_out).sum(-1)
        np.testing.assert_allclose(sums, np.ones(4), atol=0.01)

    def test_output_codes_fit_declared_width(self, rng):
        x = rng.normal(size=(4, 16)) * 5
        q = np.rint(x / 2.0**-10).astype(np.int64)
        q_out, _ = i_softmax(q, 2.0**-10, out_bits=8)
        assert q_out.min() >= 0 and q_out.max() <= 255


class TestIGelu:
    def test_matches_float_gelu(self, rng):
        x = rng.normal(size=1000) * 2
        scale = 2.0**-10
        q = np.rint(x / scale).astype(np.int64)
        q_out, s_out = i_gelu(q, scale)
        ref = x * 0.5 * (1 + erf(x / np.sqrt(2)))
        assert np.abs(q_out * s_out - ref).max() < 0.05

    def test_saturates_correctly_at_extremes(self):
        scale = 2.0**-10
        q = np.rint(np.array([8.0, -8.0]) / scale).astype(np.int64)
        q_out, s_out = i_gelu(q, scale)
        values = q_out * s_out
        assert values[0] == pytest.approx(8.0, abs=0.1)
        assert values[1] == pytest.approx(0.0, abs=0.1)

    def test_reflection_identity(self, rng):
        # gelu(x) + gelu(-x) == x * erf(x / sqrt(2)) for the exact function;
        # the integer approximation must preserve it within its error budget.
        x = np.abs(rng.normal(size=200))
        scale = 2.0**-10
        qp, sp = i_gelu(np.rint(x / scale).astype(np.int64), scale)
        qn, sn = i_gelu(np.rint(-x / scale).astype(np.int64), scale)
        identity = x * erf(x / np.sqrt(2))
        np.testing.assert_allclose(qp * sp + qn * sn, identity, atol=0.05)


class TestILayerNorm:
    def test_matches_float_layernorm(self, rng):
        x = rng.normal(size=(16, 64)) * 3 + 2
        scale = 2.0**-14
        q = np.rint(x / scale).astype(np.int64)
        q_out, s_out = i_layernorm(q, scale, out_bits=12)
        ref = (x - x.mean(-1, keepdims=True)) / x.std(-1, keepdims=True)
        assert np.abs(q_out * s_out - ref).max() < 0.05

    def test_affine_folding(self, rng):
        x = rng.normal(size=(4, 32))
        weight = rng.uniform(0.5, 1.5, size=32)
        bias = rng.normal(size=32)
        scale = 2.0**-14
        q = np.rint(x / scale).astype(np.int64)
        q_out, s_out = i_layernorm(q, scale, weight=weight, bias=bias, out_bits=12)
        ref = (x - x.mean(-1, keepdims=True)) / x.std(-1, keepdims=True) * weight + bias
        assert np.abs(q_out * s_out - ref).max() < 0.1


class TestGoldenCodes:
    """Replays tests/data/int_sfu_golden.npz through the registry: the int
    backend and hw.executor share these kernels, so a changed output code
    moves both alike and their bit-exactness cannot catch it.  The formula
    (each op's reference) minted the fixture, and both implementations
    replay it.  The fixture's cases and their edge inputs are listed in
    tests/data/make_int_sfu_golden.py."""

    def test_codes_and_scales_unchanged(self):
        golden = np.load(DATA / "int_sfu_golden.npz")
        cases = runpy.run_path(str(DATA / "make_int_sfu_golden.py"))["CASES"]
        assert {key.split(":")[0] for key in golden.files} == set(cases)
        for name, (op, scale, kwargs) in cases.items():
            affine = {
                key: golden[f"{name}:{key}"]
                for key in ("weight", "bias")
                if f"{name}:{key}" in golden.files
            }
            for prefer in ("reference", "fast"):
                kernel = get_kernel(op, prefer=prefer)
                q_out, s_out = kernel(golden[f"{name}:q"], scale, **kwargs, **affine)
                label = f"{name} ({prefer})"
                np.testing.assert_array_equal(q_out, golden[f"{name}:q_out"], err_msg=label)
                assert s_out == golden[f"{name}:s_out"], label

    def test_fixture_is_the_formula(self):
        """Regenerating the fixture reproduces it: the build goes through
        the reference implementation."""
        golden = np.load(DATA / "int_sfu_golden.npz")
        built = runpy.run_path(str(DATA / "make_int_sfu_golden.py"))["build"]()
        assert set(built) == set(golden.files)
        for key, value in built.items():
            np.testing.assert_array_equal(value, golden[key], err_msg=key)


class TestTables:
    """The constants the fast softmax and GELU gather from."""

    def test_exp_table_ends_at_its_first_certain_zero(self):
        from repro.hw.int_sfu import EXP_TABLE, TABLE_SCALE, exp_table

        # 22-bit polynomial, q_ln2 = 709 at 2**-10: 22 * 709 + 1 entries.
        assert EXP_TABLE.size == 22 * 709 + 1 and EXP_TABLE[-1] == 0
        np.testing.assert_array_equal(EXP_TABLE, exp_table(TABLE_SCALE))
        beyond = -np.array([EXP_TABLE.size, 10**6, 2**40, 2**62])
        assert not i_exp(beyond, TABLE_SCALE)[0].any()

    @pytest.mark.parametrize("scale", [2.0**-8, 2.0**-10, 2.0**-12, 0.003])
    def test_tables_equal_the_formula_past_their_ends(self, scale):
        from repro.hw.int_sfu import exp_table, gelu_table

        table = exp_table(scale)
        d = np.arange(table.size + 64)
        np.testing.assert_array_equal(
            table[np.minimum(d, table.size - 1)], i_exp(-d, scale)[0])
        factors, s_out = gelu_table(scale)
        clip = factors.size // 2
        q = np.arange(-clip - 64, clip + 65)
        q_out, s_ref = i_gelu(q, scale)
        np.testing.assert_array_equal(q * factors[np.clip(q, -clip, clip) + clip], q_out)
        assert s_out == s_ref

    def test_tables_are_read_only(self):
        from repro.hw.int_sfu import EXP_TABLE, GELU_TABLE

        for table in (EXP_TABLE, GELU_TABLE):
            with pytest.raises(ValueError):
                table[0] = 1


class TestProbabilityOne:
    """A row whose other entries all underflow returns 2**out_bits, one
    more than out_bits can hold: the code of probability 1.0."""

    @pytest.mark.parametrize("prefer", ["reference", "fast"])
    def test_one_hot_row_reaches_two_to_the_out_bits(self, prefer):
        softmax = get_kernel("sfu.softmax", prefer=prefer)
        q_out, s_out = softmax(np.array([[0, -20000, -30000]]), 2.0**-10)
        assert q_out.tolist() == [[65536, 0, 0]] and s_out == 2.0**-16
        q_out, _ = softmax(np.array([[5], [-7]]), 2.0**-10, out_bits=8)
        assert q_out.tolist() == [[256], [256]]
