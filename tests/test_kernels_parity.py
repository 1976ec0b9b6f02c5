"""Property-based parity: every registry pair, hypothesis-driven inputs.

The deterministic harness (``repro.kernels.parity``) runs the same pairs
in CI environments without hypothesis; this suite fuzzes deeper — float
strategies with NaN/±inf/denormals enabled, random shapes including
zero-size, all bit-widths — and pins that the deterministic harness
itself passes and stays deterministic.  Both implementations of each
``sfu.*`` op are also fuzzed against the scalar evaluation in
``tests/test_backend_sfu.py``, and the float64 root against Newton's.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import FusedEncoder
from repro.hw.int_sfu import i_exp, i_sqrt, i_sqrt_f64
from repro.kernels import KernelPair, get_kernel, kernel_pairs, run_kernel_parity
from repro.kernels.parity import (
    check_pair,
    fitted_params_pool,
    mode_params_pool,
    parity_cases,
)
from repro.quant.params import Subrange
from repro.quant.qub import decode, quantize_encode
from repro.quant.quq import SUBRANGE_IDS, QUQQuantizer, _fused_tables, quantize_with_params
from tests.test_backend_sfu import (
    elementwise,
    scalar_exp,
    scalar_gelu,
    scalar_layernorm,
    scalar_softmax,
)

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
        fast = get_kernel("quq.fake_quantize", "fast")(x, params)
        ref = get_kernel("quq.fake_quantize", "reference")(x, params)
        assert fast.dtype == ref.dtype and fast.shape == ref.shape
        # Bit for bit, so signed zeros must agree too.
        assert fast.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("bits", BITS)
    @settings(max_examples=40, deadline=None)
    @given(x=FLOAT_ARRAYS, index=st.integers(0, 4))
    def test_encode(self, params_pool, bits, x, index):
        """The one encode's words decode to the code path's codes, each at
        its subrange's shift, NaN and inf included; a zero code in a
        one-sided negative space is the documented -1."""
        params = _params_for(params_pool, bits)[index]
        qubs, registers, base_delta = quantize_encode(x, params, bits)
        d, n_sh = decode(qubs, registers, bits)
        qt = quantize_with_params(x, params)
        shifts = np.zeros(x.shape, dtype=np.int64)
        for subrange, _ in params.active():
            shifts[qt.subranges == SUBRANGE_IDS[subrange]] = params.shift(subrange)
        fine = np.isin(qt.subranges, [SUBRANGE_IDS[Subrange.F_NEG], SUBRANGE_IDS[Subrange.F_POS]])
        clamped = np.zeros(x.shape, dtype=bool)
        for mask, register in ((fine, registers.fine), (~fine, registers.coarse)):
            if register.negative_reserved:
                clamped |= mask & (qt.codes == 0)
        expected = np.where(clamped, -1, qt.codes) << shifts
        np.testing.assert_array_equal(d << n_sh, expected)
        assert base_delta == params.base_delta

    @pytest.mark.parametrize("op", ACTIVATION_OPS)
    @pytest.mark.parametrize("bits", BITS)
    @settings(max_examples=40, deadline=None)
    @given(x=FLOAT_ARRAYS, data=st.data())
    def test_activation_encode(self, params_pool, op, bits, x, data):
        """Fitted params and every mode, over signed zeros, NaN, +/-inf,
        subnormals, zero-size and strided views."""
        encoder = FusedEncoder(data.draw(st.sampled_from(
            _params_for(params_pool, bits) + _modes_for(bits)
        )), bits)
        view = data.draw(st.sampled_from(["flat", "strided", "float32"]))
        if view == "strided":
            x = np.stack([x, -x, 2.0 * x], axis=-1)[..., ::2].T
        elif view == "float32":
            x = x.astype(np.float32)
        fast = get_kernel(op, "fast")(x, encoder)
        ref = get_kernel(op, "reference")(x, encoder)
        assert fast.dtype == ref.dtype and fast.shape == ref.shape
        # Bit for bit, so signed zeros must agree too.
        assert fast.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("op", ACTIVATION_OPS)
    def test_activation_encode_bits_overflow(self, params_pool, op):
        """Params wider than the QUB width: no encoder can be built for
        them, and the reference, which reads only an encoder's ``params``
        and ``bits``, refuses them in the spec-path encode."""
        _, _, wide = params_pool[-1]
        with pytest.raises(ValueError, match="do not fit"):
            FusedEncoder(wide, wide.bits - 1)
        with pytest.raises(ValueError, match="do not fit"):
            quantize_encode(np.zeros(3), wide, wide.bits - 1)
        overflowing = SimpleNamespace(params=wide, bits=wide.bits - 1)
        with pytest.raises(ValueError, match="do not fit"):
            get_kernel(op, "reference")(np.zeros(3), overflowing)


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
        fast = get_kernel("qub.pack", "fast")(qubs, bits)
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
        fast = get_kernel("gemm.int", "fast")(x, w)
        ref = get_kernel("gemm.int", "reference")(x, w)
        np.testing.assert_array_equal(fast, ref)
        assert fast.dtype == ref.dtype == np.int64

    def test_gemm_int64_min_falls_back(self):
        """np.abs wraps INT64_MIN, which used to under-report the bound and
        send this product down the inexact BLAS path."""
        x = np.array([[np.iinfo(np.int64).min, 1]], dtype=np.int64)
        w = np.array([[2], [1]], dtype=np.int64)
        np.testing.assert_array_equal(
            get_kernel("gemm.int", "fast")(x, w),
            get_kernel("gemm.int", "reference")(x, w),
        )

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(st.integers(0, (1 << 53) - 1), min_size=0, max_size=32)
    )
    def test_sqrt(self, values):
        q = np.array(values, dtype=np.int64)
        np.testing.assert_array_equal(i_sqrt_f64(q), i_sqrt(q))

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(st.integers(-(1 << 14), 0), min_size=1, max_size=32),
        scale=st.sampled_from([2.0**-8, 2.0**-10, 2.0**-12]),
    )
    def test_exp(self, values, scale):
        q = np.array(values, dtype=np.int64)
        fast_q, fast_s = i_exp(q, scale)
        ref_q, ref_s = elementwise(scalar_exp, q, scale)
        np.testing.assert_array_equal(fast_q, ref_q)
        assert fast_s == ref_s

    @pytest.mark.parametrize("out_bits", [12, 16])
    @settings(max_examples=20, deadline=None)
    @given(
        rows=st.integers(1, 4), cols=st.integers(1, 16),
        spread=st.sampled_from([1 << 12, 1 << 15]), seed=st.integers(0, 2**16),
    )
    def test_softmax(self, out_bits, rows, cols, spread, seed):
        # 1 << 15 spreads rows past the exp table's last, zero entry.
        rng = np.random.default_rng(seed)
        q = rng.integers(-spread, spread, size=(rows, cols))
        expected = scalar_softmax(q, 2.0**-10, out_bits=out_bits)
        for prefer in ("reference", "fast"):
            q_out, s_out = get_kernel("sfu.softmax", prefer)(q, 2.0**-10, out_bits=out_bits)
            np.testing.assert_array_equal(q_out, expected, err_msg=prefer)
            assert s_out == 2.0**-out_bits

    @settings(max_examples=20, deadline=None)
    @given(size=st.integers(0, 48), seed=st.integers(0, 2**16))
    def test_gelu(self, size, seed):
        rng = np.random.default_rng(seed)
        q = rng.integers(-(1 << 12), 1 << 12, size=size)
        ref_q, ref_s = elementwise(scalar_gelu, q, 2.0**-10)
        for prefer in ("reference", "fast"):
            q_out, s_out = get_kernel("sfu.gelu", prefer)(q, 2.0**-10)
            np.testing.assert_array_equal(q_out, ref_q, err_msg=prefer)
            assert s_out == ref_s

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
        expected = scalar_layernorm(q, **kwargs)
        for prefer in ("reference", "fast"):
            q_out, s_out = get_kernel("sfu.layernorm", prefer)(q, 2.0**-14, **kwargs)
            np.testing.assert_array_equal(q_out, expected, err_msg=prefer)
            assert s_out == 2.0**-12


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
        kernel = get_kernel(op, "fast")
        for name, x in self._inputs().items():
            for p in _params_for(params_pool, 6) + _modes_for(6):
                before = x.tobytes()
                kernel(x, p if op == "quq.fake_quantize" else FusedEncoder(p, 6))
                assert x.tobytes() == before, (name, p.describe())


QUANTIZER_OPS = ("quq.fake_quantize",) + ACTIVATION_OPS
SFU_OPS = ("sfu.softmax", "sfu.gelu", "sfu.layernorm")


def _pair(op):
    (pair,) = [pair for pair in kernel_pairs() if pair.op == op]
    return pair


class TestHarness:
    def test_deterministic_harness_passes(self):
        report = run_kernel_parity(seed=0, cases=2)
        assert report["passed"]
        assert report["source"] == "kernel-registry"
        assert report["pairs_checked"] == len(kernel_pairs())
        assert report["failures"] == 0
        for op in QUANTIZER_OPS:
            entry = report["ops"][op]
            assert entry["enumerated_points"] > 10_000, op
            assert min(entry["sides"].values()) > 0, op
        # Every table index and 64 codes past each end, at least once.
        from repro.hw.int_sfu import EXP_TABLE, GELU_TABLE

        domains = {"sfu.softmax": EXP_TABLE.size + 64, "sfu.gelu": GELU_TABLE.size + 128,
                   "sfu.layernorm": 3 * 33**3}
        for op, domain in domains.items():
            entry = report["ops"][op]
            assert entry["enumerated_points"] >= domain, op
            assert min(entry["sides"].values()) > 0, op

    @pytest.mark.parametrize("op,table", [("sfu.softmax", "EXP_TABLE"),
                                          ("sfu.gelu", "GELU_TABLE")])
    def test_enumeration_catches_one_table_entry_off_by_one(self, op, table, monkeypatch):
        """Each table index reaches an enumerated case's codes: one entry
        moved by one fails them, and no case at another scale."""
        import repro.kernels.ops as ops

        for index in (0, 1000, getattr(ops, table).size - 1):
            bad = getattr(ops, table).copy()
            bad[index] += 1
            monkeypatch.setattr(ops, table, bad)
            entry = check_pair(_pair(op), cases=0)
            caught = {m["case"] for m in entry["mismatches"]}
            assert any(label.startswith("s2^-10/table") for label in caught), index
            assert not any(label.startswith("s2^-8/") for label in caught), index

    def test_enumeration_catches_a_layernorm_divide_without_its_window(self, monkeypatch):
        """A float64 divide taken past 2**53 rounds some quotients to the
        wrong integer: the cases outside the window catch it."""
        import repro.kernels.ops as ops

        monkeypatch.setattr(ops, "_max_magnitude", lambda a: 0)
        entry = check_pair(_pair("sfu.layernorm"), cases=0)
        assert entry["mismatches"]
        assert {m["side"] for m in entry["mismatches"]} == {"int64"}

    @pytest.mark.parametrize("op,missing", [
        ("sfu.softmax", "formula"), ("sfu.gelu", "formula"), ("sfu.layernorm", "int64"),
    ])
    def test_an_sfu_without_cases_on_a_side_fails(self, op, missing, monkeypatch):
        import repro.kernels.parity as parity

        monkeypatch.setattr(parity, "SFU_SCALES", (parity.TABLE_SCALE,))
        monkeypatch.setattr(parity, "_layernorm_side", lambda q, out_bits: "float64")
        entry = check_pair(_pair(op), cases=0)
        assert not entry["passed"] and entry["sides"][missing] == 0
        assert [m["case"] for m in entry["mismatches"]] == [missing]

    @pytest.mark.parametrize("op", QUANTIZER_OPS)
    def test_enumeration_catches_a_step_moved_by_an_ulp(self, op):
        """A fast implementation whose every step sits one float64 ulp low
        fails every float64 step-point case, one per params set."""
        pair = _pair(op)

        def one_ulp_low(x, operand):
            with np.errstate(over="ignore"):  # -inf moves to the largest finite
                return pair.reference(np.nextafter(np.asarray(x, np.float64), np.inf), operand)

        entry = check_pair(KernelPair(op, pair.reference, one_ulp_low), cases=0)
        caught = {m["case"] for m in entry["mismatches"]}
        float64 = {case.label for case in parity_cases(op, cases=0)
                   if case.enumerated and case.label.endswith("float64")}
        assert float64 and float64 <= caught

    def test_fine_heavy_layouts_stay_on_the_four_slot_route(self):
        layouts = {(name, bits): _fused_tables(p).one_delta for name, bits, p in mode_params_pool()}
        for bits in BITS:
            assert layouts["A=", bits] and layouts["C+=", bits]
            assert not layouts["Cf+=", bits] and not layouts["Cf-=", bits]
            assert not layouts["A", bits]

    @pytest.mark.parametrize("op", QUANTIZER_OPS)
    def test_enumeration_fails_a_one_delta_test_without_the_levels_rule(self, op, monkeypatch):
        """A one-delta test that only compares deltas sends the ``Cf+=`` and
        ``Cf-=`` layouts down the scalar branch, whose one clamp misplaces
        their codes past the fine span: their step points catch it."""
        import repro.backend.kernels
        import repro.quant.quq as quq

        real = quq._fused_tables

        def deltas_only(params):
            deltas = {spec.delta for _, spec in params.active()}
            return real(params)._replace(one_delta=len(deltas) == 1)

        quq._TABLES.clear()
        monkeypatch.setattr(quq, "_fused_tables", deltas_only)
        monkeypatch.setattr(repro.backend.kernels, "_fused_tables", deltas_only)
        try:
            entry = check_pair(_pair(op), cases=0)
        finally:
            monkeypatch.undo()
            quq._TABLES.clear()
        caught = {m["case"] for m in entry["mismatches"]}
        for layout in ("Cf+=", "Cf-="):
            for bits in BITS:
                for dtype in ("float32", "float64"):
                    assert f"{layout}/b{bits}/steps_{dtype}" in caught
        assert all(m["case"].startswith("Cf") for m in entry["mismatches"])

    def test_an_op_without_one_delta_cases_fails(self, monkeypatch):
        import repro.kernels.parity as parity

        four_slot = [(n, b, p) for n, b, p in mode_params_pool() if not _fused_tables(p).one_delta]
        monkeypatch.setattr(parity, "fitted_params_pool", lambda seed: [])
        monkeypatch.setattr(parity, "_raw_params_pool", lambda seed: [])
        monkeypatch.setattr(parity, "mode_params_pool", lambda: four_slot)
        entry = check_pair(_pair("quq.fake_quantize"), cases=0)
        assert not entry["passed"]
        assert entry["sides"]["one_delta"] == 0 and entry["sides"]["four_slot"] > 0
        assert [m["case"] for m in entry["mismatches"]] == ["one_delta"]

    def test_wrong_dtype_is_flagged(self):
        """A fast ``gemm.int`` returning float64 accumulators fails every
        case, though each of its values equals the reference's."""
        (gemm,) = [pair for pair in kernel_pairs() if pair.op == "gemm.int"]

        def float64_gemm(x, w):
            return gemm.reference(x, w).astype(np.float64)

        entry = check_pair(KernelPair("gemm.int", gemm.reference, float64_gemm))
        assert entry["cases"] > 0
        assert len(entry["mismatches"]) == entry["cases"]
        assert {m["problem"] for m in entry["mismatches"]} == {
            "dtypes differ: reference int64, fast float64"
        }

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
        fast = get_kernel("quq.fake_quantize", "fast")(x, params)
        ref = get_kernel("quq.fake_quantize", "reference")(x, params)
        assert fast.dtype == ref.dtype and fast.tobytes() == ref.tobytes()
        assert np.isfinite(ref).all()
