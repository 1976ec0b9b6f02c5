"""Property tests: the fast fake-quantization path equals the code path."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from repro.quant import QUQQuantizer
from repro.quant.quq import fake_quantize_with_params, quantize_with_params


def _sample(kind: str, seed: int, size: int = 3000) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "long_tail":
        return rng.standard_t(df=2.5, size=size) * rng.uniform(1e-3, 10)
    if kind == "gauss":
        return rng.normal(size=size) * rng.uniform(1e-3, 10)
    if kind == "nonneg":
        return np.abs(rng.standard_t(df=3, size=size))
    if kind == "nonpos":
        return -np.abs(rng.standard_t(df=3, size=size))
    g = rng.normal(size=size)
    return g * 0.5 * (1 + erf(g / np.sqrt(2)))  # gelu


class TestFastPathEquivalence:
    @given(
        st.sampled_from(["long_tail", "gauss", "nonneg", "nonpos", "gelu"]),
        st.integers(0, 10_000),
        st.sampled_from([4, 6, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_code_path(self, kind, seed, bits):
        x = _sample(kind, seed)
        params = QUQQuantizer(bits).fit(x).params
        slow = quantize_with_params(x, params).dequantize()
        fast = fake_quantize_with_params(x, params)
        assert fast.dtype == slow.dtype and fast.shape == slow.shape
        # Bit for bit, so signed zeros must agree too.
        assert fast.tobytes() == slow.tobytes()

    def test_table_memo_dies_with_its_params(self):
        """Hessian grid candidates and drift recalibration keep minting
        params: the kernel's table memo must keep neither them nor their
        tables alive."""
        import gc
        import weakref

        from repro.quant import quq

        x = _sample("gauss", 0, size=64)
        fitted = QUQQuantizer(6).fit(x)
        gc.collect()
        before = len(quq._TABLES)  # params that other tests keep alive
        clones = [fitted.scaled(1.0 + i / 1000) for i in range(1000)]
        for clone in clones:
            fake_quantize_with_params(x, clone.params)
        assert len(quq._TABLES) >= before + 1000  # one table set per params
        refs = [weakref.ref(clone.params) for clone in clones]
        del clones, clone
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert len(quq._TABLES) <= before

    def test_concurrent_callers_share_the_memo(self):
        """Serving threads fake-quantize concurrently: a table set may be
        built twice, but every result stays exact."""
        import sys
        import threading

        x = _sample("gauss", 1, size=256)
        fitted = QUQQuantizer(6).fit(x)
        clones = [fitted.scaled(1.0 + i / 100) for i in range(50)]
        expected = [quantize_with_params(x, c.params).dequantize().tobytes() for c in clones]
        errors = []

        def work():
            try:
                for clone, want in zip(clones, expected):
                    if fake_quantize_with_params(x, clone.params).tobytes() != want:
                        errors.append(clone.params)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors

    def test_preserves_dtype_and_shape(self):
        x = np.random.default_rng(0).normal(size=(7, 9)).astype(np.float32)
        params = QUQQuantizer(6).fit(x).params
        out = fake_quantize_with_params(x, params)
        assert out.dtype == np.float32
        assert out.shape == (7, 9)

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_projection_property(self, seed):
        x = _sample("long_tail", seed)
        params = QUQQuantizer(6).fit(x).params
        once = fake_quantize_with_params(x, params)
        np.testing.assert_allclose(
            fake_quantize_with_params(once, params), once, atol=1e-6
        )
