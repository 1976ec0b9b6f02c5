"""The kernel registry: registration rules, dispatch precedence, env
override, counters, caches, snapshot shape, and the routed call sites."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.kernels import (
    KERNELS,
    KernelRegistry,
    KernelRegistryError,
    ParitySpec,
    active_kernels,
    clear_kernel_caches,
    fused_encoder,
    get_kernel,
    kernel_cache_info,
    kernel_pairs,
    kernels_snapshot,
)
from repro.quant.quq import QUQQuantizer


@pytest.fixture()
def registry():
    return KernelRegistry()


def _noop(*args, **kwargs):
    return None


def _other(*args, **kwargs):
    return None


class TestRegistration:
    def test_reference_then_fast(self, registry):
        registry.register("op.a", "reference", _noop)
        registry.register("op.a", "fast1", _other, parity=ParitySpec())
        assert registry.variants("op.a") == ["reference", "fast1"]

    def test_fast_without_reference_rejected(self, registry):
        with pytest.raises(KernelRegistryError, match="needs a reference"):
            registry.register("op.a", "fast1", _noop, parity=ParitySpec())

    def test_fast_without_parity_rejected(self, registry):
        registry.register("op.a", "reference", _noop)
        with pytest.raises(KernelRegistryError, match="parity spec"):
            registry.register("op.a", "fast1", _other)

    def test_duplicate_rejected(self, registry):
        registry.register("op.a", "reference", _noop)
        with pytest.raises(KernelRegistryError, match="already registered"):
            registry.register("op.a", "reference", _other)

    def test_decorator_form(self, registry):
        @registry.register("op.a", "reference")
        def ref():
            return "ref"

        assert registry.reference("op.a").fn is ref

    def test_tolerance_spec_needs_tolerance(self):
        with pytest.raises(ValueError, match="nonzero"):
            ParitySpec(bit_exact=False)
        spec = ParitySpec(bit_exact=False, atol=1e-6)
        assert "allclose" in spec.describe()

    def test_unknown_op(self, registry):
        with pytest.raises(KernelRegistryError, match="unknown kernel op"):
            registry.resolve("op.missing")


class TestDispatch:
    @pytest.fixture()
    def populated(self, registry):
        registry.register("op.a", "reference", _noop)
        registry.register("op.a", "v1", _other, parity=ParitySpec())
        registry.register("op.b", "reference", _noop)
        return registry

    def test_fast_by_default(self, populated):
        assert populated.resolve("op.a").variant == "v1"
        assert populated.resolve("op.b").variant == "reference"

    def test_newest_fast_wins(self, populated):
        populated.register("op.a", "v2", _noop, parity=ParitySpec())
        assert populated.resolve("op.a").variant == "v2"

    def test_explicit_prefer(self, populated):
        assert populated.resolve("op.a", "reference").variant == "reference"
        assert populated.resolve("op.a", "v1").variant == "v1"
        assert populated.resolve("op.a", "fast").variant == "v1"
        with pytest.raises(KernelRegistryError, match="no variant"):
            populated.resolve("op.a", "v9")

    def test_env_reference_global(self, populated, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "reference")
        assert populated.resolve("op.a").variant == "reference"
        monkeypatch.setenv("REPRO_KERNELS", "fast")
        assert populated.resolve("op.a").variant == "v1"

    def test_env_per_op_pins(self, populated, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "op.a=reference")
        assert populated.resolve("op.a").variant == "reference"
        assert populated.resolve("op.b").variant == "reference"  # no fast

    def test_env_pin_on_unknown_op_raises(self, populated, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "op.z=reference")
        with pytest.raises(KernelRegistryError, match=r"op\.z.*registered"):
            populated.resolve("op.a")
        # Not cached as valid: every dispatch under the bad value raises.
        with pytest.raises(KernelRegistryError, match="op.z"):
            populated.get("op.b")

    def test_env_bad_entry(self, populated, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "garbage")
        with pytest.raises(ValueError, match="REPRO_KERNELS"):
            populated.resolve("op.a")

    def test_prefer_beats_env(self, populated, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "reference")
        assert populated.resolve("op.a", "fast").variant == "v1"

    def test_get_counts_dispatch(self, populated):
        populated.get("op.a")
        populated.get("op.a", "reference")
        assert populated.counters["op.a:v1"] == 1
        assert populated.counters["op.a:reference"] == 1
        populated.reset_counters()
        assert populated.counters == {}

    def test_pairs(self, populated):
        pairs = populated.pairs()
        assert [(op, fast.variant) for op, _, fast in pairs] == [("op.a", "v1")]

    def test_snapshot_shape(self, populated, monkeypatch):
        populated.get("op.a")
        populated.count("op.a:cache_hit", 3)
        snap = populated.snapshot()
        assert snap["override"] is None
        assert snap["ops"]["op.a"]["selected"] == "v1"
        assert snap["ops"]["op.a"]["calls"] == {"v1": 1}
        assert snap["cache"] == {"op.a:cache_hit": 3}
        monkeypatch.setenv("REPRO_KERNELS", "reference")
        assert populated.snapshot()["override"] == "reference"


class TestBuiltinRegistry:
    """The process-wide registry with the built-in ops loaded."""

    def test_all_ops_registered(self):
        ops = {op for op, _, _ in kernel_pairs()}
        assert ops == {
            "quq.fake_quantize", "qub.encode", "qub.encode_batch",
            "qub.shifted", "qub.store_load",
            "qub.pack", "qub.decode_lut", "gemm.int",
            "sfu.sqrt", "sfu.exp", "sfu.softmax", "sfu.gelu",
            "sfu.layernorm",
        }
        # quantize is reference-only: present in the registry, no pair.
        assert "quq.quantize" in KERNELS.ops()

    def test_selected_fast_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        selected = active_kernels()
        assert selected["quq.fake_quantize"] == "fused"
        assert selected["gemm.int"] == "blas_f64"
        assert selected["quq.quantize"] == "reference"

    def test_env_pin_typo_is_reported(self, monkeypatch):
        """A pin on a mistyped op fails loudly instead of leaving the
        real op on its fast variant."""
        monkeypatch.setenv("REPRO_KERNELS", "gemm.in=reference")
        with pytest.raises(KernelRegistryError, match="gemm.in") as error:
            get_kernel("gemm.int")
        assert "gemm.int" in str(error.value)  # lists the registered ops
        monkeypatch.setenv("REPRO_KERNELS", "gemm.int=reference")
        assert active_kernels()["gemm.int"] == "reference"

    def test_env_forces_reference_everywhere(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "reference")
        assert set(active_kernels().values()) == {"reference"}

    def test_quantizer_routes_through_registry(self, monkeypatch):
        rng = np.random.default_rng(3)
        x = rng.normal(size=256)
        quantizer = QUQQuantizer(6).fit(x)
        KERNELS.reset_counters()
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        fast = quantizer.fake_quantize(x)
        assert KERNELS.counters.get("quq.fake_quantize:fused") == 1
        monkeypatch.setenv("REPRO_KERNELS", "reference")
        ref = quantizer.fake_quantize(x)
        assert KERNELS.counters.get("quq.fake_quantize:reference") == 1
        np.testing.assert_array_equal(fast, ref)

    def test_fused_encoder_memo_shared(self):
        rng = np.random.default_rng(5)
        params = QUQQuantizer(6).fit(rng.normal(size=256)).params
        clear_kernel_caches()
        KERNELS.reset_counters()
        first = fused_encoder(params, 6)
        second = fused_encoder(params, 6)
        assert first is second
        assert KERNELS.counters["qub.encode:cache_miss"] == 1
        assert KERNELS.counters["qub.encode:cache_hit"] == 1
        assert kernel_cache_info()["fused_encoders"] >= 1

    def test_activation_encode_reuses_the_tap_encoder_uncounted(self):
        """Raw params and the encoder's legalized copy share one encoder,
        and the qub.shifted / qub.store_load lookups are not counted as
        qub.encode cache events."""
        from repro.quant.params import QUQParams, SubrangeSpec
        from repro.quant.qub import MAX_SHIFT

        # A fine/coarse ratio past the 3-bit shift field: legalization
        # changes these params.
        wide = QUQParams(
            6, f_neg=None, f_pos=SubrangeSpec(0.01, 32),
            c_neg=None, c_pos=SubrangeSpec(0.01 * 2.0 ** (MAX_SHIFT + 2), 32),
        )
        x = np.linspace(-1.0, 40.0, 64)
        clear_kernel_caches()
        KERNELS.reset_counters()
        encoder = fused_encoder(wide, 6)
        assert encoder.params != wide
        assert fused_encoder(encoder.params, 6) is encoder
        KERNELS.reset_counters()
        encoder.shifted(x)
        encoder.store_load(x)
        assert kernel_cache_info()["fused_encoders"] == 1
        assert not any(key.startswith("qub.encode:") for key in KERNELS.counters)

    def test_lut_cache_shared_and_counted(self):
        from repro.quant.qub import FCRegisters

        rng = np.random.default_rng(6)
        params = QUQQuantizer(6).fit(rng.normal(size=256)).params
        registers = FCRegisters.from_params(params)
        clear_kernel_caches()
        KERNELS.reset_counters()
        cached = get_kernel("qub.decode_lut")
        first = cached(registers, 6)
        second = cached(registers, 6)
        assert first is second
        assert not first.flags.writeable
        assert KERNELS.counters["qub.decode_lut:cache_miss"] == 1
        assert KERNELS.counters["qub.decode_lut:cache_hit"] == 1
        reference = get_kernel("qub.decode_lut", "reference")(registers, 6)
        np.testing.assert_array_equal(np.asarray(first), reference)

    def test_snapshot_serializable(self):
        import json

        json.dumps(kernels_snapshot())


def _fresh_interpreter(code: str) -> str:
    """Run ``code`` in a new interpreter (registry not yet loaded); stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    env.pop("REPRO_KERNELS", None)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


class TestBuiltinLoad:
    """The lazy load of the built-in registrations, in fresh interpreters."""

    def test_failed_load_is_retried(self):
        """A failed first load raises its own error, and the next
        dispatch loads the registrations instead of reporting an empty
        registry."""
        out = _fresh_interpreter("""
            import sys
            import repro.kernels as kernels

            assert not kernels._builtin_loaded
            sfu = sys.modules["repro.backend.sfu"]
            sys.modules["repro.backend.sfu"] = None  # the first load fails
            try:
                kernels.get_kernel("gemm.int")
            except ImportError:
                pass
            else:
                raise SystemExit("the first load did not fail")
            sys.modules["repro.backend.sfu"] = sfu
            kernels.get_kernel("gemm.int")
            print(kernels.active_kernels()["quq.fake_quantize"])
        """)
        assert out == "fused"

    def test_concurrent_first_dispatch_sees_the_registrations(self):
        out = _fresh_interpreter("""
            import sys
            import threading
            import repro.kernels as kernels

            assert not kernels._builtin_loaded
            sys.setswitchinterval(1e-6)
            ops = ("quq.fake_quantize", "gemm.int") * 2
            barrier = threading.Barrier(len(ops))
            errors = []

            def dispatch(op):
                barrier.wait()
                try:
                    kernels.get_kernel(op)
                except Exception as error:
                    errors.append(repr(error))

            threads = [threading.Thread(target=dispatch, args=(op,)) for op in ops]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            print(errors or "ok")
        """)
        assert out == "ok"
