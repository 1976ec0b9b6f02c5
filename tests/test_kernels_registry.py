"""The kernel registry: one (reference, fast) pair per op, dispatch
precedence, env override, counters, snapshot shape, and the routed call
sites."""

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
    KernelPair,
    KernelRegistry,
    KernelRegistryError,
    active_kernels,
    get_kernel,
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
        registry.register("op.a", _noop, _other)
        assert registry.pair("op.a") == KernelPair("op.a", _noop, _other)

    def test_duplicate_rejected(self, registry):
        """One pair per op: a second fast implementation has nowhere to go."""
        registry.register("op.a", _noop)
        with pytest.raises(KernelRegistryError, match="already registered"):
            registry.register("op.a", _noop, _other)

    def test_unknown_op(self, registry):
        with pytest.raises(KernelRegistryError, match="unknown kernel op"):
            registry.get("op.missing")


class TestDispatch:
    @pytest.fixture()
    def populated(self, registry):
        registry.register("op.a", _noop, _other)
        registry.register("op.b", _noop)
        return registry

    def test_fast_by_default(self, populated, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        assert populated.mode("op.a") == "fast"
        assert populated.get("op.a") is _other
        assert populated.mode("op.b") == "reference"

    def test_explicit_prefer(self, populated):
        assert populated.get("op.a", "reference") is _noop
        assert populated.get("op.a", "fast") is _other
        assert populated.get("op.b", "fast") is _noop  # no fast: the reference
        with pytest.raises(ValueError, match="prefer"):
            populated.get("op.a", "v9")

    def test_env_reference_global(self, populated, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "reference")
        assert populated.mode("op.a") == "reference"
        for value in ("fast", "", " fast "):
            monkeypatch.setenv("REPRO_KERNELS", value)
            assert populated.mode("op.a") == "fast"

    def test_env_bad_entry(self, populated, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "garbage")
        with pytest.raises(ValueError, match="REPRO_KERNELS"):
            populated.get("op.a")

    def test_prefer_beats_env(self, populated, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "reference")
        assert populated.mode("op.a", "fast") == "fast"

    def test_get_counts_dispatch(self, populated):
        populated.get("op.a")
        populated.get("op.a", "reference")
        populated.get("op.b")
        assert populated.counters == {"op.a:fast": 1, "op.a:reference": 1, "op.b:reference": 1}
        populated.reset_counters()
        assert populated.counters == {}

    def test_pairs(self, populated):
        assert [pair.op for pair in populated.pairs()] == ["op.a"]

    def test_snapshot_shape(self, populated, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        populated.get("op.a")
        snap = populated.snapshot()
        assert set(snap) == {"override", "ops"}
        assert snap["override"] is None
        assert snap["ops"]["op.a"] == {"selected": "fast", "calls": {"fast": 1}}
        assert snap["ops"]["op.b"] == {"selected": "reference", "calls": {}}
        monkeypatch.setenv("REPRO_KERNELS", "reference")
        assert populated.snapshot()["override"] == "reference"


class TestBuiltinRegistry:
    """The process-wide registry with the built-in ops loaded."""

    def test_all_ops_registered(self):
        pairs = {pair.op for pair in kernel_pairs()}
        assert pairs == {
            "quq.fake_quantize", "qub.shifted", "qub.store_load", "qub.pack", "gemm.int",
            "sfu.softmax", "sfu.gelu", "sfu.layernorm",
        }
        # Every registered op has a pair: none runs one implementation only.
        assert set(KERNELS.ops()) == pairs

    def test_selected_fast_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        selected = active_kernels()
        assert set(selected.values()) == {"fast"}
        assert selected["quq.fake_quantize"] == selected["gemm.int"] == "fast"
        assert selected["sfu.softmax"] == selected["sfu.layernorm"] == "fast"

    def test_env_pin_typo_is_reported(self, monkeypatch):
        """A stale per-op pin fails loudly instead of leaving the op on its
        fast implementation."""
        for value in ("gemm.int=reference", "gemm.in=reference"):
            monkeypatch.setenv("REPRO_KERNELS", value)
            with pytest.raises(ValueError, match="REPRO_KERNELS"):
                get_kernel("gemm.int")

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
        assert KERNELS.counters.get("quq.fake_quantize:fast") == 1
        monkeypatch.setenv("REPRO_KERNELS", "reference")
        ref = quantizer.fake_quantize(x)
        assert KERNELS.counters.get("quq.fake_quantize:reference") == 1
        np.testing.assert_array_equal(fast, ref)

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
            sfu = sys.modules["repro.hw.int_sfu"]
            sys.modules["repro.hw.int_sfu"] = None  # the first load fails
            try:
                kernels.get_kernel("gemm.int")
            except ImportError:
                pass
            else:
                raise SystemExit("the first load did not fail")
            sys.modules["repro.hw.int_sfu"] = sfu
            kernels.get_kernel("gemm.int")
            print(kernels.active_kernels()["quq.fake_quantize"])
        """)
        assert out == "fast"

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
