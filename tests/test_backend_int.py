"""Tests for the integer-native serving backend: bit-exact with the QUA
executor, and close to the fake-quantized float forward."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.backend import FloatFakeQuantBackend, IntNativeBackend, make_backend
from repro.hw.executor import BlockExecutor, ModelExecutor
from repro.quant.qmodel import PTQPipeline


@pytest.fixture(scope="module")
def quantized_at():
    """``(bits, distilled=False) -> (model, pipeline, images)``: a tiny
    ViT (or distilled DeiT) calibrated at that QUB width, built once per
    case."""
    from repro.models.configs import ModelConfig
    from repro.models.vit import build_vit

    built = {}

    def build(bits, distilled=False):
        if (bits, distilled) not in built:
            config = (
                ModelConfig("tiny_deit", "deit", 16, 4, 3, 10, 32, 2, 2, distilled=True)
                if distilled
                else ModelConfig("tiny_vit", "vit", 16, 4, 3, 10, 32, 2, 2)
            )
            model = build_vit(config, seed=0)
            rng = np.random.default_rng(0)
            calib = rng.normal(size=(24, 16, 16, 3)).astype(np.float32)
            pipeline = PTQPipeline(model, method="quq", bits=bits)
            pipeline.calibrate(calib)
            images = rng.normal(size=(4, 16, 16, 3)).astype(np.float32)
            built[bits, distilled] = model, pipeline, images
        return built[bits, distilled]

    return build


@pytest.fixture(scope="module")
def quantized(quantized_at):
    return quantized_at(8)


class TestIntNativeBackend:
    # Every serving width in both SFU modes; the 8-bit cases keep their
    # original bare ``[False]`` / ``[True]`` IDs.
    @pytest.mark.parametrize("bits,integer_sfu", [
        pytest.param(bits, sfu, id=str(sfu) if bits == 8 else f"{bits}bit-{sfu}")
        for bits in (8, 6, 4) for sfu in (False, True)
    ])
    def test_bit_exact_with_reference_executor(self, quantized_at, bits, integer_sfu):
        model, pipeline, images = quantized_at(bits)
        backend = IntNativeBackend(model, pipeline, integer_sfu=integer_sfu)
        executor = ModelExecutor(model, pipeline, bits=bits, integer_sfu=integer_sfu)
        np.testing.assert_array_equal(backend.predict(images), executor.run(images))

    def test_bit_exact_with_distillation_head(self):
        """The final norm runs on the class and distillation rows only."""
        from repro.models.configs import ModelConfig
        from repro.models.vit import build_vit

        model = build_vit(
            ModelConfig("tiny_deit", "deit", 16, 4, 3, 10, 32, 2, 2, distilled=True),
            seed=0,
        )
        rng = np.random.default_rng(1)
        pipeline = PTQPipeline(model, method="quq", bits=8)
        pipeline.calibrate(rng.normal(size=(24, 16, 16, 3)).astype(np.float32))
        images = rng.normal(size=(4, 16, 16, 3)).astype(np.float32)
        backend = IntNativeBackend(model, pipeline, integer_sfu=True)
        executor = ModelExecutor(model, pipeline, bits=8, integer_sfu=True)
        assert backend.predict(images).tobytes() == executor.run(images).tobytes()

    def test_reference_kernels_bit_identical(self, quantized, monkeypatch):
        """Default (fast) kernels, REPRO_KERNELS=reference and the executor
        give the same logits to the last bit; the counters show that each
        run took its own SFU implementations."""
        from repro.kernels import KERNELS

        sfus = ("sfu.softmax", "sfu.gelu", "sfu.layernorm")
        model, pipeline, images = quantized
        executor = ModelExecutor(model, pipeline, bits=8, integer_sfu=True)
        expected = executor.run(images)
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        KERNELS.reset_counters()
        fast = IntNativeBackend(model, pipeline, integer_sfu=True).predict(images)
        assert KERNELS.counters.get("qub.store_load:fast", 0) > 0
        for op in sfus:
            assert KERNELS.counters.get(f"{op}:fast", 0) > 0, op
            assert KERNELS.counters.get(f"{op}:reference", 0) == 0, op
        KERNELS.reset_counters()
        monkeypatch.setenv("REPRO_KERNELS", "reference")
        reference = IntNativeBackend(model, pipeline, integer_sfu=True).predict(images)
        assert KERNELS.counters.get("qub.shifted:reference", 0) > 0
        for op in sfus:
            assert KERNELS.counters.get(f"{op}:reference", 0) > 0, op
            assert KERNELS.counters.get(f"{op}:fast", 0) == 0, op
        assert fast.tobytes() == reference.tobytes() == expected.tobytes()

    # The float fake-quant forward is the walk's independent oracle: the
    # two datapaths share the walk, so their bit-exactness cannot catch
    # a wrong step in it.  Every width and SFU mode, plus the distilled
    # DeiT.
    @pytest.mark.parametrize("bits,integer_sfu,distilled", [
        pytest.param(bits, sfu, distilled, id=f"{name}{bits}bit-{'int' if sfu else 'float'}_sfu")
        for name, distilled, widths in (("", False, (8, 6, 4)), ("deit-", True, (8,)))
        for bits in widths for sfu in (False, True)
    ])
    def test_float_parity_within_tolerance(self, quantized_at, bits, integer_sfu, distilled):
        model, pipeline, images = quantized_at(bits, distilled)
        backend = IntNativeBackend(model, pipeline, integer_sfu=integer_sfu)
        executor = ModelExecutor(model, pipeline, bits=bits, integer_sfu=integer_sfu)
        int_logits = backend.predict(images)
        assert int_logits.tobytes() == executor.run(images).tobytes()
        model.eval()
        with no_grad():
            float_logits = model(Tensor(images)).data
        # Fake-quant and integer stores round in different float orders,
        # so exact-zero divergence is not expected — but it must be tiny.
        # The integer SFUs approximate Softmax/GELU/LayerNorm on fixed-point
        # grids, so they drift further; top-1 must still agree.
        assert np.abs(int_logits - float_logits).max() < (0.1 if integer_sfu else 1e-6)
        assert (int_logits.argmax(-1) == float_logits.argmax(-1)).all()

    def test_counters_track_kernel_calls(self, quantized):
        model, pipeline, images = quantized
        backend = IntNativeBackend(model, pipeline)
        backend.predict(images)
        counters = backend.counters()
        assert counters["batches_total"] == 1
        # Per batch: patch embed + head + 4 linears and 2 attention
        # matmuls per block (2 blocks) = 2 + 2*6 GEMMs.
        assert counters["int_gemm_calls"] == 14
        assert counters["int_store_load_calls"] > 0

    def test_memory_info_reports_packed_bytes(self, quantized):
        model, pipeline, _ = quantized
        backend = IntNativeBackend(model, pipeline)
        info = backend.memory_info()
        assert 0 < info["packed_weight_bytes"] < info["float_weight_bytes"]
        assert info["reduction"] > 1.0

    def test_recorder_sees_every_quantized_tap(self, quantized):
        model, pipeline, images = quantized

        class Recorder:
            def __init__(self):
                self.taps = []

            def record(self, name, data):
                self.taps.append(name)

        backend = IntNativeBackend(model, pipeline)
        recorder = Recorder()
        backend.predict(images, recorder=recorder)
        assert "tiny_vit.patch_embed.proj.input" in recorder.taps
        assert "tiny_vit.blocks.0.attn.scores" in recorder.taps
        assert "tiny_vit.blocks.1.mlp_residual" in recorder.taps
        assert "tiny_vit.final_norm_input" in recorder.taps

    # Both shells over the integer walk check its preconditions when
    # built, not on the first batch.
    def test_rejects_uncalibrated_pipeline(self, tiny_vit):
        pipeline = PTQPipeline(tiny_vit, method="quq", bits=8)
        for build in (IntNativeBackend, ModelExecutor):
            with pytest.raises(RuntimeError, match="calibrated"):
                build(tiny_vit, pipeline)

    def test_rejects_non_quq_pipeline(self, tiny_vit, calib_images):
        pipeline = PTQPipeline(tiny_vit, method="baseq", bits=8)
        pipeline.calibrate(calib_images[:8])
        for build in (IntNativeBackend, ModelExecutor):
            with pytest.raises(ValueError, match="QUQ"):
                build(tiny_vit, pipeline)

    def test_rejects_non_vit_topology(self, tiny_swin, calib_images):
        pipeline = PTQPipeline(tiny_swin, method="quq", bits=8)
        pipeline.calibrate(calib_images[:8])
        for build in (IntNativeBackend, ModelExecutor):
            with pytest.raises(ValueError, match="ViT"):
                build(tiny_swin, pipeline)

    def test_rejects_partial_coverage(self, tiny_vit, calib_images):
        pipeline = PTQPipeline(tiny_vit, method="quq", bits=8, coverage="partial")
        pipeline.calibrate(calib_images[:8])
        for build in (IntNativeBackend, ModelExecutor):
            with pytest.raises(ValueError, match="full coverage"):
                build(tiny_vit, pipeline)
        with pytest.raises(ValueError, match="full coverage"):
            BlockExecutor(tiny_vit.blocks[0], pipeline, "tiny_vit.blocks.0")

    def test_four_bit_model_halves_weight_storage(self):
        from repro.models.configs import ModelConfig
        from repro.models.vit import build_vit

        model = build_vit(
            ModelConfig("tiny_vit", "vit", 16, 4, 3, 10, 32, 2, 2), seed=0
        )
        rng = np.random.default_rng(1)
        calib = rng.normal(size=(16, 16, 16, 3)).astype(np.float32)
        pipeline = PTQPipeline(model, method="quq", bits=4)
        pipeline.calibrate(calib)
        backend = IntNativeBackend(model, pipeline)
        info = backend.memory_info()
        assert info["reduction"] >= 2.0
        images = calib[:2]
        expected = ModelExecutor(model, pipeline, bits=4).run(images)
        assert backend.predict(images).tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def quantized_swin():
    """A tiny Swin calibrated at 6 bits, with its images."""
    from repro.models.configs import SwinConfig
    from repro.models.swin import build_swin

    model = build_swin(SwinConfig("tiny_swin", 16, 2, 3, 10, 16, (1, 1), (2, 2), 4), seed=0)
    rng = np.random.default_rng(0)
    pipeline = PTQPipeline(model, method="quq", bits=6)
    pipeline.calibrate(rng.normal(size=(24, 16, 16, 3)).astype(np.float32))
    return model, pipeline, rng.normal(size=(4, 16, 16, 3)).astype(np.float32)


class TestFloatFakeQuantBackend:
    @pytest.mark.parametrize("family", ["vit", "swin"])
    def test_reference_kernels_bit_identical(self, request, family, monkeypatch):
        """Fast kernels and REPRO_KERNELS=reference give the same logits to
        the last bit, so a float-path regression can be bisected by kernel."""
        from repro.kernels import KERNELS

        fixture = "quantized" if family == "vit" else "quantized_swin"
        model, pipeline, images = request.getfixturevalue(fixture)
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        pipeline.env.invalidate_weight_cache()
        fast = FloatFakeQuantBackend(model, pipeline).predict(images)
        monkeypatch.setenv("REPRO_KERNELS", "reference")
        # Cached weights replay the fast kernel's values: refill them.
        pipeline.env.invalidate_weight_cache()
        KERNELS.reset_counters()
        reference = FloatFakeQuantBackend(model, pipeline).predict(images)
        assert KERNELS.counters.get("quq.fake_quantize:reference", 0) > 0
        pipeline.env.invalidate_weight_cache()
        assert fast.tobytes() == reference.tobytes()

    def test_matches_model_forward(self, quantized):
        model, pipeline, images = quantized
        from repro.autograd import Tensor, no_grad

        backend = FloatFakeQuantBackend(model, pipeline)
        model.eval()
        with no_grad():
            expected = model(Tensor(images)).data
        np.testing.assert_array_equal(backend.predict(images), expected)
        assert backend.counters()["batches_total"] == 1

    def test_describe_merges_name_memory_counters(self, quantized):
        model, pipeline, _ = quantized
        backend = FloatFakeQuantBackend(model, pipeline)
        described = backend.describe()
        assert described["backend"] == "float"
        assert described["packed_weight_bytes"] == 0
        assert described["float_weight_bytes"] > 0
        assert described["batches_total"] == 0

    @pytest.mark.parametrize(
        "name, expected",
        [("swin_mini_s", 2_077_440), ("cnn_mini", 96_448),
         ("vit_mini_s", 801_280), ("deit_mini_s", 803_840)],
    )
    def test_float_weight_bytes_count_every_family(self, name, expected):
        """Every Linear weight counts, a Conv2d's im2col projection too."""
        from repro.models import build_model

        backend = FloatFakeQuantBackend(build_model(name), None)
        assert backend.memory_info()["float_weight_bytes"] == expected

    def test_float_weight_bytes_of_a_model_without_modules(self):
        info = FloatFakeQuantBackend(object(), None).memory_info()
        assert info == {"packed_weight_bytes": 0, "float_weight_bytes": 0}


class TestMakeBackend:
    def test_builds_by_name(self, quantized):
        model, pipeline, _ = quantized
        assert make_backend("float", model, pipeline).name == "float"
        assert make_backend("int", model, pipeline, bits=8).name == "int"

    def test_rejects_unknown_name(self, quantized):
        model, pipeline, _ = quantized
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu", model, pipeline)


class TestIndependentEncoder:
    """The int datapath is checked against an encoder that does not share
    its four-slot tables: with every table delta scaled by 1.25, both the
    parity harness and the executor comparison must notice, on both sides
    of the one-delta choice."""

    @pytest.fixture()
    def corrupted(self, quantized_at, monkeypatch):
        """The tiny ViT at 4, 6 and 8 bits, calibrated first, whose int
        backends encode taps on both sides of the one-delta choice; then
        the tables of ``quq`` and of ``FusedEncoder`` scaled."""
        import repro.backend.kernels
        import repro.quant.quq as quq

        built = {bits: quantized_at(bits) for bits in (4, 6, 8)}
        sides = set()
        for model, pipeline, images in built.values():
            backend = IntNativeBackend(model, pipeline)
            backend.predict(images)
            sides |= {e._tables.one_delta for e in backend.datapath.encoders.values()}
        assert sides == {True, False}
        real = quq._fused_tables

        def scaled(params):
            tables = real(params)
            return tables._replace(delta=tables.delta * 1.25)

        quq._TABLES.clear()
        monkeypatch.setattr(quq, "_fused_tables", scaled)
        monkeypatch.setattr(repro.backend.kernels, "_fused_tables", scaled)
        monkeypatch.delenv("REPRO_KERNELS", raising=False)  # the fast implementations
        yield built
        monkeypatch.undo()
        quq._TABLES.clear()

    def test_corrupted_tables_are_caught(self, corrupted):
        from repro.kernels import run_kernel_parity

        report = run_kernel_parity(seed=0, cases=2)
        for op in ("quq.fake_quantize", "qub.shifted", "qub.store_load"):
            # The scaled deltas reach the scalar branch as well as the
            # four-slot route.
            sides = {m["side"] for m in report["ops"][op]["mismatches"]}
            assert sides == {"one_delta", "four_slot"}, op
        for bits, (model, pipeline, images) in corrupted.items():
            for integer_sfu in (False, True):
                backend = IntNativeBackend(model, pipeline, integer_sfu=integer_sfu)
                executor = ModelExecutor(model, pipeline, bits=bits, integer_sfu=integer_sfu)
                assert not np.array_equal(backend.predict(images), executor.run(images)), (
                    bits, integer_sfu,
                )


class TestDroppedLane:
    def test_dropped_int_lane_leaves_no_params_alive(self):
        """A recalibrated lane's old parameters die with its backend: no
        process-wide table keeps a fitted ``QUQParams`` alive."""
        import gc
        import weakref

        from repro.models.configs import ModelConfig
        from repro.models.vit import build_vit

        model = build_vit(ModelConfig("tiny_vit", "vit", 16, 4, 3, 10, 32, 2, 2), seed=0)
        rng = np.random.default_rng(0)
        pipeline = PTQPipeline(model, method="quq", bits=6)
        pipeline.calibrate(rng.normal(size=(24, 16, 16, 3)).astype(np.float32))
        backend = IntNativeBackend(model, pipeline, integer_sfu=True)
        backend.predict(rng.normal(size=(2, 16, 16, 3)).astype(np.float32))
        old = [weakref.ref(pipeline.quantizer_for(tap).params) for tap in pipeline.tap_names()]
        del backend
        pipeline.calibrate(rng.normal(size=(24, 16, 16, 3)).astype(np.float32))
        gc.collect()
        alive = sum(ref() is not None for ref in old)
        assert old and alive == 0, f"{alive} of {len(old)} old params still alive"


class TestBenchmarkSeams:
    """What ``benchmarks/e2e`` hooks: ``KERNELS.get`` dispatches of its
    ``KERNEL_OPS`` and the public encoder and packed-weight methods it
    wraps."""

    @staticmethod
    def _kernel_ops():
        import runpy
        from pathlib import Path

        metrics = Path(__file__).parents[1] / "benchmarks" / "e2e" / "metrics.py"
        return runpy.run_path(str(metrics))["KERNEL_OPS"]

    def test_kernel_ops_are_registered(self):
        from repro.kernels import KERNELS, active_kernels

        active_kernels()  # loads the built-in registrations
        assert set(self._kernel_ops()) <= set(KERNELS.ops())

    def test_int_predict_reaches_every_seam(self, quantized, monkeypatch):
        from repro.backend import FusedEncoder, PackedWeight
        from repro.kernels import KERNELS

        seen = set()
        for owner, attr in ((FusedEncoder, "shifted"), (FusedEncoder, "store_load"),
                            (PackedWeight, "shifted")):

            def wrapped(self, *args, _method=getattr(owner, attr),
                        _name=f"{owner.__name__}.{attr}"):
                seen.add(_name)
                return _method(self, *args)

            monkeypatch.setattr(owner, attr, wrapped)
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        model, pipeline, images = quantized
        KERNELS.reset_counters()
        IntNativeBackend(model, pipeline, integer_sfu=True).predict(images)
        counters = KERNELS.counters
        for op in set(self._kernel_ops()) - {"quq.fake_quantize"}:
            assert sum(n for key, n in counters.items() if key.split(":")[0] == op) >= 1, op
        assert seen == {"FusedEncoder.shifted", "FusedEncoder.store_load", "PackedWeight.shifted"}

    def test_positional_get_wrapper(self, quantized, monkeypatch):
        """``instrument_kernels`` swaps ``KERNELS.get`` for a
        ``get(op, prefer=None)`` that calls the original positionally;
        both backends still predict through it, unchanged."""
        from repro.kernels import KERNELS

        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        model, pipeline, images = quantized
        int_backend = IntNativeBackend(model, pipeline, integer_sfu=True)
        float_backend = FloatFakeQuantBackend(model, pipeline)
        expected = int_backend.predict(images), float_backend.predict(images)
        original, seen = KERNELS.get, set()

        def get(op, prefer=None):
            seen.add(op)
            return original(op, prefer)

        monkeypatch.setattr(KERNELS, "get", get)
        assert int_backend.predict(images).tobytes() == expected[0].tobytes()
        assert set(self._kernel_ops()) - {"quq.fake_quantize"} <= seen
        seen.clear()
        assert float_backend.predict(images).tobytes() == expected[1].tobytes()
        assert "quq.fake_quantize" in seen

    def test_float_predict_dispatches_fake_quantize(self, quantized, monkeypatch):
        from repro.kernels import KERNELS

        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        model, pipeline, images = quantized
        backend = FloatFakeQuantBackend(model, pipeline)
        KERNELS.reset_counters()
        backend.predict(images)
        assert KERNELS.counters.get("quq.fake_quantize:fast", 0) >= 1
