"""Tests for tap classification, the tap dispatchers and the PTQ pipeline."""

import weakref

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.quant import (
    METHODS,
    PTQPipeline,
    QuantEnv,
    TapKind,
    TapRecorder,
    UniformQuantizer,
    classify_tap,
    hessian_refine,
    make_quantizer,
    taps_for_coverage,
)
from repro.quant.baselines.fqvit import Log2Quantizer
from repro.quant.baselines.ptq4vit import TwinUniformQuantizer
from repro.quant.uniform import RowwiseUniformQuantizer
from repro.training import evaluate_top1, predict_logits
from repro import quantize_model


class TestTapClassification:
    @pytest.mark.parametrize(
        "name,kind",
        [
            ("m.blocks.0.attn.qkv.weight", TapKind.WEIGHT),
            ("m.blocks.0.attn.qkv.input", TapKind.GEMM_INPUT),
            ("m.blocks.0.attn.q", TapKind.GEMM_INPUT),
            ("m.blocks.0.attn.probs", TapKind.GEMM_INPUT),
            ("m.blocks.0.attn.scores", TapKind.SOFTMAX_INPUT),
            ("m.blocks.0.mlp.act.input", TapKind.GELU_INPUT),
            ("m.final_norm_input", TapKind.NORM_INPUT),
            ("m.merges.0.merge_norm_input", TapKind.NORM_INPUT),
            ("m.blocks.0.block_input", TapKind.RESIDUAL),
            ("m.blocks.0.attn_residual", TapKind.RESIDUAL),
            ("m.head.input", TapKind.GEMM_INPUT),
        ],
    )
    def test_classification(self, name, kind):
        assert classify_tap(name) is kind

    def test_unknown_tap_rejected(self):
        with pytest.raises(ValueError):
            classify_tap("m.unknown_tap")

    def test_partial_coverage_is_gemm_only(self):
        assert taps_for_coverage(TapKind.WEIGHT, "partial")
        assert taps_for_coverage(TapKind.GEMM_INPUT, "partial")
        assert not taps_for_coverage(TapKind.SOFTMAX_INPUT, "partial")
        assert not taps_for_coverage(TapKind.RESIDUAL, "partial")

    def test_full_coverage_covers_everything(self):
        assert all(taps_for_coverage(kind, "full") for kind in TapKind)

    def test_invalid_coverage_rejected(self):
        with pytest.raises(ValueError):
            taps_for_coverage(TapKind.WEIGHT, "half")


class TestTapRecorder:
    def test_observe_records_copies(self):
        recorder = TapRecorder()
        value = Tensor(np.ones((2, 3), dtype=np.float32))
        assert recorder.tap("a", value) is value
        value.data[:] = 7.0
        np.testing.assert_allclose(recorder.observed("a"), np.ones(6))

    def test_watch_filter(self):
        recorder = TapRecorder(taps={"a"})
        recorder.tap("b", Tensor(np.ones(3)))
        with pytest.raises(KeyError):
            recorder.observed("b")

    def test_grad_capture(self):
        recorder = TapRecorder(grads=True)
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        out = recorder.tap("a", x)
        (out * 2.0).backward()
        np.testing.assert_allclose(recorder.observed_gradients("a"), [2.0, 2.0, 2.0])

    def test_unwatched_tap_keeps_no_gradient(self):
        recorder = TapRecorder(taps={"a"}, grads=True)
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        assert recorder.tap("b", x) is x
        assert recorder.gradients == {}

    def test_record_keeps_copies_of_watched_taps(self):
        recorder = TapRecorder(taps={"a"})
        data = np.ones((2, 3), dtype=np.float32)
        recorder.record("a", data)
        recorder.record("b", data)
        data[:] = 7.0
        assert list(recorder.values) == ["a"]
        np.testing.assert_array_equal(recorder.observed("a"), np.ones(6))

    def test_records_pre_quantization_values_through_quant_env(self, rng):
        env = QuantEnv()
        env.quantizers["a"] = UniformQuantizer(4).fit(rng.normal(size=100))
        x = Tensor(rng.normal(size=(5,)).astype(np.float32))
        recorder = TapRecorder()
        with env.recording(recorder):
            out = env.tap("a", x)
        assert not np.array_equal(out.data, x.data)
        np.testing.assert_array_equal(recorder.observed("a"), x.data)


class TestQuantEnv:
    def test_quantize_phase_applies_quantizer(self, rng):
        env = QuantEnv()
        env.quantizers["a"] = UniformQuantizer(4).fit(rng.normal(size=100))
        x = Tensor(rng.normal(size=(5,)).astype(np.float32))
        out = env.tap("a", x)
        assert not np.allclose(out.data, x.data)

    def test_unregistered_tap_passthrough(self, rng):
        env = QuantEnv()
        x = Tensor(rng.normal(size=(5,)).astype(np.float32))
        assert env.tap("unseen", x) is x

    def test_recording_sees_pre_quantization_tensors_and_restores(self, rng):
        class Calls:
            def __init__(self):
                self.seen = []

            def record(self, name, data):
                self.seen.append((name, data.copy()))

        env = QuantEnv()
        env.quantizers["a"] = UniformQuantizer(4).fit(rng.normal(size=100))
        x = Tensor(rng.normal(size=(5,)).astype(np.float32))
        outer, inner = Calls(), Calls()
        with env.recording(outer):
            with pytest.raises(RuntimeError), env.recording(inner):
                env.tap("a", x)
                raise RuntimeError("pass failed")
            assert env.recorder is outer
        assert env.recorder is None
        assert outer.seen == []
        assert [name for name, _ in inner.seen] == ["a"]
        np.testing.assert_array_equal(inner.seen[0][1], x.data)


class TestMakeQuantizer:
    def test_method_specific_choices(self):
        assert isinstance(
            make_quantizer("fqvit", TapKind.WEIGHT, "m.qkv.weight", 6),
            RowwiseUniformQuantizer,
        )
        assert isinstance(
            make_quantizer("fqvit", TapKind.GEMM_INPUT, "m.attn.probs", 6),
            Log2Quantizer,
        )
        assert isinstance(
            make_quantizer("ptq4vit", TapKind.GEMM_INPUT, "m.attn.probs", 6),
            TwinUniformQuantizer,
        )
        assert isinstance(
            make_quantizer("ptq4vit", TapKind.GEMM_INPUT, "m.mlp.fc2.input", 6),
            TwinUniformQuantizer,
        )

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            make_quantizer("awq", TapKind.WEIGHT, "w", 6)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "name", ["m.qkv.weight", "m.attn.probs", "m.mlp.fc2.input", "m.attn.scores"]
    )
    def test_fit_drops_nonfinite_values(self, method, name, rng):
        """+-Inf and NaN among the calibration data leave every fit as the
        finite data alone make it (a row-wise fit ignores them per row)."""
        kind = classify_tap(name)
        draw = rng.random if name.endswith(".probs") else rng.standard_normal
        data = draw((64, 8)).astype(np.float32)
        bad_row = np.array([[np.inf, -np.inf, np.nan, np.inf, -np.inf, np.nan, np.nan, np.inf]])
        dirty = np.concatenate([data, bad_row.astype(np.float32)])
        probe = (1.2 * draw((64, 8))).astype(np.float32)
        clean_fit = make_quantizer(method, kind, name, 6).fit(data)
        dirty_fit = make_quantizer(method, kind, name, 6).fit(dirty)
        clean_out = clean_fit.fake_quantize(probe)
        assert np.isfinite(clean_out).all()
        assert dirty_fit.fake_quantize(probe).tobytes() == clean_out.tobytes()


class TestPTQPipeline:
    @pytest.mark.parametrize("method", METHODS)
    def test_calibrate_all_methods(self, method, tiny_trained, calib_images, tiny_data):
        pipeline = PTQPipeline(tiny_trained, method=method, bits=8, coverage="full")
        pipeline.calibrate(calib_images)
        assert pipeline.calibrated
        assert len(pipeline.tap_names()) > 10
        _, val_set = tiny_data
        acc = evaluate_top1(tiny_trained, val_set)
        assert acc > 15.0  # 8-bit must stay far above the 10% chance level
        pipeline.detach()

    def test_partial_covers_fewer_taps(self, tiny_trained, calib_images):
        full = PTQPipeline(tiny_trained, "baseq", 8, "full").calibrate(calib_images)
        n_full = len(full.tap_names())
        full.detach()
        partial = PTQPipeline(tiny_trained, "baseq", 8, "partial").calibrate(calib_images)
        n_partial = len(partial.tap_names())
        partial.detach()
        assert n_partial < n_full
        assert all(
            classify_tap(n) in (TapKind.WEIGHT, TapKind.GEMM_INPUT)
            for n in partial.tap_names()
        )

    def test_detach_restores_float(self, tiny_trained, calib_images, tiny_data):
        _, val_set = tiny_data
        reference = evaluate_top1(tiny_trained, val_set)
        pipeline = PTQPipeline(tiny_trained, "baseq", 4, "full").calibrate(calib_images)
        quantized = evaluate_top1(tiny_trained, val_set)
        pipeline.detach()
        restored = evaluate_top1(tiny_trained, val_set)
        assert restored == pytest.approx(reference)
        assert quantized != pytest.approx(reference)

    def test_attach_after_detach(self, tiny_trained, calib_images):
        pipeline = PTQPipeline(tiny_trained, "baseq", 6, "full").calibrate(calib_images)
        pipeline.detach()
        assert pipeline.model.tap_dispatcher is not pipeline.env
        pipeline.attach()
        assert pipeline.model.tap_dispatcher is pipeline.env
        pipeline.detach()

    def test_invalid_args_rejected(self, tiny_trained):
        with pytest.raises(ValueError):
            PTQPipeline(tiny_trained, method="gptq")
        with pytest.raises(ValueError):
            PTQPipeline(tiny_trained, coverage="most")

    def test_average_bits_accounting(self, tiny_trained, calib_images):
        pipeline = PTQPipeline(tiny_trained, "fqvit", 6, "full").calibrate(calib_images)
        # Row-wise weights push the average above the nominal bit-width.
        assert pipeline.average_bits_per_element() > 6.0
        pipeline.detach()

    def test_quantizer_for_unknown_tap(self, tiny_trained, calib_images):
        pipeline = PTQPipeline(tiny_trained, "baseq", 6, "full").calibrate(calib_images)
        with pytest.raises(KeyError):
            pipeline.quantizer_for("nonexistent")
        pipeline.detach()

    def test_quantizer_for_suggests_nearest_taps(self, tiny_trained, calib_images):
        pipeline = PTQPipeline(tiny_trained, "baseq", 6, "full").calibrate(calib_images)
        existing = pipeline.tap_names()[0]
        with pytest.raises(KeyError) as excinfo:
            pipeline.quantizer_for(existing + "x")  # near miss
        message = str(excinfo.value)
        assert "nearest taps" in message and existing in message
        pipeline.detach()

    def test_calibrate_is_idempotent(self, tiny_trained, calib_images, monkeypatch):
        recorders = []
        init = TapRecorder.__init__

        def tracked(self, *args, **kwargs):
            init(self, *args, **kwargs)
            recorders.append(weakref.ref(self))

        monkeypatch.setattr(TapRecorder, "__init__", tracked)
        pipeline = PTQPipeline(tiny_trained, "baseq", 6, "full")
        pipeline.calibrate(calib_images)
        first = {n: pipeline.quantizer_for(n).delta for n in pipeline.tap_names()}
        pipeline.calibrate(calib_images)
        second = {n: pipeline.quantizer_for(n).delta for n in pipeline.tap_names()}
        assert first == second  # same data -> identical refit
        # Observations cleared: every recorder is gone with its records.
        assert recorders and all(ref() is None for ref in recorders)
        # Every quantizer object was replaced, not reused.
        pipeline.env.quantizers[pipeline.tap_names()[0]].delta = -1.0
        pipeline.calibrate(calib_images)
        third = {n: pipeline.quantizer_for(n).delta for n in pipeline.tap_names()}
        assert third == first
        pipeline.detach()


class TestProtocolSteps:
    """observe -> fit -> install, and the float-pass hook under them."""

    def test_observing_restores_the_dispatcher_when_a_pass_raises(
        self, tiny_vit, calib_images
    ):
        pipeline = PTQPipeline(tiny_vit, "baseq", 6, "full").calibrate(calib_images)
        with pytest.raises(RuntimeError), pipeline.observing(TapRecorder()) as recorder:
            assert tiny_vit.tap_dispatcher is recorder
            raise RuntimeError("pass failed")
        assert tiny_vit.tap_dispatcher is pipeline.env

    def test_observe_records_the_float_pass(self, tiny_vit, calib_images):
        pipeline = PTQPipeline(tiny_vit, "baseq", 4, "full").calibrate(calib_images)
        tap = next(n for n in pipeline.tap_names() if n.endswith(".qkv.input"))
        recorder = pipeline.observe(calib_images[:8], [tap], batch_size=3)
        assert list(recorder.values) == [tap]
        assert [r.shape[0] for r in recorder.values[tap]] == [3, 3, 2]
        pipeline.detach()
        float_pass = pipeline.observe(calib_images[:8], [tap])
        np.testing.assert_array_equal(recorder.observed(tap), float_pass.observed(tap))

    def test_fit_takes_per_tap_bits_and_install_serves_them(self, tiny_vit, calib_images):
        pipeline = PTQPipeline(tiny_vit, "baseq", 6, "full").calibrate(calib_images)
        names = pipeline.tap_names()
        recorder = pipeline.observe(calib_images, names)
        bits = {name: 4 if i % 2 else 8 for i, name in enumerate(names)}
        quantizers = pipeline.fit(names, recorder, bits=bits)
        assert list(quantizers) == names
        assert {name: q.bits for name, q in quantizers.items()} == bits
        pipeline.detach()
        before = pipeline.weight_cache_info()
        pipeline.install(quantizers)
        assert pipeline.env.quantizers is quantizers
        assert tiny_vit.tap_dispatcher is pipeline.env
        # The cache is invalidated and every weight tap refilled.
        after = pipeline.weight_cache_info()
        weights = [n for n in names if classify_tap(n) is TapKind.WEIGHT]
        assert after["entries"] == len(weights)
        assert after["misses"] == before["misses"] + len(weights)

    @pytest.mark.parametrize("step", ["calibrate", "hessian_refine"])
    def test_failed_pass_leaves_the_pipeline_as_it_was(self, step, tiny_vit, calib_images):
        pipeline = PTQPipeline(tiny_vit, "quq", 6, "full").calibrate(calib_images)
        quantizers = dict(pipeline.env.quantizers)
        before = predict_logits(tiny_vit, calib_images[:8])
        with pytest.raises(ValueError):
            # 8x8 images do not fit the 16x16 model: the first pass raises.
            if step == "calibrate":
                pipeline.calibrate(calib_images[:4, :8, :8])
            else:
                hessian_refine(pipeline, calib_images[:4, :8, :8])
        assert pipeline.calibrated and pipeline.env.quantizers == quantizers
        assert tiny_vit.tap_dispatcher is pipeline.env
        np.testing.assert_array_equal(predict_logits(tiny_vit, calib_images[:8]), before)


class TestHessianRefine:
    def test_refine_returns_alpha_per_tap(self, tiny_trained, calib_images):
        pipeline = PTQPipeline(tiny_trained, "quq", 6, "full").calibrate(calib_images)
        chosen = hessian_refine(pipeline, calib_images)
        assert set(chosen) == set(pipeline.tap_names())
        assert all(0.4 <= a <= 1.3 for a in chosen.values())
        pipeline.detach()

    def test_refine_requires_calibration(self, tiny_trained, calib_images):
        pipeline = PTQPipeline(tiny_trained, "quq", 6, "full")
        with pytest.raises(RuntimeError):
            hessian_refine(pipeline, calib_images)

    def test_refine_does_not_hurt_low_bit_accuracy(
        self, tiny_trained, calib_images, tiny_data
    ):
        _, val_set = tiny_data
        pipeline = PTQPipeline(tiny_trained, "baseq", 4, "full").calibrate(calib_images)
        before = evaluate_top1(tiny_trained, val_set.subset(64, seed=0))
        hessian_refine(pipeline, calib_images)
        after = evaluate_top1(tiny_trained, val_set.subset(64, seed=0))
        pipeline.detach()
        assert after >= before - 5.0  # refinement must not collapse accuracy


class TestQuantizeModelAPI:
    def test_end_to_end(self, tiny_trained, calib_images, tiny_data):
        _, val_set = tiny_data
        pipeline = quantize_model(
            tiny_trained, calib_images, method="quq", bits=8, coverage="full"
        )
        acc = evaluate_top1(tiny_trained, val_set)
        pipeline.detach()
        assert acc > 15.0
