"""Tests for fitted-quantizer serialization (warm-start state).

The contract is *bit-exact* round trips: a reloaded quantizer must produce
identical ``quantize()``/``fake_quantize()`` outputs, so a warm-started
serving pipeline is indistinguishable from a freshly calibrated one.
"""

import numpy as np
import pytest

from repro.quant import (
    AsymmetricUniformQuantizer,
    BiScaledQuantizer,
    Log2Quantizer,
    PTQPipeline,
    QUQQuantizer,
    RowwiseUniformQuantizer,
    TwinUniformQuantizer,
    UniformQuantizer,
    load_quantizer_states,
    quantizer_from_state,
    quantizer_state,
    save_quantizer_states,
)
from repro.training import predict_logits


def _roundtrip(quantizer):
    meta, arrays = quantizer_state(quantizer)
    return quantizer_from_state(meta, arrays)


QUANTIZER_FACTORIES = [
    lambda rng: UniformQuantizer(6).fit(rng.normal(size=500)),
    lambda rng: UniformQuantizer(4, percentile=99.0).fit(rng.normal(size=500)),
    lambda rng: AsymmetricUniformQuantizer(6).fit(rng.normal(size=500) + 1.3),
    lambda rng: RowwiseUniformQuantizer(6, axis=0).fit(rng.normal(size=(8, 16))),
    lambda rng: BiScaledQuantizer(6).fit(rng.standard_t(df=3, size=2000)),
    lambda rng: Log2Quantizer(4).fit(rng.uniform(size=300)),
    lambda rng: TwinUniformQuantizer(6, split="sign").fit(rng.normal(size=800)),
    lambda rng: TwinUniformQuantizer(6, split="magnitude").fit(rng.normal(size=800)),
    lambda rng: QUQQuantizer(6).fit(rng.standard_t(df=3, size=2000) * 0.1),
    lambda rng: QUQQuantizer(4).fit(rng.uniform(size=1000)),  # one-sided -> Mode B
]


class TestQuantizerRoundTrip:
    @pytest.mark.parametrize("factory", QUANTIZER_FACTORIES)
    def test_fake_quantize_bit_exact(self, factory, rng):
        original = factory(rng)
        restored = _roundtrip(original)
        x = rng.normal(size=700).astype(np.float32)
        if isinstance(original, Log2Quantizer):
            x = np.abs(x)
        if isinstance(original, RowwiseUniformQuantizer):
            x = rng.normal(size=(8, 16)).astype(np.float32)
        np.testing.assert_array_equal(
            original.fake_quantize(x), restored.fake_quantize(x)
        )

    def test_quantize_codes_bit_exact(self, rng):
        original = QUQQuantizer(6).fit(rng.standard_t(df=3, size=2000) * 0.1)
        restored = _roundtrip(original)
        x = rng.normal(size=500)
        a, b = original.quantize(x), restored.quantize(x)
        np.testing.assert_array_equal(a.codes, b.codes)
        np.testing.assert_array_equal(a.subranges, b.subranges)

    def test_unfitted_rejected(self):
        with pytest.raises(RuntimeError):
            quantizer_state(UniformQuantizer(6))

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            quantizer_from_state({"class": "MysteryQuantizer", "bits": 6}, {})


class TestStateArchive:
    def test_save_load_many(self, rng, tmp_path):
        quantizers = {
            "a.weight": QUQQuantizer(6).fit(rng.normal(size=900)),
            "a.input": UniformQuantizer(6).fit(rng.normal(size=900)),
            "b.probs": Log2Quantizer(6).fit(rng.uniform(size=900)),
        }
        path = save_quantizer_states(
            quantizers, tmp_path / "state.npz", header={"method": "mixed"}
        )
        header, restored, _ = load_quantizer_states(path)
        assert header == {"method": "mixed"}
        assert set(restored) == set(quantizers)
        x = rng.normal(size=300)
        np.testing.assert_array_equal(
            quantizers["a.weight"].fake_quantize(x),
            restored["a.weight"].fake_quantize(x),
        )

    def test_non_archive_rejected(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, data=np.zeros(3))
        with pytest.raises(ValueError):
            load_quantizer_states(path)


class TestChecksum:
    def _save(self, rng, path):
        quantizers = {
            "blk.weight": QUQQuantizer(6).fit(rng.normal(size=900)),
            "blk.input": UniformQuantizer(6).fit(rng.normal(size=900)),
        }
        return save_quantizer_states(quantizers, path, header={"method": "quq"})

    def test_clean_archive_verifies(self, rng, tmp_path):
        path = self._save(rng, tmp_path / "state.npz")
        header, restored, _ = load_quantizer_states(path)  # no ChecksumError
        assert set(restored) == {"blk.weight", "blk.input"}

    def test_tampered_array_payload_is_rejected(self, rng, tmp_path):
        from repro.quant import ChecksumError
        from repro.resilience import tamper_quantizer_state

        path = self._save(rng, tmp_path / "state.npz")
        tamper_quantizer_state(path, seed=0)
        with pytest.raises(ChecksumError):
            load_quantizer_states(path)

    def _strip_checksum(self, path):
        import json

        with np.load(path, allow_pickle=False) as handle:
            payload = {name: handle[name] for name in handle.files}
        record = json.loads(str(payload["__meta__"][()]))
        record.pop("checksum", None)  # what a pre-checksum writer wrote
        payload["__meta__"] = np.array(json.dumps(record))
        np.savez(path, **payload)

    def test_require_checksum_rejects_legacy_archives(self, rng, tmp_path):
        from repro.quant import ChecksumError

        path = self._save(rng, tmp_path / "state.npz")
        load_quantizer_states(path)  # checksummed: fine
        self._strip_checksum(path)
        with pytest.raises(ChecksumError, match="no checksum"):
            load_quantizer_states(path)


class TestPipelineWarmStart:
    def test_roundtrip_matches_calibrated_outputs(
        self, tiny_trained, calib_images, tiny_data, tmp_path
    ):
        _, val_set = tiny_data
        images = val_set.images[:16]
        pipeline = PTQPipeline(tiny_trained, "quq", 6, "full").calibrate(calib_images)
        reference = predict_logits(tiny_trained, images)
        path = pipeline.save_quantizers(tmp_path / "warm.npz")
        pipeline.detach()

        warm = PTQPipeline(tiny_trained, "quq", 6, "full").load_quantizers(path)
        assert warm.calibrated
        assert warm.tap_names() == sorted(warm.env.quantizers)
        np.testing.assert_array_equal(predict_logits(tiny_trained, images), reference)
        warm.detach()

    def test_header_mismatch_rejected(self, tiny_trained, calib_images, tmp_path):
        pipeline = PTQPipeline(tiny_trained, "baseq", 6, "full").calibrate(calib_images)
        path = pipeline.save_quantizers(tmp_path / "warm.npz")
        pipeline.detach()
        with pytest.raises(ValueError, match="bits"):
            PTQPipeline(tiny_trained, "baseq", 8, "full").load_quantizers(path)
        with pytest.raises(ValueError, match="method"):
            PTQPipeline(tiny_trained, "quq", 6, "full").load_quantizers(path)

    def test_save_requires_calibration(self, tiny_trained, tmp_path):
        pipeline = PTQPipeline(tiny_trained, "quq", 6, "full")
        with pytest.raises(RuntimeError):
            pipeline.save_quantizers(tmp_path / "warm.npz")
