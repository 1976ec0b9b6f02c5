"""Tests for QUB bit-packing and the packed weight store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import IntNativeBackend, PackedWeightStore
from repro.hw.accelerator import encode_tensor
from repro.models.configs import ModelConfig
from repro.quant.qub import pack_qub_words, unpack_qub_words


class TestPackUnpackWords:
    @given(
        bits=st.integers(1, 16),
        words=st.lists(st.integers(0, 2**16 - 1), max_size=64),
    )
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_is_lossless(self, bits, words):
        words = np.asarray([w & ((1 << bits) - 1) for w in words], dtype=np.uint32)
        packed = pack_qub_words(words, bits)
        np.testing.assert_array_equal(
            unpack_qub_words(packed, bits, words.size), words
        )

    @given(bits=st.integers(1, 16), count=st.integers(0, 200))
    @settings(max_examples=100, deadline=None)
    def test_packed_size_is_ceil_of_bit_count(self, bits, count):
        words = np.zeros(count, dtype=np.uint32)
        assert pack_qub_words(words, bits).nbytes == -(-count * bits // 8)

    def test_roundtrip_preserves_shape_via_count(self):
        words = np.arange(12, dtype=np.uint32).reshape(3, 4) % 16
        packed = pack_qub_words(words, 4)
        np.testing.assert_array_equal(
            unpack_qub_words(packed, 4, 12).reshape(3, 4), words
        )

    def test_rejects_oversized_words(self):
        with pytest.raises(ValueError, match="exceeds"):
            pack_qub_words(np.array([16], dtype=np.uint32), 4)

    def test_rejects_bad_bit_widths(self):
        with pytest.raises(ValueError, match="bits"):
            pack_qub_words(np.array([0]), 0)
        with pytest.raises(ValueError, match="bits"):
            unpack_qub_words(np.zeros(1, dtype=np.uint8), 17, 1)

    def test_unpack_validates_buffer_size(self):
        with pytest.raises(ValueError):
            unpack_qub_words(np.zeros(1, dtype=np.uint8), 4, 100)

    def test_word_dtype_tracks_width(self):
        packed = pack_qub_words(np.array([1, 2, 3], dtype=np.uint32), 12)
        assert unpack_qub_words(packed, 12, 3).dtype == np.uint16
        packed = pack_qub_words(np.array([1, 2, 3], dtype=np.uint32), 8)
        assert unpack_qub_words(packed, 8, 3).dtype == np.uint8


TINY_VIT = ModelConfig("tiny_vit", "vit", 16, 4, 3, 10, 32, 2, 2)


def _calibrated(config, bits):
    from repro.models.vit import build_vit
    from repro.quant import PTQPipeline

    model = build_vit(config, seed=0)
    images = np.random.default_rng(0).standard_normal((4, 16, 16, 3))
    return model, PTQPipeline(model, bits=bits).calibrate(images.astype(np.float32))


class TestPackedWeightStore:
    @pytest.fixture(scope="class")
    def store(self):
        model, pipeline = _calibrated(TINY_VIT, 4)
        return model, pipeline, PackedWeightStore.from_pipeline(model, pipeline, 4)

    @staticmethod
    def _references(model, pipeline, packed):
        parameters = dict(model.named_parameters())
        for tap in packed.weights:
            params = pipeline.quantizer_for(tap).params
            weight = parameters[tap.split(".", 1)[1]].data
            yield tap, encode_tensor(weight, 4, params=params)

    def test_covers_every_gemm_weight(self, store):
        """Exactly the weights the integer walk multiplies, in its order."""
        model, pipeline, packed = store
        backend = IntNativeBackend(model, pipeline, bits=4)
        used = []

        class Spy:
            def __getitem__(self, tap):
                used.append(tap)
                return packed[tap]

        backend.datapath.weights = Spy()
        backend.predict(np.zeros((1, 16, 16, 3), dtype=np.float32))
        assert used == list(packed.weights)
        assert len(packed) == 2 + 4 * TINY_VIT.depth

    def test_words_match_reference_encode(self, store):
        model, pipeline, packed = store
        for tap, reference in self._references(model, pipeline, packed):
            np.testing.assert_array_equal(packed[tap].words(), reference.qubs)

    def test_shifted_matches_reference_decode(self, store):
        model, pipeline, packed = store
        for tap, reference in self._references(model, pipeline, packed):
            d, n_sh = reference.decoded()
            np.testing.assert_array_equal(packed[tap].shifted(), d << n_sh)

    def test_to_float_matches_reference_load(self, store):
        model, pipeline, packed = store
        for tap, reference in self._references(model, pipeline, packed):
            np.testing.assert_array_equal(packed[tap].to_float(), reference.to_float())

    def test_four_bit_storage_beats_float32_by_2x(self, store):
        _, _, packed = store
        assert packed.reduction >= 2.0
        # Dense 4-bit packing should in fact approach 8x.
        assert packed.reduction > 6.0

    def test_summary_is_json_ready(self, store):
        import json

        _, _, packed = store
        summary = packed.summary()
        assert summary["bits"] == 4
        assert summary["packed_weight_bytes"] < summary["float_weight_bytes"]
        json.dumps(summary)

    def test_deit_includes_distillation_head(self):
        deit = ModelConfig("tiny_deit", "deit", 16, 4, 3, 10, 32, 2, 2, distilled=True)
        model, pipeline = _calibrated(deit, 4)
        packed = PackedWeightStore.from_pipeline(model, pipeline, 4)
        assert list(packed.weights)[-2:] == [
            "tiny_deit.head.weight", "tiny_deit.head_dist.weight"
        ]
