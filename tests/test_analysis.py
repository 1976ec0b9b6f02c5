"""Tests for distribution analysis, attention rollout and reporting."""

import numpy as np
import pytest

from repro.analysis import (
    FIGURE3_TENSORS,
    ascii_heatmap,
    ascii_histogram,
    attention_rollout,
    capture_figure3_tensors,
    crucial_region_energy,
    format_table,
    histogram,
    rollout_correlation,
    rollout_for_images,
)
from repro.autograd import Tensor, no_grad
from repro.quant import PTQPipeline, QUQQuantizer, TapRecorder


class TestCaptureFigure3:
    def test_all_four_tensors_present(self, tiny_trained, calib_images):
        tensors = capture_figure3_tensors(tiny_trained, calib_images[:8])
        assert set(tensors) == set(FIGURE3_TENSORS)
        for value in tensors.values():
            assert value.size > 0

    def test_post_softmax_nonnegative(self, tiny_trained, calib_images):
        tensors = capture_figure3_tensors(tiny_trained, calib_images[:8])
        assert tensors["post_softmax"].min() >= 0

    def test_block_selects_different_layer(self, tiny_trained, calib_images):
        t0 = capture_figure3_tensors(tiny_trained, calib_images[:8], block=0)
        t1 = capture_figure3_tensors(tiny_trained, calib_images[:8], block=1)
        assert not np.array_equal(t0["pre_addition"], t1["pre_addition"])


class TestHistogramRendering:
    def test_histogram_counts_total(self, rng):
        data = rng.normal(size=500)
        counts, edges = histogram(data, bins=20)
        assert counts.sum() == 500
        assert len(edges) == 21

    def test_ascii_histogram_marks_quant_points(self, rng):
        data = rng.normal(size=2000)
        q = QUQQuantizer(4).fit(data)
        art = ascii_histogram(data, q.params, bins=30)
        assert "|" in art
        assert len(art.splitlines()) == 30


class TestAttentionRollout:
    def test_uniform_attention_gives_uniform_saliency(self):
        tokens = 5
        uniform = np.full((1, 2, tokens, tokens), 1.0 / tokens)
        saliency = attention_rollout([uniform, uniform])
        np.testing.assert_allclose(saliency, np.full((1, 4), 0.25), rtol=1e-9)

    def test_saliency_normalized(self, rng):
        attn = rng.dirichlet(np.ones(6), size=(2, 3, 6))  # (B,heads,N) rows
        attn = attn.reshape(2, 3, 6, 6)
        saliency = attention_rollout([attn])
        np.testing.assert_allclose(saliency.sum(-1), np.ones(2), rtol=1e-9)

    def test_empty_maps_rejected(self):
        with pytest.raises(ValueError):
            attention_rollout([])

    def test_rollout_for_images_shape(self, tiny_trained, calib_images):
        saliency = rollout_for_images(tiny_trained, calib_images[:4])
        assert saliency.shape == (4, 16)  # 4x4 patch grid at 16x16/patch 4

    def test_rollout_for_images_reads_the_attached_model(self, tiny_vit, calib_images):
        images = calib_images[:4]
        float_rollout = rollout_for_images(tiny_vit, images)
        assert not isinstance(tiny_vit.tap_dispatcher, TapRecorder)
        pipeline = PTQPipeline(tiny_vit, "baseq", 4, "full").calibrate(calib_images)
        quant_rollout = rollout_for_images(tiny_vit, images)
        assert tiny_vit.tap_dispatcher is pipeline.env and pipeline.env.recorder is None
        # The quantized model's maps: each probs tap before its own quantization.
        probs = [f"tiny_vit.blocks.{i}.attn.probs" for i in range(len(tiny_vit.blocks))]
        recorder = TapRecorder(probs)
        with pipeline.env.recording(recorder), no_grad():
            tiny_vit(Tensor(images))
        expected = attention_rollout([recorder.values[name][0] for name in probs])
        np.testing.assert_array_equal(quant_rollout, expected)
        assert not np.array_equal(quant_rollout, float_rollout)
        pipeline.detach()
        np.testing.assert_array_equal(rollout_for_images(tiny_vit, images), float_rollout)


class TestComparisonMetrics:
    def test_identical_maps_full_energy_and_correlation(self, rng):
        ref = rng.dirichlet(np.ones(16), size=4)
        assert rollout_correlation(ref, ref) == pytest.approx(1.0)
        energy = crucial_region_energy(ref, ref, quantile=0.8)
        assert energy > 0.2  # hot cells hold a disproportionate share

    def test_collapsed_map_scores_lower(self, rng):
        ref = np.zeros((2, 16))
        ref[:, 0] = 0.9
        ref[:, 1:] = 0.1 / 15
        flat = np.full((2, 16), 1.0 / 16)
        assert crucial_region_energy(ref, flat, quantile=0.95) < crucial_region_energy(
            ref, ref, quantile=0.95
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            rollout_correlation(np.zeros((1, 4)), np.zeros((1, 5)))
        with pytest.raises(ValueError):
            crucial_region_energy(np.zeros((1, 4)), np.zeros((1, 5)))


class TestAsciiHeatmap:
    def test_square_render(self):
        art = ascii_heatmap(np.linspace(0, 1, 16))
        assert len(art.splitlines()) == 4

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            ascii_heatmap(np.zeros(15))

    def test_constant_map_renders(self):
        art = ascii_heatmap(np.ones(16))
        assert len(art.splitlines()) == 4


class TestFormatTable:
    def test_alignment_and_headers(self):
        table = format_table(["name", "value"], [["a", 1.234567], ["bb", None]])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert "1.23" in table
        assert "-" in lines[-1]

    def test_title_included(self):
        assert format_table(["x"], [[1]], title="Table 9").startswith("Table 9")

    def test_scientific_for_tiny_values(self):
        assert "e-" in format_table(["x"], [[1.2e-7]])
