"""Tests for the Swin transformer substrate."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.models.swin import (
    PatchMerging,
    SwinBlock,
    WindowAttention,
    _relative_position_index,
    _shift_attention_mask,
    _window_partition,
    _window_reverse,
    build_swin,
)
from repro.quant import TapRecorder
from tests.conftest import TINY_SWIN


class TestWindowPartition:
    def test_partition_reverse_inverse(self, rng):
        x = rng.normal(size=(2, 8, 8, 4)).astype(np.float32)
        windows = _window_partition(Tensor(x), 4)
        assert windows.shape == (2 * 4, 16, 4)
        back = _window_reverse(windows, 4, 8, 8)
        np.testing.assert_allclose(back.data, x)

    def test_partition_groups_spatially(self):
        # Mark each 2x2 quadrant of a 4x4 grid; window 2 must isolate them.
        x = np.zeros((1, 4, 4, 1), dtype=np.float32)
        x[0, :2, :2] = 1
        x[0, :2, 2:] = 2
        x[0, 2:, :2] = 3
        x[0, 2:, 2:] = 4
        windows = _window_partition(Tensor(x), 2).data
        for w in range(4):
            assert len(np.unique(windows[w])) == 1


class TestRelativePositionIndex:
    def test_shape_and_range(self):
        idx = _relative_position_index(4)
        assert idx.shape == (16, 16)
        assert idx.min() >= 0 and idx.max() < 49  # (2*4-1)^2

    def test_symmetry_structure(self):
        # The relative index of (i, j) and (j, i) mirror around the center.
        idx = _relative_position_index(3)
        center = idx[0, 0]
        assert (np.diag(idx) == center).all()


class TestShiftMask:
    def test_no_block_within_region(self):
        mask = _shift_attention_mask(8, 4, 2)
        assert mask.shape == (4, 16, 16)
        assert mask.dtype == bool
        # Diagonal is never blocked (a token attends to itself).
        for w in range(4):
            assert not mask[w].diagonal().any()

    def test_unshifted_windows_unmasked(self):
        # The window far from the wrap-around boundary has no blocked pairs.
        mask = _shift_attention_mask(8, 4, 2)
        assert not mask[0].any()
        # Windows crossing the wrapped boundary must block something.
        assert mask[-1].any()


class TestWindowAttention:
    def test_shape(self, rng):
        attn = WindowAttention(8, 4, 2, rng=rng)
        out = attn(Tensor(rng.normal(size=(6, 16, 8)).astype(np.float32)))
        assert out.shape == (6, 16, 8)

    def test_mask_blocks_attention(self, rng):
        attn = WindowAttention(8, 4, 2, rng=rng)
        x = Tensor(rng.normal(size=(4, 16, 8)).astype(np.float32))
        mask = _shift_attention_mask(8, 4, 2)
        recorder = TapRecorder(["probs"])
        attn.set_tap_dispatcher(recorder)
        attn(x, mask=mask)
        probs = recorder.values["probs"][0]  # (4, heads, 16, 16)
        blocked = np.broadcast_to(mask[:, None, :, :], probs.shape)
        assert probs[blocked].max() < 1e-6

    def test_bias_table_grad_flows(self, rng):
        attn = WindowAttention(8, 4, 2, rng=rng)
        out = attn(Tensor(rng.normal(size=(2, 16, 8)).astype(np.float32)))
        out.sum().backward()
        assert attn.relative_bias_table.grad is not None


class TestSwinBlock:
    def test_window_clamped_to_resolution(self, rng):
        block = SwinBlock(8, resolution=4, num_heads=2, window_size=8, shift=2, rng=rng)
        assert block.window_size == 4
        assert block.shift == 0

    def test_forward_shape_with_shift(self, rng):
        block = SwinBlock(8, resolution=8, num_heads=2, window_size=4, shift=2, rng=rng)
        out = block(Tensor(rng.normal(size=(2, 64, 8)).astype(np.float32)))
        assert out.shape == (2, 64, 8)

    def test_rejects_wrong_token_count(self, rng):
        block = SwinBlock(8, resolution=8, num_heads=2, window_size=4, shift=0, rng=rng)
        with pytest.raises(ValueError):
            block(Tensor(rng.normal(size=(1, 60, 8)).astype(np.float32)))


class TestPatchMerging:
    def test_downsamples_2x(self, rng):
        merge = PatchMerging(8, resolution=4, rng=rng)
        out = merge(Tensor(rng.normal(size=(2, 16, 8)).astype(np.float32)))
        assert out.shape == (2, 4, 16)

    def test_rejects_odd_resolution(self):
        with pytest.raises(ValueError):
            PatchMerging(8, resolution=5)


class TestSwinTransformer:
    def test_forward_shape(self, tiny_swin, rng):
        images = rng.normal(size=(2, 16, 16, 3)).astype(np.float32)
        assert tiny_swin(Tensor(images)).shape == (2, 10)

    def test_stage_dims_double(self, tiny_swin):
        assert tiny_swin.config.stage_dim(1) == 2 * tiny_swin.config.stage_dim(0)

    def test_attention_maps_counted_per_block(self, tiny_swin, rng):
        images = rng.normal(size=(1, 16, 16, 3)).astype(np.float32)
        recorder = TapRecorder()
        tiny_swin.set_tap_dispatcher(recorder)
        tiny_swin(Tensor(images))
        maps = [v for name, v in recorder.values.items() if name.endswith(".attn.probs")]
        assert [len(v) for v in maps] == [1] * sum(TINY_SWIN.depths)

    def test_gradients_reach_patch_embed(self, tiny_swin, rng):
        images = rng.normal(size=(1, 16, 16, 3)).astype(np.float32)
        tiny_swin(Tensor(images)).sum().backward()
        assert tiny_swin.patch_embed.proj.weight.grad is not None

    def test_seed_determinism(self, rng):
        a = build_swin(TINY_SWIN, seed=3)
        b = build_swin(TINY_SWIN, seed=3)
        images = rng.normal(size=(1, 16, 16, 3)).astype(np.float32)
        np.testing.assert_allclose(a(Tensor(images)).data, b(Tensor(images)).data)
