"""Tests for the serving model registry (LRU cache + warm start)."""

import numpy as np
import pytest

from repro.models.configs import ModelConfig
from repro.models.vit import build_vit
from repro.serve import ModelKey, ModelRegistry

TINY = ModelConfig("tiny_vit", "vit", 16, 4, 3, 10, 32, 2, 2)


def tiny_loader(name):
    # Serve-path tests run a deterministic tiny model regardless of the
    # requested zoo name, so nothing trains or hits the checkpoint cache.
    return build_vit(TINY, seed=0), 42.0


@pytest.fixture
def registry(tmp_path, calib_images):
    return ModelRegistry(
        capacity=2,
        artifact_dir=tmp_path,
        loader=tiny_loader,
        calib_provider=lambda: calib_images[:16],
    )


class TestModelKey:
    def test_parse_paper_and_zoo_names(self):
        assert ModelKey.parse("vit_s/quq/6").model == "vit_mini_s"
        assert ModelKey.parse("vit_mini_s/quq/6").model == "vit_mini_s"
        assert ModelKey.parse("vit_s/quq/6").coverage == "full"
        assert ModelKey.parse("vit_s/baseq/8/partial").coverage == "partial"

    @pytest.mark.parametrize("spec", [
        "vit_s", "vit_s/quq", "resnet50/quq/6", "vit_s/awq/6",
        "vit_s/quq/six", "vit_s/quq/6/most",
    ])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            ModelKey.parse(spec)

    def test_spec_round_trip(self):
        key = ModelKey.parse("deit_s/biscaled/8/partial")
        assert ModelKey.parse(key.spec) == key

    @pytest.mark.parametrize("bits", ["1", "6", "16"])
    def test_bits_accepts_quantizable_range(self, bits):
        assert ModelKey.parse(f"vit_s/quq/{bits}").bits == int(bits)

    @pytest.mark.parametrize("bits", ["0", "17", "-4", "007", "+6", " 6", "6.0"])
    def test_bits_rejects_out_of_range_and_padded(self, bits):
        with pytest.raises(ValueError, match="bits"):
            ModelKey.parse(f"vit_s/quq/{bits}")

    def test_fp32_accepts_the_float_width(self):
        assert ModelKey.parse("vit_s/fp32/32").bits == 32
        with pytest.raises(ValueError, match="bits"):
            ModelKey.parse("vit_s/fp32/33")


    def test_image_size_and_key_pass_through(self):
        from repro.models import get_config
        from repro.models.cnn import CNN_MINI

        key = ModelKey.parse("vit_s/quq/6")
        assert key.image_size == get_config("vit_mini_s").image_size
        assert ModelKey.parse(f"{CNN_MINI.name}/quq/6").image_size == CNN_MINI.image_size
        assert ModelKey.parse(key) is key


class TestRegistryCache:
    def test_miss_then_hit(self, registry):
        first = registry.get("vit_s/quq/4")
        assert first.quantized and first.pipeline.calibrated
        second = registry.get("vit_s/quq/4")
        assert second is first
        snap = registry.snapshot()
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["hit_rate"] == 0.5
        assert snap["calibrations"] == 1

    def test_distinct_specs_are_distinct_entries(self, registry):
        a = registry.get("vit_s/quq/4")
        b = registry.get("vit_s/quq/6")
        assert a is not b
        assert len(registry) == 2

    def test_lru_eviction(self, tmp_path, calib_images):
        registry = ModelRegistry(
            capacity=1, artifact_dir=tmp_path, loader=tiny_loader,
            calib_provider=lambda: calib_images[:16],
        )
        registry.get("vit_s/quq/4")
        registry.get("vit_s/baseq/4")
        assert "vit_s/quq/4" not in registry
        assert "vit_s/baseq/4" in registry
        assert registry.snapshot()["evictions"] == 1

    def test_fp32_method_serves_float(self, registry):
        servable = registry.get("vit_s/fp32/32")
        assert not servable.quantized
        assert servable.fallback_reason is None
        logits = servable.predict(np.zeros((2, 16, 16, 3), dtype=np.float32))
        assert logits.shape == (2, 10)


class TestWarmStart:
    def test_restart_skips_recalibration(self, tmp_path, calib_images):
        def make():
            return ModelRegistry(
                capacity=2, artifact_dir=tmp_path, loader=tiny_loader,
                calib_provider=lambda: calib_images[:16],
            )

        images = calib_images[:4]
        cold = make()
        reference = cold.get("vit_s/quq/4").predict(images)
        assert cold.snapshot()["calibrations"] == 1
        assert cold.state_path(ModelKey.parse("vit_s/quq/4")).exists()

        warm = make()  # fresh registry, same artifact dir: a "restart"
        servable = warm.get("vit_s/quq/4")
        snap = warm.snapshot()
        assert snap["warm_loads"] == 1 and snap["calibrations"] == 0
        np.testing.assert_array_equal(servable.predict(images), reference)

    def test_corrupt_state_falls_back_to_calibration(self, tmp_path, calib_images):
        registry = ModelRegistry(
            capacity=2, artifact_dir=tmp_path, loader=tiny_loader,
            calib_provider=lambda: calib_images[:16],
        )
        state = registry.state_path(ModelKey.parse("vit_s/quq/4"))
        state.parent.mkdir(parents=True, exist_ok=True)
        state.write_bytes(b"not an npz archive")
        servable = registry.get("vit_s/quq/4")
        assert servable.quantized
        assert registry.snapshot()["calibrations"] == 1

    def test_tampered_payload_is_rejected_by_checksum(self, tmp_path, calib_images):
        from repro.resilience import tamper_quantizer_state

        def make():
            return ModelRegistry(
                capacity=2, artifact_dir=tmp_path, loader=tiny_loader,
                calib_provider=lambda: calib_images[:16],
            )

        cold = make()
        cold.get("vit_s/quq/4")
        state = cold.state_path(ModelKey.parse("vit_s/quq/4"))
        tamper_quantizer_state(state, seed=1)  # still a readable npz

        warm = make()
        servable = warm.get("vit_s/quq/4")  # reject + recalibrate, not serve
        assert servable.quantized
        snap = warm.snapshot()
        assert snap["checksum_rejects"] == 1
        assert snap["warm_loads"] == 0 and snap["calibrations"] == 1
        assert state.exists()  # recalibration re-serialized a clean artifact

    def test_legacy_checksumless_artifact_recalibrates(self, tmp_path, calib_images):
        # An artifact written before checksums existed cannot prove it is
        # uncorrupted, so the serving path must recalibrate (and thereby
        # upgrade it) instead of trusting it.
        import json

        def make():
            return ModelRegistry(
                capacity=2, artifact_dir=tmp_path, loader=tiny_loader,
                calib_provider=lambda: calib_images[:16],
            )

        cold = make()
        cold.get("vit_s/quq/4")
        state = cold.state_path(ModelKey.parse("vit_s/quq/4"))
        with np.load(state, allow_pickle=False) as handle:
            payload = {name: handle[name] for name in handle.files}
        record = json.loads(str(payload["__meta__"][()]))
        record.pop("checksum", None)
        payload["__meta__"] = np.array(json.dumps(record))
        np.savez(state, **payload)

        warm = make()
        assert warm.get("vit_s/quq/4").quantized
        snap = warm.snapshot()
        assert snap["checksum_rejects"] == 1
        assert snap["warm_loads"] == 0 and snap["calibrations"] == 1
        # The recalibration re-saved a checksummed artifact; a third
        # registry warm-starts cleanly.
        upgraded = make()
        assert upgraded.get("vit_s/quq/4").quantized
        snap = upgraded.snapshot()
        assert snap["warm_loads"] == 1 and snap["calibrations"] == 0

    def test_invalidate_drops_cached_entry(self, registry):
        registry.get("vit_s/quq/4")
        assert registry.invalidate("vit_s/quq/4")
        assert "vit_s/quq/4" not in registry
        assert not registry.invalidate("vit_s/quq/4")  # already gone


class TestInvalidateUnderLoad:
    def test_mid_stream_invalidation_is_picked_up_next_batch(
        self, registry, tiny_data
    ):
        """Invalidating a lane's entry while the engine is serving it must
        not drop or corrupt requests: lanes resolve through registry.get
        on every batch, so the next batch serves a freshly built entry."""
        from repro.serve import BatchPolicy, ServeEngine

        _, val_set = tiny_data
        spec = "vit_s/quq/4"
        policy = BatchPolicy(max_batch_size=4, max_wait_ms=5.0, max_queue=64)
        with ServeEngine(registry, policy) as engine:
            engine.warm(spec)
            before = registry.get(spec)
            results = []
            for index, image in enumerate(val_set.images[:24]):
                if index == 12:
                    assert registry.invalidate(spec)
                    assert spec not in registry
                results.append(engine.submit(spec, image).result(timeout=30.0))
            after = registry.get(spec)

        assert after is not before  # the replacement took over mid-stream
        assert all(r.quantized for r in results)
        assert all(np.isfinite(r.logits).all() for r in results)
        snap = registry.snapshot()
        # One build at warm-up, one rebuild after the invalidation; the
        # second build may warm-start from the persisted artifact.
        assert snap["calibrations"] + snap["warm_loads"] == 2
        assert engine.snapshot()["counters"]["responses_total"] == 24


class TestLoadRetry:
    def test_transient_loader_failures_are_retried(self, tmp_path, calib_images):
        from repro.resilience import RetryPolicy

        calls = {"n": 0}

        def flaky_loader(name):
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("checkpoint mid-write")
            return tiny_loader(name)

        registry = ModelRegistry(
            capacity=2, artifact_dir=tmp_path, loader=flaky_loader,
            calib_provider=lambda: calib_images[:16],
            retry=RetryPolicy(attempts=4, backoff_s=0.0, sleep=lambda s: None),
        )
        assert registry.get("vit_s/quq/4").quantized
        snap = registry.snapshot()
        assert snap["retries"] == 2 and snap["load_failures"] == 0

    def test_exhausted_retries_raise_and_are_counted(self, tmp_path, calib_images):
        from repro.resilience import RetryPolicy

        def dead_loader(name):
            raise OSError("checkpoint gone")

        registry = ModelRegistry(
            capacity=2, artifact_dir=tmp_path, loader=dead_loader,
            calib_provider=lambda: calib_images[:16],
            retry=RetryPolicy(attempts=3, backoff_s=0.0, sleep=lambda s: None),
        )
        with pytest.raises(OSError):
            registry.get("vit_s/quq/4")
        snap = registry.snapshot()
        assert snap["load_failures"] == 1 and snap["retries"] == 2
        assert len(registry) == 0  # nothing half-built was cached


class TestGracefulDegradation:
    def test_calibration_failure_degrades_to_float(self, tmp_path):
        def broken_calib():
            raise RuntimeError("calibration data unavailable")

        registry = ModelRegistry(
            capacity=2, artifact_dir=tmp_path, loader=tiny_loader,
            calib_provider=broken_calib,
        )
        servable = registry.get("vit_s/quq/6")
        assert not servable.quantized
        assert "calibration data unavailable" in servable.fallback_reason
        assert registry.snapshot()["fallbacks"] == 1
        # The float model still answers.
        logits = servable.predict(np.zeros((3, 16, 16, 3), dtype=np.float32))
        assert logits.shape == (3, 10)
