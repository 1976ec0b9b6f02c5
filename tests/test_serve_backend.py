"""Serve-layer tests for the pluggable backend: spec parsing, registry
construction, engine counters, and drift-swap weight rebuilds."""

import numpy as np
import pytest

from repro.backend import IntNativeBackend
from repro.serve import (
    BatchPolicy,
    ModelKey,
    ModelRegistry,
    RecalibrationManager,
    ServeEngine,
)
from repro.serve.metrics import Metrics
from tests.test_serve_drift import FakeClock, drifted_batches, make_policy
from tests.test_serve_registry import tiny_loader

INT_SPEC = "vit_s/quq/4/full/int"


@pytest.fixture
def registry(tmp_path, calib_images):
    return ModelRegistry(
        capacity=4,
        artifact_dir=tmp_path,
        loader=tiny_loader,
        calib_provider=lambda: calib_images[:16],
    )


class TestModelKeyBackend:
    def test_default_backend_is_float(self):
        key = ModelKey.parse("vit_s/quq/6")
        assert key.backend == "float"
        assert key.spec == "vit_mini_s/quq/6/full"  # unchanged by the field

    def test_parse_five_part_spec(self):
        key = ModelKey.parse(INT_SPEC)
        assert key.backend == "int"
        assert key.spec == "vit_mini_s/quq/4/full/int"
        assert key.slug == "vit_mini_s-quq-4-full-int"

    def test_spec_round_trip(self):
        key = ModelKey.parse(INT_SPEC)
        assert ModelKey.parse(key.spec) == key

    @pytest.mark.parametrize("spec", [
        "vit_s/quq/6/full/gpu",  # unknown backend
        "vit_s/baseq/6/full/int",  # int requires quq
        "vit_s/fp32/32/full/int",  # int requires quq
        "vit_s/quq/6/partial/int",  # int requires full coverage
        "vit_s/quq/6/full/int/extra",  # too many parts
    ])
    def test_rejects_bad_backend_specs(self, spec):
        with pytest.raises(ValueError):
            ModelKey.parse(spec)

    def test_float_and_int_keys_are_distinct_cache_entries(self):
        assert ModelKey.parse("vit_s/quq/4") != ModelKey.parse(INT_SPEC)


class TestRegistryBackendConstruction:
    def test_float_entry_carries_float_backend(self, registry):
        servable = registry.get("vit_s/quq/4")
        assert servable.backend is not None
        assert servable.backend.name == "float"

    def test_int_entry_carries_int_backend(self, registry):
        servable = registry.get(INT_SPEC)
        assert isinstance(servable.backend, IntNativeBackend)
        assert servable.quantized

    def test_int_predict_matches_direct_backend(self, registry, calib_images):
        servable = registry.get(INT_SPEC)
        images = calib_images[:2]
        np.testing.assert_array_equal(
            servable.predict(images), servable.backend.predict(images)
        )

    def test_fp32_entry_gets_float_backend(self, registry):
        servable = registry.get("vit_s/fp32/32")
        assert servable.backend.name == "float"
        assert servable.backend.memory_info()["packed_weight_bytes"] == 0

    def test_int_build_failure_degrades_to_float(self, tmp_path, calib_images):
        from repro.models.configs import SwinConfig
        from repro.models.swin import build_swin

        def swin_loader(name):
            # A topology the int backend refuses (no cls_token): the
            # registry must degrade to the float fallback, not raise.
            config = SwinConfig("tiny_swin", 16, 2, 3, 10, 16, (1, 1), (2, 2), 4)
            return build_swin(config, seed=0), 40.0

        registry = ModelRegistry(
            capacity=2,
            artifact_dir=tmp_path,
            loader=swin_loader,
            calib_provider=lambda: calib_images[:16],
        )
        servable = registry.get("swin_t/quq/4/full/int")
        assert not servable.quantized
        assert servable.fallback_reason is not None
        assert servable.backend.name == "float"
        assert registry.snapshot()["fallbacks"] == 1

    def test_snapshot_reports_backend_per_entry(self, registry):
        registry.get("vit_s/quq/4")
        registry.get(INT_SPEC)
        backends = registry.snapshot()["backends"]
        assert backends["vit_mini_s/quq/4/full"]["backend"] == "float"
        int_entry = backends["vit_mini_s/quq/4/full/int"]
        assert int_entry["backend"] == "int"
        assert 0 < int_entry["packed_weight_bytes"] < int_entry["float_weight_bytes"]
        assert int_entry["reduction"] >= 2.0
        assert "int_gemm_calls" in int_entry


class TestEngineIntBackend:
    def test_end_to_end_serving_and_counters(self, registry, tiny_data):
        _, val_set = tiny_data
        policy = BatchPolicy(max_batch_size=4, max_wait_ms=2.0, max_queue=64)
        with ServeEngine(registry, policy) as engine:
            engine.warm(INT_SPEC)
            handles = [
                engine.submit(INT_SPEC, image) for image in val_set.images[:6]
            ]
            results = [handle.result(timeout=60.0) for handle in handles]
        assert all(result.quantized for result in results)
        counters = engine.snapshot()["counters"]
        assert counters["int_batches_total"] >= 1

    def test_int_batches_label_parity(self, registry, tiny_data):
        # The rollup walk in test_serve_metrics keeps the global equal to
        # its per-spec children; here the float lane must not contribute.
        _, val_set = tiny_data
        policy = BatchPolicy(max_batch_size=4, max_wait_ms=2.0, max_queue=64)
        specs = (INT_SPEC, "vit_s/quq/4")
        with ServeEngine(registry, policy) as engine:
            for spec in specs:
                engine.warm(spec)
            handles = [
                engine.submit(specs[i % 2], image)
                for i, image in enumerate(val_set.images[:8])
            ]
            for handle in handles:
                handle.result(timeout=60.0)
        counters = engine.snapshot()["counters"]
        labelled = {
            name: value
            for name, value in counters.items()
            if name.startswith('int_batches_total{spec="')
        }
        assert counters["int_batches_total"] >= 1
        # Only the int lane carries the label; the float lane served the
        # same model without ever touching the integer datapath.
        assert set(labelled) == {
            'int_batches_total{spec="vit_mini_s/quq/4/full/int"}'
        }


class TestDriftSwapRebuildsPackedWeights:
    def test_swap_rebuilds_backend_and_preserves_exactness(
        self, registry, tiny_data, calib_images
    ):
        from repro.hw.executor import ModelExecutor

        _, val_set = tiny_data
        key = ModelKey.parse(INT_SPEC)
        clock = FakeClock()
        metrics = Metrics()
        manager = RecalibrationManager(
            registry, make_policy(), metrics=metrics, clock=clock
        )
        original = registry.get(key)
        original_backend = original.backend
        swapped = False
        for chunk in drifted_batches(val_set.images, 4):
            servable = registry.get(key)
            servable.predict(chunk, recorder=manager.recorder_for(key, servable))
            if manager.finish_batch(key, servable, chunk).swapped:
                swapped = True
                break
        assert swapped, "sustained drift must trigger a swap"
        replacement = registry.get(key)
        assert replacement is not original
        assert isinstance(replacement.backend, IntNativeBackend)
        # The packed weight store was rebuilt under the new calibration,
        # not carried over from the stale entry.
        assert replacement.backend is not original_backend
        assert replacement.backend.weights is not original_backend.weights
        # And the swapped-in backend still matches the reference executor
        # bit for bit under its fresh parameters.
        backend = replacement.backend
        executor = ModelExecutor(
            replacement.model,
            replacement.pipeline,
            bits=backend.bits,
            integer_sfu=backend.integer_sfu,
        )
        images = calib_images[:2]
        assert backend.predict(images).tobytes() == executor.run(images).tobytes()
