"""Model registry: calibrated PTQ pipelines as named, cached artifacts.

A deployable model is addressed by a spec string ``model/method/bits``
(optionally ``/coverage``), e.g. ``vit_s/quq/6`` — paper model names
resolve through the mini zoo, zoo names are accepted directly, and the
method ``fp32`` serves the float model unquantized.

``get()`` loads on first use (training the zoo model if its checkpoint is
missing, then calibrating the PTQ pipeline) and serves warm thereafter
from an LRU cache.  The fitted quantizer state is serialized next to the
model cache (:mod:`repro.quant.serialize`), so a fresh registry — e.g.
after a process restart — warm-starts the pipeline from disk instead of
re-running calibration.  If quantization fails for any reason the entry
degrades gracefully to the float model and records why.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..autograd import Tensor, no_grad
from ..backend import BACKEND_NAMES, FloatFakeQuantBackend, make_backend
from ..data import calibration_set, make_splits
from ..kernels import active_kernels as _active_kernels
from ..kernels import kernels_snapshot as _kernels_snapshot
from ..models import MINI_CONFIGS, MINI_FOR_PAPER, get_config, get_trained_model
from ..models.cnn import CNN_MINI
from ..models.zoo import DATASET_SPEC, cache_dir
from ..quant.qmodel import METHODS, PTQPipeline
from ..quant.serialize import ChecksumError
from ..resilience.faults import CORRUPT_STATE, LOAD_ERROR, tamper_quantizer_state

__all__ = ["ModelKey", "ServableModel", "ModelRegistry"]

_SERVABLE_METHODS = METHODS + ("fp32",)


@dataclass(frozen=True)
class ModelKey:
    """Parsed identity of one deployable artifact."""

    model: str  # mini-zoo model name
    method: str
    bits: int
    coverage: str = "full"
    backend: str = "float"

    @classmethod
    def parse(cls, spec: "str | ModelKey") -> "ModelKey":
        """Parse ``model/method/bits[/coverage[/backend]]``.

        E.g. ``vit_s/quq/6`` (float fake-quant serving, the default) or
        ``vit_s/quq/6/full/int`` (integer-native backend).  A key is
        returned as it is.
        """
        if isinstance(spec, ModelKey):
            return spec
        parts = spec.strip().strip("/").split("/")
        if len(parts) not in (3, 4, 5):
            raise ValueError(
                f"bad model spec {spec!r}; "
                "expected model/method/bits[/coverage[/backend]]"
            )
        model, method, bits = parts[0], parts[1], parts[2]
        coverage = parts[3] if len(parts) >= 4 else "full"
        backend = parts[4] if len(parts) == 5 else "float"
        model = MINI_FOR_PAPER.get(model, model)
        if model not in MINI_CONFIGS and model != CNN_MINI.name:
            known = sorted(MINI_FOR_PAPER) + sorted(MINI_CONFIGS) + [CNN_MINI.name]
            raise ValueError(f"unknown model {parts[0]!r}; choices: {known}")
        if method not in _SERVABLE_METHODS:
            raise ValueError(
                f"unknown method {method!r}; choices: {_SERVABLE_METHODS}"
            )
        try:
            bits_value = int(bits)
        except ValueError:
            raise ValueError(f"bits must be an integer, got {bits!r}") from None
        if str(bits_value) != bits:
            raise ValueError(
                f"bits must be a plain decimal integer (no padding or sign), "
                f"got {bits!r}"
            )
        # fp32 ignores the width for quantization but conventionally reads
        # as the float width, so "vit_s/fp32/32" stays a valid spec.
        ceiling = 32 if method == "fp32" else 16
        if not 1 <= bits_value <= ceiling:
            raise ValueError(
                f"bits must be between 1 and {ceiling} for method {method!r}, "
                f"got {bits_value}"
            )
        if coverage not in ("partial", "full"):
            raise ValueError(f"coverage must be partial|full, got {coverage!r}")
        if backend not in BACKEND_NAMES:
            raise ValueError(
                f"backend must be one of {'|'.join(BACKEND_NAMES)}, got {backend!r}"
            )
        if backend == "int":
            if method != "quq":
                raise ValueError(
                    f"the int backend requires method quq, got {method!r}"
                )
            if coverage != "full":
                raise ValueError(
                    "the int backend requires full coverage (every GEMM tap "
                    f"must be quantized), got {coverage!r}"
                )
        return cls(model, method, bits_value, coverage, backend)

    @property
    def spec(self) -> str:
        base = f"{self.model}/{self.method}/{self.bits}/{self.coverage}"
        # The default backend is elided so pre-backend specs round-trip.
        return base if self.backend == "float" else f"{base}/{self.backend}"

    @property
    def slug(self) -> str:
        base = f"{self.model}-{self.method}-{self.bits}-{self.coverage}"
        return base if self.backend == "float" else f"{base}-{self.backend}"

    @property
    def image_size(self) -> int:
        """Side length of the square images the model takes."""
        if self.model == CNN_MINI.name:
            return CNN_MINI.image_size
        return get_config(self.model).image_size


class ServableModel:
    """A loaded (and, when possible, quantized) model ready for batches."""

    def __init__(
        self,
        key: ModelKey,
        model,
        fp32_top1: float,
        pipeline: PTQPipeline | None,
        fallback_reason: str | None = None,
        calib_images: np.ndarray | None = None,
        backend=None,
    ):
        self.key = key
        self.model = model
        self.fp32_top1 = fp32_top1
        self.pipeline = pipeline
        self.fallback_reason = fallback_reason
        # Serving backend (repro.backend.ServingBackend); the float
        # fake-quant backend unless the caller picked one.
        self.backend = backend or FloatFakeQuantBackend(model, pipeline)
        # The images the pipeline was calibrated on; the first
        # ``fingerprints`` read consumes them.
        self._calib_images = calib_images
        self._fingerprints: dict | None = None
        self._lock = threading.Lock()

    @property
    def quantized(self) -> bool:
        return self.pipeline is not None

    @property
    def fingerprints(self) -> dict | None:
        """Calibration fingerprints (:class:`~repro.quant.drift.TapFingerprint`
        by tap name) that the drift monitor compares live traffic against.

        Taken on first read, by a second tapped pass over the calibration
        images, and kept: a lane no drift manager watches never pays for
        the pass.  The pass runs under the model's lock, so it never
        interleaves with a batch.  None for an unquantized entry, or when
        fingerprinting fails (it is observability, never a blocker).
        """
        with self._lock:
            images, self._calib_images = self._calib_images, None
            if images is not None and self.pipeline is not None:
                from ..quant.drift import fingerprint_pipeline

                try:
                    self._fingerprints = fingerprint_pipeline(self.pipeline, images)
                except Exception:
                    pass
            return self._fingerprints

    def predict(self, images: np.ndarray, recorder=None) -> np.ndarray:
        """Logits for a batch; serialized so one model runs one batch at a time.

        ``recorder`` (a :class:`~repro.quant.drift.TapStatsRecorder`)
        samples live activation statistics at every quantized tap for the
        duration of this forward pass only — attached and detached under
        the lock, so concurrent predicts never see another batch's hook.
        """
        with self._lock:
            return self.backend.predict(images, recorder=recorder)

    def predict_float(self, images: np.ndarray) -> np.ndarray:
        """Logits through the float weights, quantization detached.

        The circuit breaker and the numeric guard fail over to this path:
        the same model answers, minus the (possibly misbehaving) quantized
        artifact.  The pipeline is re-attached before the lock is
        released, so interleaved ``predict`` calls still see it.
        """
        with self._lock:
            if self.pipeline is None:
                return self._forward(images)
            self.pipeline.detach()
            try:
                return self._forward(images)
            finally:
                self.pipeline.attach()

    def _forward(self, images: np.ndarray) -> np.ndarray:
        self.model.eval()
        with no_grad():
            return self.model(Tensor(images)).data


class ModelRegistry:
    """LRU cache of :class:`ServableModel` keyed by spec, warm-startable."""

    def __init__(
        self,
        capacity: int = 2,
        artifact_dir: str | Path | None = None,
        loader=None,
        calib_provider=None,
        retry=None,
        faults=None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.artifact_dir = Path(artifact_dir) if artifact_dir else cache_dir() / "serve"
        self._loader = loader or (lambda name: get_trained_model(name, verbose=True))
        self._calib_provider = calib_provider
        self._retry = retry  # resilience.RetryPolicy for transient loads
        self._faults = faults  # resilience.FaultPlan (chaos testing only)
        self._calib: np.ndarray | None = None
        self._entries: "OrderedDict[ModelKey, ServableModel]" = OrderedDict()
        self._lock = threading.RLock()
        self.stats = {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "warm_loads": 0,
            "calibrations": 0,
            "fallbacks": 0,
            "retries": 0,
            "load_failures": 0,
            "checksum_rejects": 0,
            "swaps": 0,
        }

    # ------------------------------------------------------------------
    def _calibration_images(self) -> np.ndarray:
        if self._calib is None:
            if self._calib_provider is not None:
                self._calib = np.asarray(self._calib_provider())
            else:
                train_set, _ = make_splits(**DATASET_SPEC)
                self._calib = calibration_set(train_set, 32)
        return self._calib

    def _fingerprint_images(self) -> np.ndarray | None:
        """Calibration images for an entry's fingerprints, or None when
        they cannot be had: fingerprints never block a warm start."""
        try:
            return self._calibration_images()
        except Exception:
            return None

    def state_path(self, key: ModelKey) -> Path:
        return self.artifact_dir / f"{key.slug}.quantizers.npz"

    def _load_model(self, key: ModelKey):
        """Run the loader under the retry policy (and the fault plan)."""

        def attempt():
            if self._faults is not None:
                self._faults.raise_if(LOAD_ERROR, site=key.spec)
            return self._loader(key.model)

        def on_retry(error, attempt_index, delay):
            self.stats["retries"] += 1

        try:
            if self._retry is None:
                return attempt()
            return self._retry.call(attempt, on_retry=on_retry)
        except Exception:
            self.stats["load_failures"] += 1
            raise

    def _make_backend(self, key: ModelKey, model, pipeline):
        """Serving backend for an entry (int packs weights at build time)."""
        return make_backend(key.backend, model, pipeline, bits=key.bits)

    def _build(self, key: ModelKey) -> ServableModel:
        model, fp32 = self._load_model(key)
        if key.method == "fp32":
            return ServableModel(key, model, fp32, pipeline=None)
        try:
            pipeline = PTQPipeline(
                model, method=key.method, bits=key.bits, coverage=key.coverage
            )
            state = self.state_path(key)
            if state.exists():
                if self._faults is not None and (
                    self._faults.fire(CORRUPT_STATE, site=key.spec) is not None
                ):
                    tamper_quantizer_state(state, seed=key.bits)
                try:
                    # A legacy archive with no checksum cannot prove it is
                    # uncorrupted either: it raises ChecksumError, and the
                    # recalibration below re-saves it checksummed.
                    pipeline.load_quantizers(state)
                    self.stats["warm_loads"] += 1
                    return ServableModel(
                        key, model, fp32, pipeline,
                        calib_images=self._fingerprint_images(),
                        backend=self._make_backend(key, model, pipeline),
                    )
                except ChecksumError:
                    # Corrupt (or unverifiable) artifact: reject it and fall
                    # through to a fresh calibration rather than serving
                    # silent garbage.
                    self.stats["checksum_rejects"] += 1
                    state.unlink(missing_ok=True)
                except Exception:
                    state.unlink(missing_ok=True)  # stale/corrupt: recalibrate
            pipeline.calibrate(self._calibration_images())
            self.stats["calibrations"] += 1
            pipeline.save_quantizers(state)
            return ServableModel(
                key, model, fp32, pipeline,
                calib_images=self._calibration_images(),
                backend=self._make_backend(key, model, pipeline),
            )
        except Exception as error:  # degrade to float rather than failing
            self.stats["fallbacks"] += 1
            model.set_tap_dispatcher(None)
            reason = f"{type(error).__name__}: {error}"
            return ServableModel(key, model, fp32, None, fallback_reason=reason)

    # ------------------------------------------------------------------
    def get(self, spec: str | ModelKey) -> ServableModel:
        """Fetch (loading/calibrating on miss) and mark most recently used."""
        key = ModelKey.parse(spec) if isinstance(spec, str) else spec
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.stats["hits"] += 1
                self._entries.move_to_end(key)
                return entry
            self.stats["misses"] += 1
            entry = self._build(key)
            self._entries[key] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats["evictions"] += 1
            return entry

    def invalidate(self, spec: str | ModelKey) -> bool:
        """Drop a cached entry so the next ``get`` rebuilds from disk.

        Safe under live traffic: serving lanes resolve their
        :class:`ServableModel` through ``get`` on *every* batch, so a lane
        picks up the rebuilt entry on its next batch — an in-flight batch
        finishes on the old object (which stays valid until
        garbage-collected), and nothing holds a stale reference beyond
        that.  Operational escape hatch (and the chaos harness's way to
        force a reload through a corrupted artifact).  Returns whether an
        entry was actually dropped.
        """
        key = ModelKey.parse(spec) if isinstance(spec, str) else spec
        with self._lock:
            return self._entries.pop(key, None) is not None

    def shadow_build(self, key: ModelKey, calib_images: np.ndarray) -> ServableModel:
        """Build a replacement entry calibrated on ``calib_images`` without
        touching the cache.

        The recalibration manager uses this to recalibrate *in the shadow*
        of live traffic: a fresh model instance is loaded and calibrated
        while the cached entry keeps serving, canary-validated by the
        caller, and only then installed via :meth:`swap`.
        """
        if key.method == "fp32":
            raise ValueError("fp32 entries have no quantizer to recalibrate")
        model, fp32 = self._load_model(key)
        calib = np.asarray(calib_images)
        pipeline = PTQPipeline(
            model, method=key.method, bits=key.bits, coverage=key.coverage
        )
        pipeline.calibrate(calib)
        self.stats["calibrations"] += 1
        # A fresh backend per shadow build: for the int backend this is
        # what re-packs the QUB weight buffers under the new calibration.
        return ServableModel(
            key, model, fp32, pipeline, calib_images=calib,
            backend=self._make_backend(key, model, pipeline),
        )

    def swap(self, key: ModelKey, servable: ServableModel) -> None:
        """Atomically install ``servable`` as the cache entry for ``key``.

        Lanes resolve through ``get`` every batch, so the very next batch
        serves the replacement; its quantizer state is re-serialized so a
        restart warm-starts from the swapped-in calibration.
        """
        if servable.key != key:
            raise ValueError(f"servable is for {servable.key.spec}, not {key.spec}")
        with self._lock:
            self._entries[key] = servable
            self._entries.move_to_end(key)
            self.stats["swaps"] += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats["evictions"] += 1
        if servable.pipeline is not None:
            try:
                servable.pipeline.save_quantizers(self.state_path(key))
            except Exception:
                pass  # persistence is best effort; the swap already served

    def __contains__(self, spec: str | ModelKey) -> bool:
        key = ModelKey.parse(spec) if isinstance(spec, str) else spec
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict:
        """Stats dict (JSON-serializable) including the cache hit rate."""
        with self._lock:
            lookups = self.stats["hits"] + self.stats["misses"]
            return {
                **self.stats,
                "size": len(self._entries),
                "capacity": self.capacity,
                "hit_rate": round(self.stats["hits"] / lookups, 4) if lookups else 0.0,
                "entries": [key.spec for key in self._entries],
                # Per-model weight-cache stats (repro.quant.observers): the
                # hot-path optimisation that replays pre-quantized weights.
                "weight_cache": {
                    key.spec: servable.pipeline.weight_cache_info()
                    for key, servable in self._entries.items()
                    if servable.pipeline is not None
                },
                # Per-model serving backend: name, packed/float weight
                # bytes, and the backend's own batch/kernel counters.
                "backends": {
                    key.spec: servable.backend.describe()
                    for key, servable in self._entries.items()
                },
                # Process-wide kernel registry configuration: whether the
                # fast or the reference implementation serves each op, and
                # any REPRO_KERNELS override.
                # Deliberately no dispatch counters here — they are
                # cumulative process-global state, and registry snapshots
                # must be deterministic for equal serving histories (the
                # recovery-curve harness byte-compares them).  Read the
                # counters from repro.kernels.kernels_snapshot().
                "kernels": {
                    "selected": _active_kernels(),
                    "override": _kernels_snapshot()["override"],
                },
            }
