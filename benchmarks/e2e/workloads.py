"""The four workloads: set-up, timed windows, per-layer trace, verification.

Every workload serves QUQ W6A6 with full coverage on a seeded random-init
mini-zoo model (latency does not depend on trained weights) over a
seeded pool of 64 unit-normal 32x32x3 images.

=================  =========================================================
workload           what runs
=================  =========================================================
``offline-float``  closed loop, 1 caller: ``swin_mini_s`` through
                   ``FloatFakeQuantBackend.predict``, batch 8
``offline-int``    closed loop, 1 caller: ``deit_mini_s`` through
                   ``IntNativeBackend(integer_sfu=True)``, batch 8
``serve-local``    ``vit_mini_s/quq/6`` on an in-process ``ServeEngine``
``serve-cluster``  the same spec and traffic on a one-shard ``ClusterEngine``
=================  =========================================================

A serve window is an open loop: Poisson arrivals of single images at
:data:`NOMINAL_RPS`, each request timed from its due time.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import loadgen
import spans as spanlib
from metrics import BLOCK_DEPTHS, KERNEL_OPS, NN_KINDS
from probe import Probe, pin
from stats import min_samples, percentile
from repro.backend import FloatFakeQuantBackend, IntNativeBackend
from repro.hw.executor import ModelExecutor
from repro.kernels import ENV_VAR
from repro.models import build_model
from repro.quant.qmodel import PTQPipeline
from repro.serve import (
    BatchPolicy, ClusterEngine, ClusterPolicy, DeadlineExceededError, ModelRegistry,
    RequestTimeoutError, ServeEngine,
)

__all__ = ["WORKLOADS", "inputs", "span_layers"]

POOL_SIZE = 64
IMAGE_HW = 32
BATCH = 8
BITS = 6
CALIB_IMAGES = 32
#: Untimed batches between READY and an offline window.
WARMUP_BATCHES = 2
SERVE_SPEC = "vit_mini_s/quq/6"
POLICY = {"max_batch_size": 8, "max_wait_ms": 10.0, "max_queue": 256, "timeout_ms": 5000.0}
#: Arrival rate: mostly single-image batches, so per-call costs that
#: batch 8 hides show up in latency, and far enough below capacity that a
#: vCPU in its slow state does not tip the queue into overload (at 50
#: rps the p90 of serve-cluster reached 435 ms in one run of ten).
NOMINAL_RPS = 30.0
#: Probe units timed at each end of a serve window.
BOUNDARY_UNITS = 20
#: How long to wait for stragglers after the last arrival.
SETTLE_S = POLICY["timeout_ms"] / 1000.0 + 5.0

clock = time.perf_counter


def inputs(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The seeded image pool and the calibration images."""
    shape = (IMAGE_HW, IMAGE_HW, 3)
    pool = np.random.default_rng([seed, 0]).standard_normal((POOL_SIZE, *shape))
    calib = np.random.default_rng([seed, 1]).standard_normal((CALIB_IMAGES, *shape))
    return pool.astype(np.float32), calib.astype(np.float32)


@contextmanager
def timed(store: dict, key: str):
    start = clock()
    try:
        yield
    finally:
        store[key] = clock() - start


@contextmanager
def reference_kernels():
    """Dispatch every op to its reference implementation (in-process)."""
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = "reference"
    try:
        yield
    finally:
        if previous is None:
            del os.environ[ENV_VAR]
        else:
            os.environ[ENV_VAR] = previous


def _ms(seconds: float) -> float:
    return seconds * 1e3


def span_layers(spans: list, root: str, ledger) -> dict:
    """Per-layer rows that come from spans, averaged per ``root`` span."""
    own = spanlib.self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    nbytes: dict[str, int] = defaultdict(int)
    block_s: dict[int, float] = defaultdict(float)
    for span in spans:
        self_s[span.name] += own[span.sid]
        calls[span.name] += 1
        nbytes[span.name] += span.nbytes
        if span.name == "nn.block":
            block_s[span.tag] += span.duration
    batches = max(calls[root], 1)

    def per_batch_ms(name: str) -> float:
        return _ms(self_s[name]) / batches

    out = {
        "backend.predict_p50_ms": ledger.percentile(
            "backend.predict", [_ms(s.duration) for s in spans if s.name == "backend.predict"], 50
        ),
        "backend.self_ms": per_batch_ms("backend.predict"),
        "encoder.shifted.self_ms": per_batch_ms("encoder.shifted"),
        "encoder.store_load.self_ms": per_batch_ms("encoder.store_load"),
        "encoder.calls": (calls["encoder.shifted"] + calls["encoder.store_load"]) / batches,
        "weights.decode.self_ms": per_batch_ms("weights.decode"),
        "trace.coverage": spanlib.coverage(spans, root),
    }
    for kind in NN_KINDS:
        out[f"{kind}.self_ms"] = per_batch_ms(kind)
    for depth in range(BLOCK_DEPTHS):
        out[f"block.{depth}.total_ms"] = _ms(block_s[depth]) / batches
    for op in KERNEL_OPS:
        name = f"kernel.{op}"
        out[f"{name}.calls"] = calls[name] / batches
        out[f"{name}.self_ms"] = per_batch_ms(name)
        out[f"{name}.mbytes"] = nbytes[name] / 1e6 / batches
    return out


class SpeedLog:
    """Probe bursts on the compute vCPU, taken whenever the engine has
    answered everything sent so far.

    A probe that ran while the engine worked would measure our own
    contention (the GIL, the shard's core), not the machine.
    """

    def __init__(self, probe: Probe, cpu: int):
        self.probe = probe
        self.cpu = cpu
        self.times: list[float] = []
        self.samples: list[float] = []
        self._answered = 0

    def sample(self, units: int = 5) -> None:
        self.samples.append(self.probe.burst(units, cpu=self.cpu))
        self.times.append(clock())

    def when_idle(self, records) -> bool:
        """Open-loop hook: one burst per gap once new requests are
        answered; false while the engine still works (ask again)."""
        if any(r.request is not None and not r.request.done() for r in records[-4:]):
            return False
        if len(records) > self._answered:
            self._answered = len(records)
            self.sample()
        return True

    def scale_at(self, when: float) -> float:
        """Reference-speed factor of the first burst taken after ``when``."""
        index = min(bisect.bisect_left(self.times, when), len(self.times) - 1)
        return Probe.scale(self.samples[index])


def _weight_cache(pipeline) -> tuple[int, int]:
    if pipeline is None:
        return 0, 0
    info = pipeline.weight_cache_info()
    return info["hits"], info["misses"]


def _hit_rate(before: tuple[int, int], after: tuple[int, int]) -> float:
    hits, misses = after[0] - before[0], after[1] - before[1]
    return hits / (hits + misses) if hits + misses else 0.0


# ---------------------------------------------------------------------------
# offline: one caller, back-to-back batches of 8


@dataclass
class OfflineWindow:
    latencies: list[float] = field(default_factory=list)  # seconds per predict
    scales: list[float] = field(default_factory=list)  # reference-speed factor per predict
    outputs: list[tuple[int, np.ndarray]] = field(default_factory=list)  # (pool batch, logits)
    weight_cache: tuple[tuple[int, int], tuple[int, int]] = ((0, 0), (0, 0))

    def scaled(self) -> list[float]:
        return [latency * scale for latency, scale in zip(self.latencies, self.scales)]


class Offline:
    """Closed loop with one caller over the pool's eight batches."""

    root = "backend.predict"

    def __init__(self, seed: int, workdir: Path, model_name: str, integer: bool):
        self.seed = seed
        self.workdir = workdir
        self.model_name = model_name
        self.integer = integer
        self.timings: dict[str, float] = {}
        self.windows: list[OfflineWindow] = []
        self.probe = Probe(clock)
        self.unscaled: dict[str, float] = {}

    def batch(self, index: int) -> np.ndarray:
        start = (index % (POOL_SIZE // BATCH)) * BATCH
        return self.pool[start:start + BATCH]

    def setup(self) -> None:
        self.pool, calib = inputs(self.seed)
        self.model = build_model(self.model_name, seed=self.seed)
        self.pipeline = PTQPipeline(self.model, method="quq", bits=BITS, coverage="full")
        self.pipeline.calibrate(calib)
        with timed(self.timings, "backend.pack"):
            if self.integer:
                self.backend = IntNativeBackend(self.model, self.pipeline, integer_sfu=True)
            else:
                self.backend = FloatFakeQuantBackend(self.model, self.pipeline)
        self.backend.predict(self.batch(0))

    def place(self, compute: int, client: int) -> None:
        """The loop already runs on the compute vCPU, probe included."""

    def warm(self) -> None:
        for index in range(WARMUP_BATCHES):
            self.backend.predict(self.batch(index))

    def window(self, seconds: float, min_batches: int = 0) -> OfflineWindow:
        """Back-to-back batches for ``seconds``, or up to twice that until
        ``min_batches`` ran; a probe burst between batches gives each
        batch the machine speed around it."""
        out = OfflineWindow()
        cache_before = _weight_cache(self.pipeline)
        stop = clock() + seconds
        cap = stop + seconds
        before = self.probe.burst()
        index = 0
        while True:
            begun = clock()
            logits = self.backend.predict(self.batch(index))
            ended = clock()
            after = self.probe.burst()
            out.latencies.append(ended - begun)
            out.scales.append(Probe.scale((before + after) / 2))
            out.outputs.append((index % (POOL_SIZE // BATCH), logits))
            before = after
            index += 1
            now = clock()
            if now >= cap or (now >= stop and index >= min_batches):
                break
        out.weight_cache = (cache_before, _weight_cache(self.pipeline))
        self.windows.append(out)
        return out

    def measure(self, seconds: float, ledger) -> dict:
        # A slow machine may need a little longer than ``seconds`` to
        # support p90 (offline-int runs 110-130 batches in 16 s).
        window = self.window(seconds, min_batches=min_samples(90))
        raw = [_ms(s) for s in window.latencies]
        scaled = [_ms(s) for s in window.scaled()]
        self.unscaled = {
            "throughput_ips": BATCH * len(raw) / sum(window.latencies),
            "latency_p50_ms": percentile(raw, 50),
            "latency_p90_ms": percentile(raw, 90),
        }
        return {
            # Back-to-back batches: throughput is batch size over predict time.
            "throughput_ips": BATCH * len(scaled) / sum(window.scaled()),
            "latency_p50_ms": ledger.percentile("latency", scaled, 50, required=True),
            "latency_p90_ms": ledger.percentile("latency", scaled, 90, required=True),
        }

    def instrument(self, patches, tracer) -> None:
        spanlib.instrument_kernels(patches, tracer)
        patches.set(self.backend, "predict", tracer.wrap("backend.predict", self.backend.predict))
        if self.integer:
            spanlib.instrument_int(patches, tracer)
        else:
            spanlib.instrument_model(patches, tracer, self.model)

    def add_request_spans(self, window, tracer) -> None:
        """Offline batches are their own roots (``backend.predict``)."""

    def layers(self, base: OfflineWindow, traced: OfflineWindow, spans, ledger) -> dict:
        out = span_layers(spans, self.root, ledger)
        out.update({
            "loadgen.sent": len(traced.latencies),
            "quant.weight_cache_hit_rate": _hit_rate(*traced.weight_cache),
            "backend.pack_s": self.timings["backend.pack"] if self.integer else 0.0,
            "backend.packed_weight_mb": self.backend.memory_info()["packed_weight_bytes"] / 1e6,
            "trace.overhead_pct": 100.0 * (
                np.mean(traced.scaled()) / np.mean(base.scaled()) - 1.0
            ),
        })
        return out

    def close(self) -> None:
        pass

    def verify(self) -> tuple[int, int, int]:
        """``(attempted, failed, top1_matched)`` over every timed output.

        Float: labels must equal those of the reference kernels on the
        same pool batch.  Int: logits must equal ``hw.executor``'s bit
        for bit (a mismatching batch fails all its images).
        """
        expected = {}
        if self.integer:
            executor = ModelExecutor(self.model, self.pipeline, bits=BITS, integer_sfu=True)
            for index in {k for w in self.windows for k, _ in w.outputs}:
                expected[index] = executor.run(self.batch(index))
        else:
            with reference_kernels():
                for index in {k for w in self.windows for k, _ in w.outputs}:
                    expected[index] = self.backend.predict(self.batch(index))
        attempted = failed = matched = 0
        for window in self.windows:
            for index, logits in window.outputs:
                same = logits.argmax(-1) == expected[index].argmax(-1)
                attempted += len(logits)
                matched += int(same.sum())
                if self.integer and not np.array_equal(logits, expected[index]):
                    failed += len(logits)
                else:
                    failed += int((~same).sum())
        return attempted, failed, matched


# ---------------------------------------------------------------------------
# serve: single-image requests through an engine


@dataclass
class ServeWindow:
    records: list  # loadgen.Sent
    scales: list[float]  # reference-speed factor per record
    weight_cache: tuple[tuple[int, int], tuple[int, int]] = ((0, 0), (0, 0))

    def latencies_ms(self, scaled: bool = True) -> list[float]:
        return [_ms(r.latency) * (s if scaled else 1.0) for r, s in zip(self.records, self.scales)]

    def throughput(self, scaled: bool = True) -> float:
        """Images per second of engine busy time (batches do not overlap:
        one worker thread, or one shard)."""
        busy = {}
        for record, scale in zip(self.records, self.scales):
            if record.ok:
                request = record.request
                busy[request.dispatched_at] = (request.completed_at - request.dispatched_at) * (
                    scale if scaled else 1.0)
        return sum(r.ok for r in self.records) / sum(busy.values())


class Serve:
    """``vit_mini_s/quq/6`` behind an in-process or a one-shard engine."""

    root = "engine.exec"

    def __init__(self, seed: int, workdir: Path, cluster: bool):
        self.seed = seed
        self.workdir = workdir
        self.cluster = cluster
        self.timings: dict[str, float] = {}
        self.windows: list[ServeWindow] = []
        self.engine = None
        self.probe = Probe(clock)
        self.unscaled: dict[str, float] = {}

    def setup(self) -> None:
        self.pool, calib = inputs(self.seed)
        seed = self.seed
        self.registry = ModelRegistry(
            capacity=1,
            artifact_dir=self.workdir / "artifacts",
            loader=lambda name: (build_model(name, seed=seed), 0.0),
            calib_provider=lambda: calib,
        )
        policy = BatchPolicy(**POLICY)
        if self.cluster:
            with timed(self.timings, "registry.build"):
                servable = self.registry.get(SERVE_SPEC)
            self.engine = ClusterEngine(
                loader=lambda spec: servable,
                policy=policy,
                cluster=ClusterPolicy(shards=1, image_hw=IMAGE_HW),
                clock=clock,
            )
            self.engine.warm(SERVE_SPEC)
        else:
            self.engine = ServeEngine(self.registry, policy, clock=clock)
            with timed(self.timings, "registry.build"):
                self.engine.warm(SERVE_SPEC)
            servable = self.registry.get(SERVE_SPEC)
        self.servable = servable
        self.submit(self.pool[0]).result(timeout=60.0)

    def submit(self, image: np.ndarray):
        return self.engine.submit(SERVE_SPEC, image)

    def place(self, compute: int, client: int) -> None:
        """Everything was set up on the compute vCPU, so the engine's
        worker thread and the forked shard run there; move the rest (this
        thread, the cluster's dispatch thread) to the client vCPU."""
        self.compute = compute
        for thread in threading.enumerate():
            if not thread.name.startswith("serve-") and thread is not threading.main_thread():
                pin(client, thread.native_id)
        pin(client)

    def warm(self) -> None:
        pass

    def window(self, seconds: float) -> ServeWindow:
        due, images = loadgen.poisson_schedule(
            NOMINAL_RPS, seconds, np.random.default_rng([self.seed, 2]), POOL_SIZE
        )
        cache_before = _weight_cache(self.servable.pipeline)
        speed = SpeedLog(self.probe, self.compute)
        speed.sample(BOUNDARY_UNITS)
        records = loadgen.open_loop(
            self.submit, self.pool, due, images, clock=clock, idle=speed.when_idle
        )
        loadgen.settle(records, SETTLE_S)
        speed.sample(BOUNDARY_UNITS)
        # Each request is scaled by the first burst after its answer.
        scales = [
            speed.scale_at(r.request.completed_at if r.ok else r.sent) for r in records
        ]
        window = ServeWindow(records, scales)
        window.weight_cache = (cache_before, _weight_cache(self.servable.pipeline))
        self.windows.append(window)
        return window

    def measure(self, seconds: float, ledger) -> dict:
        window = self.window(seconds)
        raw = window.latencies_ms(scaled=False)
        self.unscaled = {
            "throughput_ips": window.throughput(scaled=False),
            "latency_p50_ms": percentile(raw, 50),
            "latency_p90_ms": percentile(raw, 90),
        }
        scaled = window.latencies_ms()
        return {
            "throughput_ips": window.throughput(),
            "latency_p50_ms": ledger.percentile("latency", scaled, 50, required=True),
            "latency_p90_ms": ledger.percentile("latency", scaled, 90, required=True),
        }

    def instrument(self, patches, tracer) -> None:
        if self.cluster:
            return  # the model runs in the shard process, out of reach
        spanlib.instrument_kernels(patches, tracer)
        spanlib.instrument_model(patches, tracer, self.servable.model)
        backend = self.servable.backend
        patches.set(backend, "predict", tracer.wrap("backend.predict", backend.predict))
        patches.set(self.registry, "get", tracer.wrap("registry.get", self.registry.get))

    @staticmethod
    def batches(records) -> list[tuple[float, float, int]]:
        """``(dispatched_at, completed_at, size)`` of each executed batch:
        the requests of one batch share their dispatch instant."""
        grouped: dict[float, list] = defaultdict(list)
        for record in records:
            if record.ok:
                grouped[record.request.dispatched_at].append(record.request.completed_at)
        return [(d, max(done), len(done)) for d, done in sorted(grouped.items())]

    def add_request_spans(self, window: ServeWindow, tracer) -> None:
        """Request, queue and batch spans rebuilt from request timestamps;
        the worker thread's spans become children of their batch."""
        execs = []
        for number, (dispatched, completed, size) in enumerate(self.batches(window.records)):
            execs.append(tracer.add("engine.exec", dispatched, completed, tag=number))
        for number, record in enumerate(window.records):
            if record.ok:
                request = record.request
                tracer.add("serve.request", record.due, request.completed_at, tag=number)
                tracer.add("scheduler.queue", request.enqueued_at, request.dispatched_at, tag=number)
        spanlib.adopt(execs, tracer.spans, names=("backend.predict", "registry.get"))

    def layers(self, base: ServeWindow, traced: ServeWindow, spans, ledger) -> dict:
        records = traced.records
        accepted = [r for r in records if r.ok]
        batches = self.batches(records)
        kids = defaultdict(float)
        for span in spans:
            if span.name == "backend.predict" and span.parent is not None:
                kids[span.parent] += span.duration
        overheads = [
            _ms(span.duration - kids[span.sid])
            for span in spans
            if span.name == "engine.exec" and span.sid in kids
        ]
        out = span_layers(spans, self.root, ledger)
        p50 = [ledger.percentile(f"latency ({label})", w.latencies_ms(), 50)
               for label, w in (("untraced", base), ("traced", traced))]
        metrics = self.engine.metrics
        out.update({
            "loadgen.sent": len(records),
            "loadgen.lag_p90_ms": ledger.percentile(
                "loadgen.lag", [_ms(r.sent - r.due) for r in records], 90),
            "serve.submit_p90_us": ledger.percentile(
                "serve.submit", [(r.accepted - r.sent) * 1e6 for r in records], 90),
            "engine.exec_p50_ms": ledger.percentile(
                "engine.exec", [_ms(c - d) for d, c, _ in batches], 50),
            "engine.exec_p90_ms": ledger.percentile(
                "engine.exec", [_ms(c - d) for d, c, _ in batches], 90),
            "engine.predict_p50_ms": out["backend.predict_p50_ms"],
            "engine.overhead_p50_ms": ledger.percentile("engine.overhead", overheads, 50),
            "engine.failovers": metrics.counter("failovers_total").value,
            "engine.guard_trips": metrics.counter("guard_trips_total").value,
            "scheduler.queue_wait_p50_ms": ledger.percentile("scheduler.queue_wait", [
                _ms(r.request.dispatched_at - r.request.enqueued_at) for r in accepted], 50),
            "scheduler.queue_wait_p90_ms": ledger.percentile("scheduler.queue_wait", [
                _ms(r.request.dispatched_at - r.request.enqueued_at) for r in accepted], 90),
            "scheduler.batch_size_mean": float(np.mean([n for _, _, n in batches])) if batches else 0.0,
            "scheduler.batches": len(batches),
            "scheduler.refused": sum(1 for r in records if r.refusal is not None),
            "scheduler.expired": sum(
                1 for r in records
                if r.error in (RequestTimeoutError.__name__, DeadlineExceededError.__name__)
            ),
            "registry.build_s": self.timings["registry.build"],
            "registry.get_p90_us": ledger.percentile(
                "registry.get", [s.duration * 1e6 for s in spans if s.name == "registry.get"], 90),
            "registry.calibrations": self.registry.stats["calibrations"],
            "quant.weight_cache_hit_rate": _hit_rate(*traced.weight_cache),
            "trace.overhead_pct": 100.0 * (p50[1] / p50[0] - 1.0),
        })
        return out

    def close(self) -> None:
        if self.engine is not None:
            self.engine.stop()
            self.engine = None

    def verify(self) -> tuple[int, int, int]:
        """``(attempted, failed, top1_matched)``: every request of every
        window; refused, failed and wrong-label requests all fail."""
        with reference_kernels():
            expected = np.concatenate([
                self.servable.predict(self.pool[start:start + BATCH]).argmax(-1)
                for start in range(0, POOL_SIZE, BATCH)
            ])
        attempted = failed = matched = 0
        for window in self.windows:
            for record in window.records:
                attempted += 1
                if record.ok and record.label == expected[record.image]:
                    matched += 1
                else:
                    failed += 1
        return attempted, failed, matched


WORKLOADS = {
    "offline-float": lambda seed, workdir: Offline(seed, workdir, "swin_mini_s", integer=False),
    "offline-int": lambda seed, workdir: Offline(seed, workdir, "deit_mini_s", integer=True),
    "serve-local": lambda seed, workdir: Serve(seed, workdir, cluster=False),
    "serve-cluster": lambda seed, workdir: Serve(seed, workdir, cluster=True),
}
