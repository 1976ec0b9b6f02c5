"""Weight-cache regression floor: the cached weight path must pay.

The weight cache (``QuantEnv.cached_fake_weight``) replays each weight
tap's fake-quantized values instead of re-quantizing every weight on
every batch.  This bench builds a wide tiny ViT, calibrates it per
method, times steady-state batches with ``env.weight_cache_enabled`` on
and off, and asserts the two properties the cache promises:

* **Bit-exactness** — cached and uncached forward passes produce
  identical logits (``np.array_equal``) for baseq and quq.
* **Speedup** — steady-state QUQ batch latency with the cache is at
  least 1.5x faster than the uncached path, which is byte-for-byte the
  pre-cache hot path (every batch re-fake-quantizing every weight tap).

The end-to-end benchmark (``benchmarks/e2e``) does not stand in for this
floor: on its small-batch swin workload the cache is worth less than the
throughput bound, so losing it could pass there unnoticed.  Timing on
shared hardware is noisy, so the speedup assertion takes the best of a
few trials; the bit-exactness assertion holds on every trial
unconditionally.  The final trial's table is written to
``benchmarks/results/hotpath.txt``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis import format_table
from repro.autograd import Tensor, no_grad
from repro.models import ModelConfig, build_vit
from repro.quant.qmodel import PTQPipeline

from conftest import save_result

#: Acceptance floor for the weight cache on the wide tiny ViT.
SPEEDUP_FLOOR = 1.5

#: Timing trials (best-of) to ride out scheduler noise on shared runners.
TRIALS = 3

#: Much wider than the test fixtures (embed_dim 128, mlp hidden 512):
#: weight work grows with dim^2 while activation work grows with dim, so
#: the wide, short model makes the weight taps a realistic share of each
#: batch (as in the paper-scale models) while staying fast.
WIDE_TINY_VIT = ModelConfig("hotpath_tiny_vit", "vit", 32, 8, 3, 10, 128, 2, 4)

BITS = 6
BATCH_SIZE = 2
WARMUP_BATCHES = 2
MEASURED_BATCHES = 20
CALIB_COUNT = 16


def _forward(model, images: np.ndarray) -> np.ndarray:
    model.eval()
    with no_grad():
        return model(Tensor(images)).data


def _p50_ms(model, batches: list[np.ndarray]) -> float:
    """Median per-batch wall-clock latency in milliseconds, after warmup."""
    for images in batches[:WARMUP_BATCHES]:
        _forward(model, images)
    latencies = []
    for images in batches:
        start = time.perf_counter()
        _forward(model, images)
        latencies.append((time.perf_counter() - start) * 1000.0)
    return float(np.percentile(latencies, 50))


def _run_method(method: str, calib: np.ndarray, batches: list[np.ndarray]) -> dict:
    """Cached vs uncached steady-state latency and logits for one method."""
    model = build_vit(WIDE_TINY_VIT, seed=0)
    pipeline = PTQPipeline(model, method=method, bits=BITS, coverage="full")
    pipeline.calibrate(calib, batch_size=BATCH_SIZE)
    cached_ms = _p50_ms(model, batches)
    cached_logits = _forward(model, batches[0])
    cache = pipeline.weight_cache_info()

    pipeline.env.weight_cache_enabled = False
    pipeline.env.invalidate_weight_cache()
    uncached_ms = _p50_ms(model, batches)
    uncached_logits = _forward(model, batches[0])
    pipeline.detach()
    return {
        "cached_ms": cached_ms,
        "uncached_ms": uncached_ms,
        "speedup": uncached_ms / cached_ms,
        "bit_exact": bool(np.array_equal(cached_logits, uncached_logits)),
        "cache": cache,
    }


def _format(results: dict) -> str:
    rows = [
        [method, round(r["cached_ms"], 2), round(r["uncached_ms"], 2),
         round(r["speedup"], 2), "yes" if r["bit_exact"] else "NO"]
        for method, r in results.items()
    ]
    return format_table(
        ["method", "cached p50 ms", "uncached p50 ms", "speedup", "bit-exact"],
        rows,
        title=(
            f"Weight-cache hot path ({WIDE_TINY_VIT.name}, {BITS}-bit full, "
            f"batch {BATCH_SIZE})"
        ),
    )


def test_hotpath_weight_cache_speedup_and_bit_exactness():
    rng = np.random.default_rng(0)
    # Models take channels-last (B, H, W, C) images; latency and
    # bit-exactness do not care what the pixels are.
    shape = (WIDE_TINY_VIT.image_size, WIDE_TINY_VIT.image_size,
             WIDE_TINY_VIT.in_channels)
    calib = rng.normal(size=(CALIB_COUNT, *shape)).astype(np.float32)
    batches = [
        rng.normal(size=(BATCH_SIZE, *shape)).astype(np.float32)
        for _ in range(MEASURED_BATCHES)
    ]
    best_speedup = 0.0
    for _ in range(TRIALS):
        results = {
            method: _run_method(method, calib, batches)
            for method in ("baseq", "quq")
        }
        # Bit-exactness is a correctness property: every trial must pass.
        for method, result in results.items():
            assert result["bit_exact"], f"{method}: cached != uncached logits"
        best_speedup = max(best_speedup, results["quq"]["speedup"])
        if best_speedup >= SPEEDUP_FLOOR:
            break

    save_result("hotpath", _format(results))

    cache = results["quq"]["cache"]
    # The cache was exercised: every weight tap hit after warm-up.
    assert cache["entries"] > 0
    assert cache["hits"] > cache["entries"]
    assert best_speedup >= SPEEDUP_FLOOR, (
        f"weight cache speedup {best_speedup:.2f}x < {SPEEDUP_FLOOR}x "
        f"over {TRIALS} trials"
    )
