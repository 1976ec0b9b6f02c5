"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root declares the same lists (with
the regression bound of each end-to-end metric); ``test_harness.py``
checks that the two agree.  Every workload reports every metric: a layer
a workload does not exercise reads 0 (see README.md for which layer
should move which end-to-end metric on which workload).
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "KERNEL_OPS", "BLOCK_DEPTHS", "unit_of"]

#: ``(name, unit, better)`` — measured with tracing off.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("throughput_ips", "images/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: Registry ops the four workloads dispatch inside their timed windows.
KERNEL_OPS = ("quq.fake_quantize", "gemm.int", "sfu.layernorm", "sfu.softmax", "sfu.gelu")

#: Transformer depths with a ``block.<i>.total_ms`` row (swin_mini_s has 6).
BLOCK_DEPTHS = 6

#: ``nn.*`` self-time rows, one per module family.
NN_KINDS = (
    "nn.model", "nn.patch_embed", "nn.block", "nn.attention", "nn.mlp",
    "nn.linear", "nn.layernorm", "nn.patch_merge",
)

#: ``(name, unit, better)`` — measured in the traced run.  Per-batch rows
#: (``*.self_ms``, ``*.total_ms``, ``*.calls``, ``*.mbytes``) are averaged
#: over the executed batches of the traced window.
PER_LAYER = [
    ("loadgen.sent", "count", "higher"),
    ("loadgen.lag_p90_ms", "ms", "lower"),
    ("serve.submit_p90_us", "us", "lower"),
    ("engine.exec_p50_ms", "ms", "lower"),
    ("engine.exec_p90_ms", "ms", "lower"),
    ("engine.predict_p50_ms", "ms", "lower"),
    ("engine.overhead_p50_ms", "ms", "lower"),
    ("engine.failovers", "count", "lower"),
    ("engine.guard_trips", "count", "lower"),
    ("scheduler.queue_wait_p50_ms", "ms", "lower"),
    ("scheduler.queue_wait_p90_ms", "ms", "lower"),
    ("scheduler.batch_size_mean", "images", "higher"),
    ("scheduler.batches", "count", "lower"),
    ("scheduler.refused", "count", "lower"),
    ("scheduler.expired", "count", "lower"),
    ("registry.build_s", "s", "lower"),
    ("registry.get_p90_us", "us", "lower"),
    ("registry.calibrations", "count", "lower"),
    ("quant.calibrate_s", "s", "lower"),
    ("quant.weight_cache_hit_rate", "fraction", "higher"),
    ("backend.predict_p50_ms", "ms", "lower"),
    ("backend.pack_s", "s", "lower"),
    ("backend.packed_weight_mb", "MB", "lower"),
    ("backend.self_ms", "ms", "lower"),
    *[(f"{kind}.self_ms", "ms", "lower") for kind in NN_KINDS],
    *[(f"block.{depth}.total_ms", "ms", "lower") for depth in range(BLOCK_DEPTHS)],
    *[
        (f"kernel.{op}.{field}", unit, "lower")
        for op in KERNEL_OPS
        for field, unit in (("calls", "count"), ("self_ms", "ms"), ("mbytes", "MB"))
    ],
    ("kernel.decode_lut.hit_rate", "fraction", "higher"),
    ("kernel.encode.hit_rate", "fraction", "higher"),
    ("encoder.shifted.self_ms", "ms", "lower"),
    ("encoder.store_load.self_ms", "ms", "lower"),
    ("encoder.calls", "count", "lower"),
    ("weights.decode.self_ms", "ms", "lower"),
    ("trace.coverage", "fraction", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]

_UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def unit_of(name: str) -> str:
    return _UNITS[name]
