"""Flash-crowd scale benchmark of the sharded serving cluster.

Replays a seeded trace — diurnal baseline, a 4x flash crowd, a
heavy-tailed four-tenant mix — open-loop against a two-shard
``ClusterEngine`` with admission control, SIGKILLing one shard
mid-trace.  Passes only when admitted-request availability clears the
floor, p99.9 stays bounded, the zero-silent-drop ledger balances, no
tenant is starved or served beyond the fairness ratio, and the killed
shard is respawned without deadlock.

Self-contained (random tiny ViT, synthetic calibration): overload
dynamics do not depend on trained weights, so this never touches the
zoo.  Writes the usual text table to ``benchmarks/results/scale_bench.txt``;
the JSON report is ``BENCH_scale.json``, which ``python -m repro
scale-bench --tiny`` regenerates from the same harness.
"""

from __future__ import annotations

import pytest

from repro.analysis.scale import (
    ScaleBenchConfig,
    format_scale_report,
    run_scale_benchmark,
    tiny_scale_servable,
)
from repro.resilience import ResiliencePolicy
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    BatchPolicy,
    ClusterEngine,
    ClusterPolicy,
    TraceConfig,
    tenant_mix,
)

from conftest import fast_mode, save_result

SEED = 0


@pytest.mark.slow
def test_scale_bench_flash_crowd():
    duration = 3.0 if fast_mode() else 6.0
    trace = TraceConfig(
        duration_s=duration, base_rate=600.0, seed=SEED,
        flash_multiplier=4.0, tenants=4,
    )
    servable = tiny_scale_servable(seed=SEED)
    admission = AdmissionController(
        AdmissionPolicy(tenant_weights=tenant_mix(trace))
    )
    engine = ClusterEngine(
        loader=lambda spec: servable,  # prebuilt, shared copy-on-write via fork
        policy=BatchPolicy(max_batch_size=8, max_wait_ms=3.0, max_queue=64,
                           timeout_ms=2000.0),
        cluster=ClusterPolicy(shards=2, image_hw=16),
        resilience=ResiliencePolicy(watchdog_stall_s=1.0),
        admission=admission,
    )
    config = ScaleBenchConfig(spec="vit_s/quq/6", trace=trace,
                              availability_floor=0.99)
    try:
        report = run_scale_benchmark(engine, config)
    finally:
        engine.stop()

    save_result("scale_bench", format_scale_report(report))

    assert report["trace"]["flash_over_steady"] >= 3.0, "flash crowd too weak"
    assert report["shed_rate"] > 0, "offered load never exceeded capacity"
    assert report["availability"] >= config.availability_floor
    assert report["no_silent_drop"], "ledger must balance exactly"
    assert report["nonfinite_served"] == 0
    assert report["fairness_ok"], report["tenants"]
    assert report["recovery"]["shard_restarts_total"] >= 1
    assert report["deadlock_free"]
    assert report["passed"]
