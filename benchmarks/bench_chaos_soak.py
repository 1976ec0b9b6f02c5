"""Chaos soak of the serving runtime against the deployed QUQ artifact.

Runs `repro chaos-soak`'s harness against the trained mini zoo's
``vit_s`` with full 6-bit QUQ — the paper's flagship deployed
configuration — under a seeded fault plan covering every fault class
(loader errors, corrupted quantizer state, batch exceptions, numeric
pollution, worker stalls, queue spikes).  The soak passes only when the
run is deadlock-free, no response ever carried non-finite or saturated
logits, availability stays above the floor, and each injected class
shows recovery evidence.  Writes the usual text table to
``benchmarks/results/chaos_soak.txt``; ``python -m repro chaos-soak
--output FILE`` writes the JSON report of the same harness.
"""

from __future__ import annotations

import pytest

from repro.resilience import ResiliencePolicy, RetryPolicy
from repro.resilience.faults import FAULT_KINDS, FaultPlan
from repro.resilience.soak import ChaosSoakConfig, format_soak_report, run_chaos_soak
from repro.serve import BatchPolicy, ModelRegistry, ServeEngine

from conftest import fast_mode, save_result

SPEC = "vit_s/quq/6"
SEED = 0


@pytest.mark.slow
def test_chaos_soak_flagship_artifact():
    requests = 96 if fast_mode() else 192
    plan = FaultPlan.seeded(seed=SEED, kinds=FAULT_KINDS, horizon=12,
                            max_width=2, stall_s=0.15, spike=16)
    registry = ModelRegistry(
        retry=RetryPolicy(attempts=4, backoff_s=0.05), faults=plan
    )
    policy = BatchPolicy(max_batch_size=8, max_wait_ms=5.0,
                         max_queue=64, timeout_ms=10000.0)
    resilience = ResiliencePolicy(breaker_failures=2, breaker_cooldown_s=0.25,
                                  watchdog_stall_s=0.1)
    config = ChaosSoakConfig(spec=SPEC, requests=requests, rate=150.0,
                             seed=SEED, availability_floor=0.5)
    with ServeEngine(registry, policy, resilience=resilience, faults=plan) as engine:
        report = run_chaos_soak(engine, plan, config)

    save_result("chaos_soak", format_soak_report(report))

    assert report["deadlock_free"], "soak must drain with every request resolved"
    assert report["nonfinite_served"] == 0, "no response may carry bad logits"
    assert report["availability"] >= config.availability_floor
    assert report["faults"], "the seeded plan must actually inject faults"
    for kind, entry in report["faults"].items():
        assert entry["injected"] >= 1, kind
        assert entry["recovered"], f"no recovery evidence for {kind}: {report}"
    assert report["passed"]
