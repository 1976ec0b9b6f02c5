"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

The smoke tests run every workload for about two seconds through the
same command the benchmark uses, so they take a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import loadgen
import run
import spans as spanlib
from metrics import END_TO_END, PER_LAYER
from stats import MIN_BEYOND, Ledger, beyond, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# percentile support


def test_beyond_counts_samples_above_the_nearest_rank():
    assert beyond(100, 90) == 10
    assert beyond(99, 90) == 9
    assert beyond(20, 50) == 10
    assert beyond(0, 50) == 0


def test_percentile_is_nearest_rank_and_keeps_misses_infinite():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([1.0, 2.0, math.inf], 90) == math.inf
    with pytest.raises(ValueError):
        percentile([], 50)


def test_ledger_flags_unsupported_percentiles():
    ledger = Ledger()
    ledger.percentile("enough", range(100), 90)
    ledger.percentile("short", range(99), 90)
    ledger.percentile("idle layer", [], 95)
    ledger.percentile("missing e2e", [], 50, required=True)
    problems = ledger.unsupported()
    assert len(problems) == 2
    assert problems[0].startswith("short")
    assert problems[1].startswith("missing e2e")
    assert ledger.counts()["enough p90"] == {"samples": 100, "beyond": MIN_BEYOND}


# ---------------------------------------------------------------------------
# span arithmetic


def _span(sid, start, end, parent=None, name="x"):
    return spanlib.Span(sid, name, start, end, parent)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, 0.0, 10.0, name="root"),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 3.0, 6.0, parent=0),  # overlaps its sibling
        _span(3, 2.0, 3.0, parent=1),
        _span(4, 9.0, 12.0, parent=0),  # runs past its parent's end
    ]
    own = spanlib.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[1] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)
    assert spanlib.coverage(spans, "root") == pytest.approx(0.6)


def test_tracer_nests_calls_on_one_thread():
    ticks = iter(range(100))
    tracer = spanlib.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(inner(x)))
    assert outer(1) == 3
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (root,) = by_name["outer"]
    assert all(child.parent == root.sid for child in by_name["inner"])
    assert spanlib.self_times(tracer.spans)[root.sid] == pytest.approx(root.duration - 2.0)


def test_adopt_links_worker_spans_to_the_batch_that_contains_them():
    tracer = spanlib.Tracer()
    predict = tracer.add("backend.predict", 2.0, 3.0)
    stray = tracer.add("backend.predict", 5.5, 7.0)
    other = tracer.add("scheduler.queue", 1.5, 2.5)
    batch = tracer.add("engine.exec", 1.0, 4.0)
    tracer.add("engine.exec", 5.0, 6.0)
    spanlib.adopt([s for s in tracer.spans if s.name == "engine.exec"], tracer.spans,
                  names=("backend.predict",))
    assert predict.parent == batch.sid
    assert stray.parent is None  # not contained by any batch
    assert other.parent is None  # not a worker-thread span


def test_patches_restore_instance_and_class_attributes():
    class Thing:
        def value(self):
            return 1

    thing = Thing()
    patches = spanlib.Patches()
    patches.set(Thing, "value", lambda self: 2)
    assert thing.value() == 2
    patches.set(thing, "value", lambda: 3)
    assert thing.value() == 3
    patches.undo()
    assert thing.value() == 1
    assert "value" not in vars(thing)


def test_model_instrumentation_records_nested_module_spans():
    from repro.autograd import Tensor, no_grad
    from repro.models import ModelConfig, build_vit

    model = build_vit(ModelConfig("tiny", "vit", 8, 4, 3, 4, 16, 2, 2), seed=0)
    tracer = spanlib.Tracer()
    patches = spanlib.Patches()
    spanlib.instrument_model(patches, tracer, model)
    with no_grad():
        model(Tensor(np.zeros((1, 8, 8, 3), dtype=np.float32)))
    patches.undo()
    names = {span.name for span in tracer.spans}
    assert {"nn.model", "nn.block", "nn.attention", "nn.linear", "nn.layernorm"} <= names
    assert sorted(s.tag for s in tracer.spans if s.name == "nn.block") == [0, 1]
    assert spanlib.coverage(tracer.spans, "nn.model") > 0.5
    assert all("forward" not in vars(module) for module in model.modules())


# ---------------------------------------------------------------------------
# traffic


def test_poisson_schedule_is_fixed_by_its_seed():
    first = loadgen.poisson_schedule(50.0, 10.0, np.random.default_rng([3, 2]), 64)
    again = loadgen.poisson_schedule(50.0, 10.0, np.random.default_rng([3, 2]), 64)
    other = loadgen.poisson_schedule(50.0, 10.0, np.random.default_rng([4, 2]), 64)
    assert np.array_equal(first[0], again[0]) and np.array_equal(first[1], again[1])
    assert not np.array_equal(first[0][:10], other[0][:10])
    due, images = first
    assert np.all(np.diff(due) > 0) and due[-1] < 10.0
    assert images.min() >= 0 and images.max() < 64
    assert 400 < due.size < 600  # 50 rps x 10 s


def test_open_loop_counts_refusals_as_misses():
    from repro.serve import QueueFullError

    def refuse(image):
        raise QueueFullError("full")

    due = np.array([0.0, 0.001])
    records = loadgen.open_loop(refuse, np.zeros((1, 2)), due, np.array([0, 0]))
    assert [r.refusal for r in records] == ["QueueFullError"] * 2
    assert all(r.latency == math.inf for r in records)
    assert all(r.sent >= r.due for r in records)


# ---------------------------------------------------------------------------
# BENCHMARK.json and compare.py


def test_benchmark_json_declares_the_harness_metrics():
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_compare_verdicts():
    base = {seed: 100.0 + seed for seed in range(10)}
    assert compare.verdict(base, dict(base), "lower", 0.1) == "unchanged"
    assert compare.verdict(base, {s: v * 0.5 for s, v in base.items()}, "lower", 0.1) == "better"
    assert compare.verdict(base, {s: v * 1.5 for s, v in base.items()}, "lower", 0.1) == "worse"
    assert compare.verdict(base, {s: v * 1.5 for s, v in base.items()}, "higher", 0.1) == "better"
    noisy = {seed: 100.0 * (1 + (seed % 2)) for seed in range(10)}
    assert compare.verdict(noisy, dict(noisy), "lower", 0.1) == "unresolved"


# ---------------------------------------------------------------------------
# the command itself


def _run(args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks/e2e/run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload, tmp_path):
    done = _run(["--workload", workload, "--smoke", "--out", str(tmp_path)])
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in line["metrics"].values())
    assert len(list(tmp_path.glob(f"{workload}-*.json"))) == 1


@pytest.mark.parametrize("workload", ["offline-float", "offline-int"])
def test_traced_smoke_run_covers_the_forward_pass(workload, tmp_path):
    done = _run(["--workload", workload, "--smoke", "--trace", "1", "--out", str(tmp_path)])
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == declared
    assert line["metrics"]["trace.coverage"]["value"] >= 0.9


def test_benchmark_alone_refuses_to_run(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "offline-float", "--seed", "0", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
