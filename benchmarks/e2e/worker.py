"""One workload in a fresh interpreter (started by ``run.py``).

Sets the workload up, prints ``READY <probe seconds>`` (the parent times
set-up up to that line and scales it by the machine speed the probe
measured around it), then either exits (``--setup-only``) or measures one window,
stops the engine, reads peak memory, verifies every output against the
reference datapath, and prints its report as one JSON line.

Untraced: one ``--seconds`` window gives the end-to-end metrics.
Traced: an untraced half window, then a traced half window with the
outside-in wrappers of ``spans.py`` installed; the per-layer metrics
come from the traced half and ``trace.overhead_pct`` compares the two.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

import numpy as np

import spans as spanlib
from metrics import END_TO_END, PER_LAYER, unit_of
from probe import Probe, cpus, pin
from repro.kernels import KERNELS
from repro.quant.qmodel import PTQPipeline
from run import READY, THREAD_VARS
from stats import Ledger
from workloads import WORKLOADS


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its largest child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) * 1024 / 1e6  # Linux reports KiB


def provenance() -> dict:
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: config.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def stop_resource_tracker() -> None:
    """Stop and reap the tracker process that ``multiprocessing`` starts
    for serve-cluster's shared memory, so no process outlives the worker.

    Called on exit, after ``peak_rss_mb``: the tracker is forked from this
    process, so once reaped it would count as a child as large as this
    process was at the fork."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _cache_hit_rate(prefix: str) -> float:
    hits = KERNELS.counters.get(f"{prefix}:cache_hit", 0)
    misses = KERNELS.counters.get(f"{prefix}:cache_miss", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where the traced run writes spans.jsonl")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = spanlib.Tracer() if args.trace else None
    patches = spanlib.Patches()
    if tracer is not None:
        patches.set(PTQPipeline, "calibrate", tracer.wrap("quant.calibrate", PTQPipeline.calibrate))
    probe = Probe()
    compute, client = cpus()
    pin(compute)  # threads and processes started during set-up inherit it
    try:
        before = probe.burst(20)
        workload.setup()
        print(f"{READY} {(before + probe.burst(20)) / 2!r}", flush=True)
        if args.setup_only:
            return 0
        patches.undo()
        workload.place(compute, client)
        workload.warm()
        ledger = Ledger()
        if tracer is None:
            metrics = workload.measure(args.seconds, ledger)
        else:
            setup_spans = tracer.take()
            base = workload.window(args.seconds / 2)
            workload.instrument(patches, tracer)
            try:
                traced = workload.window(args.seconds / 2)
            finally:
                patches.undo()
            workload.add_request_spans(traced, tracer)
            spans = tracer.take()
            metrics = {name: 0.0 for name, _, _ in PER_LAYER}
            metrics.update(workload.layers(base, traced, spans, ledger))
            metrics["quant.calibrate_s"] = sum(
                s.duration for s in setup_spans if s.name == "quant.calibrate"
            )
            metrics["kernel.decode_lut.hit_rate"] = _cache_hit_rate("qub.decode_lut")
            metrics["kernel.encode.hit_rate"] = _cache_hit_rate("qub.encode")
            if args.spans is not None:
                origin = min(s.start for s in setup_spans + spans)
                spanlib.write_jsonl(args.spans, setup_spans + spans, origin)
    finally:
        patches.undo()
        workload.close()
    if tracer is None:
        metrics["peak_rss_mb"] = peak_rss_mb()
    attempted, failed, matched = workload.verify()

    expected = {name for name, _, _ in PER_LAYER} if tracer else {
        name for name, _, _ in END_TO_END if name != "setup_s"
    }
    if set(metrics) != expected:
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ expected)}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {
            name: {"value": float(value), "unit": unit_of(name)}
            for name, value in metrics.items()
        },
        "unscaled": workload.unscaled,
        "attempted": attempted,
        "failed": failed,
        "top1_match": matched / attempted if attempted else 0.0,
        "error_rate": failed / attempted if attempted else 0.0,
        "samples": ledger.counts(),
        "unsupported": ledger.unsupported(),
        "provenance": provenance(),
    }
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        stop_resource_tracker()
