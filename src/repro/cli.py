"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``zoo``            train/load the mini model zoo and print FP32 accuracy
``quantize``       quantize one model, print Top-1 (method/bits/coverage)
``export``         quantize with QUQ and write a deployable .npz artifact
``table4``         print the accelerator area/power table
``memory``         print the Figure-2 peak-memory table
``inspect``        fit QUQ on a model's calibration tensors, print modes
``chaos-soak``     serve under a seeded fault plan, audit the recovery
``fault-sweep``    bit-fault injection sweep over the QUA datapath
``corruption-sweep``  SynthShapes-C robustness grid + drift recovery curve
``scale-bench``    open-loop trace (flash crowd or steady load) vs the
                   sharded cluster + admission control
``kernel-parity``  reference-vs-fast parity over the kernel registry

Model-dependent commands share ``--seed`` (calibration/val sampling) and
``--batch-size`` (inference batch size) so runs are reproducible from the
command line.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from .analysis import format_table
from .data import calibration_set, make_splits
from .models import MINI_CONFIGS, PAPER_CONFIGS, get_trained_model
from .models.zoo import DATASET_SPEC
from .training import evaluate_top1

_TRAINABLE = sorted(MINI_CONFIGS) + ["cnn_mini"]


def _setup(model_name: str, val_count: int, seed: int | None = None):
    """Shared command preamble: trained model, calibration set, val subset.

    ``seed`` pins the calibration-image draw and the validation subsample;
    ``None`` keeps the historical defaults (calibration seed 7, val 11).
    """
    model, fp32 = get_trained_model(model_name, verbose=True)
    train_set, val_set = make_splits(**DATASET_SPEC)
    calib = calibration_set(train_set, 32, seed=7 if seed is None else seed)
    return model, fp32, calib, val_set.subset(val_count, seed=11 if seed is None else seed)


def _add_repro_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared reproducibility flags to a model-dependent command."""
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for calibration/val sampling (default: built-in)")
    parser.add_argument("--batch-size", type=int, default=32, dest="batch_size",
                        help="inference batch size for calibration/evaluation")


def _emit(args, report: dict, text: str, passed: bool) -> None:
    """A report command's tail: write ``--output``, print the report as JSON
    (``--json``) or as ``text``, and exit 1 unless ``passed``."""
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print(f"wrote {args.output}")
    print(json.dumps(report, indent=2, sort_keys=True) if args.json else text)
    if not passed:
        raise SystemExit(1)


def cmd_zoo(args) -> None:
    rows = []
    for name in _TRAINABLE:
        _, fp32 = get_trained_model(name, verbose=True)
        rows.append([name, round(fp32, 2)])
    print(format_table(["model", "fp32 top-1"], rows, title="Model zoo"))


def cmd_quantize(args) -> None:
    from . import quantize_model

    model, fp32, calib, val = _setup(args.model, args.val, seed=args.seed)
    pipeline = quantize_model(
        model, calib, method=args.method, bits=args.bits,
        coverage=args.coverage, hessian=not args.no_hessian,
        batch_size=args.batch_size,
    )
    accuracy = evaluate_top1(model, val, batch_size=args.batch_size)
    pipeline.detach()
    print(f"{args.model} fp32 {fp32:.2f}% -> {args.method} "
          f"{args.bits}-bit {args.coverage}: {accuracy:.2f}%")


def cmd_export(args) -> None:
    from . import quantize_model
    from .quant import deployment_report, export_quantized

    model, _, calib, _ = _setup(args.model, 64, seed=args.seed)
    pipeline = quantize_model(model, calib, method="quq", bits=args.bits,
                              coverage="full", batch_size=args.batch_size)
    artifact = export_quantized(pipeline, args.output)
    report = deployment_report(pipeline)
    pipeline.detach()
    print(f"wrote {args.output}: {len(artifact.weights)} weight tensors, "
          f"{len(artifact.activations)} activation parameter sets")
    print(f"fp32 {report['fp32_megabytes']:.2f} MiB -> "
          f"{report['quantized_megabytes']:.2f} MiB "
          f"({report['compression']:.1f}x)")


def cmd_table4(args) -> None:
    from .hw import table4

    rows = [
        [r["method"], r["bits"], round(r["area_mm2_16"], 3),
         round(r["power_mw_16"], 1), round(r["area_mm2_64"], 3),
         round(r["power_mw_64"], 1)]
        for r in table4()
    ]
    print(format_table(
        ["method", "bits", "16x16 mm^2", "16x16 mW", "64x64 mm^2", "64x64 mW"],
        rows, title="Accelerator area/power (analytical model)",
    ))


def cmd_memory(args) -> None:
    from .hw import memory_table

    configs = [PAPER_CONFIGS[n] for n in ("vit_s", "vit_b", "vit_l")]
    rows = [
        [r["model"], r["batch"], round(r["pq_kib"]), round(r["fq_kib"]),
         f"+{100 * (r['pq_over_fq'] - 1):.0f}%"]
        for r in memory_table(configs, batches=(1, 4, 8), bits=args.bits)
    ]
    print(format_table(
        ["model", "batch", "PQ KiB", "FQ KiB", "overhead"],
        rows, title=f"Peak on-chip memory at {args.bits}-bit",
    ))
    if args.measured:
        from .backend import PackedWeightStore
        from .hw.memory import measured_weight_summary
        from .models import build_model

        # Packed bytes depend only on the weight shapes and the bit width,
        # not on trained values, so a random-init zoo geometry suffices.
        store = PackedWeightStore.from_model(build_model("vit_mini_s"), args.bits)
        summary = measured_weight_summary(store)
        detail = [
            [row["tap"], row["elements"], round(row["analytic_bytes"]),
             round(row["measured_bytes"]),
             f"{100 * row['divergence']:+.2f}%" + (" !" if row["flagged"] else "")]
            for row in summary["rows"]
        ]
        print()
        print(format_table(
            ["weight tap", "elems", "analytic B", "measured B", "divergence"],
            detail,
            title=(
                f"Measured QUB-packed weight buffers at {args.bits}-bit "
                "(random-init vit_mini_s)"
            ),
        ))
        print(
            f"total {summary['measured_bytes'] / 1024.0:.1f} KiB packed vs "
            f"{summary['fp32_bytes'] / 1024.0:.1f} KiB fp32 "
            f"({summary['reduction']}x); "
            f"flagged taps: {summary['flagged'] or 'none'}"
        )


def cmd_inspect(args) -> None:
    from .analysis import capture_figure3_tensors
    from .quant import QUQQuantizer

    model, _, calib, _ = _setup(args.model, 64, seed=args.seed)
    tensors = capture_figure3_tensors(model, calib, block=args.block)
    rows = []
    for name, data in tensors.items():
        quantizer = QUQQuantizer(args.bits).fit(data)
        rows.append([name, quantizer.mode.value, quantizer.params.describe()])
    print(format_table(["tensor", "mode", "parameters"], rows,
                       title=f"QUQ parameters, block {args.block}"))


def cmd_chaos_soak(args) -> None:
    from .resilience import ResiliencePolicy, RetryPolicy
    from .resilience.faults import FAULT_KINDS, FaultPlan
    from .resilience.soak import ChaosSoakConfig, format_soak_report, run_chaos_soak
    from .serve import BatchPolicy, ModelRegistry, ServeEngine
    from .serve.registry import ModelKey

    spec = f"{args.model}/{args.method}/{args.bits}/{args.coverage}"
    seed = 0 if args.seed is None else args.seed
    try:
        ModelKey.parse(spec)
        config = ChaosSoakConfig(
            spec=spec,
            requests=args.requests,
            rate=args.rate,
            seed=seed,
            availability_floor=args.floor,
        )
        policy = BatchPolicy(
            max_batch_size=args.max_batch,
            max_wait_ms=5.0,
            max_queue=args.queue,
            timeout_ms=args.timeout_ms,
        )
    except ValueError as error:
        raise SystemExit(f"repro chaos-soak: error: {error}")
    # The fault windows sit within `horizon` injection events so every
    # class is reachable in one run; the defenses are tuned snappy (short
    # breaker cooldown, sub-second watchdog) so recovery also fits.
    plan = FaultPlan.seeded(
        seed=seed, kinds=FAULT_KINDS, horizon=args.horizon,
        max_width=2, stall_s=0.15, spike=args.spike,
    )
    registry = ModelRegistry(
        capacity=args.cache_capacity,
        retry=RetryPolicy(attempts=4, backoff_s=0.05),
        faults=plan,
    )
    resilience = ResiliencePolicy(
        breaker_failures=2, breaker_cooldown_s=0.25, watchdog_stall_s=0.1
    )
    with ServeEngine(registry, policy, resilience=resilience, faults=plan) as engine:
        report = run_chaos_soak(engine, plan, config)
    _emit(args, report, format_soak_report(report), report["passed"])


def cmd_fault_sweep(args) -> None:
    from . import quantize_model
    from .hw import FaultSweepConfig, format_fault_sweep, run_fault_sweep
    from .hw.faults import HW_FAULT_SITES

    seed = 0 if args.seed is None else args.seed
    try:
        config = FaultSweepConfig(
            bits=args.bits,
            bers=tuple(args.ber) if args.ber else (1e-4, 1e-3),
            site_cases=tuple(args.sites) if args.sites else HW_FAULT_SITES + ("all",),
            batch=args.sweep_batch,
            seed=seed,
            protected_match_floor=args.floor,
            array=args.array,
        )
    except ValueError as error:
        raise SystemExit(f"repro fault-sweep: error: {error}")
    model, _, calib, val = _setup(args.model, args.images, seed=args.seed)
    pipeline = quantize_model(
        model, calib, method="quq", bits=args.bits, coverage="full",
        hessian=not args.no_hessian, batch_size=args.batch_size,
    )
    pipeline.detach()
    report = run_fault_sweep(model, pipeline, val.images, config, labels=val.labels)
    _emit(args, report, format_fault_sweep(report), report["passed"])


def cmd_corruption_sweep(args) -> None:
    from .analysis import (
        CorruptionSweepConfig,
        RecoveryCurveConfig,
        format_corruption_sweep,
        format_recovery_report,
        run_corruption_sweep,
        run_recovery_curve,
    )
    from .data.corruptions import corruption_names
    from .serve import ModelRegistry

    seed = 0 if args.seed is None else args.seed
    try:
        config = CorruptionSweepConfig(
            methods=tuple(args.methods),
            corruptions=(
                tuple(args.corruptions) if args.corruptions else corruption_names()
            ),
            severities=tuple(args.severities),
            bits=args.bits,
            coverage=args.coverage,
            eval_count=args.images,
            batch_size=args.batch_size,
            seed=seed,
        )
        recovery_config = RecoveryCurveConfig(
            spec=f"{args.model}/quq/{args.bits}/{args.coverage}",
            corruption=args.recovery_corruption,
            severity=args.recovery_severity,
            seed=seed,
        ) if args.recovery else None
    except ValueError as error:
        raise SystemExit(f"repro corruption-sweep: error: {error}")
    model, _, calib, _ = _setup(args.model, 64, seed=args.seed)
    _, val_set = make_splits(**DATASET_SPEC)
    report = {"sweep": run_corruption_sweep(model, calib, val_set, config)}
    sections = [format_corruption_sweep(report["sweep"])]
    if recovery_config is not None:
        registry = ModelRegistry(capacity=4)
        report["recovery"] = run_recovery_curve(
            registry, val_set, calib, recovery_config
        )
        sections.append(format_recovery_report(report["recovery"]))
    passed = "recovery" not in report or report["recovery"]["passed"]
    _emit(args, report, "\n\n".join(sections), passed)


def cmd_kernel_parity(args) -> None:
    from .kernels import run_kernel_parity

    seed = 0 if args.seed is None else args.seed
    report = run_kernel_parity(seed=seed, cases=args.cases)
    lines = []
    for op, entry in sorted(report["ops"].items()):
        verdict = "ok" if entry["passed"] else "FAIL"
        lines.append(f"{op:<18} {verdict:<5} {entry['cases']:>4} cases")
        lines += [f"    {m['case']}: {m['problem']}" for m in entry["mismatches"]]
    verdict = "PASS" if report["passed"] else "FAIL"
    cases = sum(entry["cases"] for entry in report["ops"].values())
    lines.append(f"kernel parity: {report['pairs_checked']} pairs, {cases} cases, "
                 f"{report['failures']} failures -> {verdict}")
    _emit(args, report, "\n".join(lines), report["passed"])


def cmd_scale_bench(args) -> None:
    from .analysis.scale import (
        ScaleBenchConfig,
        format_scale_report,
        run_scale_benchmark,
        tiny_scale_servable,
    )
    from .resilience import ResiliencePolicy
    from .serve import AdmissionController, AdmissionPolicy, BatchPolicy
    from .serve.autoscaler import AutoscalePolicy
    from .serve.cluster import ClusterEngine, ClusterPolicy
    from .serve.registry import ModelKey
    from .serve.traces import TraceConfig, load_trace, tenant_mix

    seed = 0 if args.seed is None else args.seed
    try:
        key = ModelKey.parse(args.spec)
        trace = TraceConfig(
            duration_s=args.duration,
            base_rate=args.rate,
            seed=seed,
            flash_multiplier=args.flash_multiplier,
            tenants=args.tenants,
        )
        autoscale = None
        if not args.no_autoscale:
            autoscale = AutoscalePolicy(
                min_shards=args.min_shards,
                max_shards=args.max_shards,
                # The tick cadence is per-arrival, so sustain/cooldown are
                # tuned for short smoke traces rather than wall-clock SLOs.
                scale_up_sustain=2,
                scale_down_sustain=3,
                cooldown_s=0.5,
                quarantine_base_s=1.0,
            )
        config = ScaleBenchConfig(
            spec=key.spec,
            trace=trace,
            trace_events=load_trace(args.trace) if args.trace else None,
            availability_floor=args.floor,
            kill_shard_at=None if args.no_kill else 0.5,
            crash_burst_at=args.crash_burst_at,
            crash_burst_kills=args.crash_burst_kills,
            autoscale=autoscale,
            secondary_spec=args.secondary_spec,
        )
        policy = BatchPolicy(
            max_batch_size=args.max_batch,
            max_wait_ms=3.0,
            max_queue=args.queue,
            timeout_ms=args.timeout_ms,
        )
    except (OSError, ValueError) as error:
        raise SystemExit(f"repro scale-bench: error: {error}")
    # Fair-queue weights mirror the trace's offered mix: every tenant is
    # entitled to the capacity share its long-run demand represents.
    admission = AdmissionController(AdmissionPolicy(
        tenant_weights=tenant_mix(trace),
        rate_limit_rps=args.rate_limit,
    ))
    if args.tiny:
        # Self-contained: a random tiny ViT calibrated on synthetic
        # images, built once in the parent and shared with the forked
        # shard workers copy-on-write (instant shard spawn, no zoo).
        servable = tiny_scale_servable(seed=seed)
        loader = lambda spec: servable  # noqa: E731
        image_hw = 16
    else:
        loader = None  # each shard builds its own registry entry
        image_hw = key.image_size
    cluster = ClusterPolicy(shards=args.shards, image_hw=image_hw)
    engine = ClusterEngine(
        loader=loader,
        policy=policy,
        cluster=cluster,
        resilience=ResiliencePolicy(watchdog_stall_s=1.0),
        admission=admission,
    )
    with engine:
        report = run_scale_benchmark(engine, config)
    _emit(args, report, format_scale_report(report), report["passed"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("zoo", help="train/load all mini models").set_defaults(fn=cmd_zoo)

    quantize = commands.add_parser("quantize", help="quantize one model")
    quantize.add_argument("model", choices=_TRAINABLE)
    quantize.add_argument("--method", default="quq",
                          choices=["baseq", "quq", "biscaled", "fqvit", "ptq4vit"])
    quantize.add_argument("--bits", type=int, default=6)
    quantize.add_argument("--coverage", default="full", choices=["partial", "full"])
    quantize.add_argument("--no-hessian", action="store_true")
    quantize.add_argument("--val", type=int, default=512)
    _add_repro_flags(quantize)
    quantize.set_defaults(fn=cmd_quantize)

    export = commands.add_parser("export", help="export a QUQ artifact")
    export.add_argument("model", choices=_TRAINABLE)
    export.add_argument("output")
    export.add_argument("--bits", type=int, default=6)
    _add_repro_flags(export)
    export.set_defaults(fn=cmd_export)

    commands.add_parser("table4", help="accelerator area/power").set_defaults(fn=cmd_table4)

    memory = commands.add_parser("memory", help="peak-memory table")
    memory.add_argument("--bits", type=int, default=8)
    memory.add_argument("--measured", action="store_true",
                        help="also print measured QUB-packed weight buffer "
                             "sizes vs the analytic estimate")
    memory.set_defaults(fn=cmd_memory)

    inspect = commands.add_parser("inspect", help="QUQ parameter summary")
    inspect.add_argument("model", choices=_TRAINABLE)
    inspect.add_argument("--bits", type=int, default=4)
    inspect.add_argument("--block", type=int, default=0)
    _add_repro_flags(inspect)
    inspect.set_defaults(fn=cmd_inspect)

    soak = commands.add_parser(
        "chaos-soak",
        help="serve synthetic traffic under a seeded fault plan and audit recovery",
    )
    soak.add_argument("--model", default="vit_s",
                      help="paper (vit_s) or zoo (vit_mini_s) model name")
    soak.add_argument("--method", default="quq",
                      choices=["baseq", "quq", "biscaled", "fqvit", "ptq4vit", "fp32"])
    soak.add_argument("--bits", type=int, default=6)
    soak.add_argument("--coverage", default="full", choices=["partial", "full"])
    soak.add_argument("--requests", type=int, default=192)
    soak.add_argument("--rate", type=float, default=150.0,
                      help="offered load, requests per second")
    soak.add_argument("--floor", type=float, default=0.5,
                      help="minimum acceptable availability (completed/offered)")
    soak.add_argument("--horizon", type=int, default=12,
                      help="event horizon for seeded fault-window placement")
    soak.add_argument("--spike", type=int, default=16,
                      help="extra submissions per queue-spike event")
    soak.add_argument("--max-batch", type=int, default=8, dest="max_batch")
    soak.add_argument("--queue", type=int, default=64,
                      help="bounded queue size (backpressure threshold)")
    soak.add_argument("--timeout-ms", type=float, default=5000.0, dest="timeout_ms")
    soak.add_argument("--cache-capacity", type=int, default=2, dest="cache_capacity")
    soak.add_argument("--output", default=None,
                      help="also write the JSON report to this path")
    soak.add_argument("--json", action="store_true",
                      help="print the raw report as JSON")
    _add_repro_flags(soak)
    soak.set_defaults(fn=cmd_chaos_soak)

    sweep = commands.add_parser(
        "fault-sweep",
        help="soft-error sweep: BER x site x protection on the QUA datapath",
    )
    sweep.add_argument("--model", default="vit_mini_s", choices=_TRAINABLE)
    sweep.add_argument("--bits", type=int, default=8)
    sweep.add_argument("--ber", type=float, action="append", default=None,
                       help="bit-error rate; repeatable (default: 1e-4 1e-3)")
    sweep.add_argument("--sites", nargs="+", default=None,
                       choices=["qub", "register", "accumulator", "sfu", "all"],
                       help="site cases to sweep (default: each site plus 'all')")
    sweep.add_argument("--images", type=int, default=32,
                       help="validation images scored per sweep cell")
    sweep.add_argument("--sweep-batch", type=int, default=4, dest="sweep_batch",
                       help="executor batch size (a guard trip fails one batch)")
    sweep.add_argument("--floor", type=float, default=0.75,
                       help="minimum protected agreement with the fault-free run")
    sweep.add_argument("--array", type=int, default=16,
                       help="PE array size for the protection overhead model")
    sweep.add_argument("--no-hessian", action="store_true")
    sweep.add_argument("--output", default=None,
                       help="also write the JSON report to this path")
    sweep.add_argument("--json", action="store_true",
                       help="print the raw report as JSON")
    _add_repro_flags(sweep)
    sweep.set_defaults(fn=cmd_fault_sweep)

    corruption = commands.add_parser(
        "corruption-sweep",
        help="SynthShapes-C robustness grid, optionally with the drift "
             "recovery curve",
    )
    corruption.add_argument("--model", default="vit_mini_s", choices=_TRAINABLE)
    corruption.add_argument(
        "--methods", nargs="+",
        default=["fp32", "quq", "baseq", "biscaled", "ptq4vit"],
        choices=["fp32", "baseq", "quq", "biscaled", "fqvit", "ptq4vit"],
    )
    corruption.add_argument("--corruptions", nargs="+", default=None,
                            help="corruption ops (default: the full suite)")
    corruption.add_argument("--severities", nargs="+", type=int, default=[1, 3, 5])
    corruption.add_argument("--bits", type=int, default=6)
    corruption.add_argument("--coverage", default="full",
                            choices=["partial", "full"])
    corruption.add_argument("--images", type=int, default=128,
                            help="validation images scored per sweep cell")
    corruption.add_argument("--recovery", action="store_true",
                            help="also run the drift-triggered recovery curve")
    corruption.add_argument("--recovery-corruption", default="gaussian_noise",
                            dest="recovery_corruption")
    corruption.add_argument("--recovery-severity", type=int, default=3,
                            dest="recovery_severity")
    corruption.add_argument("--output", default=None,
                            help="also write the JSON report to this path")
    corruption.add_argument("--json", action="store_true",
                            help="print the raw report as JSON")
    _add_repro_flags(corruption)
    corruption.set_defaults(fn=cmd_corruption_sweep)

    scale = commands.add_parser(
        "scale-bench",
        help="open-loop trace (flash crowd, or steady load with "
             "--flash-multiplier 1) against the sharded cluster with admission "
             "control (availability, tail latency, shed rate, fairness)",
    )
    scale.add_argument("--tiny", action="store_true",
                       help="self-contained tiny ViT servable shared with the "
                            "shards copy-on-write (no zoo; CI smoke)")
    scale.add_argument("--spec", default="vit_s/quq/6",
                       help="model spec to serve (ignored weights when --tiny)")
    scale.add_argument("--duration", type=float, default=6.0,
                       help="trace length in seconds")
    scale.add_argument("--rate", type=float, default=600.0,
                       help="steady-state offered load, requests/s")
    scale.add_argument("--flash-multiplier", type=float, default=4.0,
                       dest="flash_multiplier",
                       help="flash-crowd multiple of the steady rate "
                            "(1: no flash crowd)")
    scale.add_argument("--tenants", type=int, default=4,
                       help="tenants in the heavy-tailed request mix")
    scale.add_argument("--shards", type=int, default=2,
                       help="worker processes per model")
    scale.add_argument("--max-batch", type=int, default=8, dest="max_batch")
    scale.add_argument("--queue", type=int, default=64,
                       help="bounded queue capacity per lane")
    scale.add_argument("--timeout-ms", type=float, default=2000.0,
                       dest="timeout_ms")
    scale.add_argument("--rate-limit", type=float, default=None,
                       dest="rate_limit",
                       help="token-bucket admitted-rate cap, requests/s "
                            "(default: no rate limit)")
    scale.add_argument("--floor", type=float, default=0.99,
                       help="availability floor over admitted requests")
    scale.add_argument("--no-kill", action="store_true",
                       help="skip the mid-trace shard kill")
    scale.add_argument("--trace", default="",
                       help="replay a recorded JSONL trace (one arrival per "
                            "line: at_s, tenant, priority, deadline_ms) "
                            "instead of the synthetic generator")
    scale.add_argument("--no-autoscale", action="store_true",
                       help="static shard pool (disable the elastic "
                            "control plane)")
    scale.add_argument("--min-shards", type=int, default=1, dest="min_shards",
                       help="autoscaler floor per lane")
    scale.add_argument("--max-shards", type=int, default=4, dest="max_shards",
                       help="autoscaler ceiling per lane")
    scale.add_argument("--secondary-spec", default=None, dest="secondary_spec",
                       help="warm an idle second lane that can lend shards "
                            "to the hot one (e.g. vit_s/quq/4)")
    scale.add_argument("--crash-burst-at", type=float, default=None,
                       dest="crash_burst_at",
                       help="trace fraction at which to SIGKILL the serving "
                            "shard repeatedly (drives the crash-loop "
                            "quarantine; default: no burst)")
    scale.add_argument("--crash-burst-kills", type=int, default=3,
                       dest="crash_burst_kills",
                       help="kills in the crash burst")
    scale.add_argument("--output", default="",
                       help="write the JSON report here ('' to skip)")
    scale.add_argument("--json", action="store_true",
                       help="print the raw report as JSON")
    _add_repro_flags(scale)
    scale.set_defaults(fn=cmd_scale_bench)

    parity = commands.add_parser(
        "kernel-parity",
        help="pairwise reference-vs-fast parity over every registered "
             "kernel (adversarial inputs included); exit 1 on any mismatch",
    )
    parity.add_argument("--cases", type=int, default=8,
                        help="random cases per generator on top of the "
                             "fixed adversarial set")
    parity.add_argument("--seed", type=int, default=None,
                        help="case-generation seed (default 0; "
                             "deterministic given the seed)")
    parity.add_argument("--output", default="",
                        help="write the JSON report here ('' to skip)")
    parity.add_argument("--json", action="store_true",
                        help="print the raw report as JSON")
    parity.set_defaults(fn=cmd_kernel_parity)
    return parser


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    args.fn(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    main()
