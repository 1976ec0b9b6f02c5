"""Corruption-robustness evaluation: accuracy sweep and recovery curve.

Two harnesses over SynthShapes-C (:mod:`repro.data.corruptions`):

* :func:`run_corruption_sweep` — accuracy of each quantization method
  (and the float model) across corruption x severity, all calibrated on
  the *clean* calibration set: how much of the corruption penalty is the
  quantizer's distribution mismatch rather than the corruption itself.
* :func:`run_recovery_curve` — the end-to-end drift story: serve clean
  traffic, switch the stream to a severity-``s`` corruption, watch the
  stale quantizer degrade, the :class:`~repro.quant.drift.DriftMonitor`
  fire, and the :class:`~repro.serve.drift.RecalibrationManager`
  shadow-recalibrate + canary + swap; then score the recovered entry
  against a baseline calibrated directly on corrupted data.

Both return JSON-serializable reports that regenerate byte-identically
from the same seed (no wall-clock values inside the summary sections).

Exposed as ``python -m repro corruption-sweep`` and regenerated by
``benchmarks/bench_corruption_robustness.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data import SynthShapes, corrupt_dataset, corrupt_images, corruption_names
from ..data.corruptions import SEVERITIES
from ..quant.drift import DriftThresholds
from ..quant.qmodel import METHODS, PTQPipeline
from ..serve.drift import DriftPolicy, RecalibrationManager
from ..serve.metrics import Metrics
from ..serve.registry import ModelKey, ModelRegistry
from ..training import evaluate_top1
from .reporting import format_table

__all__ = [
    "CorruptionSweepConfig",
    "run_corruption_sweep",
    "format_corruption_sweep",
    "RecoveryCurveConfig",
    "run_recovery_curve",
    "format_recovery_report",
]


@dataclass
class CorruptionSweepConfig:
    """One sweep: which methods to score on which corrupted splits."""

    methods: tuple[str, ...] = ("fp32", "quq", "baseq", "biscaled", "ptq4vit")
    corruptions: tuple[str, ...] = corruption_names()
    severities: tuple[int, ...] = (1, 3, 5)
    bits: int = 6
    coverage: str = "full"
    eval_count: int = 128
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        for method in self.methods:
            if method != "fp32" and method not in METHODS:
                raise ValueError(f"unknown method {method!r}; choices: "
                                 f"{('fp32',) + METHODS}")
        for name in self.corruptions:
            if name not in corruption_names():
                raise ValueError(
                    f"unknown corruption {name!r}; choices: {corruption_names()}"
                )
        for severity in self.severities:
            if severity not in SEVERITIES:
                raise ValueError(f"severity must be in {SEVERITIES}, got {severity}")
        if self.eval_count < 1 or self.batch_size < 1:
            raise ValueError("eval_count and batch_size must be >= 1")


def run_corruption_sweep(
    model,
    calib_images: np.ndarray,
    val_set: SynthShapes,
    config: CorruptionSweepConfig | None = None,
) -> dict:
    """Score every method on clean and corrupted validation splits.

    Each method is calibrated once on the clean calibration set (the
    deployment scenario the drift work protects) and then evaluated,
    without recalibration, on every corruption x severity cell.
    """
    config = CorruptionSweepConfig() if config is None else config
    subset = val_set.subset(config.eval_count, seed=config.seed + 11)
    corrupted_splits = {
        (name, severity): corrupt_dataset(subset, name, severity, seed=config.seed)
        for name in config.corruptions
        for severity in config.severities
    }

    rows = []
    summary = {}
    for method in config.methods:
        pipeline = None
        if method != "fp32":
            pipeline = PTQPipeline(
                model, method=method, bits=config.bits, coverage=config.coverage
            )
            pipeline.calibrate(calib_images, batch_size=config.batch_size)
        else:
            model.set_tap_dispatcher(None)
        try:
            clean = evaluate_top1(model, subset, batch_size=config.batch_size)
            corrupted_accuracies = []
            for (name, severity), split in corrupted_splits.items():
                accuracy = evaluate_top1(model, split, batch_size=config.batch_size)
                corrupted_accuracies.append(accuracy)
                rows.append({
                    "method": method,
                    "corruption": name,
                    "severity": severity,
                    "top1": round(accuracy, 4),
                })
            summary[method] = {
                "clean_top1": round(clean, 4),
                "mean_corrupted_top1": round(float(np.mean(corrupted_accuracies)), 4),
                "mean_degradation": round(
                    clean - float(np.mean(corrupted_accuracies)), 4
                ),
            }
        finally:
            if pipeline is not None:
                pipeline.detach()
    return {
        "config": {
            "methods": list(config.methods),
            "corruptions": list(config.corruptions),
            "severities": list(config.severities),
            "bits": config.bits,
            "coverage": config.coverage,
            "eval_count": config.eval_count,
            "seed": config.seed,
        },
        "rows": rows,
        "summary": summary,
    }


def format_corruption_sweep(report: dict) -> str:
    """Method x corruption table (accuracy averaged over severities) plus
    the clean/corrupted summary."""
    methods = report["config"]["methods"]
    corruptions = report["config"]["corruptions"]
    by_cell: dict[tuple[str, str], list[float]] = {}
    for row in report["rows"]:
        by_cell.setdefault((row["method"], row["corruption"]), []).append(row["top1"])
    grid = [
        [method] + [
            round(float(np.mean(by_cell[(method, name)])), 2)
            for name in corruptions
        ]
        for method in methods
    ]
    sections = [format_table(
        ["method"] + list(corruptions), grid,
        title=(
            "SynthShapes-C top-1 (%), severities "
            f"{report['config']['severities']} averaged, "
            f"{report['config']['bits']}-bit {report['config']['coverage']}"
        ),
    )]
    sections.append(format_table(
        ["method", "clean", "mean corrupted", "degradation"],
        [
            [method, entry["clean_top1"], entry["mean_corrupted_top1"],
             entry["mean_degradation"]]
            for method, entry in report["summary"].items()
        ],
        title="Clean vs corrupted summary",
    ))
    return "\n\n".join(sections)


# ----------------------------------------------------------------------

#: Top-1 points the recalibrated model may trail the freshly-calibrated
#: baseline by and still count as recovered.
RECOVERY_TOLERANCE = 2.0
#: Top-1 points the stale quantizer must lose for the shift to count.
MIN_STALE_DROP = 2.0


@dataclass
class RecoveryCurveConfig:
    """The drift -> detect -> recalibrate -> recover experiment."""

    spec: str = "vit_s/quq/6"
    corruption: str = "gaussian_noise"
    severity: int = 3
    eval_count: int = 128  # images scored per phase
    stream_batches: int = 12  # corrupted batches streamed at the monitor
    batch_size: int = 16
    seed: int = 0
    policy: DriftPolicy = field(default_factory=lambda: DriftPolicy(
        # consecutive=4 x batch_size=16 means the 64-image buffer has fully
        # turned over to drifted inputs by the time recalibration triggers,
        # so the shadow build calibrates on purely post-shift data.
        thresholds=DriftThresholds(
            psi=0.25, clip_rate=0.05, overflow_ratio=1.5, consecutive=4, min_samples=96,
        ),
        sample_every=2,
        buffer_size=64,
        min_recalibration_images=32,
        canary_count=16,
        canary_agreement_floor=0.6,
        cooldown_s=3600.0,  # one swap per run: no flapping mid-experiment
    ))

    def __post_init__(self):
        if self.corruption not in corruption_names():
            raise ValueError(
                f"unknown corruption {self.corruption!r}; "
                f"choices: {corruption_names()}"
            )
        if self.severity not in SEVERITIES:
            raise ValueError(f"severity must be in {SEVERITIES}, got {self.severity}")
        if self.eval_count < 1 or self.stream_batches < 1 or self.batch_size < 1:
            raise ValueError("eval_count, stream_batches, batch_size must be >= 1")


def _predict_labels(servable, images: np.ndarray, batch_size: int,
                    float_path: bool = False) -> tuple[np.ndarray, int]:
    """Predicted labels plus the count of non-finite logits served."""
    labels, nonfinite = [], 0
    for start in range(0, len(images), batch_size):
        chunk = images[start : start + batch_size]
        logits = (
            servable.predict_float(chunk) if float_path else servable.predict(chunk)
        )
        nonfinite += int(np.size(logits) - np.isfinite(logits).sum())
        labels.append(logits.argmax(axis=-1))
    return np.concatenate(labels), nonfinite


def run_recovery_curve(
    registry: ModelRegistry,
    clean_val: SynthShapes,
    calib_images: np.ndarray,
    config: RecoveryCurveConfig | None = None,
) -> dict:
    """Serve a drifting stream through the monitor/recalibration loop.

    Deterministic and single-threaded: batches are fed in a fixed order
    through exactly the code path the serving engine runs (sampled
    recorder on ``predict``, ``finish_batch`` after), so the report — and
    the batch index where the swap lands — regenerates from the seed.
    """
    config = RecoveryCurveConfig() if config is None else config
    key = ModelKey.parse(config.spec)
    metrics = Metrics()
    # Deterministic clock: cooldown bookkeeping (which lands in the
    # snapshot) must not leak wall-clock values into the report.
    ticks = iter(range(1, 1 << 30))
    manager = RecalibrationManager(
        registry, config.policy, metrics=metrics, clock=lambda: float(next(ticks))
    )

    eval_clean = clean_val.subset(config.eval_count, seed=config.seed + 11)
    eval_corrupted = corrupt_dataset(
        eval_clean, config.corruption, config.severity, seed=config.seed
    )
    stream_count = config.stream_batches * config.batch_size
    if config.eval_count + stream_count > len(clean_val):
        raise ValueError(
            f"need {config.eval_count + stream_count} images, "
            f"val split has {len(clean_val)}"
        )
    stream_clean = clean_val.images[
        config.eval_count : config.eval_count + stream_count
    ]
    stream_images = corrupt_images(
        stream_clean, config.corruption, config.severity, seed=config.seed + 1
    )
    stream_labels = clean_val.labels[
        config.eval_count : config.eval_count + stream_count
    ]

    nonfinite_served = 0

    # Phase A — clean serving: accuracy baseline, and the monitor must
    # stay quiet (drift detection may not false-positive on clean data).
    servable = registry.get(key)
    original = servable
    predicted, bad = _predict_labels(
        servable, eval_clean.images, config.batch_size
    )
    nonfinite_served += bad
    clean_top1 = float(100.0 * np.mean(predicted == eval_clean.labels))
    for start in range(0, len(eval_clean.images), config.batch_size):
        chunk = eval_clean.images[start : start + config.batch_size]
        servable.predict(chunk, recorder=manager.recorder_for(key, servable))
        manager.finish_batch(key, servable, chunk)
    clean_alerts = metrics.counter("drift_alerts_total").value

    # Phase B — the stream drifts: serve corrupted batches through the
    # monitored path; the stale quantizer answers until the swap lands.
    curve = []
    swap_batch = None
    for index in range(config.stream_batches):
        servable = registry.get(key)  # what the engine does every batch
        chunk = stream_images[
            index * config.batch_size : (index + 1) * config.batch_size
        ]
        truth = stream_labels[
            index * config.batch_size : (index + 1) * config.batch_size
        ]
        logits = servable.predict(
            chunk, recorder=manager.recorder_for(key, servable)
        )
        nonfinite_served += int(np.size(logits) - np.isfinite(logits).sum())
        outcome = manager.finish_batch(key, servable, chunk)
        if outcome is not None and outcome.swapped and swap_batch is None:
            swap_batch = index
        curve.append({
            "batch": index,
            "top1": round(float(100.0 * np.mean(logits.argmax(-1) == truth)), 4),
            # The swap lands in finish_batch, after this batch's logits
            # were produced — so the swap batch itself was served stale.
            "stale": swap_batch is None or index <= swap_batch,
            "drifted": bool(outcome is not None and outcome.verdict.drifted),
        })
    stale_points = [p["top1"] for p in curve if p["stale"]]
    stale_top1 = round(float(np.mean(stale_points)), 4) if stale_points else None

    # Phase C — after the swap: score the recovered entry, the float path,
    # and a baseline calibrated directly on corrupted calibration data.
    recovered = registry.get(key)
    predicted, bad = _predict_labels(
        recovered, eval_corrupted.images, config.batch_size
    )
    nonfinite_served += bad
    recovered_top1 = float(100.0 * np.mean(predicted == eval_corrupted.labels))
    predicted, _ = _predict_labels(
        recovered, eval_corrupted.images, config.batch_size, float_path=True
    )
    float_top1 = float(100.0 * np.mean(predicted == eval_corrupted.labels))
    stale_eval_top1 = None
    if original is not recovered:
        predicted, bad = _predict_labels(
            original, eval_corrupted.images, config.batch_size
        )
        nonfinite_served += bad
        stale_eval_top1 = float(100.0 * np.mean(predicted == eval_corrupted.labels))
    baseline = registry.shadow_build(
        key,
        corrupt_images(
            calib_images, config.corruption, config.severity, seed=config.seed + 2
        ),
    )
    predicted, _ = _predict_labels(
        baseline, eval_corrupted.images, config.batch_size
    )
    baseline_top1 = float(100.0 * np.mean(predicted == eval_corrupted.labels))

    snapshot = metrics.snapshot(extra={
        "registry": registry.snapshot(), "drift": manager.snapshot(),
    })
    swaps = snapshot["counters"].get("recalibration_swaps_total", 0)
    checks = {
        "no_false_positive_on_clean": clean_alerts == 0,
        "monitor_fired_and_swapped": swap_batch is not None and swaps >= 1,
        "stale_drops_measurably": (
            stale_eval_top1 is not None
            and clean_top1 - stale_eval_top1 >= MIN_STALE_DROP
        ),
        "recovers_to_baseline": (
            recovered_top1 >= baseline_top1 - RECOVERY_TOLERANCE
        ),
        "zero_nonfinite_served": nonfinite_served == 0,
        "swap_counted_in_snapshot": swaps >= 1
        and snapshot["registry"].get("swaps", 0) >= 1,
    }
    return {
        "config": {
            "spec": key.spec,
            "corruption": config.corruption,
            "severity": config.severity,
            "eval_count": config.eval_count,
            "stream_batches": config.stream_batches,
            "batch_size": config.batch_size,
            "seed": config.seed,
            "recovery_tolerance": RECOVERY_TOLERANCE,
            "min_stale_drop": MIN_STALE_DROP,
            "thresholds": config.policy.thresholds.to_dict(),
        },
        "phases": {
            "clean_top1": round(clean_top1, 4),
            "stale_stream_top1": stale_top1,
            "stale_eval_top1": (
                round(stale_eval_top1, 4) if stale_eval_top1 is not None else None
            ),
            "recovered_top1": round(recovered_top1, 4),
            "baseline_top1": round(baseline_top1, 4),
            "float_top1": round(float_top1, 4),
        },
        "recovery_curve": curve,
        "swap_batch": swap_batch,
        "nonfinite_served": nonfinite_served,
        "checks": checks,
        "passed": all(checks.values()),
        "snapshot": snapshot,
    }


def format_recovery_report(report: dict) -> str:
    """Render the recovery curve as text (the 'plot') plus the verdict."""
    phases = report["phases"]
    checks = report["checks"]
    verdict = "PASS" if report["passed"] else "FAIL"
    sections = [format_table(
        ["clean", "stale (stream)", "stale (eval)", "recovered", "baseline",
         "float", "swap batch", "verdict"],
        [[phases["clean_top1"], phases["stale_stream_top1"],
          phases["stale_eval_top1"], phases["recovered_top1"],
          phases["baseline_top1"], phases["float_top1"],
          report["swap_batch"], verdict]],
        title=(
            f"Drift recovery, {report['config']['spec']} under "
            f"{report['config']['corruption']} severity "
            f"{report['config']['severity']} (top-1 %)"
        ),
    )]
    # ASCII recovery curve: one row per streamed batch.
    width = 40
    tops = [point["top1"] for point in report["recovery_curve"]]
    top = max(tops + [1.0])
    lines = ["batch  top1   serving   curve"]
    for point in report["recovery_curve"]:
        bar = "#" * max(1, int(round(width * point["top1"] / top)))
        serving = "stale" if point["stale"] else "swapped"
        marker = " <- swap" if point["batch"] == report["swap_batch"] else ""
        lines.append(
            f"{point['batch']:>5}  {point['top1']:>5.1f}  {serving:<8}  {bar}{marker}"
        )
    sections.append("\n".join(lines))
    sections.append(format_table(
        ["check", "ok"], [[name, ok] for name, ok in checks.items()],
        title="Checks",
    ))
    return "\n\n".join(sections)
