"""Calibration fingerprints and online activation-drift detection.

A PTQ quantizer is a bet that serving traffic looks like the calibration
set; QUQ's quadruplet layout in particular is fitted to the observed
long-tailed distribution (PAPER.md Section 3), so a shifted input
distribution silently clips into the wrong subranges.  This module makes
that bet observable:

* :class:`TapFingerprint` — compact per-tap statistics recorded at
  calibration time (absmax, percentiles, mean/std, the clip bound and its
  baseline clip rate, and a fixed-edge histogram).
* :func:`fingerprint_pipeline` — fingerprint every activation tap of a
  calibrated :class:`~repro.quant.qmodel.PTQPipeline` (plus the ``input``
  pseudo-tap) by re-observing the calibration set.
* :class:`DriftMonitor` — compares live batch statistics against the
  fingerprints (clip-rate inflation, range overflow, population-stability
  index) and turns per-batch scores into thresholded, *sustained*
  verdicts that the serving layer can act on.  The serving engine hands
  a lane's monitor itself to
  :meth:`QuantEnv.recording <repro.quant.observers.QuantEnv.recording>`
  (or the int backend's datapath) as the recorder, so live activation
  statistics are sampled during normal quantized forwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import finite_values

__all__ = [
    "FINGERPRINT_PERCENTILES",
    "HISTOGRAM_BINS",
    "INPUT_TAP",
    "TapFingerprint",
    "DriftScores",
    "DriftThresholds",
    "DriftVerdict",
    "DriftMonitor",
    "population_stability_index",
    "fingerprint_pipeline",
]

#: Percentiles of |x| recorded per fingerprint (the last one doubles as
#: the clip bound the live clip rate is measured against).
FINGERPRINT_PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: Fixed histogram resolution for the population-stability index.
HISTOGRAM_BINS = 16

#: Pseudo-tap name for the raw input images (monitored even when no
#: activation tap is sampled on a given batch).
INPUT_TAP = "input"

_EPS = 1e-12


def population_stability_index(
    expected: np.ndarray, actual: np.ndarray, eps: float = 1e-4
) -> float:
    """PSI between two probability vectors over the same bins.

    The standard scorecard-monitoring statistic: < 0.1 is stable, 0.1-0.25
    is a moderate shift, > 0.25 is a significant shift.
    """
    p = np.maximum(np.asarray(expected, dtype=np.float64), eps)
    q = np.maximum(np.asarray(actual, dtype=np.float64), eps)
    p = p / p.sum()
    q = q / q.sum()
    return float(np.sum((q - p) * np.log(q / p)))


@dataclass
class DriftScores:
    """How one live batch compares to one tap's fingerprint."""

    tap: str
    count: int
    psi: float
    clip_rate: float
    overflow_ratio: float  # live absmax / calibration absmax
    nonfinite_rate: float

    def reasons(self, thresholds: "DriftThresholds") -> list[str]:
        """Which thresholds this batch crossed (empty = no drift)."""
        out = []
        if self.psi > thresholds.psi:
            out.append(f"psi {self.psi:.3f} > {thresholds.psi}")
        if self.clip_rate > thresholds.clip_rate:
            out.append(f"clip_rate {self.clip_rate:.3f} > {thresholds.clip_rate}")
        if self.overflow_ratio > thresholds.overflow_ratio:
            out.append(
                f"overflow {self.overflow_ratio:.2f}x > {thresholds.overflow_ratio}x"
            )
        if self.nonfinite_rate > 0:
            out.append(f"nonfinite_rate {self.nonfinite_rate:.4f} > 0")
        return out

    def to_dict(self) -> dict:
        return {
            "tap": self.tap,
            "count": self.count,
            "psi": round(self.psi, 6),
            "clip_rate": round(self.clip_rate, 6),
            "overflow_ratio": round(self.overflow_ratio, 6),
            "nonfinite_rate": round(self.nonfinite_rate, 6),
        }


@dataclass
class TapFingerprint:
    """Calibration-time distribution summary for one tap."""

    absmax: float
    mean: float
    std: float
    percentiles: dict[str, float]  # str(p) -> |x| percentile
    clip_bound: float  # magnitude above which a live value counts as clipped
    baseline_clip_rate: float  # clip rate of the calibration data itself
    edges: np.ndarray  # HISTOGRAM_BINS + 1 bin edges over the value range
    probs: np.ndarray  # HISTOGRAM_BINS reference probabilities
    count: int

    @classmethod
    def from_data(cls, data: np.ndarray) -> "TapFingerprint":
        finite = finite_values(data)
        if finite.size == 0:
            finite = np.zeros(1)
        magnitudes = np.abs(finite)
        absmax = float(magnitudes.max())
        # One call, one partial sort, for all four percentiles.
        values = np.percentile(magnitudes, FINGERPRINT_PERCENTILES)
        percentiles = {str(p): float(v) for p, v in zip(FINGERPRINT_PERCENTILES, values)}
        clip_bound = max(percentiles[str(FINGERPRINT_PERCENTILES[-1])], _EPS)
        counts, edges = np.histogram(finite, bins=HISTOGRAM_BINS)
        return cls(
            absmax=absmax,
            mean=float(finite.mean()),
            std=float(finite.std()),
            percentiles=percentiles,
            clip_bound=clip_bound,
            baseline_clip_rate=float(np.mean(magnitudes > clip_bound)),
            edges=edges.astype(np.float64),
            probs=(counts / max(counts.sum(), 1)).astype(np.float64),
            count=int(finite.size),
        )

    def compare(self, data: np.ndarray) -> DriftScores:
        """Score one live batch against this fingerprint."""
        flat = np.asarray(data, dtype=np.float64).reshape(-1)
        finite_mask = np.isfinite(flat)
        finite = flat[finite_mask]
        nonfinite_rate = float(1.0 - finite_mask.mean()) if flat.size else 0.0
        if finite.size == 0:
            return DriftScores(
                tap="", count=int(flat.size), psi=float("inf"),
                clip_rate=1.0, overflow_ratio=float("inf"),
                nonfinite_rate=nonfinite_rate,
            )
        magnitudes = np.abs(finite)
        clipped = float(np.mean(magnitudes > self.clip_bound)) + nonfinite_rate
        overflow = float(magnitudes.max()) / max(self.absmax, _EPS)
        bounded = np.clip(finite, self.edges[0], self.edges[-1])
        counts, _ = np.histogram(bounded, bins=self.edges)
        psi = population_stability_index(self.probs, counts / max(counts.sum(), 1))
        return DriftScores(
            tap="", count=int(flat.size), psi=psi, clip_rate=clipped,
            overflow_ratio=overflow, nonfinite_rate=nonfinite_rate,
        )


@dataclass
class DriftThresholds:
    """When does a score count as drift, and when is drift *sustained*?

    ``consecutive`` drifted batches (with at least ``min_samples`` values
    observed across them) are required before a sustained verdict, so a
    single weird batch cannot trigger recalibration.
    """

    psi: float = 0.25
    clip_rate: float = 0.05
    overflow_ratio: float = 1.5
    consecutive: int = 3
    min_samples: int = 256

    def __post_init__(self):
        if self.psi <= 0 or self.clip_rate <= 0 or self.overflow_ratio <= 0:
            raise ValueError("psi, clip_rate and overflow_ratio must be > 0")
        if self.consecutive < 1 or self.min_samples < 1:
            raise ValueError("consecutive and min_samples must be >= 1")

    def to_dict(self) -> dict:
        return {
            "psi": self.psi,
            "clip_rate": self.clip_rate,
            "overflow_ratio": self.overflow_ratio,
            "consecutive": self.consecutive,
            "min_samples": self.min_samples,
        }


@dataclass
class DriftVerdict:
    """Outcome of one monitored batch."""

    drifted: bool  # at least one tap crossed a threshold this batch
    sustained: bool  # drift has persisted long enough to act on
    scores: dict[str, DriftScores] = field(default_factory=dict)
    reasons: dict[str, list[str]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "drifted": self.drifted,
            "sustained": self.sustained,
            "scores": {name: s.to_dict() for name, s in self.scores.items()},
            "reasons": dict(self.reasons),
        }


class DriftMonitor:
    """Streaming comparison of live batches against calibration fingerprints.

    A monitor is also a recorder (``record`` is :meth:`observe`): set for
    one forward pass through ``QuantEnv.recording`` or
    ``PackedDatapath.recorder``, it scores each tap's pre-quantization
    values and keeps only the scalar statistics, never the activations.
    Not internally locked: callers (the serving engine's per-lane drift
    state, or a single-threaded harness) serialize access themselves.
    """

    def __init__(
        self,
        fingerprints: dict[str, TapFingerprint],
        thresholds: DriftThresholds | None = None,
    ):
        if not fingerprints:
            raise ValueError("DriftMonitor needs at least one fingerprint")
        self.fingerprints = dict(fingerprints)
        self.thresholds = DriftThresholds() if thresholds is None else thresholds
        self._pending: dict[str, DriftScores] = {}
        self.consecutive_drifted = 0
        self.samples_seen = 0
        self.batches_seen = 0
        self.alerts = 0  # distinct entries into the sustained state
        self._alerting = False
        self.last_verdict: DriftVerdict | None = None

    # ------------------------------------------------------------------
    def observe(self, name: str, data: np.ndarray) -> DriftScores | None:
        """Score ``data`` against tap ``name``; None if not fingerprinted."""
        fingerprint = self.fingerprints.get(name)
        if fingerprint is None:
            return None
        scores = fingerprint.compare(data)
        scores.tap = name
        self._pending[name] = scores
        return scores

    record = observe

    def complete_batch(self) -> DriftVerdict:
        """Fold this batch's observations into the sustained-drift state."""
        scores, self._pending = self._pending, {}
        self.batches_seen += 1
        self.samples_seen += sum(s.count for s in scores.values())
        reasons = {
            name: why
            for name, s in scores.items()
            if (why := s.reasons(self.thresholds))
        }
        drifted = bool(reasons)
        self.consecutive_drifted = self.consecutive_drifted + 1 if drifted else 0
        sustained = (
            drifted
            and self.consecutive_drifted >= self.thresholds.consecutive
            and self.samples_seen >= self.thresholds.min_samples
        )
        if sustained and not self._alerting:
            self.alerts += 1
            self._alerting = True
        if not drifted:
            self._alerting = False
        verdict = DriftVerdict(drifted, sustained, scores, reasons)
        self.last_verdict = verdict
        return verdict

    def reset(self) -> None:
        """Forget streak state (after recalibration swaps the quantizer)."""
        self._pending = {}
        self.consecutive_drifted = 0
        self.samples_seen = 0
        self._alerting = False

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        last = self.last_verdict
        return {
            "taps": sorted(self.fingerprints),
            "thresholds": self.thresholds.to_dict(),
            "batches_seen": self.batches_seen,
            "samples_seen": self.samples_seen,
            "consecutive_drifted": self.consecutive_drifted,
            "alerts": self.alerts,
            "last_verdict": last.to_dict() if last is not None else None,
        }


_FINGERPRINT_SAMPLES_PER_BATCH = 1 << 16  # per-tap cap keeps memory bounded


def fingerprint_pipeline(
    pipeline,
    calib_images: np.ndarray,
    batch_size: int = 32,
    include_input: bool = True,
) -> dict[str, TapFingerprint]:
    """Fingerprint every fitted activation tap of a calibrated pipeline.

    Attaches the pipeline and runs the calibration set through the
    *quantized* model, recording each batch into a
    :class:`~repro.quant.observers.TapRecorder` through ``env.recording``,
    so fingerprints describe exactly the distributions a live
    :class:`DriftMonitor` sees during serving: the pre-quantization tap
    inputs, downstream of quantized predecessors.  (Float re-runs would
    fingerprint the float activations and then flag quantization error
    itself as drift on clean traffic.)  Each recorded tensor is
    subsampled to at most ``2**16`` values before the next batch runs,
    so memory stays bounded by one batch.
    Weights are static and skipped.  Adds the ``input`` pseudo-tap so
    drift can be detected even on batches where no activation tap is
    sampled.
    """
    from ..autograd import Tensor, no_grad
    from .observers import TapKind, TapRecorder, classify_tap

    if not pipeline.calibrated:
        raise RuntimeError("calibrate() must run before fingerprinting")
    activation_taps = [
        name
        for name in pipeline.tap_names()
        if classify_tap(name) is not TapKind.WEIGHT
    ]
    pipeline.attach()
    pipeline.model.eval()
    samples: dict[str, list[np.ndarray]] = {}
    for start in range(0, len(calib_images), batch_size):
        recorder = TapRecorder(activation_taps)
        with pipeline.env.recording(recorder), no_grad():
            pipeline.model(Tensor(calib_images[start : start + batch_size]))
        for name, values in recorder.values.items():
            for value in values:
                flat = np.asarray(value, dtype=np.float32).reshape(-1)
                if flat.size > _FINGERPRINT_SAMPLES_PER_BATCH:
                    # A copy, so the full tensor goes with the recorder.
                    flat = flat[:: flat.size // _FINGERPRINT_SAMPLES_PER_BATCH + 1].copy()
                samples.setdefault(name, []).append(flat)
    fingerprints = {
        name: TapFingerprint.from_data(np.concatenate(chunks))
        for name, chunks in samples.items()
    }
    if include_input:
        fingerprints[INPUT_TAP] = TapFingerprint.from_data(calib_images)
    return fingerprints
