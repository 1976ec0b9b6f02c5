"""Mixed-precision bit allocation over QUQ taps (extension experiment).

The paper quantizes every tensor at one bit-width.  A natural extension —
enabled by QUQ's constant per-tensor side information — is to spend bits
where they matter: starting from a low-precision configuration, repeatedly
promote the most sensitive tap to the next bit-width until an average-bits
budget is exhausted.  Sensitivities come from
:func:`repro.analysis.sensitivity.tap_sensitivity`.
"""

from __future__ import annotations

import numpy as np

from .observers import TapKind, classify_tap
from .qmodel import PTQPipeline

__all__ = ["allocate_mixed_precision"]


def allocate_mixed_precision(
    pipeline: PTQPipeline,
    sensitivities: dict[str, float],
    budget_bits: float,
    calib_images: np.ndarray,
    bit_choices: tuple[int, ...] = (4, 6, 8),
) -> dict[str, int]:
    """Assign a bit-width per tap under a mean-bits budget.

    Greedy promotion: all taps start at ``min(bit_choices)``; while the
    average assigned width stays below ``budget_bits``, the tap with the
    highest remaining sensitivity is promoted one step.  Returns the
    allocation and installs quantizers refitted at those widths.
    """
    if not pipeline.calibrated:
        raise RuntimeError("calibrate the pipeline first")
    choices = sorted(bit_choices)
    if not choices:
        raise ValueError("bit_choices must not be empty")
    if not choices[0] <= budget_bits <= choices[-1]:
        raise ValueError(
            f"budget {budget_bits} outside achievable range {choices[0]}..{choices[-1]}"
        )

    taps = sorted(pipeline.env.quantizers)
    allocation = {name: choices[0] for name in taps}
    # Promotion priority: sensitivity, highest first, re-queued per level.
    order = sorted(taps, key=lambda n: sensitivities.get(n, 0.0), reverse=True)

    def average() -> float:
        return float(np.mean([allocation[name] for name in taps]))

    level = 0
    while level < len(choices) - 1:
        promoted_any = False
        for name in order:
            if allocation[name] != choices[level]:
                continue
            step = choices[level + 1] - choices[level]
            if average() + step / len(taps) > budget_bits + 1e-9:
                continue
            allocation[name] = choices[level + 1]
            promoted_any = True
        if not promoted_any:
            break
        level += 1

    # Refit every quantizer at its assigned width, from one float forward
    # over all the calibration images.
    activation_taps = [n for n in allocation if classify_tap(n) is not TapKind.WEIGHT]
    recorder = pipeline.observe(calib_images, activation_taps, batch_size=len(calib_images))
    pipeline.install(pipeline.fit(allocation, recorder, bits=allocation))
    return allocation
