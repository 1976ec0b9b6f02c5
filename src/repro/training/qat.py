"""Quantization-aware fine-tuning (extension experiment).

The paper is pure PTQ; the straight-through fake-quantization nodes the
pipeline inserts also make gradient-based recovery trivial: with the
pipeline attached, every forward runs quantized while gradients flow
unchanged, so a few epochs of fine-tuning let the weights adapt to the
quantization grid.  This module implements that loop and is exercised by
the QAT ablation bench, which shows it recovering most of the stress-point
(low-bit full-quantization) accuracy drop.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..data import SynthShapes, batches
from ..nn import Module
from ..quant.qmodel import PTQPipeline
from .optim import AdamW
from .trainer import _loss_for

__all__ = ["quantization_aware_finetune"]


def quantization_aware_finetune(
    pipeline: PTQPipeline,
    train_set: SynthShapes,
    epochs: int = 2,
    batch_size: int = 64,
    lr: float = 2e-4,
    seed: int = 0,
) -> list[float]:
    """Fine-tune the quantized model through the STE; returns epoch losses.

    The pipeline must be calibrated and attached.  Weight quantizers were
    fitted to the original weights and stay fixed: the weights adapt to
    the grid.
    """
    if not pipeline.calibrated:
        raise RuntimeError("calibrate the pipeline before fine-tuning")
    model: Module = pipeline.model
    pipeline.attach()
    optimizer = AdamW(model.parameters(), lr=lr, weight_decay=0.0)

    model.train()
    history: list[float] = []
    for epoch in range(epochs):
        losses = []
        for images, labels in batches(
            train_set, batch_size, shuffle=True, seed=seed + epoch, drop_last=True
        ):
            logits = model(Tensor(images))
            loss = _loss_for(logits, labels, smoothing=0.0)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(float(loss.data))
        history.append(float(np.mean(losses)))
    model.eval()
    return history
