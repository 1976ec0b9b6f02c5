"""Hessian-weighted grid search over quantizer scales.

The paper follows PTQ4ViT: after the progressive relaxation algorithm
produces the four scale factors, a layer-wise grid search refines them
using second-order information.  We use the diagonal Fisher approximation
(the squared gradient of the network loss w.r.t. each activation/weight
element) as the Hessian surrogate and minimize

    sum_i  h_i * (x_i - Q_alpha(x_i))^2

over a grid of uniform rescalings ``alpha`` of the fitted quantizer.  A
uniform rescaling preserves QUQ's Eq. (4) power-of-two structure, so every
candidate remains hardware-legal.

Gradients are taken against the model's own predictions (no labels
needed), the standard label-free PTQ objective.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..nn import cross_entropy
from .observers import TapKind, TapRecorder, classify_tap
from .qmodel import PTQPipeline

__all__ = ["DEFAULT_GRID", "hessian_refine"]

#: PTQ4ViT-style search range around the fitted scale.
DEFAULT_GRID = tuple(np.round(np.linspace(0.5, 1.2, 15), 4))

#: Cap on elements used per tap during the search (keeps runtime bounded).
_MAX_ELEMENTS = 65536


def _subsample(*arrays: np.ndarray, seed: int = 0) -> tuple[np.ndarray, ...]:
    size = arrays[0].size
    if size <= _MAX_ELEMENTS:
        return tuple(a.reshape(-1) for a in arrays)
    index = np.random.default_rng(seed).choice(size, _MAX_ELEMENTS, replace=False)
    return tuple(a.reshape(-1)[index] for a in arrays)


def _weighted_error(x: np.ndarray, h: np.ndarray, quantized: np.ndarray) -> float:
    return float(np.mean(h * (x - quantized) ** 2))


def hessian_refine(
    pipeline: PTQPipeline,
    calib_images: np.ndarray,
    grid: tuple[float, ...] = DEFAULT_GRID,
    batch_size: int = 32,
    weighted: bool = True,
) -> dict[str, float]:
    """Refine every fitted quantizer's scale; returns tap -> chosen alpha.

    Quantizers that do not support rescaling (e.g. log2) are left
    untouched.  Taps whose activations carry no gradient (those upstream of
    every parameter, like the patch-embedding input) fall back to plain
    MSE (h = 1).  ``weighted=False`` disables the Hessian weighting
    entirely (plain-MSE grid search, the PTQ4ViT-without-Hessian ablation).
    The refined quantizers are installed only once the search completes,
    so a call that raises leaves the pipeline serving what it served.
    """
    if not pipeline.calibrated:
        raise RuntimeError("pipeline must be calibrated before hessian_refine")

    quantizers = dict(pipeline.env.quantizers)
    model = pipeline.model
    activation_taps = [n for n in quantizers if classify_tap(n) is not TapKind.WEIGHT]
    weight_taps = [n for n in quantizers if classify_tap(n) is TapKind.WEIGHT]

    # ------------------------------------------------------------------
    # Pass 1: record activations and their gradients on the float model.
    # ------------------------------------------------------------------
    recorder = TapRecorder(activation_taps, grads=True)
    model.eval()
    model.zero_grad()
    with pipeline.observing(recorder):
        for start in range(0, len(calib_images), batch_size):
            chunk = Tensor(calib_images[start : start + batch_size])
            logits = model(chunk)
            targets = logits.data.argmax(axis=-1)
            loss = cross_entropy(logits, targets)
            loss.backward()

    # ------------------------------------------------------------------
    # Pass 2: per-tap grid search.
    # ------------------------------------------------------------------
    chosen: dict[str, float] = {}
    parameters = dict(model.named_parameters())
    for name in activation_taps + weight_taps:
        quantizer = quantizers[name]
        if not hasattr(quantizer, "scaled"):
            chosen[name] = 1.0
            continue

        if classify_tap(name) is TapKind.WEIGHT:
            # Weights keep their shape (row-wise quantizers need it) and
            # are small enough to skip subsampling.
            param = parameters[name.split(".", 1)[-1]]
            x = param.data.astype(np.float64)
            h = (
                (param.grad.astype(np.float64) ** 2)
                if weighted and param.grad is not None
                else np.ones_like(x)
            )
        else:
            x = recorder.observed(name).astype(np.float64)
            if weighted and recorder.gradients.get(name):
                h = recorder.observed_gradients(name).astype(np.float64) ** 2
            else:
                h = np.ones_like(x)
            if h.size != x.size:
                # Gradient capture can miss batches on no-grad paths;
                # degrade gracefully to unweighted MSE rather than misalign.
                h = np.ones_like(x)
            x, h = _subsample(x, h)

        best_alpha, best_err = 1.0, None
        for alpha in grid:
            candidate = quantizer.scaled(alpha)
            err = _weighted_error(x, h, candidate.fake_quantize(x).astype(np.float64))
            if best_err is None or err < best_err:
                best_alpha, best_err = float(alpha), err
        quantizers[name] = quantizer.scaled(best_alpha)
        chosen[name] = best_alpha

    model.zero_grad()
    pipeline.install(quantizers)
    return chosen
