"""Distribution analysis for Figure 3: the four canonical tensor types.

Captures, from a trained model on calibration images, the tensors whose
distributions motivate QUQ: the query weights, the post-Softmax
activations, the pre-addition (residual-branch) activations, and the
post-GELU activations.  Pairs each with the quantization points QUQ's
progressive relaxation generates for it, plus ASCII histograms for the
benchmark output.
"""

from __future__ import annotations

import numpy as np

from ..nn import Module
from ..quant.params import QUQParams
from ..quant.qmodel import PTQPipeline

__all__ = ["capture_figure3_tensors", "histogram", "ascii_histogram", "FIGURE3_TENSORS"]

#: The four tensor types of Figure 3 and Table 1.
FIGURE3_TENSORS = ("query_weight", "post_softmax", "pre_addition", "post_gelu")


def capture_figure3_tensors(
    model: Module, images: np.ndarray, block: int = 0
) -> dict[str, np.ndarray]:
    """Collect the four Figure-3 tensors from ``model`` on ``images``.

    ``block`` selects which transformer block to read activations from.
    The query weight is the first third of that block's fused qkv weight.
    """
    recorder = PTQPipeline(model).observe(images, batch_size=len(images))

    def tap_ending(suffix: str) -> str:
        matches = sorted(n for n in recorder.values if n.endswith(suffix))
        if not matches:
            raise KeyError(f"no tap ending in {suffix!r}; saw {sorted(recorder.values)[:5]}...")
        return matches[min(block, len(matches) - 1)]

    probs = recorder.observed(tap_ending(".attn.probs"))
    pre_add = recorder.observed(tap_ending(".attn_residual"))
    post_gelu = recorder.observed(tap_ending(".fc2.input"))

    weights = dict(model.named_parameters())
    qkv_names = sorted(n for n in weights if n.endswith("attn.qkv.weight"))
    qkv = weights[qkv_names[min(block, len(qkv_names) - 1)]].data
    query_weight = qkv[:, : qkv.shape[1] // 3].reshape(-1)

    return {
        "query_weight": np.asarray(query_weight, dtype=np.float64),
        "post_softmax": probs.astype(np.float64),
        "pre_addition": pre_add.astype(np.float64),
        "post_gelu": post_gelu.astype(np.float64),
    }


def histogram(data: np.ndarray, bins: int = 60) -> tuple[np.ndarray, np.ndarray]:
    """Histogram over the data's full range."""
    counts, edges = np.histogram(np.asarray(data).reshape(-1), bins=bins)
    return counts, edges


def ascii_histogram(
    data: np.ndarray,
    params: QUQParams | None = None,
    bins: int = 60,
    width: int = 48,
) -> str:
    """Render a log-scale histogram with QUQ quantization points overlaid.

    Rows are histogram bins (value ascending); ``*`` bars show counts on a
    log scale; a ``|`` marks bins containing at least one quantization
    point — the textual analogue of Figure 3's vertical lines.
    """
    counts, edges = histogram(data, bins)
    log_counts = np.log1p(counts)
    scale = width / log_counts.max() if log_counts.max() > 0 else 0.0
    points = params.quantization_points() if params is not None else np.array([])

    lines = []
    for i, count in enumerate(counts):
        low, high = edges[i], edges[i + 1]
        has_point = bool(((points >= low) & (points < high)).any())
        bar = "*" * int(round(log_counts[i] * scale))
        marker = "|" if has_point else " "
        lines.append(f"{low:+10.4f} {marker} {bar}")
    return "\n".join(lines)
