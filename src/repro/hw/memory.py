"""Peak on-chip memory simulation for ViT blocks (Figure 2).

Follows the paper's Section 2 methodology: during inference of one
transformer block, only the weights of the *current* operation are loaded
on-chip, while every live activation stays resident (avoiding off-chip
round trips).  The simulator walks the block's dataflow, tracks tensor
liveness, and reports the peak of (live activations + current weights).

The partial-quantization (PQ) scheme stores GEMM operands at the
quantization bit-width but keeps the hard-to-quantize activations — the
inputs of residual addition, LayerNorm, Softmax and GELU (the red
components of Figure 1) — at full precision.  Full quantization (FQ)
stores everything at the quantization bit-width, which is what QUQ
enables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..models.configs import ModelConfig, SwinConfig

__all__ = [
    "Op",
    "BlockDataflow",
    "build_vit_block_dataflow",
    "peak_memory_bytes",
    "memory_table",
    "packed_weight_rows",
    "measured_weight_summary",
]

_FP_BITS = 32


@dataclass(frozen=True)
class Op:
    """One operation in the dataflow."""

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    weight_elems: int = 0


@dataclass
class BlockDataflow:
    """Tensor sizes (elements) plus the op sequence of one block."""

    tensors: dict[str, int]
    #: bit-width category per tensor: "gemm" (green) or "other" (red)
    categories: dict[str, str]
    ops: list[Op] = field(default_factory=list)

    def tensor_bits(self, name: str, scheme: str, bits: int) -> int:
        if scheme == "fp32":
            return _FP_BITS
        if scheme == "fq":
            return bits
        if scheme == "pq":
            return bits if self.categories[name] == "gemm" else _FP_BITS
        raise ValueError(f"unknown scheme {scheme!r}; use fp32, pq or fq")


def build_vit_block_dataflow(
    config: ModelConfig | SwinConfig, batch: int = 1
) -> BlockDataflow:
    """The standard pre-norm transformer block of Figure 1.

    For Swin configs the first stage's geometry is used (window attention
    has the same per-block tensor inventory; attention matrices are
    ``windows x window^2 x window^2`` instead of ``N x N``).
    """
    if isinstance(config, SwinConfig):
        tokens = config.stage_resolution(0) ** 2
        dim = config.embed_dim
        heads = config.num_heads[0]
        window = config.window_size ** 2
        num_windows = tokens // window
        attn_elems = batch * num_windows * heads * window * window
        mlp_ratio = config.mlp_ratio
    else:
        tokens = config.num_tokens
        dim = config.embed_dim
        heads = config.num_heads
        attn_elems = batch * heads * tokens * tokens
        mlp_ratio = config.mlp_ratio

    seq = batch * tokens
    hidden = int(dim * mlp_ratio)

    tensors = {
        "x": seq * dim,  # block input (residual stream)
        "xn1": seq * dim,  # after LN1
        "q": seq * dim,
        "k": seq * dim,
        "v": seq * dim,
        "scores": attn_elems,  # Softmax input
        "probs": attn_elems,  # Softmax output (MatMul operand)
        "ctx": seq * dim,  # attention context (proj input)
        "attn_out": seq * dim,  # proj output (residual-add input)
        "mid": seq * dim,  # after first residual add
        "xn2": seq * dim,  # after LN2
        "h_pre": seq * hidden,  # fc1 output (GELU input)
        "h_act": seq * hidden,  # GELU output (fc2 input)
        "mlp_out": seq * dim,  # fc2 output (residual-add input)
        "y": seq * dim,  # block output
    }
    categories = {
        "x": "other",
        "xn1": "gemm",
        "q": "gemm",
        "k": "gemm",
        "v": "gemm",
        "scores": "other",
        "probs": "gemm",
        "ctx": "gemm",
        "attn_out": "other",
        "mid": "other",
        "xn2": "gemm",
        "h_pre": "other",
        "h_act": "gemm",
        "mlp_out": "other",
        "y": "other",
    }
    ops = [
        Op("ln1", ("x",), ("xn1",)),
        Op("qkv", ("xn1",), ("q", "k", "v"), weight_elems=dim * 3 * dim),
        Op("attn_matmul_qk", ("q", "k"), ("scores",)),
        Op("softmax", ("scores",), ("probs",)),
        Op("attn_matmul_pv", ("probs", "v"), ("ctx",)),
        Op("proj", ("ctx",), ("attn_out",), weight_elems=dim * dim),
        Op("residual1", ("x", "attn_out"), ("mid",)),
        Op("ln2", ("mid",), ("xn2",)),
        Op("fc1", ("xn2",), ("h_pre",), weight_elems=dim * hidden),
        Op("gelu", ("h_pre",), ("h_act",)),
        Op("fc2", ("h_act",), ("mlp_out",), weight_elems=hidden * dim),
        Op("residual2", ("mid", "mlp_out"), ("y",)),
    ]
    return BlockDataflow(tensors, categories, ops)


def peak_memory_bytes(
    dataflow: BlockDataflow, scheme: str, bits: int = 8
) -> tuple[float, str]:
    """Walk the dataflow; return (peak bytes, name of the peak op).

    A tensor is live from the op that produces it (inclusive) until the
    last op that consumes it.  Weights are live only during their op.
    The block input is live from the start; the block output counts as
    live at the final op.
    """
    last_use = {"x": 0}
    for index, op in enumerate(dataflow.ops):
        for name in op.inputs:
            last_use[name] = index
    # The block output must survive the block.
    for name in dataflow.ops[-1].outputs:
        last_use[name] = len(dataflow.ops) - 1

    born: dict[str, int] = {"x": 0}
    for index, op in enumerate(dataflow.ops):
        for name in op.outputs:
            born[name] = index

    peak, peak_op = 0.0, ""
    for index, op in enumerate(dataflow.ops):
        live_bytes = 0.0
        for name, elems in dataflow.tensors.items():
            if born.get(name, 10**9) <= index <= last_use.get(name, -1):
                live_bytes += elems * dataflow.tensor_bits(name, scheme, bits) / 8.0
        weight_bits = bits if scheme in ("pq", "fq") else _FP_BITS
        live_bytes += op.weight_elems * weight_bits / 8.0
        if live_bytes > peak:
            peak, peak_op = live_bytes, op.name
    return peak, peak_op


def memory_table(
    configs: list[ModelConfig | SwinConfig],
    batches: tuple[int, ...] = (1, 2, 4, 8),
    bits: int = 8,
) -> list[dict]:
    """Rows of Figure 2: peak memory of PQ vs FQ per model and batch size."""
    rows = []
    for config in configs:
        for batch in batches:
            dataflow = build_vit_block_dataflow(config, batch)
            pq, _ = peak_memory_bytes(dataflow, "pq", bits)
            fq, _ = peak_memory_bytes(dataflow, "fq", bits)
            rows.append(
                {
                    "model": config.name,
                    "batch": batch,
                    "bits": bits,
                    "pq_kib": pq / 1024.0,
                    "fq_kib": fq / 1024.0,
                    "pq_over_fq": pq / fq,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Measured weight memory: the analytic tables above assume b bits/element
# flat; a PackedWeightStore (repro.backend.packed, the one QUB weight
# format, in the int backend and in the exported artifact) materializes
# the real buffers, so the two can be cross-checked against its
# packed_bytes.


def packed_weight_rows(store, tolerance: float = 0.02) -> list[dict]:
    """Per-tensor measured vs analytic packed-weight bytes.

    ``store`` is any iterable of packed weights with ``tap``, ``elements``,
    ``bits`` and ``packed_bytes`` attributes (duck-typed so this module
    never imports the backend package).  The analytic estimate is the
    flat ``elements * bits / 8``; the measured figure adds bitstream
    padding to whole bytes plus the FC register pair, so a small positive
    excess is expected — rows diverging beyond ``tolerance`` (relative)
    are flagged, which would indicate the packer and the paper's memory
    model have drifted apart.
    """
    rows = []
    for weight in store:
        analytic = weight.elements * weight.bits / 8.0
        measured = float(weight.packed_bytes)
        divergence = (measured - analytic) / analytic if analytic else 0.0
        rows.append(
            {
                "tap": weight.tap,
                "elements": weight.elements,
                "bits": weight.bits,
                "analytic_bytes": analytic,
                "measured_bytes": measured,
                "divergence": round(divergence, 6),
                "flagged": abs(divergence) > tolerance,
            }
        )
    return rows


def measured_weight_summary(store, tolerance: float = 0.02) -> dict:
    """Model-level totals over :func:`packed_weight_rows`.

    ``reduction`` is float32 storage over measured packed storage — the
    number ``python -m repro memory --measured`` prints; ``flagged`` lists
    any taps whose measurement diverges from the analytic estimate.
    """
    rows = packed_weight_rows(store, tolerance=tolerance)
    analytic = sum(row["analytic_bytes"] for row in rows)
    measured = sum(row["measured_bytes"] for row in rows)
    fp32 = sum(row["elements"] * 4 for row in rows)
    return {
        "tensors": len(rows),
        "analytic_bytes": analytic,
        "measured_bytes": measured,
        "fp32_bytes": fp32,
        "reduction": round(fp32 / measured, 4) if measured else 0.0,
        "flagged": [row["tap"] for row in rows if row["flagged"]],
        "rows": rows,
    }
