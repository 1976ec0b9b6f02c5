"""The integer forward walk of a ViT/DeiT, written once for every datapath.

The QUA (Fig. 6, Eq. 5-7) runs a ViT as one integer dataflow.  This
module is that dataflow: :func:`run_block` and :func:`run_model` own the
step order and all float glue — the rescale after each GEMM, the bias
and residual adds, LayerNorm / Softmax / GELU in both SFU modes, and the
final LayerNorm on the class/distillation rows — and ask a *datapath*
for four things only:

``store_load(values, tap)``
    store ``values`` as QUBs under ``tap``'s parameters and reload them
    through the SFU path (decoded floats);
``linear(values, name, layer)``
    quantize ``values`` at ``{name}.input`` and multiply by the layer's
    weight, quantized at ``{name}.weight``;
``matmul(a, a_tap, b, b_tap, site)``
    quantize both operands and multiply them — the two attention
    matmuls ``q @ k^T`` and ``probs @ v``.

Each GEMM returns its int64 accumulator and the scale that turns it
back into real values.  Two datapaths implement the interface:
:class:`repro.hw.accelerator.QUA` (the behavioral accelerator: operands
re-encoded per call by its QU, fault sites, protection) and
:class:`repro.backend.int_backend.PackedDatapath`, the serving datapath
(per-tap encoders, packed weights).  Since both run this one walk, their
logits agree bit for bit whenever their accumulators and reloaded
values do.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from ..autograd import Tensor, no_grad
from ..autograd.ops import unfold_patches
from ..kernels import get_kernel

__all__ = ["check_walkable", "run_block", "run_model"]


def check_walkable(pipeline, model=None) -> None:
    """Raise unless the walk can run ``pipeline`` (over ``model``, if given).

    Every tap the walk visits needs a fitted QUQ quantizer: the pipeline
    must be calibrated (else ``RuntimeError``), QUQ and full coverage
    (else ``ValueError``).  The model walk runs ViT/DeiT only (else
    ``ValueError``).
    """
    if not pipeline.calibrated:
        raise RuntimeError("pipeline must be calibrated first")
    if pipeline.method != "quq":
        raise ValueError(f"the integer walk requires a QUQ pipeline, got {pipeline.method!r}")
    if pipeline.coverage != "full":
        raise ValueError(
            "the integer walk requires full coverage (every GEMM tap "
            f"quantized), got {pipeline.coverage!r}"
        )
    if model is None:
        return
    for part in ("patch_embed", "blocks", "cls_token", "pos_embed", "head"):
        if getattr(model, part, None) is None:
            raise ValueError(
                f"the integer walk runs ViT/DeiT models; {type(model).__name__} has no {part!r}"
            )


# ----------------------------------------------------------------------
# SFUs.  The integer variants dispatch through the kernel registry (ops
# ``sfu.layernorm`` / ``sfu.softmax`` / ``sfu.gelu``), so their calls are
# counted and can be timed like every other kernel.  The formula of
# :mod:`repro.hw.int_sfu` is each op's reference; the fast softmax and
# GELU gather from tables built for the 2**-10 scale used below.
def _integer_sfu(op: str, values: np.ndarray, scale: float, **kwargs) -> np.ndarray:
    """``q_out * s_out`` of ``op`` on ``rint(values / scale)`` codes.

    The quotient is rounded straight into the int64 codes (one pass, no
    astype copy), and its buffer then receives the output.
    """
    buffer = values / scale
    codes = np.rint(buffer, out=np.empty(buffer.shape, np.int64), casting="unsafe")
    q_out, s_out = get_kernel(op)(codes, scale, **kwargs)
    return np.multiply(q_out, s_out, out=buffer)


def _layernorm(values: np.ndarray, norm, integer_sfu: bool) -> np.ndarray:
    weight, bias = norm.weight.data, norm.bias.data
    if integer_sfu:
        return _integer_sfu(
            "sfu.layernorm", values, 2.0**-14, weight=weight, bias=bias, out_bits=12
        )
    mean = values.mean(axis=-1, keepdims=True)
    var = values.var(axis=-1, keepdims=True)
    return (values - mean) / np.sqrt(var + 1e-6) * weight + bias


def _softmax(values: np.ndarray, integer_sfu: bool) -> np.ndarray:
    if integer_sfu:
        return _integer_sfu("sfu.softmax", values, 2.0**-10, out_bits=16)
    e = np.exp(values - values.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _gelu(values: np.ndarray, integer_sfu: bool) -> np.ndarray:
    if integer_sfu:
        return _integer_sfu("sfu.gelu", values, 2.0**-10)
    return values * 0.5 * (1.0 + erf(values / np.sqrt(2.0)))


# ----------------------------------------------------------------------
def _linear(datapath, values: np.ndarray, name: str, layer) -> np.ndarray:
    """Integer GEMM over the last axis, rescaled, plus the float bias."""
    shape = values.shape
    acc, scale = datapath.linear(values.reshape(-1, shape[-1]), name, layer)
    out = acc * scale  # int64 -> float64 inside the multiply
    if layer.bias is not None:
        out += layer.bias.data
    return out.reshape(*shape[:-1], -1)


def run_block(datapath, block, tap: str, x: np.ndarray, integer_sfu: bool = False) -> np.ndarray:
    """One transformer block; ``tap`` is its prefix (``"<model>.blocks.<i>"``)."""
    attn = block.attn
    b, n, c = x.shape
    heads, head_dim = attn.num_heads, attn.head_dim

    # Residual stream enters the block quantized (stored as QUBs).
    x = datapath.store_load(x, f"{tap}.block_input")

    # --- attention branch ---
    normed = _layernorm(x, block.norm1, integer_sfu)
    qkv = _linear(datapath, normed, f"{tap}.attn.qkv", attn.qkv)
    q, k, v = qkv.reshape(b, n, 3, heads, head_dim).transpose(2, 0, 3, 1, 4)
    acc, scale = datapath.matmul(
        q, f"{tap}.attn.q", np.swapaxes(k, -1, -2), f"{tap}.attn.k", f"{tap}.attn.scores"
    )
    scores = acc * scale
    scores *= attn.scale
    probs = _softmax(datapath.store_load(scores, f"{tap}.attn.scores"), integer_sfu)
    acc, scale = datapath.matmul(
        probs, f"{tap}.attn.probs", v, f"{tap}.attn.v", f"{tap}.attn.context"
    )
    # Rescale straight into token-major layout (no transposed copy).
    ctx = np.empty((b, n, heads, head_dim))
    np.multiply(acc, scale, out=ctx.transpose(0, 2, 1, 3))
    attn_out = _linear(datapath, ctx.reshape(b, n, c), f"{tap}.attn.proj", attn.proj)
    x = x + datapath.store_load(attn_out, f"{tap}.attn_residual")

    # --- MLP branch ---
    x = datapath.store_load(x, f"{tap}.mid_input")
    normed = _layernorm(x, block.norm2, integer_sfu)
    hidden = _linear(datapath, normed, f"{tap}.mlp.fc1", block.mlp.fc1)
    hidden = _gelu(datapath.store_load(hidden, f"{tap}.mlp.act.input"), integer_sfu)
    mlp_out = _linear(datapath, hidden, f"{tap}.mlp.fc2", block.mlp.fc2)
    return x + datapath.store_load(mlp_out, f"{tap}.mlp_residual")


def run_model(datapath, model, images: np.ndarray, integer_sfu: bool = False) -> np.ndarray:
    """Logits of a ViT/DeiT for ``images`` (class/distillation heads averaged)."""
    name = model.config.name
    # Patch extraction is a pure reshape; the projection is an integer GEMM.
    with no_grad():
        windows = unfold_patches(Tensor(images), model.patch_embed.patch_size).data
    tokens = _linear(
        datapath, windows.astype(np.float64), f"{name}.patch_embed.proj", model.patch_embed.proj
    )

    # Token bookkeeping in the SFU domain.
    specials = [t for t in (model.cls_token, model.dist_token) if t is not None]
    shape = (tokens.shape[0], 1, tokens.shape[-1])
    tokens = np.concatenate([np.broadcast_to(t.data, shape) for t in specials] + [tokens], axis=1)
    tokens = tokens + model.pos_embed.data

    for index, block in enumerate(model.blocks):
        tokens = run_block(datapath, block, f"{name}.blocks.{index}", tokens, integer_sfu)

    # The final norm input is a stored tensor.  LayerNorm (float in both
    # SFU modes) is per token and the heads read only the class (and
    # distillation) rows, so just those rows are normalized.
    heads = [head for head in ("head", "head_dist") if getattr(model, head) is not None]
    tokens = datapath.store_load(tokens, f"{name}.final_norm_input")[:, : len(heads)]
    normed = _layernorm(tokens, model.norm, False)
    logits = [
        _linear(datapath, normed[:, row], f"{name}.{head}", getattr(model, head))
        for row, head in enumerate(heads)
    ]
    return logits[0] if len(logits) == 1 else 0.5 * (logits[0] + logits[1])
