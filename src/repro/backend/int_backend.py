"""Integer-native serving backend: batched QUA kernels, packed weights.

Runs a calibrated QUQ model the way the accelerator would — activations
quantize through the fused four-slot kernels into shifted integers, every
GEMM is an int64 matmul against QUB-packed weights decoded by LUT, and
requantization is the Eq. (6)-(7) shift/scale — while staying bit-exact
with the reference :class:`repro.hw.executor.ModelExecutor` (attested in
:mod:`repro.backend.attest` and in the perf benchmark).

Differences from the reference executor are purely mechanical:

* weights are encoded and bit-packed **once** at build time
  (:class:`~repro.backend.packed.PackedWeightStore`) instead of
  re-encoded from float on every call — the memory story;
* activation taps reuse precomputed :class:`~repro.backend.kernels.FusedEncoder`
  tables instead of re-deriving registers per tensor, and encode in one
  in-place pass per tap (registry ops ``qub.shifted`` / ``qub.store_load``,
  variant ``inplace``, :meth:`FusedEncoder.shifted_f64`): one float64
  codes buffer, one selector and a few boolean masks, and no int64 round
  trip on the store/load path — the latency story.  Most of the old
  encoder time was allocation, not arithmetic: on a 1 MB tap tensor
  (8x66x256 float64, one Xeon vCPU, NumPy 2.4) ``np.rint(x / d)`` took
  0.7-1.0 ms into fresh arrays and 0.14 ms into ``out=`` buffers,
  because page-faulting new memory costs 5-7x the arithmetic.  The
  rescale after each GEMM and the integer SFU quantize steps skip their
  extra copies too;
* the integer SFU variants dispatch through the kernel registry to the
  vectorized kernels of :mod:`repro.backend.sfu` (exact-equal to the
  :mod:`repro.hw.int_sfu` references, which ``REPRO_KERNELS=reference``
  restores).

The float special functions (LayerNorm / Softmax / GELU over decoded
values) replicate the executor's expressions operation for operation, so
``predict`` reproduces ``ModelExecutor.run`` to the last bit in both SFU
modes.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from ..autograd import Tensor, no_grad
from ..kernels import fused_encoder, get_kernel
from ..quant.qmodel import PTQPipeline
from ..quant.quq import QUQQuantizer
from .base import ServingBackend
from .kernels import FusedEncoder
from .packed import PackedWeightStore

__all__ = ["IntNativeBackend"]


class IntNativeBackend(ServingBackend):
    """Batched integer inference over a calibrated QUQ pipeline."""

    name = "int"

    def __init__(self, model, pipeline: PTQPipeline, bits: int | None = None,
                 integer_sfu: bool = False):
        if not pipeline.calibrated:
            raise RuntimeError("pipeline must be calibrated first")
        if pipeline.method != "quq":
            raise ValueError("the int backend requires a QUQ-calibrated pipeline")
        for attribute in ("patch_embed", "blocks", "cls_token", "pos_embed", "head"):
            if getattr(model, attribute, None) is None:
                raise ValueError(
                    "the int backend runs ViT/DeiT models; "
                    f"{type(model).__name__} has no {attribute!r}"
                )
        self.model = model
        self.pipeline = pipeline
        self.bits = pipeline.bits if bits is None else bits
        self.integer_sfu = integer_sfu
        self._prefix = model.config.name
        self._encoders: dict[str, FusedEncoder] = {}
        self.weights = PackedWeightStore.from_pipeline(model, pipeline, self.bits)
        self._batches = 0
        self._gemm_calls = 0
        self._store_load_calls = 0

    # ------------------------------------------------------------------
    def _encoder(self, tap: str) -> FusedEncoder:
        encoder = self._encoders.get(tap)
        if encoder is None:
            quantizer = self.pipeline.quantizer_for(f"{self._prefix}.{tap}")
            if not isinstance(quantizer, QUQQuantizer):
                raise TypeError(f"tap {tap} is not QUQ-quantized")
            # Shared process-wide memo (registry op ``qub.encode``'s fast
            # variant): replicas serving the same calibration reuse one
            # encoder's tables instead of rebuilding them per backend.
            encoder = fused_encoder(quantizer.params, self.bits)
            self._encoders[tap] = encoder
        return encoder

    def _record(self, recorder, tap: str, values: np.ndarray) -> None:
        if recorder is not None:
            # Pre-quantization values, same as the float path's tap hook,
            # so drift fingerprints compare like with like.
            recorder.record(f"{self._prefix}.{tap}", values)

    def _store_load(self, values: np.ndarray, tap: str, recorder) -> np.ndarray:
        self._record(recorder, tap, values)
        self._store_load_calls += 1
        return self._encoder(tap).store_load(values)

    def _linear(self, values: np.ndarray, tap_in: str, layer, recorder) -> np.ndarray:
        shape = values.shape
        flat = values.reshape(-1, shape[-1])
        self._record(recorder, tap_in, flat)
        encoder = self._encoder(tap_in)
        weight_tap = f"{self._prefix}.{tap_in.rsplit('.', 1)[0]}.weight"
        weight = self.weights[weight_tap]
        acc = get_kernel("gemm.int")(encoder.shifted(flat), weight.shifted())
        self._gemm_calls += 1
        # int64 -> float64 inside the multiply, as astype would; then in place.
        out = acc * (encoder.base_delta * weight.base_delta)
        if layer.bias is not None:
            out += layer.bias.data
        return out.reshape(*shape[:-1], -1)

    # ------------------------------------------------------------------
    # Integer SFU paths dispatch through the kernel registry (vectorized
    # kernels by default, scalar references under REPRO_KERNELS=reference;
    # exact-integer-equal either way).
    @staticmethod
    def _integer_sfu(op: str, values: np.ndarray, scale: float, **kwargs) -> np.ndarray:
        """``q_out * s_out`` of ``op`` on ``rint(values / scale)`` codes.

        The quotient is rounded straight into the int64 codes (one pass,
        no astype copy), and its buffer then receives the output.
        """
        buffer = values / scale
        codes = np.rint(buffer, out=np.empty(buffer.shape, np.int64), casting="unsafe")
        q_out, s_out = get_kernel(op)(codes, scale, **kwargs)
        return np.multiply(q_out, s_out, out=buffer)

    def _layernorm(self, values: np.ndarray, weight, bias) -> np.ndarray:
        if self.integer_sfu:
            return self._integer_sfu(
                "sfu.layernorm", values, 2.0**-14,
                weight=weight, bias=bias, out_bits=12,
            )
        mean = values.mean(axis=-1, keepdims=True)
        var = values.var(axis=-1, keepdims=True)
        return (values - mean) / np.sqrt(var + 1e-6) * weight + bias

    def _softmax(self, values: np.ndarray) -> np.ndarray:
        if self.integer_sfu:
            return self._integer_sfu("sfu.softmax", values, 2.0**-10, out_bits=16)
        shifted = values - values.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)

    def _gelu(self, values: np.ndarray) -> np.ndarray:
        if self.integer_sfu:
            return self._integer_sfu("sfu.gelu", values, 2.0**-10)
        return values * 0.5 * (1.0 + erf(values / np.sqrt(2.0)))

    # ------------------------------------------------------------------
    def _run_block(self, x: np.ndarray, block, index: int, recorder) -> np.ndarray:
        attn = block.attn
        b, n, c = x.shape
        heads, head_dim = attn.num_heads, attn.head_dim
        tap = f"blocks.{index}"

        x = self._store_load(x, f"{tap}.block_input", recorder)

        normed = self._layernorm(x, block.norm1.weight.data, block.norm1.bias.data)
        qkv = self._linear(normed, f"{tap}.attn.qkv.input", attn.qkv, recorder)
        qkv = qkv.reshape(b, n, 3, heads, head_dim).transpose(2, 0, 3, 1, 4)
        q, k, v = qkv[0], qkv[1], qkv[2]

        self._record(recorder, f"{tap}.attn.q", q)
        self._record(recorder, f"{tap}.attn.k", k)
        enc_q = self._encoder(f"{tap}.attn.q")
        enc_k = self._encoder(f"{tap}.attn.k")
        acc = get_kernel("gemm.int")(
            enc_q.shifted(q), np.swapaxes(enc_k.shifted(k), -1, -2)
        )
        self._gemm_calls += 1
        scores = acc * (enc_q.base_delta * enc_k.base_delta)
        scores *= attn.scale
        scores = self._store_load(scores, f"{tap}.attn.scores", recorder)

        probs = self._softmax(scores)
        self._record(recorder, f"{tap}.attn.probs", probs)
        self._record(recorder, f"{tap}.attn.v", v)
        enc_p = self._encoder(f"{tap}.attn.probs")
        enc_v = self._encoder(f"{tap}.attn.v")
        ctx_acc = get_kernel("gemm.int")(enc_p.shifted(probs), enc_v.shifted(v))
        self._gemm_calls += 1
        # Rescale straight into token-major layout (no transposed copy).
        ctx = np.empty((b, n, heads, head_dim))
        np.multiply(
            ctx_acc, enc_p.base_delta * enc_v.base_delta, out=ctx.transpose(0, 2, 1, 3)
        )
        ctx = ctx.reshape(b, n, c)

        attn_out = self._linear(ctx, f"{tap}.attn.proj.input", attn.proj, recorder)
        attn_out = self._store_load(attn_out, f"{tap}.attn_residual", recorder)
        x = x + attn_out

        x = self._store_load(x, f"{tap}.mid_input", recorder)
        normed = self._layernorm(x, block.norm2.weight.data, block.norm2.bias.data)
        hidden = self._linear(normed, f"{tap}.mlp.fc1.input", block.mlp.fc1, recorder)
        hidden = self._store_load(hidden, f"{tap}.mlp.act.input", recorder)
        hidden = self._gelu(hidden)
        mlp_out = self._linear(hidden, f"{tap}.mlp.fc2.input", block.mlp.fc2, recorder)
        mlp_out = self._store_load(mlp_out, f"{tap}.mlp_residual", recorder)
        return x + mlp_out

    def predict(self, images: np.ndarray, recorder=None) -> np.ndarray:
        """Logits for a batch; mirrors ``ModelExecutor.run`` exactly."""
        self._batches += 1
        model = self.model
        batch = np.asarray(images).shape[0]
        from ..autograd.ops import unfold_patches

        with no_grad():
            windows = unfold_patches(Tensor(images), model.patch_embed.patch_size).data
        tokens = self._linear(
            windows.astype(np.float64),
            "patch_embed.proj.input",
            model.patch_embed.proj,
            recorder,
        )

        specials = [np.broadcast_to(model.cls_token.data, (batch, 1, tokens.shape[-1]))]
        if model.dist_token is not None:
            specials.append(
                np.broadcast_to(model.dist_token.data, (batch, 1, tokens.shape[-1]))
            )
        tokens = np.concatenate(specials + [tokens], axis=1)
        tokens = tokens + model.pos_embed.data

        for index, block in enumerate(model.blocks):
            tokens = self._run_block(tokens, block, index, recorder)

        tokens = self._store_load(tokens, "final_norm_input", recorder)
        # LayerNorm is per token, and the heads read only the class (and
        # distillation) token: normalize just those rows.
        tokens = tokens[:, : 1 if model.head_dist is None else 2]
        mean = tokens.mean(axis=-1, keepdims=True)
        var = tokens.var(axis=-1, keepdims=True)
        normed = (tokens - mean) / np.sqrt(var + 1e-6)
        normed = normed * model.norm.weight.data + model.norm.bias.data

        logits = self._linear(normed[:, 0], "head.input", model.head, recorder)
        if model.head_dist is not None:
            dist = self._linear(normed[:, 1], "head_dist.input", model.head_dist, recorder)
            logits = 0.5 * (logits + dist)
        return logits

    # ------------------------------------------------------------------
    def memory_info(self) -> dict:
        return self.weights.summary()

    def counters(self) -> dict:
        return {
            "batches_total": self._batches,
            "int_gemm_calls": self._gemm_calls,
            "int_store_load_calls": self._store_load_calls,
        }
