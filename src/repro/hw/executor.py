"""Run a quantized transformer end to end on the QUA datapath.

The PTQ pipeline simulates quantization in float ("fake quantization");
these executors close the loop by running the *actual* hardware pipeline:
activations and weights travel as QUB bytes, every GEMM goes through the
integer PE array, the activations are requantized at each tap with the
calibrated QUQ parameters, and the special functions run on decoded
integers (optionally via the fully integer-only kernels of
:mod:`repro.hw.int_sfu`).

The step order and the float glue are the integer walk of
:mod:`repro.hw.walk`; :class:`QUADatapath` supplies its four datapath
operations on the behavioral QUA, where every fetch and accumulator is a
fault site.  The output is validated against the fake-quantized model in
the test suite — the demonstration that the QUB encoding and the Eq. (5)
integer arithmetic implement the algorithm the accuracy tables measure.
"""

from __future__ import annotations

import numpy as np

from ..nn.attention import TransformerBlock
from ..quant.qmodel import PTQPipeline
from .accelerator import QUA, EncodedTensor, encode_tensor
from .faults import BitFaultInjector
from .protect import ProtectionConfig, ProtectionStats
from .walk import check_walkable, run_block, run_model

__all__ = ["QUADatapath", "BlockExecutor", "ModelExecutor"]


class QUADatapath:
    """The walk's datapath on one :class:`QUA`.

    Every operand is re-encoded from float per call (weights included),
    every GEMM runs through :meth:`QUA.integer_gemm` and every reload
    through :meth:`QUA.sfu_load`, so each tap is a fault site named by
    its full tap (``"<model>.blocks.0.attn.scores"``), and the QUA's
    protection and ledger apply throughout.
    """

    def __init__(self, pipeline: PTQPipeline, bits: int, qua: QUA):
        self.pipeline = pipeline
        self.bits = bits
        self.qua = qua

    def _params(self, tap: str):
        return self.pipeline.quantizer_for(tap).params

    def _encode(self, values: np.ndarray, tap: str) -> EncodedTensor:
        # Poisoned floats (a corrupted SFU load upstream) must trip the
        # guard here, not be laundered into in-range QUB codes.
        values = self.qua.check_values(values, site=tap)
        return encode_tensor(values, self.bits, params=self._params(tap))

    def store_load(self, values: np.ndarray, tap: str) -> np.ndarray:
        return self.qua.sfu_load(self._encode(values, tap), site=tap)

    def linear(self, values: np.ndarray, name: str, layer) -> tuple[np.ndarray, float]:
        ex = self._encode(values, f"{name}.input")
        ew = encode_tensor(layer.weight.data, self.bits, params=self._params(f"{name}.weight"))
        acc = self.qua.integer_gemm(ex, ew, site=f"{name}.input")
        return acc, ex.base_delta * ew.base_delta

    def matmul(self, a, a_tap: str, b, b_tap: str, site: str) -> tuple[np.ndarray, float]:
        ea, eb = self._encode(a, a_tap), self._encode(b, b_tap)
        return self.qua.integer_gemm(ea, eb, site=site), ea.base_delta * eb.base_delta


class BlockExecutor:
    """Execute one :class:`TransformerBlock` through the QUA pipeline.

    Parameters
    ----------
    block:
        The float block whose weights are used.
    pipeline:
        A calibrated ``method="quq"``, full-coverage :class:`PTQPipeline`
        over the parent model; the executor reuses its fitted per-tap QUQ
        parameters.
    prefix:
        The block's tap prefix (e.g. ``"vit_mini_s.blocks.0"``).
    integer_sfu:
        Use the integer-only softmax/GELU/LayerNorm kernels instead of
        float special functions over decoded integers.
    faults / protection / stats:
        Optional soft-error injection (see :class:`BitFaultInjector`) and
        hardening config; ``stats`` is the shared fault-outcome ledger.
        With ``faults=None`` the executor is bit-exact with the fault-free
        model.
    """

    def __init__(
        self,
        block: TransformerBlock,
        pipeline: PTQPipeline,
        prefix: str,
        bits: int = 8,
        integer_sfu: bool = False,
        faults: BitFaultInjector | None = None,
        protection: ProtectionConfig | None = None,
        stats: ProtectionStats | None = None,
    ):
        check_walkable(pipeline)
        self.block = block
        self.prefix = prefix.rstrip(".")
        self.integer_sfu = integer_sfu
        self.qua = QUA(faults=faults, protection=protection, stats=stats)
        self.datapath = QUADatapath(pipeline, bits, self.qua)

    def run(self, x: np.ndarray) -> np.ndarray:
        """Execute the block; input/output are float arrays of token features."""
        return run_block(self.datapath, self.block, self.prefix, x, self.integer_sfu)


class ModelExecutor:
    """Run an entire ViT/DeiT through the QUA pipeline.

    The integer walk over one :class:`QUADatapath`: patch embedding,
    every block and the classifier heads run as integer GEMMs; only the
    token-bookkeeping glue (class-token concat, positional add, final
    LayerNorm) runs in the SFU domain.  This is the "full integer
    inference" demonstration: its Top-1 accuracy matches the
    fake-quantized model's within noise.  One QUA, so one protection
    ledger (``stats``), serves every GEMM and reload.
    """

    def __init__(
        self,
        model,
        pipeline: PTQPipeline,
        bits: int = 8,
        integer_sfu: bool = False,
        faults: BitFaultInjector | None = None,
        protection: ProtectionConfig | None = None,
        stats: ProtectionStats | None = None,
    ):
        check_walkable(pipeline, model)
        self.model = model
        self.integer_sfu = integer_sfu
        self.faults = faults
        self.qua = QUA(faults=faults, protection=protection, stats=stats)
        self.stats = self.qua.stats
        self.datapath = QUADatapath(pipeline, bits, self.qua)

    def run(self, images: np.ndarray) -> np.ndarray:
        """Classify ``images``; returns logits (class/dist heads averaged)."""
        return run_model(self.datapath, self.model, images, self.integer_sfu)
