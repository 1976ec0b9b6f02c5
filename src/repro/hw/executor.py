"""Run a quantized transformer end to end on the QUA datapath.

The PTQ pipeline simulates quantization in float ("fake quantization");
these executors close the loop by running the *actual* hardware pipeline:
activations and weights travel as QUB bytes, every GEMM goes through the
integer PE array, the activations are requantized at each tap with the
calibrated QUQ parameters, and the special functions run on decoded
integers (optionally via the fully integer-only kernels of
:mod:`repro.hw.int_sfu`).

The step order and the float glue are the integer walk of
:mod:`repro.hw.walk`; one :class:`~repro.hw.accelerator.QUA` built over
the pipeline is its datapath, where every fetch and accumulator is a
fault site.  The output is validated against the fake-quantized model in
the test suite — the demonstration that the QUB encoding and the Eq. (5)
integer arithmetic implement the algorithm the accuracy tables measure.
"""

from __future__ import annotations

import numpy as np

from ..nn.attention import TransformerBlock
from ..quant.qmodel import PTQPipeline
from .accelerator import QUA
from .faults import BitFaultInjector
from .protect import ProtectionConfig, ProtectionStats
from .walk import check_walkable, run_block, run_model

__all__ = ["BlockExecutor", "ModelExecutor"]


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
        self.qua = QUA(pipeline, bits, faults, protection, stats)

    def run(self, x: np.ndarray) -> np.ndarray:
        """Execute the block; input/output are float arrays of token features."""
        return run_block(self.qua, self.block, self.prefix, x, self.integer_sfu)


class ModelExecutor:
    """Run an entire ViT/DeiT through the QUA pipeline.

    The integer walk over one :class:`QUA`: patch embedding, every block
    and the classifier heads run as integer GEMMs; only the
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
        self.qua = QUA(pipeline, bits, faults, protection, stats)
        self.stats = self.qua.stats

    def run(self, images: np.ndarray) -> np.ndarray:
        """Classify ``images``; returns logits (class/dist heads averaged)."""
        return run_model(self.qua, self.model, images, self.integer_sfu)
