"""QUB-packed weight storage: the int backend's at-rest weight format.

The QUA simulator keeps QUB words one-per-``uint8``/``uint16`` for
indexing convenience, so a 4-bit model still occupies a byte per weight.
This module stores each weight tensor as a *dense bitstream*
(:func:`repro.quant.qub.pack_qub_words`): ``ceil(elements * bits / 8)``
bytes plus the two FC register bytes — the real memory footprint the
paper's Section 2 argues for (8x smaller than float32 at 4 bits).

A :class:`PackedWeightStore` is built once, at model load/calibration
time, from the pipeline's fitted weight quantizers; per batch the int
backend unpacks a buffer and decodes it through the weight's own LUT
(:func:`~repro.backend.kernels.decode_lut`, built once when the weight is
packed) into the shifted PE-array operands.  Packing is lossless, so the
unpacked words are identical to what
:func:`repro.hw.accelerator.encode_tensor` would produce from the float
weights — the foundation of the backend's bit-exactness guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels import get_kernel
from ..quant.qub import FCRegisters, unpack_qub_words
from .kernels import decode_lut

__all__ = ["PackedWeight", "PackedWeightStore", "iter_linear_weight_taps"]

#: Per-tensor metadata stored alongside the bitstream, in bytes: the two
#: FC register bytes (the base delta and shape live with the host struct,
#: as they would in a descriptor table).
_REGISTER_BYTES = 2


def iter_linear_weight_taps(model):
    """Yield ``(weight_tap_name, linear_layer)`` for every GEMM the
    integer datapath executes on a ViT/DeiT, in execution order."""
    prefix = model.config.name
    yield f"{prefix}.patch_embed.proj.weight", model.patch_embed.proj
    for index, block in enumerate(model.blocks):
        base = f"{prefix}.blocks.{index}"
        yield f"{base}.attn.qkv.weight", block.attn.qkv
        yield f"{base}.attn.proj.weight", block.attn.proj
        yield f"{base}.mlp.fc1.weight", block.mlp.fc1
        yield f"{base}.mlp.fc2.weight", block.mlp.fc2
    yield f"{prefix}.head.weight", model.head
    if getattr(model, "head_dist", None) is not None:
        yield f"{prefix}.head_dist.weight", model.head_dist


@dataclass
class PackedWeight:
    """One weight tensor in packed wire format plus its decode state."""

    tap: str
    shape: tuple[int, ...]
    bits: int
    buffer: np.ndarray  # uint8 dense bitstream
    registers: FCRegisters
    base_delta: float
    lut: np.ndarray  # int64 (2^bits,): QUB word -> D << n_sh

    @property
    def elements(self) -> int:
        return int(np.prod(self.shape))

    @property
    def packed_bytes(self) -> int:
        """Measured storage: the bitstream plus the FC register pair."""
        return int(self.buffer.nbytes) + _REGISTER_BYTES

    @property
    def float_bytes(self) -> int:
        """What the same tensor costs as float32."""
        return self.elements * 4

    def words(self) -> np.ndarray:
        """Unpack the bitstream back into per-element QUB words."""
        return unpack_qub_words(self.buffer, self.bits, self.elements).reshape(
            self.shape
        )

    def shifted(self) -> np.ndarray:
        """PE-array operand ``D << n_sh`` (int64), one gather per batch."""
        return self.lut[self.words().astype(np.intp)]

    def to_float(self) -> np.ndarray:
        """Dequantized values (the SFU load view of the weights)."""
        return self.shifted().astype(np.float64) * self.base_delta


class PackedWeightStore:
    """All of one model's GEMM weights, packed once at build time."""

    def __init__(self, weights: dict[str, PackedWeight], bits: int):
        self.weights = weights
        self.bits = bits

    @classmethod
    def from_pipeline(cls, model, pipeline, bits: int) -> "PackedWeightStore":
        """Pack every linear weight under the pipeline's fitted QUQ params.

        Uses the exact reference encode path (``encode_tensor``), so the
        packed words match what :class:`repro.hw.accelerator.QUA`
        re-encodes from float on every call: the one place the two
        datapaths of the integer walk could disagree on a weight.
        """
        from ..hw.accelerator import encode_tensor

        weights: dict[str, PackedWeight] = {}
        for tap, layer in iter_linear_weight_taps(model):
            params = pipeline.quantizer_for(tap).params
            encoded = encode_tensor(layer.weight.data, bits, params=params)
            weights[tap] = cls._pack_encoded(tap, encoded)
        return cls(weights, bits)

    @classmethod
    def from_model(cls, model, bits: int) -> "PackedWeightStore":
        """Pack weights with per-tensor parameters fitted on the spot.

        Calibration-free: weights are static, so progressive relaxation
        runs directly on each tensor.  Used by the memory-table tooling
        to measure packed footprints without a calibrated pipeline.
        """
        from ..hw.accelerator import encode_tensor

        weights: dict[str, PackedWeight] = {}
        for tap, layer in iter_linear_weight_taps(model):
            encoded = encode_tensor(layer.weight.data, bits)
            weights[tap] = cls._pack_encoded(tap, encoded)
        return cls(weights, bits)

    @staticmethod
    def _pack_encoded(tap: str, encoded) -> PackedWeight:
        return PackedWeight(
            tap=tap,
            shape=tuple(encoded.qubs.shape),
            bits=encoded.bits,
            buffer=get_kernel("qub.pack")(encoded.qubs, encoded.bits),
            registers=encoded.registers,
            base_delta=encoded.base_delta,
            lut=decode_lut(encoded.registers, encoded.bits),
        )

    # ------------------------------------------------------------------
    def __getitem__(self, tap: str) -> PackedWeight:
        return self.weights[tap]

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights.values())

    @property
    def packed_bytes(self) -> int:
        return sum(w.packed_bytes for w in self.weights.values())

    @property
    def float_bytes(self) -> int:
        return sum(w.float_bytes for w in self.weights.values())

    @property
    def reduction(self) -> float:
        """Float32 bytes over packed bytes (>= 2 required at 4 bits)."""
        packed = self.packed_bytes
        return self.float_bytes / packed if packed else 0.0

    def summary(self) -> dict:
        """JSON-serializable accounting for snapshots and benchmarks."""
        return {
            "bits": self.bits,
            "tensors": len(self.weights),
            "packed_weight_bytes": self.packed_bytes,
            "float_weight_bytes": self.float_bytes,
            "reduction": round(self.reduction, 4),
        }
