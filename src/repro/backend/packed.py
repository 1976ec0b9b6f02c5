"""QUB-packed weight storage: the one QUB weight format, in memory and on disk.

The QUA simulator keeps QUB words one-per-``uint8``/``uint16`` for
indexing convenience, so a 4-bit model still occupies a byte per weight.
This module stores each weight tensor as a *dense bitstream*
(:func:`repro.quant.qub.pack_qub_words`): ``ceil(elements * bits / 8)``
bytes — the real memory footprint the paper's Section 2 argues for (8x
smaller than float32 at 4 bits).

**Side information.**  Per weight tensor the accelerator needs, besides
the bitstream, only the constant pair of FC register bytes (Fig. 2), so
:attr:`PackedWeight.packed_bytes` is the bitstream plus 2 bytes: the one
byte count the int backend's snapshot, ``repro export`` and ``repro
memory --measured`` report.  The registers, the base delta and the
decode LUT are all functions of the tap's hardware-legal QUQ parameters,
and the shape lives with the host's descriptor, so none of them is
stored beside the bitstream.

A :class:`PackedWeightStore` is built once, at model load/calibration
time, from the pipeline's fitted weight quantizers
(:meth:`PackedWeightStore.from_pipeline`); per batch the int backend
unpacks a buffer and decodes it through the weight's own LUT
(:func:`~repro.backend.kernels.decode_lut`, built once when the weight is
packed) into the shifted PE-array operands.  Packing is lossless, so the
unpacked words are identical to what
:func:`repro.hw.accelerator.encode_tensor` would produce from the float
weights — the foundation of the backend's bit-exactness guarantee.

On disk (:meth:`PackedWeightStore.save`) a store is the pipeline's
checksummed quantizer-state archive (:mod:`repro.quant.serialize`) with
every weight's bitstream and shape added under the same checksum: the
deployable artifact, which also warm-starts a serving registry entry
when copied to its :meth:`~repro.serve.registry.ModelRegistry.state_path`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..kernels import get_kernel
from ..quant.observers import TapKind, classify_tap
from ..quant.params import QUQParams
from ..quant.qub import FCRegisters, legalize_for_hardware, quantize_encode, unpack_qub_words
from ..quant.serialize import load_quantizer_states
from .kernels import decode_lut

__all__ = ["PackedWeight", "PackedWeightStore"]

#: The FC register pair, the only side information a packed weight counts.
_REGISTER_BYTES = 2


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

    @classmethod
    def from_buffer(
        cls, tap: str, shape, bits: int, buffer: np.ndarray, params: QUQParams
    ) -> "PackedWeight":
        """Wrap a ``bits``-wide bitstream encoded under ``params``.

        The registers and base delta are those of the hardware-legal
        params, the ones :func:`~repro.quant.qub.quantize_encode` encodes
        under.
        """
        params = legalize_for_hardware(params)
        registers = FCRegisters.from_params(params)
        shape = tuple(int(n) for n in shape)
        lut = decode_lut(registers, bits)
        return cls(tap, shape, bits, buffer, registers, params.base_delta, lut)

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
    """All of one model's QUQ weights, packed once at build time."""

    def __init__(self, weights: dict[str, PackedWeight], bits: int):
        self.weights = weights
        self.bits = bits

    @classmethod
    def from_pipeline(cls, model, pipeline, bits: int) -> "PackedWeightStore":
        """Pack every weight tap ``pipeline`` fitted, in ``model``'s
        parameter order, as ``bits``-wide QUB words.

        Uses the exact reference encode path
        (:func:`~repro.quant.qub.quantize_encode`), so the packed words
        match what :class:`repro.hw.accelerator.QUA` re-encodes from float
        on every call: the one place the two datapaths of the integer
        walk could disagree on a weight.  On a ViT/DeiT these taps are
        exactly the walk's GEMMs.  Raises :class:`ValueError` unless the
        pipeline quantizes with QUQ.
        """
        if pipeline.method != "quq":
            raise ValueError(
                f"QUB packing needs QUQ parameters, not method {pipeline.method!r}"
            )
        taps = {
            tap.split(".", 1)[1]: tap
            for tap in pipeline.tap_names()
            if classify_tap(tap) is TapKind.WEIGHT
        }
        weights: dict[str, PackedWeight] = {}
        for name, param in model.named_parameters():
            tap = taps.get(name)
            if tap is None:
                continue
            params = pipeline.quantizer_for(tap).params
            qubs, _, _ = quantize_encode(param.data, params, bits)
            buffer = get_kernel("qub.pack")(qubs, bits)
            weights[tap] = PackedWeight.from_buffer(tap, qubs.shape, bits, buffer, params)
        return cls(weights, bits)

    def save(self, pipeline, path: str | Path) -> Path:
        """Write ``pipeline``'s quantizer-state archive with every weight's
        bitstream and shape added under the same checksum.

        ``pipeline`` must be the one the store was packed from: its QUQ
        parameters are what :meth:`load` decodes the bitstreams with.
        """
        if self.bits != pipeline.bits:  # load() reads the width from the header
            raise ValueError(f"{self.bits}-bit store, {pipeline.bits}-bit pipeline")
        arrays: dict[str, np.ndarray] = {}
        for weight in self:
            arrays[f"qub:{weight.tap}"] = weight.buffer
            arrays[f"shape:{weight.tap}"] = np.asarray(weight.shape, dtype=np.int64)
        return pipeline.save_quantizers(path, arrays=arrays)

    @classmethod
    def load(cls, path: str | Path) -> tuple[dict, dict, "PackedWeightStore"]:
        """Read a :meth:`save` archive: ``(header, tap -> quantizer, store)``.

        The checksum covers the bitstreams too, so a flipped bit anywhere
        raises :class:`~repro.quant.serialize.ChecksumError`.
        """
        header, quantizers, arrays = load_quantizer_states(path, require_checksum=True)
        bits = int(header["bits"])
        weights: dict[str, PackedWeight] = {}
        for key, buffer in arrays.items():
            if key.startswith("qub:"):
                tap = key[len("qub:"):]
                weights[tap] = PackedWeight.from_buffer(
                    tap, arrays[f"shape:{tap}"], bits, buffer, quantizers[tap].params
                )
        return header, quantizers, cls(weights, bits)

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
