"""Export a QUQ-quantized model as a deployable artifact.

Packs every weight tensor into its wire format — the dense QUB
bitstream (``ceil(n * bits / 8)`` bytes through the ``qub.pack`` kernel,
the at-rest format :class:`~repro.backend.packed.PackedWeightStore`
holds too) plus the two FC-register bytes and one base scale factor per
tensor — and records the fitted activation parameters the accelerator's
quantization units need.  This is the storage story behind Figure 2: per
tensor, QUQ's side information is constant (10 bytes), unlike row-wise
or index-table schemes.

The artifact is a single ``.npz``; :func:`load_quantized` unpacks the
weight QUBs and restores the parameter tables, and
:func:`deployment_report` summarizes the achieved compression against
FP32.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..kernels import get_kernel
from .observers import TapKind, classify_tap
from .params import QUQParams, Subrange, SubrangeSpec
from .qmodel import PTQPipeline
from .qub import FCRegisters, encode, legalize_for_hardware, unpack_qub_words
from .quq import QUQQuantizer, quantize_with_params

__all__ = ["export_quantized", "load_quantized", "deployment_report", "QuantizedArtifact"]

_SUBRANGE_ORDER = (Subrange.F_NEG, Subrange.F_POS, Subrange.C_NEG, Subrange.C_POS)


def _pack_params(params: QUQParams) -> np.ndarray:
    """Serialize QUQParams into a flat float64 record.

    Layout: ``[bits, delta_F-, levels_F-, ..., delta_C+, levels_C+]`` with
    merged subranges stored as ``(0, 0)``.
    """
    record = [float(params.bits)]
    for subrange in _SUBRANGE_ORDER:
        spec = params.spec(subrange)
        record += [spec.delta, float(spec.levels)] if spec else [0.0, 0.0]
    return np.asarray(record, dtype=np.float64)


def _unpack_params(record: np.ndarray) -> QUQParams:
    bits = int(record[0])
    specs = []
    for index in range(4):
        delta, levels = record[1 + 2 * index], record[2 + 2 * index]
        specs.append(SubrangeSpec(float(delta), int(levels)) if levels else None)
    return QUQParams(bits, *specs)


@dataclass
class QuantizedArtifact:
    """In-memory form of an exported model."""

    bits: int
    #: weight tap -> (QUB words in the weight's shape, fine register,
    #: coarse register, params); the file holds the words bit-packed
    weights: dict[str, tuple[np.ndarray, int, int, QUQParams]]
    #: activation tap -> params (for the accelerator's QUs)
    activations: dict[str, QUQParams]

    def weight_values(self, tap: str) -> np.ndarray:
        """Decode one weight tensor back to float (for verification)."""
        from .qub import SpaceRegister, decode

        qubs, fine, coarse, params = self.weights[tap]
        registers = FCRegisters(SpaceRegister.unpack(fine), SpaceRegister.unpack(coarse))
        d, n_sh = decode(qubs, registers, params.bits)
        return (d.astype(np.float64) * (2.0**n_sh) * params.base_delta).astype(
            np.float32
        )

    def payload_bytes(self) -> int:
        """Total artifact payload: the QUB bitstreams plus per-tensor side
        information."""
        total = 0
        for qubs, _, _, params in self.weights.values():
            bitstream = (qubs.size * params.bits + 7) // 8
            total += bitstream + 2 + 8  # FC registers + base delta
        total += len(self.activations) * (2 + 8)
        return total


def export_quantized(pipeline: PTQPipeline, path: str | Path) -> QuantizedArtifact:
    """Export a calibrated ``method="quq"`` pipeline to ``path`` (.npz)."""
    if not pipeline.calibrated:
        raise RuntimeError("calibrate the pipeline before exporting")
    if pipeline.method != "quq":
        raise ValueError("export is defined for QUQ-quantized models")

    parameters = dict(pipeline.model.named_parameters())
    weights: dict[str, tuple[np.ndarray, int, int, QUQParams]] = {}
    activations: dict[str, QUQParams] = {}
    payload: dict[str, np.ndarray] = {"__bits__": np.array([pipeline.bits])}

    for name, quantizer in pipeline.env.quantizers.items():
        if not isinstance(quantizer, QUQQuantizer):
            raise TypeError(f"non-QUQ quantizer at tap {name}")
        params = legalize_for_hardware(quantizer.params)
        if classify_tap(name) is TapKind.WEIGHT:
            param_name = name.split(".", 1)[1] if "." in name else name
            data = parameters[param_name].data
            qubs, registers = encode(quantize_with_params(data, params))
            weights[name] = (qubs, registers.fine.pack(), registers.coarse.pack(), params)
            payload[f"w:{name}"] = get_kernel("qub.pack")(qubs, params.bits)
            payload[f"wr:{name}"] = np.array(
                [registers.fine.pack(), registers.coarse.pack()], dtype=np.uint8
            )
            payload[f"wp:{name}"] = _pack_params(params)
            payload[f"ws:{name}"] = np.array(data.shape, dtype=np.int64)
        else:
            activations[name] = params
            payload[f"ap:{name}"] = _pack_params(params)

    np.savez_compressed(Path(path), **payload)
    return QuantizedArtifact(pipeline.bits, weights, activations)


def load_quantized(path: str | Path) -> QuantizedArtifact:
    """Load an artifact produced by :func:`export_quantized`."""
    payload = np.load(Path(path))
    bits = int(payload["__bits__"][0])
    weights = {}
    activations = {}
    for key in payload.files:
        if key.startswith("w:"):
            name = key[2:]
            registers = payload[f"wr:{name}"]
            params = _unpack_params(payload[f"wp:{name}"])
            shape = tuple(payload[f"ws:{name}"])
            words = unpack_qub_words(payload[key], params.bits, int(np.prod(shape)))
            weights[name] = (
                words.reshape(shape),
                int(registers[0]),
                int(registers[1]),
                params,
            )
        elif key.startswith("ap:"):
            activations[key[3:]] = _unpack_params(payload[key])
    return QuantizedArtifact(bits, weights, activations)


def deployment_report(pipeline: PTQPipeline) -> dict[str, float]:
    """Compression summary of a calibrated QUQ pipeline (no file written)."""
    parameters = dict(pipeline.model.named_parameters())
    fp32_bytes = sum(p.data.nbytes for p in parameters.values())
    weight_elements = 0
    for name in pipeline.tap_names():
        if classify_tap(name) is TapKind.WEIGHT:
            param_name = name.split(".", 1)[1] if "." in name else name
            weight_elements += parameters[param_name].data.size
    quantized_bytes = weight_elements * pipeline.bits / 8.0
    side_bytes = len(pipeline.tap_names()) * (2 + 8)
    return {
        "fp32_megabytes": fp32_bytes / 2**20,
        "quantized_megabytes": (quantized_bytes + side_bytes) / 2**20,
        "compression": fp32_bytes / max(quantized_bytes + side_bytes, 1),
        "side_info_bytes": float(side_bytes),
    }
