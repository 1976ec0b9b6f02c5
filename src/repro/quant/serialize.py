"""Fitted-quantizer serialization for warm-starting the PTQ pipeline.

Calibration is the expensive step of the PTQ protocol (forward passes over
the calibration set plus the progressive relaxation / MSE searches per
tap).  The fitted result, however, is tiny: a handful of scale factors per
tensor.  This module captures that state so a pipeline can be restored
without re-running calibration — the mechanism behind the serve registry's
warm starts (:mod:`repro.serve.registry`).

Format: one ``.npz`` holding a JSON metadata record (method/bits/coverage
plus each tap's quantizer class and scalar parameters) and one array entry
per array-valued parameter (e.g. row-wise deltas, a QUQ tap's
:func:`_pack_params` record).  Scalars ride in the JSON — Python's float
repr round-trips bit-exactly — so a reloaded quantizer's
``quantize()``/``fake_quantize()`` outputs match the original to the last
bit (tested).  A caller may add its own arrays under the same checksum;
:meth:`repro.backend.packed.PackedWeightStore.save` adds each weight's QUB
bitstream, which makes the archive the deployable QUQ artifact.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .base import Quantizer
from .baselines.biscaled import BiScaledQuantizer
from .baselines.fqvit import Log2Quantizer
from .baselines.ptq4vit import TwinUniformQuantizer
from .params import QUQParams, Subrange, SubrangeSpec
from .quq import QUQQuantizer
from .uniform import AsymmetricUniformQuantizer, RowwiseUniformQuantizer, UniformQuantizer

__all__ = [
    "STATE_VERSION",
    "ChecksumError",
    "quantizer_state",
    "quantizer_from_state",
    "save_quantizer_states",
    "load_quantizer_states",
]

STATE_VERSION = 1


_SUBRANGE_ORDER = (Subrange.F_NEG, Subrange.F_POS, Subrange.C_NEG, Subrange.C_POS)


class ChecksumError(ValueError):
    """Archive contents do not match the checksum recorded at save time."""


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


def _payload_checksum(arrays: dict[str, np.ndarray], record: dict) -> str:
    """SHA-256 over every array payload plus the canonical JSON record.

    The record is hashed without its ``checksum`` field, dumped with
    sorted keys so the digest is stable across save/load round trips
    (Python's float repr round-trips exactly, so re-dumping the parsed
    record reproduces the original byte string).
    """
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(b"\x00")
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    stripped = {key: value for key, value in record.items() if key != "checksum"}
    digest.update(json.dumps(stripped, sort_keys=True).encode())
    return digest.hexdigest()

#: Scalar attributes captured per quantizer class (bits is handled
#: separately; array-valued state is handled explicitly below).
_SCALAR_FIELDS: dict[type, tuple[str, ...]] = {
    UniformQuantizer: ("percentile", "delta"),
    AsymmetricUniformQuantizer: ("delta", "zero_point"),
    RowwiseUniformQuantizer: ("axis", "_row_count", "_elements"),
    BiScaledQuantizer: ("delta_bulk", "delta_outlier", "threshold", "_outlier_fraction"),
    Log2Quantizer: (),
    TwinUniformQuantizer: ("split", "delta_small", "delta_large"),
    QUQQuantizer: (),
}

_CLASS_BY_NAME = {cls.__name__: cls for cls in _SCALAR_FIELDS} | {
    QUQQuantizer.__name__: QUQQuantizer
}


def quantizer_state(quantizer: Quantizer) -> tuple[dict, dict[str, np.ndarray]]:
    """Split a fitted quantizer into ``(json_meta, arrays)``."""
    cls = type(quantizer)
    if cls not in _SCALAR_FIELDS:
        raise TypeError(f"cannot serialize quantizer type {cls.__name__}")
    quantizer._require_fitted()
    meta: dict = {"class": cls.__name__, "bits": quantizer.bits}
    arrays: dict[str, np.ndarray] = {}
    for field in _SCALAR_FIELDS[cls]:
        meta[field] = getattr(quantizer, field)
    if isinstance(quantizer, QUQQuantizer):
        arrays["params"] = _pack_params(quantizer.params)
    elif isinstance(quantizer, RowwiseUniformQuantizer):
        arrays["deltas"] = np.asarray(quantizer.deltas, dtype=np.float64)
    return meta, arrays


def quantizer_from_state(meta: dict, arrays: dict[str, np.ndarray]) -> Quantizer:
    """Rebuild a fitted quantizer from :func:`quantizer_state` output."""
    cls = _CLASS_BY_NAME.get(meta.get("class", ""))
    if cls is None:
        raise ValueError(f"unknown quantizer class {meta.get('class')!r}")
    if cls is TwinUniformQuantizer:
        quantizer = cls(int(meta["bits"]), split=meta["split"])
    elif cls is RowwiseUniformQuantizer:
        quantizer = cls(int(meta["bits"]), axis=int(meta["axis"]))
    else:
        quantizer = cls(int(meta["bits"]))
    for field in _SCALAR_FIELDS[cls]:
        if field in ("split", "axis"):
            continue  # constructor arguments, already applied
        setattr(quantizer, field, meta[field])
    if cls is QUQQuantizer:
        quantizer.params = _unpack_params(np.asarray(arrays["params"]))
    elif cls is RowwiseUniformQuantizer:
        quantizer.deltas = np.asarray(arrays["deltas"], dtype=np.float64)
    # Marking fitted advances Quantizer.param_version, so any weight-cache
    # entry computed against a previous incarnation of this tap can never
    # be replayed for the restored parameters.
    quantizer.fitted = True
    return quantizer


def save_quantizer_states(
    quantizers: dict[str, Quantizer],
    path: str | Path,
    header: dict | None = None,
    arrays: dict[str, np.ndarray] | None = None,
) -> Path:
    """Write fitted quantizers (tap -> quantizer) as an ``.npz`` archive to
    ``path`` itself, whatever its suffix.

    ``header`` carries caller context (method/bits/coverage for the PTQ
    pipeline) and is returned verbatim by :func:`load_quantizer_states`.
    ``arrays`` (name -> array) are stored alongside, under the same
    checksum, and come back as the third item of
    :func:`load_quantizer_states`.
    """
    path = Path(path)
    taps: dict[str, dict] = {}
    payload: dict[str, np.ndarray] = {}
    for name, quantizer in quantizers.items():
        meta, state = quantizer_state(quantizer)
        taps[name] = meta
        for field, array in state.items():
            payload[f"a:{name}:{field}"] = array
    for name, array in (arrays or {}).items():
        payload[f"x:{name}"] = np.asarray(array)
    record = {"version": STATE_VERSION, "header": header or {}, "taps": taps}
    record["checksum"] = _payload_checksum(payload, record)
    payload["__meta__"] = np.array(json.dumps(record))
    path.parent.mkdir(parents=True, exist_ok=True)
    # Through an open file: given a bare path, np.savez appends ".npz".
    with open(path, "wb") as handle:
        np.savez(handle, **payload)
    return path


def load_quantizer_states(
    path: str | Path,
) -> tuple[dict, dict[str, Quantizer], dict[str, np.ndarray]]:
    """Load ``(header, tap -> quantizer, arrays)`` written by
    :func:`save_quantizer_states`; ``arrays`` are the caller's, in save
    order, verified with everything else.

    An archive without a checksum (written before checksums existed)
    raises :class:`ChecksumError` like a corrupt one: its corruption would
    be undetectable, so "unverifiable" counts as "corrupt".
    """
    with np.load(Path(path)) as archive:
        payload = {name: archive[name] for name in archive.files}
    if "__meta__" not in payload:
        raise ValueError(f"{path} is not a quantizer-state archive (no __meta__)")
    record = json.loads(str(payload.pop("__meta__")[()]))
    if record.get("version") != STATE_VERSION:
        raise ValueError(
            f"unsupported quantizer-state version {record.get('version')!r} "
            f"(expected {STATE_VERSION})"
        )
    recorded = record.get("checksum")
    if recorded is None:
        raise ChecksumError(
            f"{path}: quantizer-state archive has no checksum (written "
            f"before checksums existed) — corruption would be "
            f"undetectable; recalibrate to upgrade the artifact"
        )
    actual = _payload_checksum(payload, record)
    if actual != recorded:
        raise ChecksumError(
            f"{path}: quantizer-state checksum mismatch "
            f"(recorded {recorded[:12]}…, recomputed {actual[:12]}…); "
            f"the artifact is corrupt — recalibrate"
        )
    quantizers: dict[str, Quantizer] = {}
    for name, meta in record["taps"].items():
        prefix = f"a:{name}:"
        state = {
            key[len(prefix):]: array
            for key, array in payload.items()
            if key.startswith(prefix)
        }
        quantizers[name] = quantizer_from_state(meta, state)
    arrays = {key[2:]: array for key, array in payload.items() if key.startswith("x:")}
    return record.get("header", {}), quantizers, arrays
