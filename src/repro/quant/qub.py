"""Quadruplet uniform bytes (QUBs): the hardware encoding of QUQ results.

Section 4.1 of the paper: each quantized tensor carries, besides its base
scale factor ``Delta``, two 8-bit *FC registers* describing how the fine
and coarse halves of the code space are laid out.  Each b-bit QUB then
holds a fine/coarse flag in its top bit and a (b-1)-bit payload whose
interpretation (signed two's complement, or one-sided magnitude) is read
from the registers.  Decoding (Eq. 6-7) turns a QUB into a b-bit signed
integer ``D`` and a 3-bit shift ``n_sh`` such that the represented value is
``D << n_sh`` in units of the base delta — which is what lets a plain
signed multiplier process every mode.

Register layout (one byte per granularity, fine ``f`` and coarse ``c``)::

    bit 7    : 1 -> this space holds both signs (payload is signed)
    bit 6    : if bit7 == 0, 1 -> the reserved side is negative
    bits 5-3 : log2 s for the negative subrange (shift count)
    bits 2-0 : log2 s for the positive subrange (shift count)

One deliberate deviation from infinite-precision math: a one-sided
*negative* space cannot represent the value zero (its payload patterns map
to ``-2^(b-1)..-1``), so :func:`encode` clamps zero codes to ``-1`` there.
This only affects exact zeros of non-positive tensors, which do not occur
in the ViT dataflow (the one-sided tensors are the non-negative
post-Softmax activations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import QUQParams, Subrange, SubrangeSpec
from .quq import SUBRANGE_IDS, QuantizedTensor, quantize_with_params

__all__ = [
    "SpaceRegister",
    "FCRegisters",
    "encode",
    "quantize_encode",
    "decode",
    "legalize_for_hardware",
    "pack_qub_words",
    "unpack_qub_words",
    "MAX_SHIFT",
]

#: Shift fields are 3 bits wide.
MAX_SHIFT = 7


@dataclass(frozen=True)
class SpaceRegister:
    """One FC register: layout of the fine or coarse half of code space."""

    both_sides: bool
    negative_reserved: bool
    shift_neg: int
    shift_pos: int

    def __post_init__(self):
        for shift in (self.shift_neg, self.shift_pos):
            if not 0 <= shift <= MAX_SHIFT:
                raise ValueError(
                    f"shift {shift} does not fit the 3-bit register field"
                )
        if self.both_sides and self.negative_reserved:
            raise ValueError(
                "inconsistent register: a both-sides space cannot also "
                "reserve the negative side"
            )

    def pack(self) -> int:
        """Pack into the 8-bit register byte."""
        return (
            (int(self.both_sides) << 7)
            | (int(self.negative_reserved) << 6)
            | (self.shift_neg << 3)
            | self.shift_pos
        )

    @staticmethod
    def unpack(byte: int) -> "SpaceRegister":
        """Strictly decode a register byte; garbage raises ``ValueError``.

        A byte with both the both-sides flag (bit 7) and the
        negative-reserved flag (bit 6) set encodes a layout no
        :meth:`pack` can produce — register corruption, not a register —
        so it is rejected rather than silently reinterpreted.
        """
        if not 0 <= byte <= 0xFF:
            raise ValueError(f"register byte out of range: {byte}")
        both = bool(byte >> 7 & 1)
        reserved = bool(byte >> 6 & 1)
        if both and reserved:
            raise ValueError(
                f"inconsistent register byte 0x{byte:02x}: both-sides and "
                "negative-reserved flags are mutually exclusive"
            )
        return SpaceRegister(
            both_sides=both,
            negative_reserved=reserved,
            shift_neg=byte >> 3 & 0b111,
            shift_pos=byte & 0b111,
        )


@dataclass(frozen=True)
class FCRegisters:
    """The pair of registers accompanying one quantized tensor."""

    fine: SpaceRegister
    coarse: SpaceRegister

    def pack(self) -> tuple[int, int]:
        """The two register bytes as stored in hardware (fine, coarse)."""
        return self.fine.pack(), self.coarse.pack()

    @staticmethod
    def unpack(fine_byte: int, coarse_byte: int) -> "FCRegisters":
        """Strictly decode the register pair; either byte being
        out-of-range or internally inconsistent raises ``ValueError``
        (see :meth:`SpaceRegister.unpack`) instead of constructing a
        garbage layout."""
        return FCRegisters(
            fine=SpaceRegister.unpack(fine_byte),
            coarse=SpaceRegister.unpack(coarse_byte),
        )

    @staticmethod
    def from_params(params: QUQParams) -> "FCRegisters":
        """Derive the register contents from fitted QUQ parameters."""

        def build(neg: SubrangeSpec | None, pos: SubrangeSpec | None,
                  neg_sub: Subrange, pos_sub: Subrange) -> SpaceRegister:
            return SpaceRegister(
                both_sides=neg is not None and pos is not None,
                negative_reserved=neg is not None and pos is None,
                shift_neg=params.shift(neg_sub) if neg is not None else 0,
                shift_pos=params.shift(pos_sub) if pos is not None else 0,
            )

        return FCRegisters(
            fine=build(params.f_neg, params.f_pos, Subrange.F_NEG, Subrange.F_POS),
            coarse=build(params.c_neg, params.c_pos, Subrange.C_NEG, Subrange.C_POS),
        )


def legalize_for_hardware(params: QUQParams) -> QUQParams:
    """Grow fine scale factors until every shift fits the 3-bit field.

    Extremely long-tailed tensors can make ``log2(delta_C / delta_F)``
    exceed :data:`MAX_SHIFT`.  Hardware resolves this by coarsening the fine
    subranges (doubling their deltas) until the ratios fit; accuracy-only
    experiments keep the unconstrained parameters.
    """

    def too_wide(p: QUQParams) -> bool:
        return any(p.shift(s) > MAX_SHIFT for s, _ in p.active())

    current = params
    while too_wide(current):
        def grow(spec: SubrangeSpec | None) -> SubrangeSpec | None:
            if spec is None:
                return None
            return SubrangeSpec(spec.delta * 2.0, spec.levels)

        # Double the *smallest* deltas (they define the base) to shrink the
        # largest ratio by one bit per iteration.
        base = current.base_delta

        def maybe_grow(spec: SubrangeSpec | None) -> SubrangeSpec | None:
            if spec is None:
                return None
            if np.isclose(spec.delta, base):
                return grow(spec)
            return spec

        current = QUQParams(
            current.bits,
            f_neg=maybe_grow(current.f_neg),
            f_pos=maybe_grow(current.f_pos),
            c_neg=maybe_grow(current.c_neg),
            c_pos=maybe_grow(current.c_pos),
        )
    return current


def _encode_codes(
    codes: np.ndarray, subranges: np.ndarray, registers: FCRegisters, bits: int
) -> np.ndarray:
    """Vectorized core of :func:`encode`: codes + subrange ids -> QUB words.

    Copies the code array only when a negative-reserved space forces the
    zero-to-``-1`` clamp; the common both-sides layout encodes without any
    intermediate copy.
    """
    half = 2 ** (bits - 1)
    fine_mask = (subranges == SUBRANGE_IDS[Subrange.F_NEG]) | (
        subranges == SUBRANGE_IDS[Subrange.F_POS]
    )
    if registers.fine.negative_reserved or registers.coarse.negative_reserved:
        # A one-sided negative space cannot express zero: clamp to -1.
        codes = codes.astype(np.int64, copy=True)
        for mask, register in (
            (fine_mask, registers.fine),
            (~fine_mask, registers.coarse),
        ):
            if register.negative_reserved:
                zero = mask & (codes == 0)
                codes[zero] = -1
    else:
        codes = codes.astype(np.int64, copy=False)

    payload = codes & (half - 1)
    qubs = (fine_mask.astype(np.int64) << (bits - 1)) | payload
    return qubs.astype(np.uint8 if bits <= 8 else np.uint16)


def encode(qt: QuantizedTensor) -> tuple[np.ndarray, FCRegisters]:
    """Encode a quantized tensor into QUB bytes plus its FC registers."""
    registers = FCRegisters.from_params(qt.params)
    return _encode_codes(qt.codes, qt.subranges, registers, qt.params.bits), registers


def quantize_encode(
    x: np.ndarray, params: QUQParams, bits: int
) -> tuple[np.ndarray, FCRegisters, float]:
    """Quantize ``x`` under hardware-legal params and QUB-encode at ``bits``.

    The one encode of a float tensor: :func:`legalize_for_hardware`, then
    Eq. (3) (:func:`~repro.quant.quq.quantize_with_params`), then the QUB
    words.  Returns ``(qubs, registers, base_delta)``, the wire-format
    triple the accelerator's :class:`~repro.hw.accelerator.EncodedTensor`
    wraps; decoding these words is the reference the int backend's
    in-place encoders are checked against.
    """
    params = legalize_for_hardware(params)
    if params.bits > bits:
        raise ValueError(f"{params.bits}-bit parameters do not fit {bits}-bit QUBs")
    qt = quantize_with_params(x, params)
    registers = FCRegisters.from_params(params)
    return _encode_codes(qt.codes, qt.subranges, registers, bits), registers, params.base_delta


def pack_qub_words(qubs: np.ndarray, bits: int) -> np.ndarray:
    """Pack b-bit QUB words into a dense byte buffer (MSB-first bitstream).

    The storage format of the serving backend's packed weight buffers: a
    tensor of ``n`` b-bit words occupies ``ceil(n * b / 8)`` bytes — the
    actual memory-footprint win of sub-byte quantization, as opposed to
    the one-word-per-``uint8``/``uint16`` layout the simulator uses for
    indexing convenience.  Round-trips exactly through
    :func:`unpack_qub_words` for any ``1 <= bits <= 16``; raises
    :class:`ValueError` for ``bits`` outside that range or a word wider
    than ``bits``.
    """
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")
    words = np.asarray(qubs).reshape(-1).astype(np.uint32)
    if words.size and int(words.max()) >> bits:
        raise ValueError(f"QUB word exceeds {bits} bits")
    # Explode each word into its b bits (MSB first), then pack the flat
    # bitstream; the trailing partial byte is zero-padded by packbits.
    shifts = np.arange(bits - 1, -1, -1, dtype=np.uint32)
    bitstream = ((words[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bitstream.reshape(-1))


def unpack_qub_words(buffer: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_qub_words`: recover ``count`` b-bit words.

    Returns ``uint8`` words for ``bits <= 8`` and ``uint16`` above —
    matching the dtype :func:`encode` produces, so unpacked buffers feed
    straight into :func:`decode`.
    """
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    buffer = np.asarray(buffer, dtype=np.uint8)
    needed = (count * bits + 7) // 8
    if buffer.size < needed:
        raise ValueError(
            f"buffer holds {buffer.size} bytes; {needed} needed for "
            f"{count} {bits}-bit words"
        )
    bitstream = np.unpackbits(buffer, count=count * bits).reshape(count, bits)
    weights = (1 << np.arange(bits - 1, -1, -1, dtype=np.uint32))
    words = bitstream.astype(np.uint32) @ weights
    return words.astype(np.uint8 if bits <= 8 else np.uint16)


def decode(
    qubs: np.ndarray, registers: FCRegisters, bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. (6)-(7): decode QUBs into ``(D, n_sh)``.

    ``D`` is a b-bit signed integer and ``n_sh`` the per-element shift; the
    represented value is ``D * 2**n_sh`` in units of the tensor's base
    delta.
    """
    qubs = qubs.astype(np.int64)
    half = 2 ** (bits - 1)
    quarter = 2 ** (bits - 2)
    fine_flag = (qubs >> (bits - 1)) & 1
    payload = qubs & (half - 1)

    d = np.zeros(qubs.shape, dtype=np.int64)
    n_sh = np.zeros(qubs.shape, dtype=np.int64)
    for flag, register in ((1, registers.fine), (0, registers.coarse)):
        mask = fine_flag == flag
        if not mask.any():
            continue
        p = payload[mask]
        if register.both_sides:
            # (b-1)-bit two's complement payload, sign-extended to b bits.
            value = np.where(p >= quarter, p - half, p)
            shift = np.where(value < 0, register.shift_neg, register.shift_pos)
        elif register.negative_reserved:
            # {1, payload}: b-bit two's complement with implied sign 1.
            value = p - half
            shift = np.full(p.shape, register.shift_neg, dtype=np.int64)
        else:
            # {0, payload}: non-negative magnitudes.
            value = p
            shift = np.full(p.shape, register.shift_pos, dtype=np.int64)
        d[mask] = value
        n_sh[mask] = shift
    return d, n_sh
