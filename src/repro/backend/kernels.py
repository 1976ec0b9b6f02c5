"""Fused QUQ quantize→encode kernels for the integer-native backend.

The QUA reference path (:mod:`repro.hw.accelerator`) quantizes a tensor
in up to four masked passes (:func:`repro.quant.quq.quantize_with_params`)
and then encodes the codes into QUB words — correct, but it re-derives
registers and walks the tensor several times per call.  The serving hot
path quantizes *every* activation tensor of *every* batch under the same
fitted parameters, so this module precomputes everything that depends
only on the parameters — the hardware-legalized specs, the FC registers,
and a four-slot ``(delta, lo, hi, shift)`` table indexed by the 2-bit
``side*2 + fine`` selector (the PR-5 fused-table trick, extended from
fake-quantization to integer codes) — and runs the route/divide/round/
clamp sequence exactly once per tensor.

Exactness contract (pinned by the parity tests): for any finite input,

* :meth:`FusedEncoder.encode` equals the QUB words of
  ``encode_tensor(x, bits, params=params)``;
* :meth:`FusedEncoder.shifted` equals ``D << n_sh`` of decoding those
  words — the PE-array operand of Eq. (5);
* :meth:`FusedEncoder.store_load` equals ``EncodedTensor.to_float()``
  bit for bit, including the float operation order.

The last two dispatch through the kernel registry (ops ``qub.shifted`` /
``qub.store_load``): :meth:`FusedEncoder.route` is their reference,
:meth:`FusedEncoder.shifted_f64` the in-place pass that serves them.
"""

from __future__ import annotations

import numpy as np

from ..kernels import get_kernel
from ..quant.params import QUQParams
from ..quant.qub import FCRegisters, decode, legalize_for_hardware
from ..quant.quq import _fused_route, _fused_tables

__all__ = ["FusedEncoder", "decode_lut"]


def decode_lut(registers: FCRegisters, bits: int) -> np.ndarray:
    """Decode LUT: QUB word -> shifted integer ``D << n_sh`` (int64).

    Decoding is elementwise given the registers, so a ``2^bits``-entry
    gather reproduces :func:`repro.quant.qub.decode` exactly; the packed
    weight store keeps one LUT per weight tensor (at most 64 KiB at
    16 bits, bytes at serving widths) so QUB buffers decode in one
    vectorized lookup per batch.
    """
    words = np.arange(2**bits, dtype=np.uint32)
    d, n_sh = decode(words, registers, bits)
    return d << n_sh


class FusedEncoder:
    """Quantize + QUB-encode one tap's tensors under fixed parameters."""

    def __init__(self, params: QUQParams, bits: int):
        params = legalize_for_hardware(params)
        if params.bits > bits:
            raise ValueError(
                f"{params.bits}-bit parameters do not fit {bits}-bit QUBs"
            )
        self.params = params
        self.bits = bits
        self.base_delta = params.base_delta
        self.registers = FCRegisters.from_params(params)
        self._half = 2 ** (bits - 1)
        self._lut: np.ndarray | None = None
        # Four-slot tables indexed by the selector side*2 + fine (slots
        # C+, F+, C-, F-), shared with the fused fake-quantize kernel.
        self._tables = t = _fused_tables(params)
        # Eq. (5) shift per slot: a mirrored slot shares its mirror's; a
        # fully absent side is never selected and keeps shift 0.
        present = np.repeat([t.has_pos, t.has_neg], 2)
        shift = np.rint(np.log2(t.delta / self.base_delta))
        self._shift = np.where(present, shift, 0.0).astype(np.int64)
        self._pow2 = (np.int64(1) << self._shift).astype(np.float64)
        # Negative zeros re-home into the positive code space (zero has no
        # pattern in a negative-reserved layout); -1 disables re-homing.
        if t.has_pos and t.has_neg:
            self._rehome_slot = 1 if params.f_pos is not None else 0
        else:
            self._rehome_slot = -1
        self._clamp_slots = tuple(
            slot
            for slot, register in ((3, self.registers.fine), (2, self.registers.coarse))
            if register.negative_reserved
        )

    # ------------------------------------------------------------------
    def route(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eq. (3) in one pass: per-element ``(codes, selector)``.

        Codes are the clamped integer codes *after* zero re-homing and
        the negative-reserved zero clamp — i.e. exactly the codes the
        QUB words carry — and ``selector`` indexes the four-slot tables
        (bit 0 = fine space, bit 1 = negative side).
        """
        x = np.asarray(x, dtype=np.float64)
        t = self._tables
        if t.has_pos and t.has_neg:
            negative = x < 0  # zero lives in the positive code space
        elif t.has_pos:
            negative = np.zeros(x.shape, dtype=bool)
        else:
            negative = np.ones(x.shape, dtype=bool)
        with np.errstate(invalid="ignore"):
            magnitude = np.where(negative, -x, x)
            fine = magnitude <= np.where(negative, t.span_neg, t.span_pos)
            selector = negative * 2 + fine
            codes = np.clip(
                np.rint(x / t.delta[selector]),
                t.lo[selector],
                t.hi[selector],
            )
        invalid = np.isnan(codes)
        if invalid.any():
            codes = np.where(invalid, t.nan_code, codes)
            selector = np.where(invalid, t.nan_slot, selector)
        codes = codes.astype(np.int64)
        if self._rehome_slot >= 0:
            zero_neg = (selector >= 2) & (codes == 0)
            selector = np.where(zero_neg, self._rehome_slot, selector)
        for slot in self._clamp_slots:
            # A one-sided negative space cannot express zero: clamp to -1.
            codes = np.where((selector == slot) & (codes == 0), np.int64(-1), codes)
        return codes, selector

    def shifted_f64(
        self, x: np.ndarray, scratch: np.ndarray | None = None
    ) -> np.ndarray:
        """``D << n_sh`` as exact-integer float64, in one in-place pass.

        Equals ``codes << shift[selector]`` of :meth:`route` (a zero may
        come out as ``-0.0``).  ``x`` is only read.  The pass runs
        :func:`~repro.quant.quq._fused_route`, the route the fused
        fake-quantize kernel runs too, with the gathered deltas in the
        result buffer (the divide consumes them) and the clip bounds in
        ``scratch`` (float64, ``x``'s shape, allocated when not given),
        which then holds the gathered shifts.  It writes one fresh float64
        result, one ``intp`` selector and two boolean masks.

        Two of :meth:`route`'s fix-ups drop out because a zero code
        decodes to zero in every slot: zero re-homing moves only the
        selector of zero codes, and it leaves the negative-reserved clamp
        nothing to do on a two-sided layout.
        """
        codes = np.empty(np.shape(x))
        if scratch is None:
            scratch = np.empty(codes.shape)
        selector = _fused_route(x, self._tables, codes, codes, scratch)
        if not self._tables.has_pos:
            # Every slot a negative-only layout selects is negative-reserved
            # and cannot express zero: clamp zeros to -1.
            np.putmask(codes, codes == 0.0, -1.0)
        if self._pow2.max() > 1.0:
            np.take(self._pow2, selector, out=scratch, mode="clip")
            np.multiply(codes, scratch, out=codes)  # exact: |D << n_sh| < 2**53
        return codes

    def encode(self, x: np.ndarray) -> np.ndarray:
        """QUB words for ``x``; equals ``encode_tensor(...).qubs`` exactly."""
        codes, selector = self.route(x)
        fine_mask = selector & 1
        payload = codes & (self._half - 1)
        qubs = (fine_mask.astype(np.int64) << (self.bits - 1)) | payload
        return qubs.astype(np.uint8 if self.bits <= 8 else np.uint16)

    def shifted(self, x: np.ndarray) -> np.ndarray:
        """PE-array operand ``D << n_sh`` (int64), skipping the QUB trip.

        Dispatches through the kernel registry (op ``qub.shifted``): the
        in-place :meth:`shifted_f64` pass by default, the :meth:`route`
        formula under ``REPRO_KERNELS=reference``.
        """
        return get_kernel("qub.shifted")(x, self.params, self.bits)

    def store_load(self, x: np.ndarray) -> np.ndarray:
        """Store-then-reload through the SFU path: quantize, decode, scale.

        Bit-identical to ``encode_tensor(x, bits, params).to_float()``
        (same float operation order: ``D * 2^n_sh`` then ``* base_delta``).
        Dispatches through the kernel registry (op ``qub.store_load``),
        like :meth:`shifted`.
        """
        return get_kernel("qub.store_load")(x, self.params, self.bits)

    @property
    def lut(self) -> np.ndarray:
        """Decode LUT under this tap's registers.

        Dispatches through the kernel registry (op ``qub.decode_lut``):
        the process-wide shared cache by default — every consumer of one
        ``(registers, bits)`` pair (this encoder, the packed weight
        store) gathers from the same write-protected table, computed
        once — a fresh table under ``REPRO_KERNELS=reference``.
        """
        if self._lut is None:
            self._lut = get_kernel("qub.decode_lut")(self.registers, self.bits)
        return self._lut
