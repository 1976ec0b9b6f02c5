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
from ..quant.params import QUQParams, Subrange, SubrangeSpec
from ..quant.qub import FCRegisters, decode, legalize_for_hardware

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

    # Selector slots (side*2 + fine): 0=C+, 1=F+, 2=C-, 3=F-.
    _SLOTS = (
        (Subrange.C_POS, False),
        (Subrange.F_POS, False),
        (Subrange.C_NEG, True),
        (Subrange.F_NEG, True),
    )

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
        self._has_pos = params.f_pos is not None or params.c_pos is not None
        self._has_neg = params.f_neg is not None or params.c_neg is not None
        self._build_tables(params)
        self._lut: np.ndarray | None = None

    # ------------------------------------------------------------------
    def _build_tables(self, params: QUQParams) -> None:
        delta = np.ones(4, dtype=np.float64)
        lo = np.zeros(4, dtype=np.float64)
        hi = np.zeros(4, dtype=np.float64)
        shift = np.zeros(4, dtype=np.int64)
        for slot, (subrange, negative) in enumerate(self._SLOTS):
            spec = params.spec(subrange)
            if spec is None:
                # Mirror the side's active subrange: the slot is routed to
                # only by non-finite inputs, which must still gather sane
                # table entries (quq._fused_tables does the same).
                mirror = Subrange.F_NEG if negative else Subrange.F_POS
                if subrange.is_fine:
                    mirror = Subrange.C_NEG if negative else Subrange.C_POS
                spec = params.spec(mirror)
                if spec is None:  # fully absent side: inert, never selected
                    continue
                subrange = mirror
            delta[slot] = spec.delta
            lo[slot] = float(-spec.levels) if negative else 0.0
            hi[slot] = 0.0 if negative else float(spec.levels - 1)
            shift[slot] = params.shift(subrange)

        def span(fine: SubrangeSpec | None, coarse: SubrangeSpec | None,
                 negative: bool) -> float:
            if fine is None:
                return -np.inf  # coarse-only (or absent): never route fine
            if coarse is None:
                return np.inf  # fine-only: always route fine
            base = fine.levels if negative else fine.levels - 1
            return base * fine.delta * (1.0 + 1e-6)

        self._delta, self._lo, self._hi, self._shift = delta, lo, hi, shift
        self._pow2 = (np.int64(1) << shift).astype(np.float64)
        self._span_pos = span(params.f_pos, params.c_pos, False)
        self._span_neg = span(params.f_neg, params.c_neg, True)
        # Negative zeros re-home into the positive code space (zero has no
        # pattern in a negative-reserved layout); -1 disables re-homing.
        if self._has_pos and self._has_neg:
            self._rehome_slot = 1 if params.f_pos is not None else 0
        else:
            self._rehome_slot = -1
        self._clamp_slots = tuple(
            slot
            for slot, register in ((3, self.registers.fine), (2, self.registers.coarse))
            if register.negative_reserved
        )
        # Non-finite inputs fail every routing comparison; the reference
        # parks NaNs at code -1 in the negative space when one exists.
        if self._has_neg:
            self._nan_slot = 3 if params.f_neg is not None else 2
            self._nan_code = -1.0
        else:
            self._nan_slot = 1 if params.f_pos is not None else 0
            self._nan_code = 0.0

    # ------------------------------------------------------------------
    def route(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eq. (3) in one pass: per-element ``(codes, selector)``.

        Codes are the clamped integer codes *after* zero re-homing and
        the negative-reserved zero clamp — i.e. exactly the codes the
        QUB words carry — and ``selector`` indexes the four-slot tables
        (bit 0 = fine space, bit 1 = negative side).
        """
        x = np.asarray(x, dtype=np.float64)
        if self._has_pos and self._has_neg:
            negative = x < 0  # zero lives in the positive code space
        elif self._has_pos:
            negative = np.zeros(x.shape, dtype=bool)
        else:
            negative = np.ones(x.shape, dtype=bool)
        with np.errstate(invalid="ignore"):
            magnitude = np.where(negative, -x, x)
            fine = magnitude <= np.where(negative, self._span_neg, self._span_pos)
            selector = negative * 2 + fine
            codes = np.clip(
                np.rint(x / self._delta[selector]),
                self._lo[selector],
                self._hi[selector],
            )
        invalid = np.isnan(codes)
        if invalid.any():
            codes = np.where(invalid, self._nan_code, codes)
            selector = np.where(invalid, self._nan_slot, selector)
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
        come out as ``-0.0``).  ``x`` is only read.  The pass writes one
        fresh float64 result, one ``intp`` selector, three boolean masks
        and ``scratch`` (float64, ``x``'s shape, allocated when not
        given), which holds the gathered tables.  No step is a masked
        ufunc (``where=``): in NumPy those run an order of magnitude
        slower than the bitwise blends here.

        Two of :meth:`route`'s fix-ups drop out because a zero code
        decodes to zero in every slot: zero re-homing moves only the
        selector of zero codes, and it leaves the negative-reserved clamp
        nothing to do on a two-sided layout.
        """
        x = np.asarray(x, dtype=np.float64)
        codes = np.empty(x.shape)
        selector = np.empty(x.shape, dtype=np.intp)
        fine = np.empty(x.shape, dtype=bool)
        spare = np.empty(x.shape, dtype=bool)
        if scratch is None:
            scratch = np.empty(x.shape)
        two_sided = self._has_pos and self._has_neg
        # Magnitude compare against the side's fine span, as route does:
        # |x| on a two-sided layout, x or -x when one side is absent.
        if two_sided:
            negative = np.less(x, 0.0)  # zero lives in the positive code space
            np.abs(x, out=codes)
            np.less_equal(codes, self._span_pos, out=fine)
            np.less_equal(codes, self._span_neg, out=spare)
            # fine = where(negative, spare, fine)
            np.bitwise_xor(spare, fine, out=spare)
            np.bitwise_and(spare, negative, out=spare)
            np.bitwise_xor(fine, spare, out=fine)
            # selector = negative * 2 + fine, in uint8, widened once.
            side = spare.view(np.uint8)
            np.left_shift(negative.view(np.uint8), 1, out=side)
            np.bitwise_or(side, fine.view(np.uint8), out=side)
            np.copyto(selector, side)
        elif self._has_pos:
            np.less_equal(x, self._span_pos, out=fine)
            np.copyto(selector, fine)
        else:
            np.negative(x, out=codes)
            np.less_equal(codes, self._span_neg, out=fine)
            np.copyto(selector, fine)
            selector += 2
        # mode="clip" is a no-op on a 0..3 selector and keeps `out=`
        # unbuffered (numpy buffers it under the default mode="raise").
        np.take(self._delta, selector, out=codes, mode="clip")
        np.divide(x, codes, out=codes)
        np.rint(codes, out=codes)
        # clip(codes, lo, hi).  Two-sided, each slot sees only its own
        # side's signs, so one bound per slot (hi, or -lo) does; one-sided,
        # the bound at zero is the same scalar for every slot.
        if two_sided:
            np.take(self._hi - self._lo, selector, out=scratch, mode="clip")
            np.minimum(codes, scratch, out=codes)
            np.negative(scratch, out=scratch)
            np.maximum(codes, scratch, out=codes)
        elif self._has_pos:
            np.maximum(codes, 0.0, out=codes)
            np.take(self._hi, selector, out=scratch, mode="clip")
            np.minimum(codes, scratch, out=codes)
        else:
            np.take(self._lo, selector, out=scratch, mode="clip")
            np.maximum(codes, scratch, out=codes)
            np.minimum(codes, 0.0, out=codes)
        # NaN park.  The clamped codes are bounded, so their sum is NaN
        # iff one of them is.
        if np.isnan(codes.sum()):
            nan = np.isnan(codes)
            np.putmask(codes, nan, self._nan_code)
            np.putmask(selector, nan, self._nan_slot)
        if not self._has_pos:
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
