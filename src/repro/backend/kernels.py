"""In-place QUQ activation encoders for the integer-native backend.

The serving hot path quantizes *every* activation tensor of *every*
batch under the same fitted parameters, so a :class:`FusedEncoder`
precomputes what depends only on them — the hardware-legalized params
and a four-slot ``(delta, lo, hi)`` table indexed by the 2-bit
``side*2 + fine`` selector, shared with the fused fake-quantize kernel —
and runs Eq. (3) as one in-place pass per tensor, never materializing
QUB words.  A one-delta tap (one delta for every active subrange, see
:func:`repro.quant.quq._fused_tables`) runs that pass as one uniform
quantizer, with no selector or gathers.

Exactness contract (pinned by the parity suite): for any input, decoding
the words of the one encode, :func:`repro.quant.qub.quantize_encode`,
gives

* ``D << n_sh`` — the PE-array operand of Eq. (5) — equal to
  :meth:`FusedEncoder.shifted`;
* ``EncodedTensor.to_float()`` equal to :meth:`FusedEncoder.store_load`
  bit for bit, including the float operation order.

Both dispatch through the kernel registry (ops ``qub.shifted`` /
``qub.store_load``), handing the op the encoder itself: each op's
reference implementation decodes those words, reading only the encoder's
``params`` and ``bits``, and its fast one is the in-place
:meth:`FusedEncoder.shifted_f64` pass on the tables the encoder built
once.  The int backend builds one encoder per tap and keeps it for the
backend's life; nothing else holds it.
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
    """Quantize one tap's tensors to PE-array operands under fixed parameters."""

    def __init__(self, params: QUQParams, bits: int):
        params = legalize_for_hardware(params)
        if params.bits > bits:
            raise ValueError(
                f"{params.bits}-bit parameters do not fit {bits}-bit QUBs"
            )
        self.params = params
        self.bits = bits
        self.base_delta = params.base_delta
        self._tables = t = _fused_tables(params)
        # Eq. (5) 2**n_sh per slot: a mirrored slot shares its mirror's; a
        # fully absent side is never selected and keeps 1.
        present = np.repeat([t.has_pos, t.has_neg], 2)
        shift = np.rint(np.log2(t.delta / self.base_delta))
        self._pow2 = np.where(present, np.exp2(shift), 1.0)

    def shifted_f64(
        self, x: np.ndarray, scratch: np.ndarray | None = None
    ) -> np.ndarray:
        """``D << n_sh`` as exact-integer float64, in one in-place pass.

        Equals ``D << n_sh`` of decoding the words of
        :func:`~repro.quant.qub.quantize_encode` (a zero may come out as
        ``-0.0``).  ``x`` is only read.  The pass runs
        :func:`~repro.quant.quq._fused_route`, the route the fused
        fake-quantize kernel runs too, with the gathered deltas in the
        result buffer (the divide consumes them) and the clip bounds in
        ``scratch`` (float64, ``x``'s shape, allocated when not given),
        which then holds the gathered shifts.  It writes one fresh float64
        result, one ``intp`` selector and two boolean masks.  A one-delta
        tap takes the route's scalar branch: every shift is 0, so the pass
        writes only the result and never touches ``scratch``.

        The encode re-homes negative zeros into the positive code space
        and clamps zero codes to ``-1`` in a one-sided negative space.  A
        zero code decodes to zero in every slot, so only the clamp on a
        negative-only layout changes a value here.
        """
        codes = np.empty(np.shape(x))
        if scratch is None and not self._tables.one_delta:
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

    def shifted(self, x: np.ndarray) -> np.ndarray:
        """PE-array operand ``D << n_sh`` (int64), skipping the QUB trip.

        Dispatches through the kernel registry (op ``qub.shifted``): the
        in-place :meth:`shifted_f64` pass (the fast implementation) by
        default, the decoded words of the encode under
        ``REPRO_KERNELS=reference``.
        """
        return get_kernel("qub.shifted")(x, self)

    def store_load(self, x: np.ndarray) -> np.ndarray:
        """Store-then-reload through the SFU path: quantize, decode, scale.

        Bit-identical to ``encode_tensor(x, bits, params).to_float()``
        (same float operation order: ``D * 2^n_sh`` then ``* base_delta``).
        Dispatches through the kernel registry (op ``qub.store_load``),
        like :meth:`shifted`.
        """
        return get_kernel("qub.store_load")(x, self)
