"""Quadruplet uniform quantization (Eq. 3) — the paper's core contribution.

A fitted :class:`QUQQuantizer` assigns every element to one of the active
subranges of its :class:`~repro.quant.params.QUQParams` and quantizes it
with that subrange's scale factor.  Assignment is anchored at zero: fine
subranges take the elements within their representable span, coarse
subranges take the rest (clipping at the coarse extreme), so every code is
proportional to its value and no zero points exist.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..kernels import get_kernel
from .base import Quantizer
from .params import Mode, QUQParams, Subrange, SubrangeSpec
from .relax import PRAConfig, progressive_relaxation

__all__ = [
    "SUBRANGE_IDS",
    "QuantizedTensor",
    "QUQQuantizer",
    "quantize_with_params",
    "fake_quantize_with_params",
    "nan_park_value",
]

#: Stable integer ids for the four subranges (used in code/id arrays).
SUBRANGE_IDS = {
    Subrange.F_NEG: 0,
    Subrange.F_POS: 1,
    Subrange.C_NEG: 2,
    Subrange.C_POS: 3,
}
_ID_TO_SUBRANGE = {v: k for k, v in SUBRANGE_IDS.items()}


@dataclass
class QuantizedTensor:
    """Integer codes plus per-element subrange assignment."""

    params: QUQParams
    codes: np.ndarray  # int64; negative codes for negative subranges
    subranges: np.ndarray  # int8 ids into SUBRANGE_IDS

    def dequantize(self) -> np.ndarray:
        deltas = np.zeros(4)
        for subrange, spec in self.params.active():
            deltas[SUBRANGE_IDS[subrange]] = spec.delta
        return (self.codes * deltas[self.subranges]).astype(np.float32)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.codes.shape


def _side_arrays(
    params: QUQParams, negative: bool
) -> tuple[SubrangeSpec | None, SubrangeSpec | None, int, int]:
    if negative:
        return params.f_neg, params.c_neg, SUBRANGE_IDS[Subrange.F_NEG], SUBRANGE_IDS[
            Subrange.C_NEG
        ]
    return params.f_pos, params.c_pos, SUBRANGE_IDS[Subrange.F_POS], SUBRANGE_IDS[
        Subrange.C_POS
    ]


def quantize_with_params(x: np.ndarray, params: QUQParams) -> QuantizedTensor:
    """Apply Eq. (3): route elements to subranges and uniformly quantize."""
    x = np.asarray(x, dtype=np.float64)
    codes = np.zeros(x.shape, dtype=np.int64)
    ids = np.full(x.shape, -1, dtype=np.int8)

    has_positive = params.f_pos is not None or params.c_pos is not None
    has_negative = params.f_neg is not None or params.c_neg is not None

    # NaN fails both side comparisons on two-sided params and must do the
    # same on one-sided ones (where the side mask would otherwise be
    # all-true and NaN codes would reach the int64 cast): keep NaN out of
    # every side so it parks at the deterministic spot below, mirroring
    # the NumericGuard stance that non-finite values are never silently
    # laundered into data-dependent codes.
    finite_side = ~np.isnan(x)
    for negative in (False, True):
        fine, coarse, fine_id, coarse_id = _side_arrays(params, negative)
        if fine is None and coarse is None:
            continue
        if negative:
            side = x < 0 if has_positive else finite_side
            magnitude = -x
        else:
            side = x >= 0 if has_negative else finite_side
            magnitude = x
        if not side.any():
            continue

        if fine is not None:
            # Fine span: the largest magnitude the fine subrange represents.
            # The boundary test carries a tiny relative tolerance so values
            # that sit exactly on the span survive a float32 round trip.
            span = fine.levels * fine.delta if negative else (fine.levels - 1) * fine.delta
            span *= 1.0 + 1e-6
            in_fine = side & (magnitude <= span) if coarse is not None else side
        else:
            in_fine = np.zeros(x.shape, dtype=bool)

        if fine is not None and in_fine.any():
            q = np.rint(magnitude[in_fine] / fine.delta)
            if negative:
                codes[in_fine] = -np.clip(q, 0, fine.levels).astype(np.int64)
            else:
                codes[in_fine] = np.clip(q, 0, fine.levels - 1).astype(np.int64)
            ids[in_fine] = fine_id

        if coarse is not None:
            in_coarse = side & ~in_fine
            if in_coarse.any():
                q = np.rint(magnitude[in_coarse] / coarse.delta)
                if negative:
                    codes[in_coarse] = -np.clip(q, 0, coarse.levels).astype(np.int64)
                else:
                    codes[in_coarse] = np.clip(q, 0, coarse.levels - 1).astype(np.int64)
                ids[in_coarse] = coarse_id

    # Zero lives in the positive code space: negative elements that round
    # to code 0 are re-homed there (in hardware a negative-reserved space
    # has no zero pattern, see qub.py).
    if has_positive:
        zero_neg = (codes == 0) & (
            (ids == SUBRANGE_IDS[Subrange.F_NEG]) | (ids == SUBRANGE_IDS[Subrange.C_NEG])
        )
        if zero_neg.any():
            ids[zero_neg] = SUBRANGE_IDS[
                Subrange.F_POS if params.f_pos is not None else Subrange.C_POS
            ]

    # Elements assigned to no subrange: values on a side with no subrange
    # (e.g. positives under a negative-only Mode B) clip to the closest
    # representable extreme, and NaN — which joins no side — parks at the
    # same deterministic spot (code -1 in the negative space when one
    # exists, else code 0).  :func:`nan_park_value` is the float twin.
    unassigned = ids < 0
    if unassigned.any():
        if has_positive and not has_negative:
            sid = SUBRANGE_IDS[
                Subrange.F_POS if params.f_pos is not None else Subrange.C_POS
            ]
            codes[unassigned] = 0
        else:
            sid = SUBRANGE_IDS[
                Subrange.F_NEG if params.f_neg is not None else Subrange.C_NEG
            ]
            codes[unassigned] = -1
        ids[unassigned] = sid

    return QuantizedTensor(params, codes, ids)


def nan_park_value(params: QUQParams) -> float:
    """Where the reference code path parks NaN, as a dequantized float.

    :func:`quantize_with_params` assigns NaN to no side, so it lands in
    the "unassigned" bucket: code ``-1`` in the negative space when one
    exists (value ``-delta`` of the fine-else-coarse negative subrange),
    else code ``0`` (value ``0.0``).  The fused fake-quantize kernel and
    the serving encoders reproduce this spot so every implementation
    agrees on non-finite inputs; the serving engine's ``NumericGuard``
    still rejects non-finite *batches* outright — parking only defines
    the deterministic value below that guard.
    """
    spec = params.f_neg if params.f_neg is not None else params.c_neg
    if spec is not None:
        return -spec.delta
    return 0.0


class _FusedTables(NamedTuple):
    """Per-params tables of the four-slot route (see :func:`_fused_tables`)."""

    span_pos: float
    span_neg: float
    delta: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    has_pos: bool
    has_neg: bool
    nan_slot: int
    nan_code: float


def _fused_tables(params: QUQParams) -> _FusedTables:
    """Per-subrange lookup tables for the four-slot route, built afresh.

    ``delta``, ``lo`` and ``hi`` are indexed by the 2-bit selector
    ``side * 2 + fine`` (slots: positive coarse, positive fine, negative
    coarse, negative fine); ``span_pos``/``span_neg`` are the fine spans
    each side's magnitudes are compared against.  A side with a single
    active subrange gets ``span = +/-inf`` so routing always (or never)
    picks the fine slot, and the unused slot mirrors the active one so NaN
    inputs — which fail every comparison and land in a coarse slot —
    gather sane table entries on their way to the NaN park.  A fully
    absent side is never selected (the side mask routes every element to
    the active side) and holds inert values.  NaN parks at code
    ``nan_code`` in slot ``nan_slot``, where the reference code path puts
    it (see :func:`nan_park_value`).
    """

    def side_tables(fine, coarse, negative):
        if fine is None and coarse is None:
            return -np.inf, (1.0, 0.0, 0.0), (1.0, 0.0, 0.0)

        def entry(spec):
            if spec is None:  # unused slot: mirror the active subrange
                spec = fine if coarse is None else coarse
            if negative:
                return spec.delta, float(-spec.levels), 0.0
            return spec.delta, 0.0, float(spec.levels - 1)

        if fine is not None and coarse is not None:
            base = fine.levels if negative else fine.levels - 1
            span = base * fine.delta * (1.0 + 1e-6)
        elif fine is not None:
            span = np.inf  # fine-only: everything routes fine
        else:
            span = -np.inf  # coarse-only: nothing routes fine
        return span, entry(fine), entry(coarse)

    span_pos, f_pos, c_pos = side_tables(params.f_pos, params.c_pos, False)
    span_neg, f_neg, c_neg = side_tables(params.f_neg, params.c_neg, True)
    delta, lo, hi = np.array([c_pos, f_pos, c_neg, f_neg], dtype=np.float64).T.copy()
    has_pos = params.f_pos is not None or params.c_pos is not None
    has_neg = params.f_neg is not None or params.c_neg is not None
    # NaN parks at code -1 in the negative space when one exists (its fine
    # slot if present), else at code 0 in the positive space.
    fine_park = (params.f_neg if has_neg else params.f_pos) is not None
    return _FusedTables(
        span_pos, span_neg, delta, lo, hi, has_pos, has_neg,
        nan_slot=2 * has_neg + fine_park, nan_code=-1.0 if has_neg else 0.0,
    )


def _fused_route(
    x: np.ndarray, t: _FusedTables, codes: np.ndarray, deltas: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Eq. (3) from selector to NaN park, in place; returns the selector.

    Writes the clamped code of each element of ``x`` into ``codes`` and
    its slot's delta into ``deltas``; ``scratch`` holds the gathered clip
    bounds.  The caller supplies all three float64 buffers, ``x``'s shape,
    so it decides what it allocates: ``deltas`` may be ``codes`` itself
    when the caller needs no deltas afterwards (the divide consumes
    them).  ``x`` is only read; a float64 ``x`` is not copied.  A zero
    code may come out as ``-0.0``.  The selector is a fresh ``intp``
    array; the pass also allocates two boolean masks.  No step is a
    masked ufunc (``where=``): in NumPy those run an order of magnitude
    slower than the bitwise blends here.
    """
    x = np.asarray(x, dtype=np.float64)
    selector = np.empty(x.shape, dtype=np.intp)
    fine = np.empty(x.shape, dtype=bool)
    spare = np.empty(x.shape, dtype=bool)
    two_sided = t.has_pos and t.has_neg
    if two_sided:
        # fine = |x| <= the span of x's side.  With both spans clamped at
        # zero each compare passes the other side's elements; the clamp
        # only sends a zero on a coarse-only side to its mirrored slot.
        np.less_equal(x, max(t.span_pos, 0.0), out=fine)
        np.greater_equal(x, -max(t.span_neg, 0.0), out=spare)
        np.bitwise_and(fine, spare, out=fine)
        # selector = negative * 2 + fine, in uint8, widened once.
        side = spare.view(np.uint8)
        np.less(x, 0.0, out=spare)  # zero lives in the positive code space
        np.left_shift(side, 1, out=side)
        np.bitwise_or(side, fine.view(np.uint8), out=side)
        np.copyto(selector, side)
    elif t.has_pos:
        np.less_equal(x, t.span_pos, out=fine)
        np.copyto(selector, fine)
    else:
        np.greater_equal(x, -t.span_neg, out=fine)  # -x <= span_neg
        np.copyto(selector, fine)
        selector += 2
    # mode="clip" is a no-op on a 0..3 selector and keeps `out=`
    # unbuffered (numpy buffers it under the default mode="raise").
    np.take(t.delta, selector, out=deltas, mode="clip")
    np.divide(x, deltas, out=codes)
    np.rint(codes, out=codes)
    # clip(codes, lo, hi).  Two-sided, each slot sees only its own side's
    # signs, so one bound per slot (hi, or -lo) does; one-sided, the bound
    # at zero is the same scalar for every slot.
    if two_sided:
        np.take(t.hi - t.lo, selector, out=scratch, mode="clip")
        np.minimum(codes, scratch, out=codes)
        np.negative(scratch, out=scratch)
        np.maximum(codes, scratch, out=codes)
    elif t.has_pos:
        np.maximum(codes, 0.0, out=codes)
        np.take(t.hi, selector, out=scratch, mode="clip")
        np.minimum(codes, scratch, out=codes)
    else:
        np.take(t.lo, selector, out=scratch, mode="clip")
        np.maximum(codes, scratch, out=codes)
        np.minimum(codes, 0.0, out=codes)
    # NaN park.  The clamped codes are bounded, so their sum is NaN iff
    # one of them is.
    if np.isnan(codes.sum()):
        nan = np.isnan(codes)
        np.putmask(selector, nan, t.nan_slot)
        # Delta first: when ``deltas`` is ``codes``, the parked code wins.
        np.putmask(deltas, nan, t.delta[t.nan_slot])
        np.putmask(codes, nan, t.nan_code)
    return selector


#: Route tables per params object for :func:`fake_quantize_with_params`.
#: Weakly keyed, so an entry dies with its params: Hessian grid
#: candidates and drift recalibration keep minting new ones.
_TABLES: weakref.WeakKeyDictionary[QUQParams, _FusedTables] = weakref.WeakKeyDictionary()


def fake_quantize_with_params(x: np.ndarray, params: QUQParams) -> np.ndarray:
    """Quantize-dequantize under Eq. (3) without materializing codes.

    Fused fast path, bit-identical to
    ``quantize_with_params(x, params).dequantize()`` (tested, sign of zero
    included); used on the inference hot path where only values matter.
    One in-place float64 pass through :func:`_fused_route`, the route the
    integer encoder's :meth:`~repro.backend.kernels.FusedEncoder.shifted_f64`
    runs too: every element gathers its delta and clip bound once from
    the four-slot tables, which are built once per params object, and
    the clamped codes are scaled by the kept deltas.  ``+ 0.0`` turns the
    ``-0.0`` value of a negative zero code into the ``+0.0`` an integer
    code gives.  Code selection runs in float64 to match the code path —
    a float32 ratio picks the adjacent code when an element sits a hair
    from a rounding tie — and only the output is float32.
    """
    tables = _TABLES.get(params)
    if tables is None:
        tables = _TABLES.setdefault(params, _fused_tables(params))
    shape = np.shape(x)
    codes, deltas, scratch = np.empty(shape), np.empty(shape), np.empty(shape)
    _fused_route(x, tables, codes, deltas, scratch)
    out = np.empty(shape, dtype=np.float32)
    np.multiply(codes, deltas, out=out, casting="same_kind")
    out += 0.0
    return out


class QUQQuantizer(Quantizer):
    """Quadruplet uniform quantizer fitted by progressive relaxation."""

    def __init__(self, bits: int, config: PRAConfig | None = None):
        super().__init__(bits)
        self.config = config or PRAConfig()
        self.params: QUQParams | None = None

    def fit(self, x: np.ndarray) -> "QUQQuantizer":
        self.params = progressive_relaxation(x, self.bits, self.config)
        self.fitted = True
        return self

    @property
    def mode(self) -> Mode:
        self._require_fitted()
        return self.params.mode

    def quantize(self, x: np.ndarray) -> QuantizedTensor:
        self._require_fitted()
        return get_kernel("quq.quantize")(x, self.params)

    def fake_quantize(self, x: np.ndarray) -> np.ndarray:
        # Dispatch through the kernel registry: fast (the fused four-slot
        # kernel) by default, the quantize->dequantize reference under
        # ``REPRO_KERNELS=reference``.  Every caller — ``QuantEnv``'s
        # quantize phase, the weight cache, the float serving backend —
        # inherits the switch through this one seam.
        self._require_fitted()
        return get_kernel("quq.fake_quantize")(x, self.params)

    def scaled(self, factor: float) -> "QUQQuantizer":
        """Copy with every scale factor multiplied by ``factor``.

        A uniform rescaling preserves the Eq. (4) power-of-two ratios, so
        the result is still a legal QUQ parameter set; the Hessian-weighted
        grid search explores these candidates.
        """
        self._require_fitted()
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")

        def scale(spec: SubrangeSpec | None) -> SubrangeSpec | None:
            if spec is None:
                return None
            return SubrangeSpec(spec.delta * factor, spec.levels)

        clone = QUQQuantizer(self.bits, self.config)
        clone.params = QUQParams(
            self.params.bits,
            f_neg=scale(self.params.f_neg),
            f_pos=scale(self.params.f_pos),
            c_neg=scale(self.params.c_neg),
            c_pos=scale(self.params.c_pos),
        )
        clone.fitted = True
        return clone
