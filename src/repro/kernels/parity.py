"""Pairwise reference-vs-fast parity harness over the kernel registry.

Backs ``python -m repro kernel-parity`` and the CI ``kernel-parity`` job.
Enumerates every registered op with a fast implementation
(:meth:`KernelRegistry.pairs`, one :class:`KernelPair` per op) and drives
its pair over deterministic seeded cases: legalized QUQ parameter sets
fitted at several bit-widths on qualitatively different data (two-sided,
positive-only softmax-like, one-sided negative, GELU-shaped,
heavy-tailed, outlier channels), the raw fits for the float
fake-quantizer, and, for it and the activation encoders, hand-built
parameters in every mode, plus adversarial inputs — NaN, ``+/-inf``,
denormals, exact zeros, all-negative tensors, zero-size arrays — and the
strided, float32 and signed-zero operands the forward passes send.  The
activation-encode ops take each params set as the
:class:`~repro.backend.kernels.FusedEncoder` the int backend builds for a
tap.  For those three quantizer ops the harness also enumerates, per
params set and in float32 and float64, every input where the output can
step (:func:`step_points`).  For the integer SFUs it enumerates every
index of the softmax and GELU tables plus :data:`TABLE_MARGIN` codes past
each end, at the walk's scale and another, and every LayerNorm row of
three small codes; their sampled cases add the walk's shapes, one-hot
rows, int64 extremes (``INT64_MIN`` is the code a NaN casts to) and rows
whose ``q - max`` wraps.  Every op with a choice inside its fast
implementation (:data:`SIDES`) must have cases on both sides of it.  A
pair passes a case when both implementations return results of equal
dtype and shape and equal values, bit for bit (NaNs compared by
position, zeros by sign; an SFU's codes and scale each), **or** both
raise the same exception type with no output at all.

Everything here is numpy-only and fully deterministic given ``seed`` —
the CI ``kernel-parity`` job installs no hypothesis; the property-based
deep fuzzing lives in ``tests/test_kernels_parity.py``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ..backend.kernels import FusedEncoder
from ..hw.int_sfu import TABLE_SCALE, exp_table, gelu_table
from ..quant.params import QUQParams, SubrangeSpec
from ..quant.qub import legalize_for_hardware
from ..quant.quq import _fused_tables
from ..quant.relax import progressive_relaxation
from . import kernel_pairs
from .registry import KernelPair

__all__ = ["run_kernel_parity", "check_pair", "parity_cases", "fitted_params_pool",
           "mode_params_pool", "step_points"]

#: Report schema version (bump on breaking shape changes).
SCHEMA_VERSION = 3

#: Bit-widths the parameter pool is fitted at.
PARAM_BITS = (4, 6, 8)

#: ulps enumerated on either side of each step point.
STEP_ULPS = 3

#: Names of the calibration distributions in the parameter pool.
DISTRIBUTIONS = ("two_sided", "positive_softmax", "negative_one_sided",
                 "gelu_like", "heavy_tail", "outliers")

#: The two sides of the choice each fast implementation makes inside
#: itself: one-delta params or the four-slot route; a softmax/GELU scale
#: with a table or without; a LayerNorm divide inside float64's exact
#: window or not.  An op fails when its cases miss a side.
SIDES = {
    "quq.fake_quantize": ("one_delta", "four_slot"),
    "qub.shifted": ("one_delta", "four_slot"),
    "qub.store_load": ("one_delta", "four_slot"),
    "sfu.softmax": ("table", "formula"),
    "sfu.gelu": ("table", "formula"),
    "sfu.layernorm": ("float64", "int64"),
}

#: SFU scales: the walk's softmax/GELU scale, which has tables, and one
#: that has none.
SFU_SCALES = (TABLE_SCALE, 2.0**-8)

#: Codes enumerated past each end of an SFU table's domain.
TABLE_MARGIN = 64

#: SFU output widths: the walk's 16 (softmax) and 12 (LayerNorm), and 8.
SFU_OUT_BITS = (8, 12, 16)

#: Enumerated LayerNorm rows hold three codes in ``[-K, K]``.
LAYERNORM_GRID = 16

_INT64 = np.iinfo(np.int64)


def _calibration_tensor(rng: np.random.Generator, kind: str) -> np.ndarray:
    """A calibration tensor with the qualitative shape ``kind``."""
    if kind == "two_sided":
        return rng.normal(0.0, 1.0, size=2048)
    if kind == "positive_softmax":
        logits = rng.normal(0.0, 2.0, size=(64, 32))
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        return (e / e.sum(axis=-1, keepdims=True)).reshape(-1)
    if kind == "negative_one_sided":
        return -np.abs(rng.normal(0.0, 1.0, size=2048))
    if kind == "gelu_like":
        x = rng.normal(0.0, 1.5, size=2048)
        return np.where(x > 0, x, 0.05 * x)
    if kind == "heavy_tail":
        return rng.standard_t(2.0, size=2048) * 2.0
    if kind == "outliers":
        # A few huge channels over a narrow bulk: the fit's coarse/fine
        # ratio exceeds the 3-bit shift field, so legalization changes it.
        x = rng.normal(0.0, 1e-3, size=2048)
        x[:8] = rng.choice([-1.0, 1.0], size=8) * rng.uniform(5.0, 10.0, size=8)
        return x
    raise ValueError(f"unknown calibration kind {kind!r}")


def _raw_params_pool(seed: int = 0) -> list[tuple[str, int, QUQParams]]:
    """``(distribution, bits, params)`` as progressive relaxation fits
    them, before hardware legalization: the float forward's parameters."""
    rng = np.random.default_rng(seed)
    pool = []
    for kind in DISTRIBUTIONS:
        data = _calibration_tensor(rng, kind)
        for bits in PARAM_BITS:
            pool.append((kind, bits, progressive_relaxation(data, bits)))
    return pool


def fitted_params_pool(seed: int = 0) -> list[tuple[str, int, QUQParams]]:
    """``(distribution, bits, legalized params)`` triples for the harness."""
    return [
        (kind, bits, legalize_for_hardware(params))
        for kind, bits, params in _raw_params_pool(seed)
    ]


def mode_params_pool(
    bits_options: Iterable[int] = PARAM_BITS,
) -> list[tuple[str, int, QUQParams]]:
    """``(mode, bits, params)`` covering every Figure-4 layout by construction.

    Fitting does not reach every mode at every width (the fitted pool has
    Mode A only at 4 bits), so these are built by hand: Mode A, and both
    orientations of Modes B, C and D (``+`` keeps the positive side's
    coarse space, ``-`` the negative side's).  Each layout comes twice:
    with a distinct shift per subrange, which exercises every slot of the
    shift tables, and with all deltas equal (suffix ``=``), where every
    shift is zero.  The one-sided negative spaces exercise the zero clamp.

    ``Cf+`` and ``Cf-`` keep the fine space on one side instead, so that
    side's fine subrange owns twice its coarse partner's levels: a code
    past the fine span clamps below it.  Their ``=`` forms are the
    equal-delta layouts that must stay off the quantizer kernels'
    one-delta branch (see :func:`repro.quant.quq._fused_tables`).
    """
    pool = []
    for bits in bits_options:
        half, quarter = 2 ** (bits - 1), 2 ** (bits - 2)
        # (shift, levels) per subrange, in QUQParams order F-, F+, C-, C+.
        layouts = {
            "A": ((0, quarter), (1, quarter), (3, quarter), (4, quarter)),
            "B+": (None, (0, half), None, (2, half)),
            "B-": ((0, half), None, (1, half), None),
            "C+": ((0, quarter), (1, quarter), None, (3, half)),
            "C-": ((1, quarter), (0, quarter), (2, half), None),
            "D+": (None, (0, half), (2, half), None),
            "D-": ((0, half), None, None, (1, half)),
            "Cf+": (None, (0, half), (2, quarter), (1, quarter)),
            "Cf-": ((0, half), None, (1, quarter), (2, quarter)),
        }
        for name, layout in layouts.items():
            for suffix, spread in (("", 1), ("=", 0)):
                specs = [
                    None if part is None
                    else SubrangeSpec(0.01 * 2.0 ** (part[0] * spread), part[1])
                    for part in layout
                ]
                pool.append((name + suffix, bits, QUQParams(bits, *specs)))
    return pool


def _float_inputs(
    rng: np.random.Generator, cases: int
) -> list[tuple[str, np.ndarray]]:
    """Float tensors incl. the adversarial set every float op must survive."""
    inputs: list[tuple[str, np.ndarray]] = [
        ("zero_size_1d", np.zeros((0,), dtype=np.float64)),
        ("zero_size_3d", np.zeros((3, 0, 5), dtype=np.float64)),
        ("zero_dim", np.array(-0.3)),
        ("all_zero", np.zeros((4, 4), dtype=np.float64)),
        ("denormals", np.array(
            [5e-324, -5e-324, 1e-310, -1e-310, 0.0, 1.0, -1.0])),
        ("nan_inf_mix", np.array(
            [np.nan, np.inf, -np.inf, 0.0, 1.0, -1.0, np.nan])),
        ("all_nan", np.full((2, 3), np.nan)),
        ("all_negative", -np.abs(rng.normal(0.0, 1.0, size=(8, 8))) - 1e-3),
        ("huge", np.array([1e300, -1e300, 1e30, -1e30, 0.5])),
    ]
    for index in range(cases):
        inputs.append(
            (f"normal_{index}",
             rng.normal(0.0, 10.0 ** rng.integers(-2, 3),
                        size=(rng.integers(1, 5), rng.integers(1, 65))))
        )
    return inputs


def _operand_inputs(rng: np.random.Generator) -> list[tuple[str, np.ndarray]]:
    """Tensors as the forward passes hand them to a quantizer: the strided
    q/k/v views of a qkv transpose, float32, signed zeros."""
    qkv = rng.normal(0.0, 1.0, size=(2, 5, 3, 2, 4)).transpose(2, 0, 3, 1, 4)
    return [
        ("signed_zeros", np.array([-0.0, 0.0, -0.0, 1e-300, -1e-300])),
        ("strided_q", qkv[0]),
        ("strided_v", qkv[2]),
        ("float32", rng.normal(0.0, 1.0, size=(3, 7)).astype(np.float32)),
    ]


def step_points(params: QUQParams, dtype: type) -> np.ndarray:
    """Every input at which Eq. (3) under ``params`` can change its output,
    each with :data:`STEP_ULPS` ulps of ``dtype`` either side, plus one
    point inside each step: sorted and unique, in ``dtype``.

    The step points are zero (the side bound) and, per active subrange,
    its rounding midpoints ``(k + 1/2) * delta``, its clip edge and, for a
    fine subrange, that edge times ``1 + 1e-6`` (its span is the routing
    bound and the product its tolerance).  The point inside each step is
    each code's own value ``k * delta``.  Values past the outer clip, NaN,
    ``+/-inf`` and signed zeros are the sampled cases' job.
    """
    steps, inside = [np.zeros(1)], []
    for subrange, spec in params.active():
        sign = -1.0 if subrange.is_negative else 1.0
        k = np.arange(spec.levels + 1, dtype=np.float64)
        edge = sign * (spec.levels if subrange.is_negative else spec.levels - 1) * spec.delta
        steps += [sign * (k + 0.5) * spec.delta, np.array([edge])]
        if subrange.is_fine:
            steps.append(np.array([edge * (1.0 + 1e-6)]))
        inside.append(sign * k * spec.delta)
    up = down = np.concatenate(steps).astype(dtype)
    near = [up]
    for _ in range(STEP_ULPS):
        up, down = np.nextafter(up, dtype(np.inf)), np.nextafter(down, dtype(-np.inf))
        near += [up, down]
    return np.unique(np.concatenate(near + [np.concatenate(inside).astype(dtype)]))


@dataclass
class _Case:
    """One parity case: a label plus the positional/keyword arguments.

    ``side`` is the side of the op's :data:`SIDES` choice the case takes
    (``None`` for an op without one); ``enumerated`` marks an input that
    enumerates a domain: :func:`step_points`, or an SFU table's indices.
    """

    label: str
    args: tuple
    kwargs: dict
    side: str | None = None
    enumerated: bool = False


def _quantizer_cases(
    prefix: str, params: QUQParams, operand, floats: list[tuple[str, np.ndarray]]
) -> Iterable[_Case]:
    """``floats``, then the step points of ``params`` in float32 and
    float64, each handed over with ``operand`` (``params`` itself, or the
    encoder built on them)."""
    side = "one_delta" if _fused_tables(params).one_delta else "four_slot"
    for name, x in floats:
        yield _Case(f"{prefix}/{name}", (x, operand), {}, side)
    for dtype in (np.float32, np.float64):
        x = step_points(params, dtype)
        yield _Case(f"{prefix}/steps_{x.dtype}", (x, operand), {}, side, enumerated=True)


# ---------------------------------------------------------------------------
# sfu.* cases
# ---------------------------------------------------------------------------

def _layernorm_side(q: np.ndarray, out_bits: int) -> str | None:
    """``float64`` when ``max|centered| << out_bits < 2**53`` (the divide is
    exact in float64), else ``int64``; ``None`` for a 0-d ``q``, which
    has no rows."""
    if q.ndim == 0:
        return None
    with np.errstate(divide="ignore"):  # a zero-width row divides by 0
        centered = q - np.floor_divide(q.sum(axis=-1, keepdims=True), q.shape[-1])
    if not 0 <= out_bits < 63:
        return "int64"
    inside = centered.size == 0 or (
        max(-int(centered.min()), int(centered.max())) << out_bits) < 1 << 53
    return "float64" if inside else "int64"


def _sfu_case(op: str, label: str, q, s: float, enumerated: bool = False, **kwargs) -> _Case:
    """A case calling ``op`` on int64 codes ``q`` at scale ``s``, with the
    side of its fast implementation's choice it takes."""
    q = np.asarray(q, dtype=np.int64)
    if op == "sfu.layernorm":
        side = _layernorm_side(q, kwargs.get("out_bits", 8))
    else:
        side = "table" if s == TABLE_SCALE else "formula"
    return _Case(label, (q, s), kwargs, side, enumerated)


def _scale_tag(s: float) -> str:
    return f"s2^{int(np.log2(s))}"


def _softmax_cases(rng: np.random.Generator, cases: int) -> Iterable[_Case]:
    """Per scale: rows ``[0, -d]`` for every exp-table index ``d`` and
    :data:`TABLE_MARGIN` past its end, along either axis (at 30 output
    bits each exp moves the codes), then sampled and edge rows."""
    op = "sfu.softmax"
    lo, hi = _INT64.min, _INT64.max
    for s in SFU_SCALES:
        tag = _scale_tag(s)
        d = np.arange(exp_table(s).size + TABLE_MARGIN)
        rows = np.stack([np.zeros_like(d), -d], axis=-1)
        for out_bits in SFU_OUT_BITS + (30,):
            yield _sfu_case(op, f"{tag}/table_rows_{out_bits}", rows, s, enumerated=True,
                            out_bits=out_bits)
            yield _sfu_case(op, f"{tag}/table_cols_{out_bits}", rows.T, s, enumerated=True,
                            axis=0, out_bits=out_bits)
        yield _sfu_case(op, f"{tag}/table_rows_offset", rows + (1 << 40), s, enumerated=True)
        for index in range(cases):
            # The walk's attention shape; a trained model's rows span
            # tens of thousands of codes, so some spreads are wide.
            spread = 2.0 * 6.0 ** (index % 3)
            q = np.rint(rng.normal(0.0, spread, size=(2, 2, 17, 17)) / s)
            yield _sfu_case(op, f"{tag}/scores_{index}", q, s,
                            axis=-1 if index % 2 == 0 else 1,
                            out_bits=SFU_OUT_BITS[index % len(SFU_OUT_BITS)])
        edges = {
            # Every other entry underflows: probability 1.0, code 2**out_bits.
            "one_hot": ([[0, -20000, -30000]], {}),
            "one_element_8": ([[5], [-7]], {"out_bits": 8}),
            "zero_size_rows": (np.zeros((3, 0)), {}),
            "no_rows": (np.zeros((0, 4)), {}),
            "zero_dim": (np.array(3), {}),
            "whole_tensor": (rng.integers(-4000, 4000, size=(3, 5)), {"axis": None}),
            # q - max is INT64_MIN: the formula reads a wrapped code.
            "nan_code_row": ([[lo, 0, 0], [0, 1, 2]], {}),
            # q - max wraps positive: the formula raises.
            "wrapped_row": ([[lo, 5]], {}),
            "int64_span": ([[hi, lo]], {}),
            "int64_max_row": ([[hi, hi - 1, hi - 40000]], {}),
            "int64_min_row": ([[lo, lo + 1, lo + 700]], {}),
        }
        for name, (q, kwargs) in edges.items():
            yield _sfu_case(op, f"{tag}/{name}", q, s, **kwargs)


def _gelu_cases(rng: np.random.Generator, cases: int) -> Iterable[_Case]:
    """Per scale: every code of the factor table's ``[-clip, clip]`` and
    :data:`TABLE_MARGIN` past each end, then sampled and edge codes."""
    op = "sfu.gelu"
    lo, hi = _INT64.min, _INT64.max
    for s in SFU_SCALES:
        tag = _scale_tag(s)
        clip = gelu_table(s)[0].size // 2
        q = np.arange(-clip - TABLE_MARGIN, clip + TABLE_MARGIN + 1)
        yield _sfu_case(op, f"{tag}/table", q, s, enumerated=True)
        for index in range(cases):
            hidden = rng.normal(0.0, 1.5 * 2.0 ** (index % 3), size=(2, 17, 128))
            yield _sfu_case(op, f"{tag}/hidden_{index}", np.rint(hidden / s), s)
        edges = {
            "wide": rng.integers(-(1 << 40), 1 << 40, size=64),
            "zero_size": np.zeros((3, 0)),
            "zero_dim": np.array(-7),
            # INT64_MIN has no |q|; past INT64_MAX - clip the index wraps.
            "int64_extremes": [lo, lo + 1, -1, 0, 1, hi - clip, hi],
            "nan_code": [lo],
            "int64_max": [lo + 1, hi - clip, hi - clip + 1],
            "table_edges": [lo + 1, -clip - 1, clip + 1, hi - clip],
        }
        for name, q in edges.items():
            yield _sfu_case(op, f"{tag}/{name}", q, s)


def _layernorm_cases(rng: np.random.Generator, cases: int) -> Iterable[_Case]:
    """Every row of three codes in ``[-K, K]`` per output width, the walk's
    token shapes with and without the affine fold, rows on both sides of
    float64's exact window, and int64 extremes."""
    op = "sfu.layernorm"
    s = 2.0**-14  # the walk's LayerNorm scale; the op has no table
    lo, hi = _INT64.min, _INT64.max
    axis = np.arange(-LAYERNORM_GRID, LAYERNORM_GRID + 1)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    for out_bits in SFU_OUT_BITS:
        yield _sfu_case(op, f"grid_{out_bits}", grid, s, enumerated=True, out_bits=out_bits)
        for index in range(cases):
            tokens = rng.normal(0.5, 1.0 * 4.0 ** (index % 3), size=(2, 17, 32))
            affine = {} if index % 2 else {
                "weight": rng.normal(1.0, 0.1, size=32), "bias": rng.normal(0.0, 0.1, size=32)}
            yield _sfu_case(op, f"tokens_{out_bits}_{index}", np.rint(tokens / s), s,
                            out_bits=out_bits, **affine)
    # Past the window without a wrapped variance: |centered| near 2**29
    # at 24 output bits, its edge at exactly 2**53, and wide rows.
    edge = 1 << 29
    windows = {
        "inside_edge_24": ([[edge - 1, -(edge - 1)]], 24),
        "outside_edge_24": ([[edge, -edge]], 24),
        "wide_24": (rng.integers(-(1 << 30), 1 << 30, size=(6, 16)), 24),
        "wide_30": (rng.integers(-(1 << 28), 1 << 28, size=(6, 16)), 30),
        "inside_24": (rng.integers(-(1 << 27), 1 << 27, size=(6, 16)), 24),
        # No factor: 2**63 wraps to INT64_MIN, and a shift past 63 is 0.
        "out_bits_63": ([[1, 2, 3, 4]], 63),
        "out_bits_64": ([[1, 2, 3, 4]], 64),
        # Wrapped variances: the formula's square root raises on a
        # negative one and reads a wrapped code otherwise.
        "nan_code_rows": ([[lo, 0, 0, 0], [0, 1, 2, 3]], 12),
        "int64_extremes": ([[hi, lo, 0, 1]], 12),
        "wrapped_variance": ([[1 << 33, -(1 << 33), 0, 0]], 12),
        "negative_variance": ([[(1 << 31) + 1, -(1 << 31) - 1, 0, 0]], 12),
        "int64_max_row": ([[hi, hi, hi, hi - 1]], 12),
    }
    for name, (q, out_bits) in windows.items():
        yield _sfu_case(op, name, q, s, out_bits=out_bits)
    for name, q in {"one_column": np.arange(5)[:, None], "constant_rows": np.full((3, 4), 9),
                    "zero_size": np.zeros((3, 0)), "zero_dim": np.array(4)}.items():
        yield _sfu_case(op, name, q, s, out_bits=12)
    yield _sfu_case(op, "affine_wide_24", rng.integers(-(1 << 30), 1 << 30, size=(3, 4)), s,
                    weight=rng.normal(1.0, 0.1, size=4), bias=rng.normal(0.0, 0.1, size=4),
                    out_bits=24)


def parity_cases(
    op: str, seed: int = 0, cases: int = 8
) -> Iterable[_Case]:
    """Deterministic case list for ``op`` (same seed -> same cases)."""
    # crc32, not hash(): PYTHONHASHSEED must not change the cases.
    rng = np.random.default_rng((seed, zlib.crc32(op.encode())))
    pool = fitted_params_pool(seed)
    floats = _float_inputs(rng, cases)

    if op == "quq.fake_quantize":
        # The float forward quantizes with the raw fits (legalization is
        # the int backend's), on its own operand shapes.
        floats += _operand_inputs(rng)
        raw = [(f"{kind}-raw", bits, p) for kind, bits, p in _raw_params_pool(seed)]
        for kind, bits, params in pool + raw + mode_params_pool():
            yield from _quantizer_cases(f"{kind}/b{bits}", params, params, floats)
        return

    if op in ("qub.shifted", "qub.store_load"):
        floats += _operand_inputs(rng)  # the int backend's operand shapes
        for kind, bits, params in pool + mode_params_pool():
            encoder = FusedEncoder(params, bits)  # as the int backend builds a tap's
            yield from _quantizer_cases(f"{kind}/b{bits}", encoder.params, encoder, floats)
        return

    if op == "qub.pack":
        for bits in (1, 4, 6, 8, 12, 16):
            for index in range(max(2, cases // 2)):
                words = rng.integers(0, 1 << bits,
                                     size=rng.integers(0, 40))
                yield _Case(f"b{bits}/words_{index}", (words, bits), {})
            yield _Case(f"b{bits}/empty",
                        (np.zeros(0, dtype=np.uint16), bits), {})
        yield _Case("bad_bits", (np.zeros(4, dtype=np.uint8), 17), {})
        yield _Case("overflow_word", (np.array([256], dtype=np.uint16), 8), {})
        return

    if op == "gemm.int":
        shapes = [((4, 8), (8, 3)), ((1, 1), (1, 1)), ((0, 5), (5, 2)),
                  ((3, 0), (0, 4)), ((2, 3, 4), (2, 4, 5))]
        for index, (sx, sw) in enumerate(shapes):
            x = rng.integers(-(1 << 14), 1 << 14, size=sx)
            w = rng.integers(-(1 << 14), 1 << 14, size=sw)
            yield _Case(f"small_{index}", (x, w), {})
        # Outside the 2**53 exactness window: the fast path must fall back.
        big = np.full((2, 2), (1 << 31) - 1, dtype=np.int64)
        yield _Case("overflow_window", (big, big), {})
        # |INT64_MIN| wraps under np.abs; the guard must still fall back.
        int64_min = np.array([[np.iinfo(np.int64).min, 1]], dtype=np.int64)
        yield _Case("int64_min", (int64_min, np.array([[2], [1]])), {})
        for index in range(cases):
            k = int(rng.integers(1, 96))
            x = rng.integers(-(1 << 14), 1 << 14, size=(rng.integers(1, 8), k))
            w = rng.integers(-(1 << 14), 1 << 14, size=(k, rng.integers(1, 8)))
            yield _Case(f"random_{index}", (x, w), {})
        return

    sfu = {"sfu.softmax": _softmax_cases, "sfu.gelu": _gelu_cases,
           "sfu.layernorm": _layernorm_cases}.get(op)
    if sfu is not None:
        yield from sfu(rng, cases)
        return

    raise ValueError(f"no parity case generator for op {op!r}")


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def _outcome(fn: Callable, case: _Case):
    try:
        # Degenerate SFU cases (zero-width rows, wrapped codes) divide by
        # zero alike on both sides; only results and exception types count.
        with np.errstate(all="ignore"):
            return fn(*case.args, **case.kwargs), None
    except Exception as error:  # noqa: BLE001 — compared by type below
        return None, error


def _mismatch(ref_result, fast_result) -> str | None:
    """``None`` when the results are equal bit for bit: same dtype and
    shape, then equal values with NaNs compared by position and zeros by
    sign; else what differs."""
    a, b = np.asarray(ref_result), np.asarray(fast_result)
    if a.dtype != b.dtype:
        return f"dtypes differ: reference {a.dtype}, fast {b.dtype}"
    if a.shape != b.shape:
        return f"shapes differ: reference {a.shape}, fast {b.shape}"
    if not np.array_equal(a, b, equal_nan=True):
        return "values differ"
    if a.dtype.kind == "f" and not np.array_equal(np.signbit(a[a == 0]), np.signbit(b[b == 0])):
        return "signs of zero differ"
    return None


def _check_case(pair: KernelPair, case: _Case) -> str | None:
    """``None`` on agreement, else a human-readable mismatch description."""
    ref_result, ref_error = _outcome(pair.reference, case)
    fast_result, fast_error = _outcome(pair.fast, case)
    if ref_error is not None or fast_error is not None:
        if ref_error is None:
            return f"fast raised {type(fast_error).__name__}, reference returned"
        if fast_error is None:
            return f"reference raised {type(ref_error).__name__}, fast returned"
        if type(ref_error) is not type(fast_error):
            return (
                f"exception types differ: reference "
                f"{type(ref_error).__name__}, fast {type(fast_error).__name__}"
            )
        return None
    if isinstance(ref_result, tuple):  # an SFU's (codes, scale)
        if not isinstance(fast_result, tuple) or len(fast_result) != len(ref_result):
            return "result structures differ"
        for name, a, b in zip(("codes", "scale"), ref_result, fast_result):
            problem = _mismatch(a, b)
            if problem is not None:
                return f"{name}: {problem}"
        return None
    return _mismatch(ref_result, fast_result)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def check_pair(pair: KernelPair, seed: int = 0, cases: int = 8) -> dict:
    """Drive one pair over its op's case list; the report's per-op entry.

    ``enumerated_points`` counts the elements of the enumerating cases
    (:func:`step_points`, the SFU tables' indices, the LayerNorm grid).
    The entry of an op in :data:`SIDES` also counts its cases on each side
    of its choice (``sides``), and fails when a side has none.
    """
    mismatches = []
    checked = points = 0
    sides = dict.fromkeys(SIDES.get(pair.op, ()), 0)
    for case in parity_cases(pair.op, seed=seed, cases=cases):
        checked += 1
        if case.enumerated:
            points += case.args[0].size
        if case.side is not None:
            sides[case.side] += 1
        problem = _check_case(pair, case)
        if problem is not None:
            mismatches.append({"case": case.label, "problem": problem, "side": case.side})
    entry = {"cases": checked, "enumerated_points": points}
    if sides:
        entry["sides"] = sides
        mismatches += [
            {"case": side, "problem": f"no case on this side of the {' / '.join(sides)} choice",
             "side": side}
            for side, count in sides.items() if not count
        ]
    return {**entry, "mismatches": mismatches, "passed": not mismatches}


def run_kernel_parity(seed: int = 0, cases: int = 8) -> dict:
    """Drive every registered pair over its case list; JSON-able report.

    ``ops`` holds one entry per pair (:func:`check_pair`), with its case
    count, enumerated points and side counts.  The report's
    ``passed`` is True iff every pair agreed on every case; ``source``
    marks it as coming from the registry harness.
    """
    pairs = kernel_pairs()  # loads the built-in registrations
    ops = {pair.op: check_pair(pair, seed=seed, cases=cases) for pair in pairs}
    failures = sum(len(entry["mismatches"]) for entry in ops.values())
    return {
        "schema_version": SCHEMA_VERSION,
        "source": "kernel-registry",
        "seed": seed,
        "cases_per_generator": cases,
        "pairs_checked": len(pairs),
        "failures": failures,
        "passed": failures == 0,
        "ops": ops,
    }
