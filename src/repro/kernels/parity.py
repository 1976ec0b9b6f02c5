"""Pairwise reference-vs-fast parity harness over the kernel registry.

Backs ``python -m repro kernel-parity`` and the CI ``kernel-parity`` job.
Enumerates every registered ``(op, reference, fast)`` pair
(:meth:`KernelRegistry.pairs`) and drives it over deterministic seeded
cases: legalized QUQ parameter sets fitted at several bit-widths on
qualitatively different data (two-sided, positive-only softmax-like,
one-sided negative, GELU-shaped, heavy-tailed) and, for the activation
encoders, hand-built parameters in every mode, plus adversarial inputs —
NaN, ``+/-inf``, denormals, exact zeros, all-negative tensors, zero-size
arrays.  A pair passes a case when both variants return equal results
(``np.array_equal`` with NaNs compared positionally and zeros by sign,
or ``np.allclose`` for tolerance specs) **or** both raise the same
exception type with no output at all.

Everything here is numpy-only and fully deterministic given ``seed`` —
the CI ``kernel-parity`` job installs no hypothesis; the property-based
deep fuzzing lives in ``tests/test_kernels_parity.py``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from ..quant.params import QUQParams, SubrangeSpec
from ..quant.qub import FCRegisters, legalize_for_hardware
from ..quant.quq import quantize_with_params
from ..quant.relax import progressive_relaxation
from . import kernel_pairs
from .registry import KernelImpl

__all__ = ["run_kernel_parity", "parity_cases", "fitted_params_pool",
           "mode_params_pool"]

#: Report schema version (bump on breaking shape changes).
SCHEMA_VERSION = 1

#: Bit-widths the parameter pool is fitted at.
PARAM_BITS = (4, 6, 8)

#: Names of the calibration distributions in the parameter pool.
DISTRIBUTIONS = ("two_sided", "positive_softmax", "negative_one_sided",
                 "gelu_like", "heavy_tail")


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
    raise ValueError(f"unknown calibration kind {kind!r}")


def fitted_params_pool(seed: int = 0) -> list[tuple[str, int, QUQParams]]:
    """``(distribution, bits, legalized params)`` triples for the harness."""
    rng = np.random.default_rng(seed)
    pool = []
    for kind in DISTRIBUTIONS:
        data = _calibration_tensor(rng, kind)
        for bits in PARAM_BITS:
            params = legalize_for_hardware(
                progressive_relaxation(data, bits)
            )
            pool.append((kind, bits, params))
    return pool


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


def _int_inputs(
    rng: np.random.Generator, cases: int, low: int, high: int,
    non_positive: bool = False, non_negative: bool = False,
) -> list[tuple[str, np.ndarray]]:
    inputs: list[tuple[str, np.ndarray]] = [
        ("zero_size_1d", np.zeros((0,), dtype=np.int64)),
        ("zero_size_3d", np.zeros((2, 0, 3), dtype=np.int64)),
        ("all_zero", np.zeros((4, 4), dtype=np.int64)),
    ]
    for index in range(cases):
        arr = rng.integers(low, high, size=(rng.integers(1, 5),
                                            rng.integers(1, 33)))
        if non_positive:
            arr = -np.abs(arr)
        if non_negative:
            arr = np.abs(arr)
        inputs.append((f"int_{index}", arr.astype(np.int64)))
    return inputs


@dataclass
class _Case:
    """One parity case: a label plus the positional/keyword arguments."""

    label: str
    args: tuple
    kwargs: dict


def _quantized(x: np.ndarray, params: QUQParams):
    return quantize_with_params(np.asarray(x, dtype=np.float64), params)


def parity_cases(
    op: str, seed: int = 0, cases: int = 8
) -> Iterable[_Case]:
    """Deterministic case list for ``op`` (same seed -> same cases)."""
    # crc32, not hash(): PYTHONHASHSEED must not change the cases.
    rng = np.random.default_rng((seed, zlib.crc32(op.encode())))
    pool = fitted_params_pool(seed)
    floats = _float_inputs(rng, cases)

    if op in ("quq.fake_quantize", "quq.quantize"):
        for kind, bits, params in pool:
            for name, x in floats:
                yield _Case(f"{kind}/b{bits}/{name}", (x, params), {})
        return

    if op == "qub.encode":
        for kind, bits, params in pool:
            for name, x in floats:
                yield _Case(f"{kind}/b{bits}/{name}", (x, params, bits), {})
        # Contract violation: params wider than the QUB word.
        _, _, wide = pool[-1]
        yield _Case("bits_overflow", (floats[0][1], wide, wide.bits - 1), {})
        return

    if op in ("qub.shifted", "qub.store_load"):
        # The int backend's operand shapes: the strided q/k/v views its
        # qkv transpose hands the encoder, float32, signed zeros.
        qkv = rng.normal(0.0, 1.0, size=(2, 5, 3, 2, 4)).transpose(2, 0, 3, 1, 4)
        floats += [
            ("signed_zeros", np.array([-0.0, 0.0, -0.0, 1e-300, -1e-300])),
            ("strided_q", qkv[0]),
            ("strided_v", qkv[2]),
            ("float32", rng.normal(0.0, 1.0, size=(3, 7)).astype(np.float32)),
        ]
        for kind, bits, params in pool + mode_params_pool():
            for name, x in floats:
                yield _Case(f"{kind}/b{bits}/{name}", (x, params, bits), {})
        _, _, wide = pool[-1]
        yield _Case("bits_overflow", (floats[0][1], wide, wide.bits - 1), {})
        return

    if op == "qub.encode_batch":
        for kind, bits, params in pool[:: len(PARAM_BITS)]:
            members = [
                _quantized(x, params)
                for _, x in floats[: cases // 2 + 2]
            ]
            yield _Case(f"{kind}/b{bits}/multi", (members,), {})
            yield _Case(
                f"{kind}/b{bits}/with_empty",
                ([_quantized(np.zeros((0,)), params)] + members[:1],), {},
            )
        yield _Case("empty_list", ([],), {})
        kind_a, _, params_a = pool[0]
        kind_b, _, params_b = pool[-1]
        yield _Case(
            "mixed_params",
            ([_quantized(floats[-1][1], params_a),
              _quantized(floats[-1][1], params_b)],), {},
        )
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

    if op == "qub.decode_lut":
        for kind, bits, params in pool:
            registers = FCRegisters.from_params(params)
            yield _Case(f"{kind}/b{bits}", (registers, bits), {})
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

    if op == "sfu.sqrt":
        for case in _int_inputs(rng, cases, 0, 1 << 40, non_negative=True):
            yield _Case(case[0], (case[1],), {})
        yield _Case("negative_input", (np.array([-1, 4]),), {})
        yield _Case("above_exact_window",
                    (np.array([(1 << 52) + 1, 1 << 60]),), {})
        return

    if op == "sfu.exp":
        for case in _int_inputs(rng, cases, 0, 1 << 12, non_positive=True):
            yield _Case(case[0], (case[1], 2.0**-10), {})
        yield _Case("positive_input", (np.array([1, -1]), 2.0**-10), {})
        return

    if op == "sfu.softmax":
        for out_bits in (12, 16):
            for case in _int_inputs(rng, cases // 2 + 1,
                                    -(1 << 12), 1 << 12):
                yield _Case(f"ob{out_bits}/{case[0]}", (case[1], 2.0**-10),
                            {"out_bits": out_bits})
        return

    if op == "sfu.gelu":
        for case in _int_inputs(rng, cases, -(1 << 12), 1 << 12):
            yield _Case(case[0], (case[1], 2.0**-10), {})
        return

    if op == "sfu.layernorm":
        weight = rng.normal(1.0, 0.1, size=16)
        bias = rng.normal(0.0, 0.1, size=16)
        for out_bits in (8, 12):
            for index in range(cases // 2 + 1):
                q = rng.integers(-(1 << 12), 1 << 12,
                                 size=(rng.integers(1, 5), 16))
                yield _Case(f"ob{out_bits}/plain_{index}", (q, 2.0**-14),
                            {"out_bits": out_bits})
                yield _Case(
                    f"ob{out_bits}/affine_{index}", (q, 2.0**-14),
                    {"weight": weight, "bias": bias, "out_bits": out_bits},
                )
        return

    raise ValueError(f"no parity case generator for op {op!r}")


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def _outcome(fn: Callable, case: _Case):
    try:
        return fn(*case.args, **case.kwargs), None
    except Exception as error:  # noqa: BLE001 — compared by type below
        return None, error


def _flatten(result) -> list:
    if isinstance(result, tuple):
        return [part for item in result for part in _flatten(item)]
    if isinstance(result, list):
        return [part for item in result for part in _flatten(item)]
    return [result]


def _parts_equal(a, b, parity) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a_arr, b_arr = np.asarray(a), np.asarray(b)
        if a_arr.shape != b_arr.shape:
            return False
        if parity is not None and not parity.bit_exact:
            return bool(np.allclose(a_arr, b_arr, rtol=parity.rtol,
                                    atol=parity.atol, equal_nan=True))
        if not np.array_equal(a_arr, b_arr, equal_nan=True):
            return False
        # Bit-exact floats also agree on the sign of zero.
        return a_arr.dtype.kind != "f" or bool(np.array_equal(
            np.signbit(a_arr[a_arr == 0]), np.signbit(b_arr[b_arr == 0])
        ))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (np.isnan(a) and np.isnan(b))
    return a == b


def _results_match(ref_result, fast_result, parity) -> bool:
    ref_parts = _flatten(ref_result)
    fast_parts = _flatten(fast_result)
    if len(ref_parts) != len(fast_parts):
        return False
    return all(
        _parts_equal(a, b, parity) for a, b in zip(ref_parts, fast_parts)
    )


def _check_case(
    reference: KernelImpl, fast: KernelImpl, case: _Case
) -> str | None:
    """``None`` on agreement, else a human-readable mismatch description."""
    ref_result, ref_error = _outcome(reference.fn, case)
    fast_result, fast_error = _outcome(fast.fn, case)
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
    if not _results_match(ref_result, fast_result, fast.parity):
        return f"results differ ({fast.parity.describe()} contract)"
    return None


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def run_kernel_parity(seed: int = 0, cases: int = 8) -> dict:
    """Drive every registered pair over its case list; JSON-able report.

    The report's ``passed`` is True iff every pair agreed on every case;
    ``source`` marks it as coming from the registry harness.
    """
    pairs = kernel_pairs()  # loads the built-in registrations
    ops: dict[str, dict] = {}
    failures = 0
    for op, reference, fast in pairs:
        checked = 0
        mismatches = []
        for case in parity_cases(op, seed=seed, cases=cases):
            checked += 1
            problem = _check_case(reference, fast, case)
            if problem is not None:
                mismatches.append({"case": case.label, "problem": problem})
        failures += len(mismatches)
        entry = ops.setdefault(op, {"pairs": []})
        entry["pairs"].append({
            "fast_variant": fast.variant,
            "parity": fast.parity.describe(),
            "cases": checked,
            "mismatches": mismatches,
            "passed": not mismatches,
        })
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
