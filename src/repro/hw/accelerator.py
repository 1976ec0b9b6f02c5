"""Behavioral model of the quadruplet uniform accelerator (QUA, Figure 6).

Bit-exact simulation of the integer datapath:

* **Decoding unit (DU)** — turns QUB bytes into ``(D, n_sh)`` per Eq. (6)-(7).
* **PE array** — multiply-accumulate over decoded operands with the
  product shift of Eq. (5); integer-only, verified to match the float GEMM
  over dequantized values exactly.
* **Quantization unit (QU)** — requantizes accumulator values into the
  output tensor's QUQ parameters (the hardware performs the subrange
  comparison with leading-zero/one detection; the behavioral model uses the
  equivalent arithmetic comparison).
* **Special function unit (SFU)** — decodes QUBs into plain integers
  ``d = D << n_sh`` on its load path, then applies LayerNorm / Softmax /
  GELU / addition at full precision (the paper streams these through the
  same SFUs as a uniform-quantization accelerator).

A simple weight-stationary cycle model rounds out the performance side.

Soft errors: every storage fetch and accumulator write-back can run
through an optional :class:`~repro.hw.faults.BitFaultInjector` plus a
:class:`~repro.hw.protect.ProtectionConfig` (per-word parity on QUB
fetches, TMR on the FC register bytes, a magnitude-envelope guard on PE
accumulators).  With ``faults=None`` (the default) every path is
bit-exact with the fault-free model — no extra work, no extra copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..kernels import get_kernel
from ..quant.params import QUQParams
from ..quant.qub import FCRegisters, decode, encode, legalize_for_hardware, quantize_encode
from ..quant.quq import QuantizedTensor, quantize_with_params
from ..quant.relax import PRAConfig, progressive_relaxation
from ..resilience.guards import NumericGuard, NumericGuardError
from .faults import SITE_QUB, SITE_REGISTER, SITE_SFU, BitFaultInjector
from .protect import ProtectionConfig, ProtectionStats, majority_vote, parity_filter

__all__ = ["EncodedTensor", "encode_tensor", "QUA", "gemm_cycles"]


@dataclass
class EncodedTensor:
    """A tensor in QUA wire format: QUB bytes + FC registers + base delta."""

    qubs: np.ndarray
    registers: FCRegisters
    base_delta: float
    bits: int
    # Memoized decode: deterministic given (qubs, registers), and
    # verification passes re-decode the same packed weights many times
    # over.  Fault injection never reads it — the QUA fetch paths decode
    # their own (possibly corrupted) copies of the bytes.
    _decoded: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.qubs.shape

    def decoded(self) -> tuple[np.ndarray, np.ndarray]:
        """Run the DU over every element: returns (D, n_sh), cached."""
        if self._decoded is None:
            self._decoded = decode(self.qubs, self.registers, self.bits)
        return self._decoded

    def to_float(self) -> np.ndarray:
        """SFU load path: d = D << n_sh, scaled by the base delta."""
        d, n_sh = self.decoded()
        return (d.astype(np.float64) * (1 << n_sh).astype(np.float64)) * self.base_delta


def encode_tensor(
    x: np.ndarray,
    bits: int,
    params: QUQParams | None = None,
    config: PRAConfig | None = None,
) -> EncodedTensor:
    """Quantize ``x`` with (hardware-legal) QUQ parameters and encode it.

    Runs the spec path, :func:`~repro.quant.qub.quantize_encode`
    (Eq. 3, then the QUB words), under any ``REPRO_KERNELS`` setting.
    ``params`` default to a progressive-relaxation fit of ``x``.
    """
    if params is None:
        params = progressive_relaxation(x, bits, config)
    return EncodedTensor(*quantize_encode(x, params, bits), bits)


class QUA:
    """Quadruplet uniform accelerator: integer GEMM plus requantization.

    ``faults`` (a :class:`BitFaultInjector`) arms soft-error injection at
    the QUB/register/accumulator/SFU sites; ``protection`` selects which
    hardening schemes absorb them, and ``stats`` is the
    detected-vs-silent ledger (pass one in to share it; an executor runs
    every GEMM and reload of a forward pass on a single QUA).
    """

    def __init__(
        self,
        array: int = 16,
        faults: BitFaultInjector | None = None,
        protection: ProtectionConfig | None = None,
        stats: ProtectionStats | None = None,
        guard_saturation: float = 1e6,
    ):
        if array < 1:
            raise ValueError("PE array size must be >= 1")
        self.array = array
        self.faults = faults
        if protection is None:
            # All schemes armed by default when injecting; irrelevant otherwise.
            protection = ProtectionConfig()
        self.protection = protection
        self.stats = stats if stats is not None else ProtectionStats()
        self.guard = NumericGuard(guard_saturation)

    # ------------------------------------------------------------------
    # Fetch paths: where injection and protection meet the datapath.
    def _fetch_registers(self, registers: FCRegisters, site: str) -> FCRegisters:
        """Load the FC register bytes through TMR voting and strict unpack.

        A corruption that survives the vote is caught by
        :meth:`FCRegisters.unpack` if it produces an illegal byte (modeled
        as a machine-check reload of the golden bytes) and is otherwise a
        *silent* register corruption — the worst failure class, since one
        byte misconfigures the decode of an entire tensor.
        """
        if self.faults is None:
            return registers
        golden = np.array(registers.pack(), dtype=np.uint8)
        copies = 3 if self.protection.tmr else 1
        loaded = [
            self.faults.corrupt_words(golden, 8, SITE_REGISTER, f"{site}/r{i}")
            for i in range(copies)
        ]
        faulted = sum(1 for copy in loaded if copy is not golden)
        self.stats.register_faulted_copies += faulted
        voted = majority_vote(loaded) if copies == 3 else loaded[0]
        if np.array_equal(voted, golden):
            self.stats.register_corrected += faulted
            return registers
        try:
            reloaded = FCRegisters.unpack(int(voted[0]), int(voted[1]))
        except ValueError:
            self.stats.register_detected += 1
            return registers
        self.stats.register_silent += 1
        return reloaded

    def _fetch(
        self, t: EncodedTensor, site: str, site_class: str = SITE_QUB
    ) -> tuple[np.ndarray, FCRegisters]:
        """One storage fetch: corrupt the QUB words, run the parity check."""
        if self.faults is None:
            return t.qubs, t.registers
        faulty = self.faults.corrupt_words(t.qubs, t.bits, site_class, site)
        qubs, faulted, detected, silent = parity_filter(
            t.qubs, faulty, t.bits, self.protection.parity
        )
        if site_class == SITE_SFU:
            self.stats.sfu_faulted_words += faulted
            self.stats.sfu_detected += detected
            self.stats.sfu_silent += silent
        else:
            self.stats.qub_faulted_words += faulted
            self.stats.qub_detected += detected
            self.stats.qub_silent += silent
        return qubs, self._fetch_registers(t.registers, site)

    # ------------------------------------------------------------------
    def integer_gemm(
        self, x: EncodedTensor, w: EncodedTensor, site: str = "gemm"
    ) -> np.ndarray:
        """PE-array MAC: ``sum_k (Dx*Dw) << (nx+nw)``, int64 accumulators.

        ``x`` is ``(..., M, K)``, ``w`` is ``(..., K, N)`` (batched GEMMs
        broadcast like ``numpy.matmul``).  The shifted operands fit well
        inside int64 (|D| < 2^(b-1), shifts <= 7 each), so the int64
        matmul reproduces the hardware accumulation exactly.

        With faults armed, both operand fetches pass through the parity/TMR
        path, and accumulator bit flips land after the matmul.  The range
        guard compares each faulty accumulator against its exact magnitude
        envelope ``|Dx << nx| @ |Dw << nw|``; violations recompute the tile.
        """
        w_rows = w.shape[0] if len(w.shape) == 1 else w.shape[-2]
        if x.shape[-1] != w_rows:
            raise ValueError(f"GEMM shape mismatch: {x.shape} @ {w.shape}")
        qx, rx = self._fetch(x, f"{site}/x")
        qw, rw = self._fetch(w, f"{site}/w")
        dx, nx = decode(qx, rx, x.bits)
        dw, nw = decode(qw, rw, w.bits)
        shifted_x = dx << nx  # (Dx << nx); the split of the total shift
        shifted_w = dw << nw  # between operands is mathematically free
        # The PE-array MAC goes through the registry: the BLAS-window fast
        # GEMM by default, the int64 matmul under REPRO_KERNELS=reference.
        acc = get_kernel("gemm.int")(shifted_x, shifted_w)
        if self.faults is None:
            return acc
        faulty = self.faults.corrupt_accumulator(acc, site)
        if faulty is acc:
            return acc
        changed = faulty != acc
        faulted = int(changed.sum())
        self.stats.acc_faulted_words += faulted
        if self.protection.range_guard:
            envelope = np.abs(shifted_x) @ np.abs(shifted_w)
            flagged = np.abs(faulty) > envelope  # golden never exceeds it
            detected = int(flagged.sum())
            self.stats.acc_detected += detected
            self.stats.acc_silent += faulted - detected
            return np.where(flagged, acc, faulty)
        self.stats.acc_silent += faulted
        return faulty

    def gemm(
        self, x: EncodedTensor, w: EncodedTensor, site: str = "gemm"
    ) -> np.ndarray:
        """Integer GEMM scaled back to real values (float64)."""
        acc = self.integer_gemm(x, w, site=site)
        return acc.astype(np.float64) * (x.base_delta * w.base_delta)

    # ------------------------------------------------------------------
    def requantize(
        self, acc: np.ndarray, scale: float, out_params: QUQParams
    ) -> QuantizedTensor:
        """QU: map int accumulators into the output tensor's QUQ codes.

        ``scale`` is ``delta_x * delta_w``.  The hardware selects the
        output subrange by comparing the (shifted) accumulator against
        power-of-two boundaries via leading-zero/one counts; arithmetically
        that is exactly the subrange-assignment rule of Eq. (3), which the
        behavioral model applies directly.

        Non-finite or saturated inputs (a poisoned upstream SFU, a silent
        accumulator corruption blown up by the scale) are rejected through
        the numeric guardrail with :class:`NumericGuardError` rather than
        silently clipped into in-range codes.
        """
        out_params = legalize_for_hardware(out_params)
        values = acc.astype(np.float64) * scale
        verdict = self.guard.scan(values)
        if not verdict.ok:
            self.stats.guard_trips += 1
            raise NumericGuardError(f"QU input rejected: {verdict.reason}")
        return quantize_with_params(values, out_params)

    def gemm_requantized(
        self,
        x: EncodedTensor,
        w: EncodedTensor,
        out_params: QUQParams,
        site: str = "gemm",
    ) -> EncodedTensor:
        """Full PE-array -> QU pipeline: GEMM then re-encode as QUBs."""
        acc = self.integer_gemm(x, w, site=site)
        qt = self.requantize(acc, x.base_delta * w.base_delta, out_params)
        qubs, registers = encode(qt)
        return EncodedTensor(qubs, registers, qt.params.base_delta, qt.params.bits)

    # ------------------------------------------------------------------
    def sfu_load(self, t: EncodedTensor, site: str = "sfu") -> np.ndarray:
        """SFU load path with fault injection: fetch, decode, scale.

        Identical to :meth:`EncodedTensor.to_float` when faults are off.
        """
        if self.faults is None:
            return t.to_float()
        qubs, registers = self._fetch(t, site, site_class=SITE_SFU)
        d, n_sh = decode(qubs, registers, t.bits)
        return (d.astype(np.float64) * (1 << n_sh).astype(np.float64)) * t.base_delta

    def check_values(self, values: np.ndarray, site: str = "") -> np.ndarray:
        """Guardrail hook for executors: reject non-finite/saturated floats.

        A no-op passthrough when faults are off (keeps the fault-free
        executor path free of extra scans); with faults armed, trips the
        numeric guard on poisoned values instead of encoding garbage.
        """
        if self.faults is None:
            return values
        verdict = self.guard.scan(values)
        if not verdict.ok:
            self.stats.guard_trips += 1
            raise NumericGuardError(f"{site or 'values'} rejected: {verdict.reason}")
        return values

    def sfu(self, x: EncodedTensor, function: str, site: str = "sfu", **kwargs) -> np.ndarray:
        """SFU: decode on load, then apply the special function.

        Supported functions: ``softmax`` (last axis), ``gelu``,
        ``layernorm`` (last axis; pass ``weight``/``bias``), ``add``
        (pass ``other`` as a second EncodedTensor).
        """
        values = self.sfu_load(x, site=f"{site}/{function}")
        if function == "softmax":
            shifted = values - values.max(axis=-1, keepdims=True)
            exp = np.exp(shifted)
            return exp / exp.sum(axis=-1, keepdims=True)
        if function == "gelu":
            from scipy.special import erf

            return values * 0.5 * (1.0 + erf(values / np.sqrt(2.0)))
        if function == "layernorm":
            weight = kwargs.get("weight", 1.0)
            bias = kwargs.get("bias", 0.0)
            eps = kwargs.get("eps", 1e-6)
            mean = values.mean(axis=-1, keepdims=True)
            var = values.var(axis=-1, keepdims=True)
            return (values - mean) / np.sqrt(var + eps) * weight + bias
        if function == "add":
            other: EncodedTensor = kwargs["other"]
            return values + self.sfu_load(other, site=f"{site}/{function}/other")
        raise ValueError(f"unknown SFU function {function!r}")


def gemm_cycles(m: int, k: int, n: int, array: int) -> int:
    """Weight-stationary cycle count for an ``(m,k) @ (k,n)`` GEMM.

    Each weight tile of ``array x array`` stays resident while ``m``
    activation rows stream through; tiles across K and N are serialized,
    with an ``array``-cycle pipeline fill per tile.
    """
    if min(m, k, n, array) < 1:
        raise ValueError("all GEMM dimensions must be positive")
    tiles = int(np.ceil(k / array)) * int(np.ceil(n / array))
    return tiles * (m + array)
