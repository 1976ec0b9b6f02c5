"""Behavioral model of the quadruplet uniform accelerator (QUA, Figure 6).

Bit-exact simulation of the integer datapath, and the datapath the
integer forward walk of :mod:`repro.hw.walk` runs on:

* **Quantization unit (QU)** — :meth:`QUA._encode`, run before every
  store and GEMM: the numeric guard (:meth:`QUA.check_values`), then the
  spec-path encode (:func:`encode_tensor`) under the tap's fitted QUQ
  parameters.  The hardware selects the subrange with leading-zero/one
  detection; the behavioral model applies the equivalent arithmetic rule
  of Eq. (3).
* **Decoding unit (DU)** — turns QUB bytes into ``(D, n_sh)`` per Eq. (6)-(7).
* **PE array** — multiply-accumulate over decoded operands with the
  product shift of Eq. (5); integer-only, verified to match the float GEMM
  over dequantized values exactly.
* **Special function unit (SFU)** — decodes QUBs into plain integers
  ``d = D << n_sh`` on its load path (:meth:`QUA.sfu_load`); the walk
  applies LayerNorm / Softmax / GELU to the loaded values, in float or
  through the integer-only kernels of :mod:`repro.hw.int_sfu`.

A simple weight-stationary cycle model rounds out the performance side.

Soft errors: every storage fetch and accumulator write-back can run
through an optional :class:`~repro.hw.faults.BitFaultInjector` plus a
:class:`~repro.hw.protect.ProtectionConfig` (per-word parity on QUB
fetches, TMR on the FC register bytes, a magnitude-envelope guard on PE
accumulators).  With ``faults=None`` (the default) every path is
bit-exact with the fault-free model — no extra work, no extra copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels import get_kernel
from ..quant.params import QUQParams
from ..quant.qmodel import PTQPipeline
from ..quant.qub import FCRegisters, decode, quantize_encode
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

    @property
    def shape(self) -> tuple[int, ...]:
        return self.qubs.shape

    def decoded(self) -> tuple[np.ndarray, np.ndarray]:
        """Run the DU over every element: returns (D, n_sh)."""
        return decode(self.qubs, self.registers, self.bits)

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
    """Quadruplet uniform accelerator: QU, DU, PE array and SFU load path.

    With a calibrated ``pipeline`` the QUA is the integer walk's datapath
    (:meth:`store_load`, :meth:`linear`, :meth:`matmul`): every operand,
    weights included, is re-encoded at ``bits`` under its tap's fitted
    parameters on every call, so each tap is a fault site named by its
    full tap (``"<model>.blocks.0.attn.scores"``).  Without one, only the
    raw-operand calls work (:meth:`integer_gemm`, :meth:`sfu_load`,
    :meth:`check_values`).

    ``faults`` (a :class:`BitFaultInjector`) arms soft-error injection at
    the QUB/register/accumulator/SFU sites; ``protection`` selects which
    hardening schemes absorb them, and ``stats`` is the
    detected-vs-silent ledger (pass one in to share it; an executor runs
    every GEMM and reload of a forward pass on a single QUA).
    """

    def __init__(
        self,
        pipeline: PTQPipeline | None = None,
        bits: int = 8,
        faults: BitFaultInjector | None = None,
        protection: ProtectionConfig | None = None,
        stats: ProtectionStats | None = None,
    ):
        self.pipeline = pipeline
        self.bits = bits
        self.faults = faults
        if protection is None:
            # All schemes armed by default when injecting; irrelevant otherwise.
            protection = ProtectionConfig()
        self.protection = protection
        self.stats = stats if stats is not None else ProtectionStats()
        self.guard = NumericGuard()

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

    # ------------------------------------------------------------------
    def sfu_load(self, t: EncodedTensor, site: str = "sfu") -> np.ndarray:
        """SFU load path with fault injection: fetch, decode, scale.

        Identical to :meth:`EncodedTensor.to_float` when faults are off.
        """
        if self.faults is None:
            return t.to_float()
        qubs, registers = self._fetch(t, site, site_class=SITE_SFU)
        return EncodedTensor(qubs, registers, t.base_delta, t.bits).to_float()

    def check_values(self, values: np.ndarray, site: str = "") -> np.ndarray:
        """The QU's guardrail: reject non-finite/saturated floats.

        A no-op passthrough when faults are off (keeps the fault-free
        path free of extra scans); with faults armed, trips the numeric
        guard on poisoned values instead of encoding garbage.
        """
        if self.faults is None:
            return values
        verdict = self.guard.scan(values)
        if not verdict.ok:
            self.stats.guard_trips += 1
            raise NumericGuardError(f"{site or 'values'} rejected: {verdict.reason}")
        return values

    # ------------------------------------------------------------------
    # The walk's datapath: each GEMM returns its int64 accumulator and
    # the scale that turns it back into real values.
    def _params(self, tap: str) -> QUQParams:
        if self.pipeline is None:
            raise RuntimeError("this QUA has no pipeline: only raw-operand calls work")
        return self.pipeline.quantizer_for(tap).params

    def _encode(self, values: np.ndarray, tap: str) -> EncodedTensor:
        """QU: guard ``values``, then encode them under ``tap``'s parameters."""
        # Poisoned floats (a corrupted SFU load upstream) must trip the
        # guard here, not be laundered into in-range QUB codes.
        values = self.check_values(values, site=tap)
        return encode_tensor(values, self.bits, params=self._params(tap))

    def store_load(self, values: np.ndarray, tap: str) -> np.ndarray:
        """Store ``values`` as QUBs under ``tap`` and reload them through the SFU."""
        return self.sfu_load(self._encode(values, tap), site=tap)

    def linear(self, values: np.ndarray, name: str, layer) -> tuple[np.ndarray, float]:
        """``values @ layer.weight``, quantized at ``{name}.input`` / ``.weight``."""
        ex = self._encode(values, f"{name}.input")
        ew = encode_tensor(layer.weight.data, self.bits, params=self._params(f"{name}.weight"))
        acc = self.integer_gemm(ex, ew, site=f"{name}.input")
        return acc, ex.base_delta * ew.base_delta

    def matmul(self, a, a_tap: str, b, b_tap: str, site: str) -> tuple[np.ndarray, float]:
        """``a @ b``, each operand quantized at its own tap."""
        ea, eb = self._encode(a, a_tap), self._encode(b, b_tap)
        return self.integer_gemm(ea, eb, site=site), ea.base_delta * eb.base_delta


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
