"""The kernel registry: one (reference, fast) pair per op.

Fast kernels — the in-place QUQ fake-quantize pass, the int backend's
in-place activation encoders, the vectorized bit packer, the BLAS
integer GEMM and the integer SFUs' table gathers and exact divide — each
need an independent reference to be checked against.  This module makes
the pairing a structure: every op name (``quq.fake_quantize``,
``qub.shifted``, ``gemm.int``, ``sfu.softmax``, ...) maps to one
:class:`KernelPair` of a required **reference** implementation and at
most one **fast** one.  An op with one implementation would register it
as the reference alone, so its calls still dispatch and count through
the registry; every built-in op has both.  A second fast implementation
of an op cannot be registered at all.

Dispatch
--------
Call sites resolve through :meth:`KernelRegistry.get`::

    fn = kernels.get("quq.fake_quantize")   # fast impl when one exists
    out = fn(x, params)

``get`` serves the fast implementation unless ``prefer="reference"`` or
``REPRO_KERNELS=reference``; an explicit ``prefer`` (``"fast"`` or
``"reference"``) beats the environment.  ``REPRO_KERNELS`` may be
unset, empty, ``fast`` or ``reference``: ``reference`` forces every
reference end to end (the bisection switch), and any other value raises
:class:`ValueError`.  Production call sites (``QuantEnv``, the serving
backends, ``hw.executor``) pass no ``prefer``, so the environment always
decides there.  Each dispatch counts under ``op:fast`` or
``op:reference``.

The parity harness in :mod:`repro.kernels.parity` (and the hypothesis
suite in ``tests/``) drives every pair with a fast implementation over
legalized parameter sets, bit-widths and adversarial inputs, and
requires equal results bit for bit.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Callable

__all__ = ["ENV_VAR", "KernelPair", "KernelRegistry", "KernelRegistryError"]

#: Environment variable holding the dispatch override.
ENV_VAR = "REPRO_KERNELS"

REFERENCE, FAST = "reference", "fast"


class KernelRegistryError(KeyError):
    """Unknown op, or an op registered twice."""


@dataclass(frozen=True)
class KernelPair:
    """One op's implementations: the required reference, and the fast one
    that serves by default (``None`` when the op has one implementation)."""

    op: str
    reference: Callable
    fast: Callable | None = None


class KernelRegistry:
    """Op name -> :class:`KernelPair`, plus dispatch counters."""

    def __init__(self):
        self._pairs: dict[str, KernelPair] = {}
        self._lock = threading.Lock()
        #: Dispatch counts per ``op:fast`` / ``op:reference``.
        self.counters: dict[str, int] = {}

    def register(self, op: str, reference: Callable, fast: Callable | None = None) -> None:
        """Register ``op``'s reference and, optionally, its fast implementation."""
        with self._lock:
            if op in self._pairs:
                raise KernelRegistryError(f"kernel op {op!r} is already registered")
            self._pairs[op] = KernelPair(op, reference, fast)

    def ops(self) -> list[str]:
        """Registered op names, sorted."""
        with self._lock:
            return sorted(self._pairs)

    def pair(self, op: str) -> KernelPair:
        """``op``'s pair; :class:`KernelRegistryError` when it is unknown."""
        pair = self._pairs.get(op)
        if pair is None:
            raise KernelRegistryError(f"unknown kernel op {op!r}; registered: {self.ops()}")
        return pair

    def pairs(self) -> list[KernelPair]:
        """Every pair with a fast implementation, by op: the parity
        harness's work list."""
        return [pair for pair in map(self.pair, self.ops()) if pair.fast is not None]

    def mode(self, op: str, prefer: str | None = None) -> str:
        """``"fast"`` or ``"reference"``: which implementation serves ``op``."""
        pair = self.pair(op)
        source = "prefer"
        if prefer is None:
            prefer, source = os.environ.get(ENV_VAR, "").strip() or FAST, ENV_VAR
        if prefer not in (FAST, REFERENCE):
            raise ValueError(f"bad {source} value {prefer!r}: expected 'fast' or 'reference'")
        return FAST if prefer == FAST and pair.fast is not None else REFERENCE

    def get(self, op: str, prefer: str | None = None) -> Callable:
        """The serving callable of ``op``, counting the dispatch."""
        mode = self.mode(op, prefer)
        key = f"{op}:{mode}"
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + 1
        return getattr(self._pairs[op], mode)  # the field named by the mode

    def reset_counters(self) -> None:
        with self._lock:
            self.counters.clear()

    def selected(self) -> dict[str, str]:
        """Which implementation currently serves each op."""
        return {op: self.mode(op) for op in self.ops()}

    def snapshot(self) -> dict:
        """JSON-serializable view: selection and call counts per op."""
        with self._lock:
            counters = dict(self.counters)
        ops = {}
        for op, mode in self.selected().items():
            calls = {m: counters[f"{op}:{m}"] for m in (FAST, REFERENCE)
                     if counters.get(f"{op}:{m}")}
            ops[op] = {"selected": mode, "calls": calls}
        return {"override": os.environ.get(ENV_VAR, "") or None, "ops": ops}
