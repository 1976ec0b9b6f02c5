"""``repro.kernels`` — the op registry behind every hot path.

Public surface:

* :data:`KERNELS` — the process-wide :class:`KernelRegistry` holding the
  built-in registrations (:mod:`repro.kernels.ops`), one
  :class:`KernelPair` of a reference and at most one fast implementation
  per op.
* :func:`get_kernel` — resolve an op to its serving callable (the fast
  implementation unless ``REPRO_KERNELS=reference`` or
  ``prefer="reference"``).
* :func:`kernel_pairs` / :func:`run_kernel_parity` — enumerate and drive
  the bit-exact reference-vs-fast parity suite.
* :func:`kernels_snapshot` / :func:`active_kernels` — observability:
  ``fast`` or ``reference`` per op (shown in the serve registry
  snapshot) and the dispatch counters.

The registry holds no tables of its own: each tap's
:class:`~repro.backend.kernels.FusedEncoder` and each packed weight own
theirs, and a kernel is handed the object it runs on.

Built-in registrations load lazily on first dispatch so that low-level
modules (``quant.quq``, ``hw.accelerator``) can import this package
without cycles: by the time a kernel is *called*, the modules the
registrations reference are fully imported.
"""

from __future__ import annotations

import threading

from .registry import ENV_VAR, KernelPair, KernelRegistry, KernelRegistryError

__all__ = [
    "ENV_VAR",
    "KERNELS",
    "KernelPair",
    "KernelRegistry",
    "KernelRegistryError",
    "get_kernel",
    "kernel_pairs",
    "kernels_snapshot",
    "active_kernels",
    "run_kernel_parity",
]

#: The process-wide registry every production call site dispatches through.
KERNELS = KernelRegistry()

_builtin_loaded = False
_builtin_lock = threading.Lock()


def _ensure_builtin() -> None:
    """Import the built-in registrations exactly once (idempotent).

    Double-checked: the per-dispatch fast path is one flag read.  The flag
    is set only after the import succeeds, so a concurrent first dispatch
    waits for the registrations instead of seeing an empty registry, and a
    failed load is retried (and its error raised) on the next dispatch.
    """
    global _builtin_loaded
    if _builtin_loaded:
        return
    with _builtin_lock:
        if not _builtin_loaded:
            from . import ops  # noqa: F401  (import side effect: registration)

            _builtin_loaded = True


def get_kernel(op: str, prefer: str | None = None):
    """Resolve ``op`` to its serving callable (see :class:`KernelRegistry`)."""
    _ensure_builtin()
    return KERNELS.get(op, prefer)


def kernel_pairs() -> list[KernelPair]:
    """Every registered op with a fast implementation, as its pair."""
    _ensure_builtin()
    return KERNELS.pairs()


def kernels_snapshot() -> dict:
    """JSON-serializable registry state: selection and call counts."""
    _ensure_builtin()
    return KERNELS.snapshot()


def active_kernels() -> dict:
    """``fast`` or ``reference``: which implementation serves each op."""
    _ensure_builtin()
    return KERNELS.selected()


def run_kernel_parity(*args, **kwargs) -> dict:
    """Run the registry-enumerated pairwise parity harness (see
    :func:`repro.kernels.parity.run_kernel_parity`)."""
    from .parity import run_kernel_parity as _run

    return _run(*args, **kwargs)
