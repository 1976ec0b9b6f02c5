"""The kernel registry: one dispatch layer for reference vs. fast impls.

Fast kernels — the fused QUQ fake-quantize pass, the int backend's
in-place activation encoders, packed weights and BLAS GEMM — each need
an independent reference to be checked against.  This module makes the
pairing explicit: every op name (``quq.fake_quantize``, ``qub.shifted``,
``gemm.int``, ``sfu.softmax``, ...) maps to a **required reference
implementation** and zero or more registered **fast variants**, each
with a declared contract (dtypes, shapes, parameter domain) and a parity
spec (bit-exact, or a tolerance).  An op with one implementation
registers it as the reference alone, so its calls still dispatch and
count through the registry.

Dispatch
--------
Call sites resolve through :meth:`KernelRegistry.get`::

    fn = kernels.get("quq.fake_quantize")   # fast impl when one exists
    out = fn(x, params)

Resolution precedence, strongest first:

1. an explicit ``prefer=`` argument (``"reference"``, ``"fast"``, or a
   specific variant name) — used by harnesses that must pin a variant;
2. the ``REPRO_KERNELS`` environment variable — ``reference`` forces the
   reference impl for every op end-to-end (the bisection switch),
   ``fast`` restores the default, and a comma-separated list of
   ``op=variant`` pairs pins individual ops
   (``REPRO_KERNELS=gemm.int=reference`` bisects just the GEMM; a pin
   on an unregistered op raises :class:`KernelRegistryError`);
3. the default: the newest registered fast variant, else the reference.

Production call sites (``QuantEnv``, the serving backends,
``hw.executor``) pass no ``prefer`` so the environment override always
wins there.

Parity by construction
----------------------
:meth:`KernelRegistry.pairs` enumerates every ``(op, reference, fast)``
pair; the harness in :mod:`repro.kernels.parity` (and the hypothesis
suite in ``tests/``) drives each pair over legalized parameter sets,
bit-widths, and adversarial inputs.  A new backend registers its kernels
and is parity-tested by construction — no new attestation script.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "ENV_VAR",
    "ParitySpec",
    "KernelImpl",
    "KernelRegistry",
    "KernelRegistryError",
]

#: Environment variable holding the dispatch override.
ENV_VAR = "REPRO_KERNELS"

#: Registry kinds: exactly one reference per op, any number of fast variants.
REFERENCE = "reference"
FAST = "fast"


class KernelRegistryError(KeyError):
    """Unknown op or variant, or an illegal registration."""


@dataclass(frozen=True)
class ParitySpec:
    """How a fast variant must agree with its op's reference impl.

    ``bit_exact`` requires identical outputs (``np.array_equal`` with
    NaNs compared positionally and zeros by sign); otherwise outputs must
    agree within ``rtol``/``atol`` (``np.allclose``).  ``notes`` documents
    any input domain the contract is restricted to (e.g. "finite inputs
    only").
    """

    bit_exact: bool = True
    rtol: float = 0.0
    atol: float = 0.0
    notes: str = ""

    def __post_init__(self):
        if not self.bit_exact and self.rtol == 0.0 and self.atol == 0.0:
            raise ValueError(
                "a tolerance parity spec needs a nonzero rtol or atol"
            )

    def describe(self) -> str:
        if self.bit_exact:
            return "bit-exact"
        return f"allclose(rtol={self.rtol}, atol={self.atol})"


@dataclass(frozen=True)
class KernelImpl:
    """One registered implementation of an op."""

    op: str
    variant: str
    fn: Callable
    kind: str  # REFERENCE or FAST
    #: Required for fast variants: the agreement contract vs the reference.
    parity: ParitySpec | None = None
    #: Declared input contract — dtype/shape/params domain, documentation
    #: only (the parity harness builds its inputs per op family).
    contract: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.op}:{self.variant}"


def _parse_env(value: str) -> dict[str, str] | str | None:
    """Parse ``REPRO_KERNELS``: global mode, or per-op pin map, or None."""
    value = value.strip()
    if not value:
        return None
    if value in (REFERENCE, FAST):
        return value
    pins: dict[str, str] = {}
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                f"bad {ENV_VAR} entry {part!r}: expected 'reference', 'fast', "
                "or comma-separated op=variant pins"
            )
        op, _, variant = part.partition("=")
        pins[op.strip()] = variant.strip()
    return pins


class KernelRegistry:
    """Op name -> required reference impl + registered fast variants."""

    def __init__(self):
        self._ops: dict[str, dict[str, KernelImpl]] = {}
        self._lock = threading.Lock()
        #: Dispatch counts per ``op:variant`` (how many calls each impl
        #: served) plus free-form counters (e.g. LUT cache hits).
        self.counters: dict[str, int] = {}
        self._env_cache: tuple[str, object] | None = None

    # -- registration ---------------------------------------------------
    def register(
        self,
        op: str,
        variant: str,
        fn: Callable | None = None,
        *,
        parity: ParitySpec | None = None,
        contract: dict | None = None,
    ):
        """Register ``fn`` as ``op``'s ``variant``; usable as a decorator.

        The variant named ``"reference"`` is the required baseline and
        must be registered before any fast variant of the same op; every
        other variant is a fast impl and must carry a :class:`ParitySpec`.
        """

        def _register(func: Callable) -> Callable:
            kind = REFERENCE if variant == REFERENCE else FAST
            if kind == FAST and parity is None:
                raise KernelRegistryError(
                    f"fast kernel {op}:{variant} needs a parity spec"
                )
            impl = KernelImpl(
                op=op,
                variant=variant,
                fn=func,
                kind=kind,
                parity=None if kind == REFERENCE else parity,
                contract=dict(contract or {}),
            )
            with self._lock:
                variants = self._ops.setdefault(op, {})
                if variant in variants:
                    raise KernelRegistryError(
                        f"kernel {op}:{variant} is already registered"
                    )
                if kind == FAST and REFERENCE not in variants:
                    raise KernelRegistryError(
                        f"op {op!r} needs a reference impl before fast "
                        f"variant {variant!r}"
                    )
                variants[variant] = impl
            return func

        if fn is not None:
            return _register(fn)
        return _register

    # -- introspection --------------------------------------------------
    def ops(self) -> list[str]:
        """Registered op names, sorted."""
        with self._lock:
            return sorted(self._ops)

    def variants(self, op: str) -> list[str]:
        """Variant names of ``op``: reference first, then fast variants in
        registration order."""
        table = self._table(op)
        fast = [name for name in table if name != REFERENCE]
        return [REFERENCE] + fast

    def implementation(self, op: str, variant: str) -> KernelImpl:
        table = self._table(op)
        impl = table.get(variant)
        if impl is None:
            raise KernelRegistryError(
                f"op {op!r} has no variant {variant!r}; "
                f"registered: {self.variants(op)}"
            )
        return impl

    def reference(self, op: str) -> KernelImpl:
        return self.implementation(op, REFERENCE)

    def fast_variants(self, op: str) -> list[KernelImpl]:
        table = self._table(op)
        return [impl for name, impl in table.items() if name != REFERENCE]

    def pairs(self) -> list[tuple[str, KernelImpl, KernelImpl]]:
        """Every ``(op, reference, fast)`` pair — the parity harness's
        work list.  Registering a fast kernel automatically enrolls it."""
        out = []
        for op in self.ops():
            reference = self.reference(op)
            for fast in self.fast_variants(op):
                out.append((op, reference, fast))
        return out

    def _table(self, op: str) -> dict[str, KernelImpl]:
        with self._lock:
            table = self._ops.get(op)
        if table is None:
            raise KernelRegistryError(
                f"unknown kernel op {op!r}; registered: {self.ops()}"
            )
        return table

    # -- dispatch -------------------------------------------------------
    def _env_override(self) -> dict[str, str] | str | None:
        raw = os.environ.get(ENV_VAR, "")
        cached = self._env_cache
        if cached is not None and cached[0] == raw:
            return cached[1]
        parsed = _parse_env(raw)
        if isinstance(parsed, dict):
            # Checked once per new value, not per dispatch: a pin on a
            # mistyped op would otherwise be silently ignored.
            registered = self.ops()
            unknown = sorted(set(parsed) - set(registered))
            if unknown:
                raise KernelRegistryError(
                    f"{ENV_VAR} pins unknown kernel op(s) {unknown}; "
                    f"registered: {registered}"
                )
        self._env_cache = (raw, parsed)
        return parsed

    def resolve(self, op: str, prefer: str | None = None) -> KernelImpl:
        """The impl that would serve ``op`` under the current overrides.

        ``prefer`` may be ``"reference"``, ``"fast"``, or a specific
        variant name; ``None`` (what production call sites pass) defers
        to ``REPRO_KERNELS``, then to the fast-by-default rule.
        """
        table = self._table(op)
        if prefer is None:
            env = self._env_override()
            if isinstance(env, dict):
                prefer = env.get(op)
            else:
                prefer = env
        if prefer is None or prefer == FAST:
            fast = [name for name in table if name != REFERENCE]
            chosen = fast[-1] if fast else REFERENCE
            return table[chosen]
        if prefer == REFERENCE:
            return table[REFERENCE]
        impl = table.get(prefer)
        if impl is None:
            raise KernelRegistryError(
                f"op {op!r} has no variant {prefer!r}; "
                f"registered: {self.variants(op)}"
            )
        return impl

    def get(self, op: str, prefer: str | None = None) -> Callable:
        """Resolve and return the serving callable, counting the dispatch."""
        impl = self.resolve(op, prefer)
        self.count(impl.label)
        return impl.fn

    # -- observability --------------------------------------------------
    def count(self, key: str, n: int = 1) -> None:
        """Bump a counter (dispatches use ``op:variant``; caches may add
        their own keys, e.g. ``qub.decode_lut:cache_hit``)."""
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + n

    def reset_counters(self) -> None:
        with self._lock:
            self.counters.clear()

    def selected(self) -> dict[str, str]:
        """Which variant currently serves each op (under live overrides)."""
        return {op: self.resolve(op).variant for op in self.ops()}

    def snapshot(self) -> dict:
        """JSON-serializable view for the serve registry snapshot."""
        with self._lock:
            counters = dict(self.counters)
        ops = {}
        for op in self.ops():
            ops[op] = {
                "selected": self.resolve(op).variant,
                "variants": self.variants(op),
                "calls": {
                    variant: counters.get(f"{op}:{variant}", 0)
                    for variant in self.variants(op)
                    if counters.get(f"{op}:{variant}", 0)
                },
            }
        extra = {
            key: value
            for key, value in sorted(counters.items())
            if ":cache_" in key
        }
        return {"override": os.environ.get(ENV_VAR, "") or None,
                "ops": ops, "cache": extra}
