"""Outside-in tracing: spans recorded around calls into the program.

Nothing under ``src/`` records a span.  For the traced window the
benchmark temporarily replaces a few public call sites with timed
wrappers and restores them afterwards (:class:`Patches`):

* kernel spans — ``KERNELS.get`` returns timed callables, so every
  registry dispatch (``quq.fake_quantize``, ``gemm.int``, ``sfu.*``)
  becomes a ``kernel.<op>`` span with its computed input + output bytes;
* module spans — instance-level ``forward`` wrappers on each module of
  the float model (``nn.linear``, ``nn.attention``, ``nn.block`` ...);
* int spans — wrappers on the public ``FusedEncoder.shifted`` /
  ``FusedEncoder.store_load`` and ``PackedWeight.shifted`` methods;
* backend / registry spans — instance-level ``predict`` / ``get``;
* request spans — built after the fact from ``ServeRequest`` timestamps.

Spans live in memory as ``(id, name, start, end, parent, tag)``; a span's
self time is its duration minus the part of it its children cover.
"""

from __future__ import annotations

import bisect
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

__all__ = [
    "Span",
    "Tracer",
    "Patches",
    "write_jsonl",
    "covered",
    "self_times",
    "coverage",
    "adopt",
    "instrument_kernels",
    "instrument_model",
    "instrument_int",
]


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "tag", "nbytes")

    def __init__(self, sid, name, start, end, parent=None, tag=None):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.tag = tag
        self.nbytes = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(item) for item in value)
    return 0


class Tracer:
    """In-memory span recorder; parents come from a per-thread call stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, tag=None, count_bytes: bool = False):
        """``fn`` with every call recorded as a ``name`` span."""

        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = Span(sid, name, start, self.clock(), parent, tag)
                stack.pop()
                self.spans.append(span)
            if count_bytes:
                span.nbytes = _nbytes(args) + _nbytes(result)
            return result

        return traced

    def add(self, name: str, start: float, end: float, tag=None) -> Span:
        """Record a span built after the fact (request/batch timestamps)."""
        span = Span(next(self._ids), name, start, end, None, tag)
        self.spans.append(span)
        return span

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def write_jsonl(path, spans: list[Span], origin: float) -> None:
    """Dump spans, times in seconds since ``origin``."""
    with open(path, "w") as handle:
        for span in sorted(spans, key=lambda s: s.start):
            handle.write(json.dumps({
                "id": span.sid, "name": span.name, "parent": span.parent,
                "start": round(span.start - origin, 7),
                "end": round(span.end - origin, 7),
                "tag": span.tag, "bytes": span.nbytes,
            }) + "\n")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        self._assign(owner, attr, value)

    @staticmethod
    def _assign(owner, attr, value) -> None:
        # Modules override __setattr__; functions are not registered by it,
        # but go through object.__setattr__ anyway so no hook ever runs.
        if isinstance(owner, type):
            setattr(owner, attr, value)
        else:
            object.__setattr__(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, had, old = self._undo.pop()
            if had:
                self._assign(owner, attr, old)
            else:
                delattr(owner, attr)


# ---------------------------------------------------------------------------
# interval arithmetic


def covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def _children(spans: list[Span]) -> dict[int, list[tuple[float, float]]]:
    kids: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            kids[span.parent].append((span.start, span.end))
    return kids


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    kids = _children(spans)
    return {
        span.sid: span.duration - covered(span.start, span.end, kids.get(span.sid, ()))
        for span in spans
    }


def coverage(spans: list[Span], root: str) -> float:
    """Share of ``root`` span time covered by the roots' child spans."""
    kids = _children(spans)
    total = inside = 0.0
    for span in spans:
        if span.name == root:
            total += span.duration
            inside += covered(span.start, span.end, kids.get(span.sid, ()))
    return inside / total if total else 0.0


def adopt(parents: list[Span], spans: list[Span], names) -> None:
    """Make each parentless span called one of ``names`` a child of the
    ``parents`` span that contains it (request spans are built after the
    fact, so the worker thread's spans cannot name them while they run)."""
    ordered = sorted(parents, key=lambda s: s.start)
    starts = [span.start for span in ordered]
    for span in spans:
        if span.parent is not None or span.name not in names:
            continue
        index = bisect.bisect_right(starts, span.start) - 1
        if index >= 0 and span.end <= ordered[index].end:
            span.parent = ordered[index].sid


# ---------------------------------------------------------------------------
# instrumentation


def instrument_kernels(patches: Patches, tracer: Tracer) -> None:
    """Every registry dispatch returns a timed callable."""
    from repro.kernels import KERNELS

    original = KERNELS.get
    wrapped: dict[tuple, object] = {}

    def get(op, prefer=None):
        fn = original(op, prefer)
        timed = wrapped.get((op, fn))
        if timed is None:
            timed = wrapped[(op, fn)] = tracer.wrap(f"kernel.{op}", fn, count_bytes=True)
        return timed

    patches.set(KERNELS, "get", get)


def _module_kinds() -> dict[type, str]:
    from repro.models import SwinBlock, SwinTransformer, VisionTransformer, WindowAttention
    from repro.models.swin import PatchMerging
    from repro.nn import (
        LayerNorm, Linear, Mlp, MultiHeadSelfAttention, PatchEmbedding, TransformerBlock,
    )

    return {
        VisionTransformer: "nn.model",
        SwinTransformer: "nn.model",
        PatchEmbedding: "nn.patch_embed",
        PatchMerging: "nn.patch_merge",
        TransformerBlock: "nn.block",
        SwinBlock: "nn.block",
        MultiHeadSelfAttention: "nn.attention",
        WindowAttention: "nn.attention",
        Mlp: "nn.mlp",
        Linear: "nn.linear",
        LayerNorm: "nn.layernorm",
    }


def instrument_model(patches: Patches, tracer: Tracer, model) -> None:
    """Instance-level ``forward`` wrappers; blocks are tagged with their
    depth in execution order."""
    kinds = _module_kinds()
    depth = 0
    for _, module in model.named_modules():
        kind = kinds.get(type(module))
        if kind is None:
            continue
        tag = None
        if kind == "nn.block":
            tag, depth = depth, depth + 1
        patches.set(module, "forward", tracer.wrap(kind, module.forward, tag=tag))


def instrument_int(patches: Patches, tracer: Tracer) -> None:
    """The int backend's public encoder / packed-weight methods."""
    from repro.backend import FusedEncoder, PackedWeight

    for owner, attr, name in (
        (FusedEncoder, "shifted", "encoder.shifted"),
        (FusedEncoder, "store_load", "encoder.store_load"),
        (PackedWeight, "shifted", "weights.decode"),
    ):
        patches.set(owner, attr, tracer.wrap(name, getattr(owner, attr)))
