"""Percentiles with a sample-support rule.

A percentile is only worth reporting when enough samples lie beyond it to
pin it down: the benchmark requires at least :data:`MIN_BEYOND` samples
above the nearest-rank position of every percentile it reports, records
the sample count next to each one, and refuses (non-zero exit) a run in
which a required percentile is unsupported.
"""

from __future__ import annotations

import math

__all__ = ["MIN_BEYOND", "beyond", "min_samples", "percentile", "Ledger"]

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest-rank position of the ``q``-th percentile of ``n``."""
    return max(1, math.ceil(q * n / 100.0))  # q * n first: exact for whole q


def beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile of ``n``."""
    return n - _rank(n, q) if n else 0


def min_samples(q: float) -> int:
    """Fewest samples that support the ``q``-th percentile."""
    n = MIN_BEYOND
    while beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (no interpolation, so ``inf`` samples — a
    refused or failed request — stay ``inf`` instead of poisoning the
    neighbours they would be interpolated with)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return float(ordered[_rank(len(ordered), q) - 1])


class Ledger:
    """Computes percentiles and records the support of each one."""

    def __init__(self):
        #: ``(label, q, samples, beyond, required)`` per reported percentile.
        self.rows: list[tuple[str, float, int, int, bool]] = []

    def percentile(self, label: str, values, q: float, required: bool = False) -> float:
        """The ``q``-th percentile of ``values``, recorded under ``label``.

        A layer that was not exercised (no samples) reads 0 unless the
        percentile is ``required`` (every end-to-end one is), in which
        case the empty sample counts as unsupported.
        """
        values = list(values)
        n = len(values)
        self.rows.append((label, q, n, beyond(n, q), required))
        return percentile(values, q) if n else 0.0

    def unsupported(self) -> list[str]:
        """Labels of percentiles with fewer than ``MIN_BEYOND`` samples beyond."""
        return [
            f"{label} (p{q:g}: {n} samples, {past} beyond)"
            for label, q, n, past, required in self.rows
            if (n or required) and past < MIN_BEYOND
        ]

    def counts(self) -> dict[str, dict]:
        """``"<label> p<q>"`` -> sample count and samples beyond."""
        return {
            f"{label} p{q:g}": {"samples": n, "beyond": past}
            for label, q, n, past, _ in self.rows
        }
