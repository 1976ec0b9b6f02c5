"""Traffic for the serve workloads: independent users, as an open loop.

A seeded Poisson schedule is sent from one generator thread regardless
of how fast answers come back.  Each request is timed from when it was
*due*, so a stall also charges the requests it delayed, and the
generator's own lateness is recorded.  A refused request is kept as a
miss, never dropped.

``repro.serve.loadgen`` is not reused: it sends at uniform intervals and
times requests from enqueue, which hides generator lateness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.serve import QueueFullError

__all__ = ["poisson_schedule", "Sent", "open_loop", "settle"]

#: Shortest gap before a due arrival in which the generator runs ``idle``.
IDLE_GAP_S = 0.005
#: How often the generator offers ``idle`` the rest of a gap.
IDLE_POLL_S = 0.001
#: Delay from the call to the first due time, so arrival 0 is not late.
LEAD_S = 0.005


def poisson_schedule(rate: float, seconds: float, rng: np.random.Generator,
                     pool_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Due offsets (seconds) of a Poisson process at ``rate`` over
    ``seconds``, and the pool image each arrival sends."""
    if rate <= 0 or seconds <= 0:
        raise ValueError("rate and seconds must be positive")
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 64)
    due = np.cumsum(gaps)
    while due[-1] < seconds:  # astronomically rare: draw more arrivals
        due = np.concatenate([due, due[-1] + np.cumsum(rng.exponential(1.0 / rate, 64))])
    due = due[due < seconds]
    return due, rng.integers(0, pool_size, size=due.size)


@dataclass
class Sent:
    """One open-loop request: when it was due, sent, and what became of it."""

    image: int
    due: float
    sent: float
    accepted: float  # when ``submit`` returned
    request: object | None  # ServeRequest, or None when refused
    refusal: str | None = None
    label: int | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.label is not None

    @property
    def latency(self) -> float:
        """Seconds from due time to completion; ``inf`` for a miss."""
        if not self.ok:
            return math.inf
        return self.request.completed_at - self.due


def open_loop(submit, pool: np.ndarray, due: np.ndarray, images: np.ndarray,
              clock=time.perf_counter, idle=None) -> list[Sent]:
    """Send ``pool[images[i]]`` at ``start + due[i]`` through ``submit``.

    ``idle(records)`` (optional, e.g. a speed probe) is offered every
    gap until it returns true or less than :data:`IDLE_GAP_S` is left
    before the next arrival is due.
    """
    start = clock() + LEAD_S
    records = []
    for offset, image in zip(due.tolist(), images.tolist()):
        due_at = start + offset
        while idle is not None and due_at - clock() >= IDLE_GAP_S and not idle(records):
            time.sleep(IDLE_POLL_S)
        delay = due_at - clock()
        if delay > 0:
            time.sleep(delay)
        sent = clock()
        try:
            request, refusal = submit(pool[image]), None
        except QueueFullError as error:
            request, refusal = None, type(error).__name__
        records.append(Sent(image, due_at, sent, clock(), request, refusal))
    return records


def settle(records: list[Sent], timeout_s: float) -> None:
    """Wait for every accepted request and record its label or error."""
    deadline = time.monotonic() + timeout_s
    for record in records:
        if record.request is None:
            continue
        try:
            result = record.request.result(timeout=max(0.0, deadline - time.monotonic()))
        except Exception as error:  # a typed serving failure is a miss, not a crash
            record.error = type(error).__name__
            continue
        record.label = int(result.label)
