"""Dual-clock deadlines: injected-clock timeouts with a wall-clock cap.

Every blocking loop in the serving layer measures its timeout on the
*injected* engine clock so fake-clock tests can drive the deadline
deterministically — but a clock that never advances (or advances only
when a test steps it) must not be able to spin a real thread forever.
The pattern is therefore always the same pair of deadlines: one on the
injected clock, one on ``time.monotonic`` as a real-time safety bound.

Before this module the pair was hand-copied into
:meth:`ServeEngine.drain`, :meth:`ClusterEngine.drain`, and
:meth:`MicroBatchScheduler.wait_for_batch`, and the three copies had
already begun to drift (the scheduler's copy had no wall cap at all).
:class:`DualDeadline` is the single implementation; the drain loops go
through :func:`wait_until`.
"""

from __future__ import annotations

import time

__all__ = ["DualDeadline", "wait_until"]


class DualDeadline:
    """A timeout on an injected clock, capped by real elapsed time.

    ``timeout`` is measured on ``clock`` (the engine's injected clock, so
    fake-clock tests can expire it by stepping the clock); ``wall_cap``
    (default: ``timeout``) is measured on ``time.monotonic`` so a frozen
    or slow-stepping clock cannot hold a real thread hostage.  The
    deadline expires when *either* bound is reached.
    """

    def __init__(self, clock, timeout: float, wall_cap: float | None = None):
        if timeout < 0:
            raise ValueError(f"timeout must be >= 0, got {timeout}")
        if wall_cap is not None and wall_cap < 0:
            raise ValueError(f"wall_cap must be >= 0, got {wall_cap}")
        self._clock = clock
        self._deadline = clock() + timeout
        self._wall_deadline = time.monotonic() + (
            timeout if wall_cap is None else wall_cap
        )

    def expired(self, now: float | None = None) -> bool:
        """True once the clock deadline or the wall cap has been reached."""
        now = self._clock() if now is None else now
        return now >= self._deadline or time.monotonic() >= self._wall_deadline

    def remaining(self, now: float | None = None) -> float:
        """Seconds left before expiry — the tighter of the two bounds.

        The clock bound is measured on the injected clock, the wall bound
        on real time; a condition wait sized by this value therefore
        wakes in time for whichever deadline lands first.
        """
        now = self._clock() if now is None else now
        clock_left = self._deadline - now
        wall_left = self._wall_deadline - time.monotonic()
        return max(0.0, min(clock_left, wall_left))


def wait_until(predicate, clock, timeout: float, wall_cap: float | None = None) -> bool:
    """Poll ``predicate`` every 2 ms until it returns truthy or the deadline
    expires.

    The shared drain loop: returns ``True`` the moment ``predicate()``
    holds, ``False`` when the :class:`DualDeadline` built from
    ``(clock, timeout, wall_cap)`` expires first.  The predicate is
    always evaluated at least once, even with a zero timeout.
    """
    deadline = DualDeadline(clock, timeout, wall_cap)
    while True:
        if predicate():
            return True
        if deadline.expired():
            return False
        time.sleep(0.002)
