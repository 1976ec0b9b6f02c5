"""Worker watchdog: detect stalled serving workers via heartbeats.

Each worker beats the watchdog under its own name on every scheduling
loop and at the start of every batch; a worker whose own batch is in
flight but whose last beat is older than ``stall_after_s`` is *stalled*
— wedged inside batch execution.  The engine's ``check_watchdog``
retires such a worker and starts a replacement thread (the wedged one is
a daemon: it finishes its batch and exits), so the lane keeps serving.
An idle sibling's beats never hide a wedged worker.

Clock-injected: stall detection is a pure function of the beat table and
``now``, so tests drive it with a fake clock.
"""

from __future__ import annotations

import threading
import time

__all__ = ["WorkerWatchdog"]


class WorkerWatchdog:
    """Heartbeat table with a staleness threshold."""

    def __init__(self, stall_after_s: float = 5.0, clock=time.monotonic):
        if stall_after_s <= 0:
            raise ValueError(f"stall_after_s must be > 0, got {stall_after_s}")
        self.stall_after_s = stall_after_s
        self.clock = clock
        self._lock = threading.Lock()
        self._beats: dict[str, float] = {}

    def beat(self, name: str, now: float | None = None) -> None:
        """Record liveness for ``name`` (one worker)."""
        with self._lock:
            self._beats[name] = self.clock() if now is None else now

    # A restart resets the staleness baseline; semantically identical to a
    # beat, kept separate so call sites read as what they mean.
    reset = beat

    def stalled(self, name: str, now: float | None = None) -> bool:
        """Has ``name`` gone ``stall_after_s`` without a beat?

        Never-seen names are not stalled — a worker registers by beating.
        """
        with self._lock:
            beat = self._beats.get(name)
            if beat is None:
                return False
            now = self.clock() if now is None else now
            return now - beat >= self.stall_after_s

    def snapshot(self, now: float | None = None) -> dict:
        with self._lock:
            beats = dict(self._beats)
        now = self.clock() if now is None else now
        return {
            "stall_after_s": self.stall_after_s,
            "ages_s": {name: round(now - beat, 4) for name, beat in beats.items()},
        }
