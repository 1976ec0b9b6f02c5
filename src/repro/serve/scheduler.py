"""Dynamic micro-batching scheduler for single-image requests.

Requests arrive one image at a time; the quantized models (and the QUA
accelerator they simulate) amortize per-call overhead over batches, so the
scheduler coalesces the queue into NumPy batches under a
:class:`BatchPolicy`:

* dispatch when a full ``max_batch_size`` batch is waiting,
* or when the oldest queued request has waited ``max_wait_ms``,
* or immediately when the executor is idle (work conservation — a single
  request on an otherwise-idle system never stalls behind the batching
  timer; coalescing happens while the worker is busy with the previous
  batch).

Requests carry a **priority band** (:data:`PRIORITIES`: ``interactive``
> ``batch`` > ``best_effort``) and an optional **deadline**: the queue is
ordered earliest-deadline-first *within* priority bands (band first, then
deadline, then FIFO arrival), and a request whose deadline passes while
queued is failed fast with :class:`DeadlineExceededError` — never
silently served late.  Requests without a deadline still expire under the
policy-wide ``timeout_ms``.

Bounded queue with reject-with-reason backpressure, per-request timeouts
while queued, and an injectable clock so every policy decision is unit
testable without sleeping: :meth:`MicroBatchScheduler.poll` is a pure
state transition on (queue, now).
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PRIORITIES",
    "PRIORITY_BANDS",
    "DEFAULT_PRIORITY",
    "BatchPolicy",
    "Batch",
    "QueueFullError",
    "RequestTimeoutError",
    "DeadlineExceededError",
    "ServeRequest",
    "MicroBatchScheduler",
]

#: Priority bands, highest first.  The scheduler serves lower band
#: indices first; the admission ladder sheds higher band indices first.
PRIORITIES = ("interactive", "batch", "best_effort")
PRIORITY_BANDS = {name: index for index, name in enumerate(PRIORITIES)}
#: The band requests land in when the caller does not say — the middle
#: band, so unlabelled traffic neither preempts interactive work nor is
#: discarded with the best-effort tier.
DEFAULT_PRIORITY = "batch"


class QueueFullError(RuntimeError):
    """Backpressure rejection: the bounded queue cannot accept the request."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class RequestTimeoutError(TimeoutError):
    """The request exceeded the policy timeout while waiting in the queue."""


class DeadlineExceededError(TimeoutError):
    """The request's own deadline passed before it could be served.

    Raised both for requests that expire while queued and for requests
    that complete after their deadline (late results are failed, never
    silently served).  ``reason`` matches the ``rejections_total`` label.
    """

    reason = "deadline"


@dataclass
class BatchPolicy:
    """Coalescing policy: how long and how wide batches may grow."""

    max_batch_size: int = 8
    max_wait_ms: float = 10.0
    max_queue: int = 64
    timeout_ms: float = 2000.0

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.max_wait_ms < 0 or self.timeout_ms <= 0:
            raise ValueError("max_wait_ms must be >= 0 and timeout_ms > 0")


class ServeRequest:
    """One queued image plus the completion slot its submitter waits on.

    Completion wakes waiters through a :class:`threading.Condition`, so
    :meth:`result` returns the moment the worker completes the request —
    latency is never quantized by a poll interval, which matters under
    load where thousands of submitters wait concurrently.
    """

    def __init__(self, payload: np.ndarray, enqueued_at: float,
                 priority: str = DEFAULT_PRIORITY,
                 deadline_at: float | None = None, seq: int = 0):
        self.payload = payload
        self.enqueued_at = enqueued_at
        self.priority = priority
        self.band = PRIORITY_BANDS.get(priority, PRIORITY_BANDS[DEFAULT_PRIORITY])
        self.deadline_at = deadline_at
        self.seq = seq  # submission order, the FIFO tie-break within a band
        self.dispatched_at: float | None = None
        self.completed_at: float | None = None
        self.expire_reason: str | None = None  # "timeout" | "deadline" once expired
        self._cond = threading.Condition()
        self._completed = False
        self._result = None
        self._error: BaseException | None = None

    def sort_key(self) -> tuple:
        """Queue order: priority band, then earliest deadline, then FIFO."""
        deadline = self.deadline_at if self.deadline_at is not None else math.inf
        return (self.band, deadline, self.seq)

    # ------------------------------------------------------------------
    # Completion is first-wins: a watchdog-abandoned worker finishing late,
    # or shutdown failing an already-completed request, must not overwrite
    # the outcome the submitter may already have observed.
    def set_result(self, result, now: float | None = None) -> None:
        with self._cond:
            if self._completed:
                return
            self._result = result
            self.completed_at = now
            self._completed = True
            self._cond.notify_all()

    def set_exception(self, error: BaseException, now: float | None = None) -> None:
        with self._cond:
            if self._completed:
                return
            self._error = error
            self.completed_at = now
            self._completed = True
            self._cond.notify_all()

    def done(self) -> bool:
        with self._cond:
            return self._completed

    def result(self, timeout: float | None = None):
        """Block until completion; raises the stored exception on failure."""
        with self._cond:
            if not self._cond.wait_for(lambda: self._completed, timeout):
                raise TimeoutError("request not completed within wait timeout")
            if self._error is not None:
                raise self._error
            return self._result

    def exception(self) -> BaseException | None:
        with self._cond:
            return self._error if self._completed else None


@dataclass
class Batch:
    """A dispatched group of requests, stacked for the model."""

    requests: list[ServeRequest]
    created_at: float
    reason: str  # "full" | "timer" | "idle"
    images: np.ndarray = field(init=False)

    def __post_init__(self):
        self.images = np.stack([r.payload for r in self.requests])

    def __len__(self) -> int:
        return len(self.requests)


class MicroBatchScheduler:
    """Coalesce single requests into batches under a :class:`BatchPolicy`.

    The queue is kept sorted by :meth:`ServeRequest.sort_key` (priority
    band, then deadline, then arrival), so batch assembly is a prefix
    slice and the head of the queue is always the most urgent request.
    The decision logic (:meth:`poll`, :meth:`expire_timeouts`,
    :meth:`next_event`) takes an explicit ``now`` so tests drive it with a
    fake clock; :meth:`wait_for_batch` is the wrapper an executor's step
    waits in, built on the same primitives.
    """

    def __init__(self, policy: BatchPolicy | None = None, clock=time.monotonic,
                 on_expire=None):
        self.policy = BatchPolicy() if policy is None else policy
        self.clock = clock
        self._queue: list[ServeRequest] = []
        self._seq = 0
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._closed = False
        self.timed_out: int = 0  # total requests expired while queued
        self.rejected: int = 0  # total submissions refused (queue full / closed)
        # Called once per expired request (after its exception is set),
        # with the scheduler lock held — must not re-enter the scheduler.
        # The engine uses it to count timeouts/deadline misses in its
        # rejection metrics; request.expire_reason says which it was.
        self._on_expire = on_expire

    # ------------------------------------------------------------------
    def submit(self, payload: np.ndarray, now: float | None = None,
               priority: str = DEFAULT_PRIORITY,
               deadline_ms: float | None = None) -> ServeRequest:
        """Enqueue one image; raises :class:`QueueFullError` on backpressure.

        ``priority`` must be a :data:`PRIORITIES` member; ``deadline_ms``
        (optional, relative to submit time) fails the request with
        :class:`DeadlineExceededError` if it cannot be served in time.
        """
        if priority not in PRIORITY_BANDS:
            raise ValueError(
                f"priority must be one of {PRIORITIES}, got {priority!r}"
            )
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {deadline_ms}")
        with self._wakeup:
            now = self.clock() if now is None else now
            if self._closed:
                self.rejected += 1
                raise QueueFullError("scheduler is shut down")
            self._expire_locked(now)
            if len(self._queue) >= self.policy.max_queue:
                self.rejected += 1
                raise QueueFullError(
                    f"queue full ({len(self._queue)}/{self.policy.max_queue} "
                    f"requests waiting); retry later"
                )
            deadline_at = None if deadline_ms is None else now + deadline_ms / 1000.0
            request = ServeRequest(
                payload, enqueued_at=now, priority=priority,
                deadline_at=deadline_at, seq=self._seq,
            )
            self._seq += 1
            bisect.insort(self._queue, request, key=ServeRequest.sort_key)
            self._wakeup.notify_all()
            return request

    def qsize(self) -> int:
        with self._lock:
            return len(self._queue)

    def stats(self) -> dict:
        """Queued/timed-out/rejected counts read atomically under one lock.

        The engine's snapshot uses this so the three numbers describe the
        same instant — reading them through separate calls can interleave
        with a concurrent expiry and show a timeout that is in neither the
        queue count nor the timed-out count.
        """
        with self._lock:
            return {
                "queued": len(self._queue),
                "timed_out": self.timed_out,
                "rejected": self.rejected,
            }

    # ------------------------------------------------------------------
    def _expires_at(self, request: ServeRequest) -> float:
        """When the request dies in the queue: its own deadline or the
        policy timeout, whichever lands first."""
        timeout_at = request.enqueued_at + self.policy.timeout_ms / 1000.0
        if request.deadline_at is None:
            return timeout_at
        return min(timeout_at, request.deadline_at)

    def _expire_locked(self, now: float) -> list[ServeRequest]:
        expired = [r for r in self._queue if now >= self._expires_at(r)]
        if expired:
            self._queue = [r for r in self._queue if r not in expired]
            self.timed_out += len(expired)
            for request in expired:
                waited_ms = (now - request.enqueued_at) * 1000.0
                timeout_at = (
                    request.enqueued_at + self.policy.timeout_ms / 1000.0
                )
                if request.deadline_at is not None and request.deadline_at <= timeout_at:
                    request.expire_reason = "deadline"
                    error: BaseException = DeadlineExceededError(
                        f"deadline passed after {waited_ms:.1f} ms in queue "
                        f"({request.priority} request); failed fast"
                    )
                else:
                    request.expire_reason = "timeout"
                    error = RequestTimeoutError(
                        f"timed out after {waited_ms:.1f} ms in queue "
                        f"(limit {self.policy.timeout_ms:.1f} ms)"
                    )
                request.set_exception(error, now=now)
                if self._on_expire is not None:
                    self._on_expire(request)
        return expired

    def expire_timeouts(self, now: float | None = None) -> list[ServeRequest]:
        """Fail-and-remove every queued request past its deadline."""
        with self._lock:
            return self._expire_locked(self.clock() if now is None else now)

    def _poll_locked(self, now: float, idle: bool) -> Batch | None:
        self._expire_locked(now)
        if not self._queue:
            return None  # timer fired on an empty queue: nothing to flush
        oldest = min(r.enqueued_at for r in self._queue)
        if len(self._queue) >= self.policy.max_batch_size:
            reason = "full"
        elif now - oldest >= self.policy.max_wait_ms / 1000.0:
            reason = "timer"
        elif idle:
            reason = "idle"
        else:
            return None
        take = self._queue[: self.policy.max_batch_size]
        self._queue = self._queue[self.policy.max_batch_size:]
        for request in take:
            request.dispatched_at = now
        return Batch(take, created_at=now, reason=reason)

    def poll(self, now: float | None = None, idle: bool = False) -> Batch | None:
        """Return the next batch if one is due at ``now``, else ``None``.

        ``idle=True`` means no batch is currently executing, which enables
        the immediate single-request path.
        """
        with self._lock:
            return self._poll_locked(self.clock() if now is None else now, idle)

    def next_event(self, now: float | None = None) -> float | None:
        """Seconds until the next flush or expiry is due (None if empty)."""
        with self._lock:
            now = self.clock() if now is None else now
            if not self._queue:
                return None
            oldest = min(r.enqueued_at for r in self._queue)
            flush_at = oldest + self.policy.max_wait_ms / 1000.0
            expire_at = min(self._expires_at(r) for r in self._queue)
            return max(0.0, min(flush_at, expire_at) - now)

    # ------------------------------------------------------------------
    def wait_for_batch(self, timeout: float, idle: bool = True) -> Batch | None:
        """Block up to ``timeout`` seconds for a dispatchable batch.

        The deadline is ``clock() + timeout`` on the injected clock, and
        each condition wait is sized by it (or by the batching timer, if
        sooner), so ``timeout=0`` polls once without blocking.  On a clock
        that does not advance, only a batch or :meth:`close` ends the wait.
        """
        deadline = self.clock() + timeout
        with self._wakeup:
            while True:
                now = self.clock()
                batch = self._poll_locked(now, idle)
                if batch is not None:
                    return batch
                if self._closed or now >= deadline:
                    return None
                wait = deadline - now
                if self._queue:
                    oldest = min(r.enqueued_at for r in self._queue)
                    next_due = oldest + self.policy.max_wait_ms / 1000.0 - now
                    wait = min(wait, max(next_due, 0.0))
                self._wakeup.wait(max(wait, 1e-4))

    def close(self) -> None:
        """Stop accepting work and fail everything still queued."""
        with self._wakeup:
            self._closed = True
            for request in self._queue:
                request.set_exception(QueueFullError("scheduler is shut down"))
            self._queue.clear()
            self._wakeup.notify_all()
