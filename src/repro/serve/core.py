"""The lane core both serving engines share.

A *lane* serves one model spec: a bounded micro-batching queue, a
circuit breaker over its quantized path, and one or more *executors*,
each driven by its own thread through :meth:`LaneCore.step`.  The core
owns everything about a batch except where it runs:

* **admission** — the degrade ladder and the bounded queue in front of
  :meth:`LaneCore.submit`, with typed, reason-labelled rejections;
* **datapath choice** — quantized unless the lane is degraded, the model
  has no quantized path, or the breaker is open (consulted last, so a
  degraded or float-only batch never takes a half-open probe);
* **failover** — a quantized run that raises, or whose logits fail the
  numeric guard, counts against the breaker and is answered on the float
  path; a batch bad on both paths is failed, never served;
* **completion** — a result that lands past its request's deadline is
  withheld with :class:`~repro.serve.scheduler.DeadlineExceededError`;
* **lifecycle** — drain, stop and the metrics snapshot.

Every wait in the core runs on the injected clock.

An :class:`Executor` runs one batch on one datapath and reports which
datapath answered.  :class:`~repro.serve.engine.ServeEngine` runs batches
on in-process worker threads; :class:`~repro.serve.cluster.ClusterEngine`
sends each to a shard process over a pipe.  A quarantined lane swaps its
executors for a stand-in (the cluster's in-parent float path) until the
quarantine is cleared.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from ..resilience import ResiliencePolicy
from ..resilience.breaker import CircuitBreaker
from ..resilience.faults import BATCH_EXCEPTION, FaultPlan
from ..resilience.guards import NumericGuard, NumericGuardError
from .admission import AdmissionController, LaneView
from .metrics import Metrics
from .registry import ModelKey
from .scheduler import (
    DEFAULT_PRIORITY,
    Batch,
    BatchPolicy,
    DeadlineExceededError,
    MicroBatchScheduler,
    QueueFullError,
    ServeRequest,
)

__all__ = ["FLOAT", "QUANT", "INT", "DATAPATHS", "BatchLost", "Executor", "Lane",
           "LaneCore", "ServeResult", "datapath"]

#: Datapaths that can answer a batch: the float model, fake-quant QUQ, and
#: the integer-native backend.
FLOAT, QUANT, INT = "float", "quant", "int"
DATAPATHS = (FLOAT, QUANT, INT)


def datapath(servable) -> str:
    """The datapath ``servable.predict`` runs on."""
    if not servable.quantized:
        return FLOAT
    return INT if getattr(getattr(servable, "backend", None), "name", None) == INT else QUANT


@dataclass
class ServeResult:
    """Completed classification for one request."""

    label: int
    logits: np.ndarray
    batch_size: int
    quantized: bool


class BatchLost(RuntimeError):
    """An executor lost a batch for good: it fails without a float retry."""


class Executor:
    """Where a lane's batches run; one thread drives each executor, except
    a quarantine stand-in, which every thread of its lane shares.

    :meth:`beat` runs on every pass of the executor's thread, busy or idle.
    :meth:`begin` readies the model for one batch and says whether it has a
    quantized path; raising fails the batch against the breaker with no
    float retry.  :meth:`run` returns the batch's logits and the datapath
    that produced them.  :meth:`end` follows an answered batch, and
    :meth:`close` releases the executor once its thread has stopped.
    """

    def beat(self) -> None:
        pass

    def begin(self, batch: Batch) -> bool:
        return True

    def run(self, batch: Batch, quantized: bool) -> tuple[np.ndarray, str]:
        raise NotImplementedError

    def end(self, batch: Batch) -> None:
        pass

    def close(self) -> None:
        pass


class Lane:
    """One spec's queue, breaker, executors, and in-flight ledger.

    Executors are keyed by index so they can be added and retired at run
    time; a ``fenced`` index finishes its batch but pulls no new one.
    """

    def __init__(self, key: ModelKey, scheduler: MicroBatchScheduler,
                 breaker: CircuitBreaker):
        self.key = key
        self.scheduler = scheduler
        self.breaker = breaker
        self.executors: dict[int, Executor] = {}
        self.threads: dict[int, threading.Thread] = {}
        self.fenced: set[int] = set()
        self.next_index = 0
        self.active: dict[int, Batch] = {}  # batches executing now, by executor
        self.restarts = 0  # executors restarted by supervision
        self.reroutes = 0  # batches re-run after their executor was lost
        self.quarantined = False  # while set, every batch runs on stand_in
        self.stand_in: Executor | None = None
        self.crash_times: list[float] = []  # engine-clock executor crashes
        self.force_float_until = 0.0  # admission degrade: serve float until then
        self.image_shape: tuple | None = None  # of the first image submitted
        self.lock = threading.Lock()

    def claim(self) -> int:
        """A fresh executor index; indices are never reused."""
        with self.lock:
            self.next_index += 1
            return self.next_index - 1

    def degraded(self, now: float) -> bool:
        with self.lock:
            return now < self.force_float_until

    def degrade(self, until: float) -> None:
        with self.lock:
            self.force_float_until = max(self.force_float_until, until)

    def check_shape(self, shape: tuple) -> None:
        """Hold the lane to the shape of its first image.

        A batch stacks its requests' images, so an image of another shape
        would break the batch it joined, inside the executor's thread.
        """
        with self.lock:
            if self.image_shape is None:
                self.image_shape = shape
            expected = self.image_shape
        if shape != expected:
            raise ValueError(
                f"image shape {shape} for {self.key.spec} is not {expected}, "
                "the shape of the lane's first image"
            )

    def record_crash(self, now: float) -> None:
        with self.lock:
            self.crash_times.append(now)
            del self.crash_times[:-64]  # bounded history for the autoscaler


class LaneCore:
    """Admission, batch execution, accounting and lifecycle for every lane.

    Subclasses open a lane's executors in :meth:`_open`; the lane is
    published only once that returns, so a lane that failed to open holds
    no requests.  :meth:`_start` registers an executor and starts the
    thread that loops on :meth:`step`, one pass of the executor's loop; a
    subclass whose ``_start`` only registers the executor can drive every
    lane, the clock and :meth:`check_watchdog` from one thread.
    """

    #: How long :meth:`stop` waits for each executor thread to finish.
    join_timeout_s = 2.0

    def __init__(
        self,
        policy: BatchPolicy | None = None,
        metrics: Metrics | None = None,
        clock=time.monotonic,
        resilience: ResiliencePolicy | None = None,
        faults: FaultPlan | None = None,
        admission: AdmissionController | None = None,
    ):
        self.policy = BatchPolicy() if policy is None else policy
        self.metrics = Metrics() if metrics is None else metrics
        self.clock = clock
        self.resilience = ResiliencePolicy() if resilience is None else resilience
        self.faults = faults
        # Admission control is opt-in; when present every submit passes
        # through its degrade ladder before touching the lane queue.  The
        # p99 probe reads the engine's own end-to-end histogram.
        self.admission = admission
        if admission is not None:
            admission.attach_latency_probe(
                lambda: self.metrics.histogram("e2e_latency_ms").percentile(99)
            )
        self.guard = NumericGuard(saturation_limit=self.resilience.guard_saturation)
        self.drift = None
        self._lanes: dict[ModelKey, Lane] = {}
        self._lock = threading.Lock()
        self._open_lock = threading.Lock()  # one lane opens at a time
        self._stopping = False
        self._stopped = False

    # ------------------------------------------------------------------
    # Lanes and their executors
    def _open(self, lane: Lane) -> None:
        """Start the lane's executors (raise if they cannot come up)."""
        raise NotImplementedError

    def _lane(self, key: ModelKey) -> Lane:
        with self._lock:
            if self._stopping:
                raise RuntimeError("engine is stopped")
            lane = self._lanes.get(key)
        if lane is not None:
            return lane
        with self._open_lock:
            with self._lock:
                lane = self._lanes.get(key)
            if lane is not None:
                return lane  # a concurrent first submit opened it
            lane = Lane(
                key,
                MicroBatchScheduler(
                    self.policy, clock=self.clock,
                    on_expire=lambda req, spec=key.spec: self._reject(
                        spec, req.expire_reason or "timeout", req.priority
                    ),
                ),
                CircuitBreaker(
                    failure_threshold=self.resilience.breaker_failures,
                    cooldown_s=self.resilience.breaker_cooldown_s,
                    clock=self.clock,
                ),
            )
            try:
                self._open(lane)
            except BaseException:
                self._shutdown([lane])
                raise
            with self._lock:
                if not self._stopping:
                    self._lanes[key] = lane
                    return lane
            self._shutdown([lane])
            raise RuntimeError("engine is stopped")

    def _find(self, spec: str | ModelKey) -> Lane | None:
        with self._lock:
            return self._lanes.get(ModelKey.parse(spec))

    def _start(self, lane: Lane, index: int, executor: Executor, name: str) -> None:
        """Register ``executor`` at ``index`` and start the thread driving it."""
        thread = threading.Thread(
            target=self._serve, args=(lane, index),
            name=f"{name}-{lane.key.slug}-{index}", daemon=True,
        )
        with lane.lock:
            lane.executors[index] = executor
            lane.threads[index] = thread
        thread.start()

    def _serve(self, lane: Lane, index: int) -> None:
        """Executor thread: step the executor until it stops or is retired."""
        while self.step(lane, index, timeout=0.1):
            pass

    def step(self, lane: Lane, index: int, timeout: float = 0.0) -> bool:
        """One pass of executor ``index``'s loop: beat, wait up to
        ``timeout`` seconds of the injected clock for a batch, run it.

        Returns False, doing nothing, once the engine is stopping or the
        executor has been retired or fenced; True otherwise, whether or not
        a batch was due.  The executor's thread loops on this; a test that
        registers executors without threads calls it directly, so one
        thread drives the lanes, the clock and the supervision.
        """
        if self._stopping:
            return False
        with lane.lock:
            executor = lane.executors.get(index)
            if executor is None or index in lane.fenced:
                return False  # retired or draining: stop pulling work
            idle = not lane.active
        executor.beat()
        batch = lane.scheduler.wait_for_batch(timeout=timeout, idle=idle)
        if batch is None:
            return True
        # A fence raised during wait_for_batch does not strand this
        # batch: it runs to completion, and a retire joins this thread
        # before releasing the executor.
        with lane.lock:
            lane.active[index] = batch
            if lane.quarantined:
                executor = lane.stand_in
        try:
            self._execute(lane, executor, batch)
        finally:
            with lane.lock:
                del lane.active[index]
        return True

    # ------------------------------------------------------------------
    # Supervision
    def _supervise(self, lane: Lane, index: int, executor: Executor, busy: bool,
                   now: float) -> bool:
        """Replace or repair one executor found wedged or dead; say if it was."""
        return False

    def check_watchdog(self, now: float | None = None) -> list[str]:
        """One supervision sweep over every unfenced executor.

        Returns the spec of each executor restarted.  Callers drive the
        sweep explicitly (the replay harness between arrivals; tests with a
        fake clock call it directly), so detection is deterministic.  A
        quarantined lane's executors stay down until the quarantine clears.
        """
        now = self.clock() if now is None else now
        with self._lock:
            if self._stopping:
                return []
            lanes = list(self._lanes.values())
        restarted = []
        for lane in lanes:
            with lane.lock:
                if lane.quarantined:
                    continue
                executors = [(index, executor, index in lane.active)
                             for index, executor in sorted(lane.executors.items())
                             if index not in lane.fenced]
            for index, executor, busy in executors:
                if self._supervise(lane, index, executor, busy, now):
                    restarted.append(lane.key.spec)
        return restarted

    # ------------------------------------------------------------------
    # Admission
    def _reject(self, spec: str, reason: str, band: str) -> None:
        """Count one refused, expired or withheld request."""
        self.metrics.count("rejected_total", spec=spec)
        self.metrics.count("rejections_total", reason=reason, spec=spec)
        if reason == "deadline":
            self.metrics.count("deadline_misses_total", band=band, spec=spec)

    def submit(
        self, spec: str | ModelKey, image: np.ndarray, tenant: str = "default",
        priority: str = DEFAULT_PRIORITY, deadline_ms: float | None = None,
    ) -> ServeRequest:
        """Enqueue one image; returns the request handle to wait on.

        Raises :class:`~repro.serve.scheduler.QueueFullError` when the
        lane's bounded queue is full (backpressure), or an
        :class:`~repro.serve.admission.AdmissionError` subclass when the
        admission controller refuses the request (shed, rate-limited, or
        breaker-open reject).  Only *accepted* requests count toward
        ``requests_total`` and the queue-depth distribution; every refusal
        counts toward ``rejected_total`` and the reason-labelled
        ``rejections_total`` family.

        ``priority`` selects the shedding/scheduling band
        (:data:`~repro.serve.scheduler.PRIORITIES`); ``deadline_ms``
        (optional) fails the request with
        :class:`~repro.serve.scheduler.DeadlineExceededError` if it
        cannot be served in time — late results are never silently
        delivered.

        An image with a NaN or infinite value raises ``ValueError`` before
        any of that and is not counted: a quantized lane's first input tap
        would park it at a finite code and answer with finite logits.  So
        does an image whose shape differs from the lane's first image.
        """
        key = ModelKey.parse(spec)
        image = np.asarray(image, dtype=np.float32)
        if not np.isfinite(image).all():
            raise ValueError(f"image for {key.spec} has non-finite values")
        lane = self._lane(key)
        lane.check_shape(image.shape)
        if self.admission is not None:
            now = self.clock()
            decision = self.admission.decide(
                tenant,
                LaneView(
                    queue_depth=lane.scheduler.qsize(),
                    queue_capacity=self.policy.max_queue,
                    breaker_state=lane.breaker.state,
                ),
                now=now,
                priority=priority,
            )
            if not decision.admitted:
                self._reject(key.spec, decision.reason, priority)
                raise decision.error
            if decision.force_float:
                lane.degrade(now + self.admission.policy.degrade_hold_s)
        try:
            request = lane.scheduler.submit(
                image, priority=priority, deadline_ms=deadline_ms
            )
        except QueueFullError:
            self._reject(key.spec, "queue_full", priority)
            raise
        self.metrics.count("requests_total", spec=key.spec)
        self.metrics.distribution("queue_depth").observe(lane.scheduler.qsize())
        return request

    # ------------------------------------------------------------------
    # One batch
    def _attempt(self, lane: Lane, executor: Executor, batch: Batch,
                 quantized: bool) -> tuple[np.ndarray, str]:
        """One run of the batch, fault-injected and guard-scanned."""
        spec = lane.key.spec
        if quantized and self.faults is not None:
            self.faults.raise_if(BATCH_EXCEPTION, site=spec)
        logits, path = executor.run(batch, quantized)
        if path != FLOAT and self.faults is not None:
            logits = self.faults.corrupt_logits(logits, site=spec)
        verdict = self.guard.scan(logits)
        if not verdict.ok:
            raise NumericGuardError(verdict.reason)
        return logits, path

    def _execute(self, lane: Lane, executor: Executor, batch: Batch) -> None:
        spec = lane.key.spec
        started = self.clock()
        try:
            quantizable = executor.begin(batch)
        except Exception as error:
            lane.breaker.record_failure()
            self._fail_batch(lane, batch, error)
            return
        # Admission degrade ladder level 2 forces the float path for the
        # hold window — the same degraded-but-available stance as an open
        # breaker, driven by overload instead of failures.
        degraded = lane.degraded(started)
        if degraded:
            self.metrics.count("degraded_batches_total", spec=spec)
        # breaker.allow() is consulted last so a degraded or float-only
        # batch never consumes (and then abandons) a half-open probe slot.
        result = None
        if quantizable and not degraded and lane.breaker.allow():
            try:
                result = self._attempt(lane, executor, batch, quantized=True)
            except BatchLost as error:
                self._fail_batch(lane, batch, error)
                return
            except Exception as error:
                # The quantized artifact misbehaved: count it against the
                # breaker, then answer this batch on the float path.
                lane.breaker.record_failure()
                self.metrics.count("failovers_total", spec=spec)
                if isinstance(error, NumericGuardError):
                    self.metrics.count("guard_trips_total", spec=spec)
            else:
                if result[1] != FLOAT:  # a stand-in may answer on float
                    lane.breaker.record_success()
        if result is None:
            try:
                result = self._attempt(lane, executor, batch, quantized=False)
            except Exception as error:
                self._fail_batch(lane, batch, error)
                return
        logits, path = result
        if path == INT:
            self.metrics.count("int_batches_total", spec=spec)
        self._complete(lane, batch, logits, path != FLOAT, started)
        executor.end(batch)

    def _complete(self, lane: Lane, batch: Batch, logits: np.ndarray,
                  quantized: bool, started: float) -> None:
        spec = lane.key.spec
        finished = self.clock()
        self.metrics.count("batches_total")
        self.metrics.distribution("batch_size").observe(len(batch))
        self.metrics.histogram("exec_latency_ms").observe((finished - started) * 1e3)
        queue_wait = self.metrics.histogram("queue_wait_ms")
        e2e = self.metrics.histogram("e2e_latency_ms")
        for request, label, row in zip(batch.requests, logits.argmax(axis=-1), logits):
            queue_wait.observe((batch.created_at - request.enqueued_at) * 1e3)
            e2e.observe((finished - request.enqueued_at) * 1e3)
            if request.deadline_at is not None and finished > request.deadline_at:
                # The answer exists but arrived late: fail fast rather
                # than silently serving past the deadline the caller set.
                late_ms = (finished - request.deadline_at) * 1e3
                self._reject(spec, "deadline", request.priority)
                request.set_exception(
                    DeadlineExceededError(
                        f"completed {late_ms:.1f} ms past the deadline "
                        f"({request.priority} request); result withheld"
                    ),
                    now=finished,
                )
                continue
            self.metrics.count("responses_total")
            request.set_result(
                ServeResult(int(label), row, len(batch), quantized), now=finished
            )

    def _fail_batch(self, lane: Lane, batch: Batch, error: BaseException) -> None:
        spec = lane.key.spec
        if isinstance(error, NumericGuardError):
            self.metrics.count("guard_trips_total", spec=spec)
        self.metrics.count("errors_total", spec=spec)
        now = self.clock()
        for request in batch.requests:
            request.set_exception(error, now=now)

    # ------------------------------------------------------------------
    # Observability and lifecycle
    def _lane_view(self, lane: Lane) -> dict:
        """A lane's snapshot entry; called under the engine and lane locks."""
        return {
            **lane.scheduler.stats(),
            "breaker": lane.breaker.snapshot(),
            "watchdog_restarts": lane.restarts,
            "in_flight": len(lane.active),
            "degraded": self.clock() < lane.force_float_until,
        }

    def snapshot(self) -> dict:
        """Full metrics snapshot: engine instruments + lanes + registry.

        Lane state is collected under the engine lock with each lane's
        own lock and the scheduler's atomic :meth:`~MicroBatchScheduler.stats`
        held per lane, so the queued/timed-out/rejected/breaker/in-flight
        numbers for a lane describe one consistent instant — concurrent
        submits and completions cannot interleave between the reads.
        """
        lane_views: dict[str, dict] = {}
        with self._lock:
            for lane in self._lanes.values():
                with lane.lock:
                    lane_views[lane.key.spec] = self._lane_view(lane)
        extra = {
            "registry": self.registry.snapshot(),
            "drift": self.drift.snapshot() if self.drift is not None else {},
            "lanes": lane_views,
            "timeouts_total": sum(view["timed_out"] for view in lane_views.values()),
        }
        if self.admission is not None:
            extra["admission"] = self.admission.snapshot()
        return self.metrics.snapshot(extra=extra)

    def drain(self, timeout: float = 30.0) -> bool:
        """Wait until every queue is empty and nothing is in flight.

        Polls every 2 ms until ``timeout`` seconds of the injected engine
        clock have passed; returns whether the engine settled in time.
        """
        deadline = self.clock() + timeout
        while True:
            with self._lock:
                lanes = list(self._lanes.values())
            if not any(lane.scheduler.qsize() > 0 or lane.active for lane in lanes):
                return True
            if self.clock() >= deadline:
                return False
            time.sleep(0.002)

    def _shutdown(self, lanes: list[Lane]) -> None:
        """Fail queued work, stop and release executors, fail wedged batches."""
        for lane in lanes:
            lane.scheduler.close()
            with lane.lock:
                executors, lane.executors, lane.fenced = lane.executors, {}, set()
                threads, lane.threads = lane.threads, {}
            for thread in threads.values():
                thread.join(timeout=self.join_timeout_s)
            for executor in executors.values():
                executor.close()
            # A thread that would not join is wedged inside a batch; fail
            # that batch's requests so no submitter hangs (a late
            # completion by the wedged thread is a first-wins no-op).
            with lane.lock:
                pending = [r for b in lane.active.values() for r in b.requests]
            for request in pending:
                request.set_exception(RuntimeError("engine stopped before batch completed"))

    def stop(self) -> None:
        self._stopping = True
        with self._lock:
            # Idempotent: a second stop must not touch released executors.
            if self._stopped:
                return
            self._stopped = True
            lanes = list(self._lanes.values())
        if self.faults is not None:
            self.faults.release_stalls()  # let injected stalls unwind
        self._shutdown(lanes)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
