"""State machines over the serving core, driven from one thread.

Hypothesis interleaves submits, clock advances, executor steps, topology
changes and faults, and checks the lifecycle invariants the engines
promise after every rule:

* **lane core** — :class:`~repro.serve.core.LaneCore` with stub executors
  on a fake clock: no batch left in flight between steps, no result
  delivered past its deadline, a bounded queue, ``responses_total`` equal
  to the results delivered, and after ``stop()`` exactly one outcome per
  accepted request;
* **EDF scheduler** — every batch is the head of the (band, deadline,
  seq) order, nothing is dispatched at or past its expiry, and every
  request ends exactly once: dispatched, expired or failed by ``close``;
* **cluster elastic surface** — a :class:`~repro.serve.ClusterEngine`
  over forked stub shards: a lane never loses its last shard,
  ``shards_live`` equals ``shard_count`` after a watchdog sweep, and
  ``stop()`` resolves every request and leaves no shard alive.

No thread but the test's runs a batch: each engine overrides ``_start``
to register its executors without starting a thread, and the machine
calls :meth:`~repro.serve.core.LaneCore.step` with ``timeout=0``.  The
settings are fixed here, and sized so that each machine fails when its
invariants are broken on purpose (a late result delivered, a batch left
in ``lane.active``, a scheduler left open at stop, a lane's last shard
retired).
"""

import math

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.resilience import ResiliencePolicy
from repro.serve import (
    PRIORITIES,
    BatchPolicy,
    ClusterEngine,
    ClusterPolicy,
    MicroBatchScheduler,
    QueueFullError,
    ServeRequest,
)
from repro.serve.core import FLOAT, QUANT, Executor, LaneCore
from repro.serve.registry import ModelKey
from repro.serve.scheduler import DeadlineExceededError, RequestTimeoutError
from tests.test_serve_cluster import stub_loader

SPEC = ModelKey.parse("vit_s/quq/6").spec
IMAGE = np.zeros((4, 4, 3), dtype=np.float32)
DEADLINES_MS = [None, 1.0, 2.0, 5.0, 20.0]
ADVANCES_MS = [0.5, 1.0, 2.0, 5.0, 20.0, 100.0]
#: A batch whose compute runs this long is wedged for the core's watchdog.
STALL_S = 0.02
COMPUTE_MS = [0.0, 1.0, 2.0, 5.0, 50.0]


def machine_settings(examples: int, steps: int) -> settings:
    return settings(max_examples=examples, stateful_step_count=steps,
                    derandomize=True, deadline=None, database=None)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class Outcomes:
    """Counts every ``set_result``/``set_exception`` call on each request,
    so a second completion shows even though completion is first-wins."""

    def __init__(self):
        self.requests: list[ServeRequest] = []
        self.calls: dict[ServeRequest, int] = {}

    def track(self, request: ServeRequest) -> None:
        self.requests.append(request)
        self.calls[request] = 0
        for name in ("set_result", "set_exception"):
            def counted(*args, _complete=getattr(request, name), **kwargs):
                self.calls[request] += 1
                _complete(*args, **kwargs)
            setattr(request, name, counted)

    def results(self) -> list[ServeRequest]:
        return [r for r in self.requests if r.done() and r.exception() is None]

    def assert_each_ended_once(self) -> None:
        for request in self.requests:
            assert request.done()
            assert self.calls[request] == 1, self.calls[request]


# ----------------------------------------------------------------------
# Lane core
class StubExecutor(Executor):
    """Answers at once unless its ``mode`` says otherwise.

    ``compute_s`` advances the fake clock while the batch runs, which is
    when a result can land late, and the stub then runs a watchdog sweep,
    as a supervisor thread could while the batch is in flight.
    """

    def __init__(self, core):
        self.core = core
        self.mode = "answer"  # answer | raise | nan | float
        self.both_paths = False  # "raise" and "nan" on the float path too
        self.compute_s = 0.0
        self.beat_at = core.clock()

    def beat(self):
        self.beat_at = self.core.clock()

    def run(self, batch, quantized):
        self.core.clock.advance(self.compute_s)
        self.core.check_watchdog()
        faulty = quantized or self.both_paths
        if self.mode == "raise" and faulty:
            raise RuntimeError("stub executor failed")
        logits = np.zeros((len(batch), 4), dtype=np.float32)
        logits[:, 1] = 1.0
        if self.mode == "nan" and faulty:
            logits[:] = np.nan
        return logits, QUANT if quantized and self.mode != "float" else FLOAT


class Unthreaded:
    """Registers each executor without starting a thread to drive it."""

    def _start(self, lane, index, executor, name):
        with lane.lock:
            lane.executors[index] = executor


class SteppedCore(Unthreaded, LaneCore):
    """The lane core over stub executors."""

    def _open(self, lane):
        lane.stand_in = StubExecutor(self)
        for _ in range(2):
            self.add_executor(lane)

    def add_executor(self, lane):
        self._start(lane, lane.claim(), StubExecutor(self), name="stub")

    def _supervise(self, lane, index, executor, busy, now):
        """Fence an executor wedged in its batch and start a replacement."""
        if not busy or now - executor.beat_at < STALL_S:
            return False
        with lane.lock:
            lane.fenced.add(index)
            lane.restarts += 1
        self.add_executor(lane)
        return True


class LaneCoreMachine(RuleBasedStateMachine):
    POLICY = BatchPolicy(max_batch_size=3, max_wait_ms=2.0, max_queue=6, timeout_ms=50.0)

    def __init__(self):
        super().__init__()
        self.clock = FakeClock()
        self.core = SteppedCore(
            self.POLICY, clock=self.clock,
            resilience=ResiliencePolicy(breaker_failures=2, breaker_cooldown_s=0.01),
        )
        self.lane = self.core._lane(ModelKey.parse(SPEC))
        self.outcomes = Outcomes()

    def unfenced(self) -> list[int]:
        with self.lane.lock:
            return sorted(self.lane.executors.keys() - self.lane.fenced)

    def stub(self, k: int) -> StubExecutor:
        with self.lane.lock:
            stubs = [self.lane.executors[i] for i in sorted(self.lane.executors)]
        stubs.append(self.lane.stand_in)
        return stubs[k % len(stubs)]

    # Every example starts with its executors' compute times drawn: under
    # swarm testing a rule is often switched off for a whole example, and
    # without compute time no result can land late.
    @initialize(ms=st.lists(st.sampled_from(COMPUTE_MS), min_size=3, max_size=3))
    def set_compute_times(self, ms):
        for k, value in enumerate(ms):
            self.stub(k).compute_s = value / 1000.0

    @rule(band=st.sampled_from(PRIORITIES), deadline_ms=st.sampled_from(DEADLINES_MS))
    def submit(self, band, deadline_ms):
        try:
            request = self.core.submit(SPEC, IMAGE, priority=band, deadline_ms=deadline_ms)
        except QueueFullError:
            return
        self.outcomes.track(request)

    @rule(ms=st.sampled_from(ADVANCES_MS))
    def advance(self, ms):
        self.clock.advance(ms / 1000.0)

    @rule(k=st.integers(0, 7))
    def step(self, k):
        # Any index ever claimed: a retired or fenced one must not run.
        index = k % self.lane.next_index
        with self.lane.lock:
            runs = index in self.lane.executors and index not in self.lane.fenced
        assert self.core.step(self.lane, index) is runs

    @precondition(lambda self: len(self.unfenced()) < 4)
    @rule()
    def add_executor(self):
        self.core.add_executor(self.lane)

    @precondition(lambda self: len(self.unfenced()) > 1)
    @rule(k=st.integers(0, 7))
    def fence_executor(self, k):
        unfenced = self.unfenced()
        with self.lane.lock:
            self.lane.fenced.add(unfenced[k % len(unfenced)])

    @rule(k=st.integers(0, 7))
    def retire_executor(self, k):
        with self.lane.lock:
            indices = sorted(self.lane.executors)
            index = indices[k % len(indices)]
            if (self.lane.executors.keys() - self.lane.fenced) <= {index}:
                return  # keep one executor pulling work
            executor = self.lane.executors.pop(index)
            self.lane.fenced.discard(index)
        executor.close()

    @rule(k=st.integers(0, 7), mode=st.sampled_from(["answer", "raise", "nan", "float"]),
          both_paths=st.booleans())
    def set_mode(self, k, mode, both_paths):
        stub = self.stub(k)
        stub.mode, stub.both_paths = mode, both_paths

    @rule(k=st.integers(0, 7), ms=st.sampled_from(COMPUTE_MS))
    def set_compute(self, k, ms):
        self.stub(k).compute_s = ms / 1000.0

    @rule(on=st.booleans())
    def quarantine(self, on):
        with self.lane.lock:
            self.lane.quarantined = on

    @rule()
    def check_watchdog(self):
        assert self.core.check_watchdog() == []  # no batch runs between steps

    @invariant()
    def nothing_in_flight_between_steps(self):
        assert not self.lane.active

    @invariant()
    def queue_is_bounded(self):
        assert self.lane.scheduler.qsize() <= self.POLICY.max_queue

    @invariant()
    def no_result_past_its_deadline(self):
        for request in self.outcomes.results():
            assert request.deadline_at is None or request.completed_at <= request.deadline_at

    @invariant()
    def responses_count_the_results(self):
        delivered = len(self.outcomes.results())
        assert self.core.metrics.counter("responses_total").value == delivered

    def teardown(self):
        self.core.stop()
        self.outcomes.assert_each_ended_once()
        self.responses_count_the_results()


TestLaneCoreMachine = LaneCoreMachine.TestCase
TestLaneCoreMachine.settings = machine_settings(examples=300, steps=30)


# ----------------------------------------------------------------------
# EDF scheduler
class SchedulerMachine(RuleBasedStateMachine):
    POLICY = BatchPolicy(max_batch_size=2, max_wait_ms=2.0, max_queue=5, timeout_ms=10.0)

    def __init__(self):
        super().__init__()
        self.clock = FakeClock()
        self.expired: list[ServeRequest] = []
        self.scheduler = MicroBatchScheduler(
            self.POLICY, clock=self.clock, on_expire=self.expired.append
        )
        self.outcomes = Outcomes()
        self.queued: list[ServeRequest] = []  # the model of the queue
        self.dispatched: list[ServeRequest] = []
        self.closed: list[ServeRequest] = []
        self.is_closed = False

    def expires_at(self, request: ServeRequest) -> float:
        timeout_at = request.enqueued_at + self.POLICY.timeout_ms / 1000.0
        if request.deadline_at is None:
            return timeout_at
        return min(timeout_at, request.deadline_at)

    def surviving(self, now: float) -> list[ServeRequest]:
        """The queued requests an expiry sweep at ``now`` keeps, in order."""
        alive = [r for r in self.queued if now < self.expires_at(r)]
        return sorted(alive, key=lambda r: (
            r.band, math.inf if r.deadline_at is None else r.deadline_at, r.seq,
        ))

    def settle_expired(self, now: float) -> None:
        expired = [r for r in self.queued if now >= self.expires_at(r)]
        for request in expired:
            assert any(request is e for e in self.expired)
            error = request.exception()
            assert isinstance(error, (RequestTimeoutError, DeadlineExceededError))
        self.queued = [r for r in self.queued if now < self.expires_at(r)]

    @rule(band=st.sampled_from(PRIORITIES), deadline_ms=st.sampled_from(DEADLINES_MS))
    def submit(self, band, deadline_ms):
        now = self.clock()
        try:
            request = self.scheduler.submit(IMAGE, priority=band, deadline_ms=deadline_ms)
        except QueueFullError:
            full = len(self.surviving(now)) >= self.POLICY.max_queue
            assert self.is_closed or full
            self.settle_expired(now)
            return
        assert not self.is_closed
        self.settle_expired(now)
        self.outcomes.track(request)
        self.queued.append(request)

    @rule(ms=st.sampled_from(ADVANCES_MS))
    def advance(self, ms):
        self.clock.advance(ms / 1000.0)

    @rule(idle=st.booleans())
    def poll(self, idle):
        now = self.clock()
        head = self.surviving(now)
        batch = self.scheduler.poll(idle=idle)
        self.settle_expired(now)
        policy = self.POLICY
        due = bool(head) and (
            len(head) >= policy.max_batch_size
            or now - min(r.enqueued_at for r in head) >= policy.max_wait_ms / 1000.0
            or idle
        )
        if not due:
            assert batch is None
            return
        assert batch is not None
        assert batch.requests == head[: policy.max_batch_size]
        for request in batch.requests:
            assert request.dispatched_at == now < self.expires_at(request)
            assert not request.done()
        self.dispatched.extend(batch.requests)
        self.queued = [r for r in self.queued if not any(r is d for d in batch.requests)]

    @rule()
    def expire_timeouts(self):
        now = self.clock()
        expected = [r for r in self.queued if now >= self.expires_at(r)]
        expired = self.scheduler.expire_timeouts()
        assert sorted(r.seq for r in expired) == sorted(r.seq for r in expected)
        self.settle_expired(now)

    @rule()
    def close(self):
        self.scheduler.close()
        self.is_closed = True
        for request in self.queued:
            assert isinstance(request.exception(), QueueFullError)
        self.closed.extend(self.queued)
        self.queued = []

    @invariant()
    def model_matches_the_queue(self):
        assert self.scheduler.qsize() == len(self.queued) <= self.POLICY.max_queue

    @invariant()
    def timed_out_counts_the_expired(self):
        assert self.scheduler.timed_out == len(self.expired)

    def teardown(self):
        self.close()
        ended = [id(r) for r in self.dispatched + self.expired + self.closed]
        assert sorted(ended) == sorted(id(r) for r in self.outcomes.requests)
        for request in self.dispatched:
            assert self.outcomes.calls[request] == 0  # the engine completes it
        for request in self.expired + self.closed:
            assert self.outcomes.calls[request] == 1


TestSchedulerMachine = SchedulerMachine.TestCase
TestSchedulerMachine.settings = machine_settings(examples=400, steps=30)


# ----------------------------------------------------------------------
# Cluster elastic surface
class SteppedCluster(Unthreaded, ClusterEngine):
    """A cluster engine whose dispatch the test thread steps."""


class ClusterMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engine = SteppedCluster(
            loader=stub_loader,
            policy=BatchPolicy(max_batch_size=3, max_wait_ms=2.0, max_queue=8),
            cluster=ClusterPolicy(shards=2, image_hw=4),
            clock=FakeClock(),  # frozen: nothing expires, so runs repeat
            # Only a kill may lose a shard, never a slow answer.
            resilience=ResiliencePolicy(watchdog_stall_s=60.0),
        )
        self.lane = self.engine._lane(ModelKey.parse(SPEC))
        self.outcomes = Outcomes()
        self.processes = []
        self.remember_processes()

    def remember_processes(self):
        with self.lane.lock:
            executors = list(self.lane.executors.values())
        for executor in executors:
            if not any(executor.process is p for p in self.processes):
                self.processes.append(executor.process)

    def unfenced(self) -> list[int]:
        with self.lane.lock:
            return sorted(self.lane.executors.keys() - self.lane.fenced)

    @rule(band=st.sampled_from(PRIORITIES))
    def submit(self, band):
        try:
            request = self.engine.submit(SPEC, IMAGE, priority=band)
        except QueueFullError:
            return
        self.outcomes.track(request)

    @rule(k=st.integers(0, 7))
    def step(self, k):
        index = k % self.lane.next_index
        with self.lane.lock:
            runs = index in self.lane.executors and index not in self.lane.fenced
        assert self.engine.step(self.lane, index) is runs
        self.remember_processes()

    @precondition(lambda self: len(self.unfenced()) < 4)
    @rule()
    def add_shard(self):
        assert self.engine.add_shard(SPEC)
        self.remember_processes()

    @rule(k=st.integers(0, 7))
    def retire_shard(self, k):
        index = k % self.lane.next_index
        unfenced = self.unfenced()
        retired = self.engine.retire_shard(SPEC, index)
        assert retired is (index in unfenced and len(unfenced) > 1)

    @rule(k=st.integers(0, 7))
    def kill_shard(self, k):
        with self.lane.lock:
            alive = [i for i, e in sorted(self.lane.executors.items()) if e.alive()]
        if not alive:
            return
        index = alive[k % len(alive)]
        self.engine.kill_shard(SPEC, index)
        self.lane.executors[index].process.join(timeout=10.0)  # dead before the next rule

    @rule()
    def check_watchdog(self):
        self.engine.check_watchdog()
        self.remember_processes()
        if not self.lane.quarantined:  # a quarantined lane's dead shards stay down
            live = self.engine.metrics.gauge("shards_live", labels={"spec": SPEC}).value
            assert live == self.engine.shard_count(SPEC)

    @rule()
    def quarantine_lane(self):
        self.engine.quarantine_lane(SPEC)

    @rule()
    def clear_quarantine(self):
        self.engine.clear_quarantine(SPEC)

    @invariant()
    def lane_keeps_a_shard(self):
        assert self.engine.shard_count(SPEC) >= 1

    def teardown(self):
        self.engine.stop()
        self.outcomes.assert_each_ended_once()
        assert not any(process.is_alive() for process in self.processes)


TestClusterMachine = ClusterMachine.TestCase
TestClusterMachine.settings = machine_settings(examples=30, steps=20)
