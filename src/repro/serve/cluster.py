"""Sharded multi-process serving: replica worker pools, one pipe each.

The single-process :class:`~repro.serve.engine.ServeEngine` executes
batches on threads inside the serving process, which caps it at one GIL
and couples every model replica to the same address space: a crashed or
wedged replica is a crashed server.  :class:`ClusterEngine` moves batch
execution into *shard* processes — N replicas per ``ModelKey``, each a
forked worker owning its own copy of the servable — and keeps the
process-level concerns in the parent:

* **one pipe per shard** — the shard's dispatch thread sends the
  coalesced batch down a duplex :func:`multiprocessing.Pipe` and waits
  for the reply; the batch is pickled once each way.  The dispatch
  thread holds the shard's lock until the answer is back, so a shard
  never has more than one request outstanding;
* **supervision** — a dispatch that gets no answer within
  ``watchdog_stall_s`` of the send (or sees the process die) kills and
  respawns the shard and **re-routes the in-flight batch** to the
  replacement, bounded by ``max_redispatch``; in place of the lane
  core's stall rule, :meth:`check_watchdog` restarts shards that crash
  while idle;
* **the same lane core as the thread engine** (:mod:`repro.serve.core`)
  — admission, breaker, numeric guard, failover, deadline withholding
  and the metrics counter families are one implementation; each shard
  is one executor of the lane, so the chaos-soak harness audits a
  process topology with unchanged code.  ``stall`` faults ride *into*
  the shard with the batch, so the worker genuinely goes silent.

Pipe messages, in order:

1. shard → parent, once: ``None`` when the replica has loaded, or the
   load error as text (the shard then exits);
2. parent → shard, per batch: ``(images, quantized, stall_s)``;
3. shard → parent, per batch: ``(logits, path)``, where ``path`` names
   the datapath that answered, or the error as text if the batch raised.

There is no goodbye: the parent releases a shard by killing it, since a
replica holds nothing to flush, and a shard whose pipe reaches EOF exits.

The fork start method is required: shard workers inherit the loader
callable by address-space copy, so any closure (e.g. one returning a
pre-built in-memory servable) is a valid loader without being picklable.

The shard pool is **elastic**: :meth:`ClusterEngine.add_shard` spawns an
extra replica at a fresh index, and :meth:`ClusterEngine.retire_shard`
drains one away — the retiring shard is *fenced* (its dispatch thread
stops pulling new batches), the in-flight batch runs to completion, and
only then are the process and its pipe released, so a scale-down can
never lose a request.  A crash-looping spec can be **quarantined**
(:meth:`ClusterEngine.quarantine_lane`): the lane swaps its shard
executors for an in-parent float executor, and dead shards stay down
instead of respawn-spinning, until :meth:`ClusterEngine.clear_quarantine`
probes the shards back.  The :mod:`~repro.serve.autoscaler` drives all
three knobs from ladder/queue/crash pressure.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import threading
import time
from multiprocessing.connection import wait

import numpy as np

from ..resilience import ResiliencePolicy
from ..resilience.faults import STALL, FaultPlan
from .admission import AdmissionController
from .core import FLOAT, BatchLost, Executor, Lane, LaneCore, datapath
from .metrics import Metrics
from .registry import ModelKey
from .scheduler import DEFAULT_PRIORITY, BatchPolicy

__all__ = ["ClusterPolicy", "ClusterEngine", "default_shard_loader"]

#: Longest a dispatch waits on its shard between checks that the engine
#: is not stopping (the lane thread's own ``wait_for_batch`` slice).
WAIT_SLICE_S = 0.1
#: How long a spawn waits for its replica to load.
READY_TIMEOUT_S = 120.0

try:  # glibc's malloc_trim; other allocators have no equivalent to call
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
except (AttributeError, OSError):
    _malloc_trim = None


def _trim_heap() -> None:
    """Return the allocator's free pages to the OS before a fork.

    A forked shard starts with every page the parent has resident, and
    glibc keeps the pages that set-up (a calibration, say) freed until it
    is asked to trim them.  How many it keeps depends on where the live
    blocks landed, which differs from run to run; trimmed first, every
    replica starts from the parent's live memory alone.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


def default_shard_loader(spec: str):
    """Build a servable inside the shard via a fresh :class:`ModelRegistry`.

    Each shard process loads (or warm-starts from the serialized
    quantizer state on disk) its own replica — the production-shaped
    path.  Tests and benchmarks usually pass a closure over a pre-built
    servable instead, which fork shares copy-on-write for instant spawn.
    """
    from .registry import ModelRegistry

    return ModelRegistry().get(spec)


class ClusterPolicy:
    """Shape and supervision tunables for the shard pool."""

    def __init__(
        self,
        shards: int = 2,
        image_hw: int = 16,
        max_redispatch: int = 3,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if image_hw < 1:
            raise ValueError("image_hw must be >= 1")
        if max_redispatch < 0:
            raise ValueError("max_redispatch must be >= 0")
        self.shards = shards
        self.image_hw = image_hw
        self.max_redispatch = max_redispatch


def _shard_main(spec: str, loader, conn) -> None:
    """Shard process body: load one replica, then answer batches over the
    pipe until it reaches EOF (see the message list in the module docstring).

    Single-threaded by design — an injected stall or a wedged predict
    leaves the parent with no answer, which is precisely the signal its
    supervision keys on.
    """
    # The parent supervises shards; a Ctrl-C on the terminal must not
    # race it by killing workers directly.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        servable = loader(spec)
    except Exception as error:  # report, then exit: the parent re-raises
        conn.send(f"{type(error).__name__}: {error}")
        return
    conn.send(None)
    while True:
        try:
            images, quantized, stall_s = conn.recv()
        except EOFError:
            return
        if stall_s > 0:
            time.sleep(stall_s)  # injected stall: the parent hears nothing
        try:
            if quantized:
                logits, path = servable.predict(images), datapath(servable)
            else:
                logits, path = servable.predict_float(images), FLOAT
            logits = np.asarray(logits, dtype=np.float32)
            if logits.ndim != 2 or logits.shape[0] != len(images):
                raise ValueError(f"model returned logits of shape {logits.shape}")
            reply = logits, path
        except Exception as error:
            reply = f"{type(error).__name__}: {error}"
        conn.send(reply)


class _ShardExecutor(Executor):
    """One shard: a forked replica answering batches over its own pipe.

    A respawn replaces the process and pipe behind the same index.
    ``lock`` is held by whoever operates the shard: its dispatch thread,
    the idle-crash sweep, or a rolling restart.
    """

    def __init__(self, engine: "ClusterEngine", lane: Lane, index: int):
        self.engine = engine
        self.lane = lane
        self.index = index
        self.lock = threading.Lock()
        self.restarts = 0
        self.stall_s = 0.0  # injected stall, delivered with the next dispatch
        self.lost = 0  # times the current batch was lost with its shard

    def spawn(self) -> None:
        """Fork a replica over a fresh pipe; block until it has loaded."""
        engine = self.engine
        with engine._fork_lock:
            # No other spawn may fork while the child's end is open here:
            # a sibling holding it would keep this shard's pipe unbroken
            # after the shard died, and a large send to it would block.
            self.conn, child = engine._ctx.Pipe()
            _trim_heap()
            self.process = engine._ctx.Process(
                target=_shard_main,
                args=(self.lane.key.spec, engine.loader, child),
                name=f"shard-{self.lane.key.slug}-{self.index}",
                daemon=True,
            )
            self.process.start()
            child.close()
        ready = wait([self.conn, self.process.sentinel], READY_TIMEOUT_S)
        if not ready:
            self.close()
            raise TimeoutError(f"shard {self.index} not ready within {READY_TIMEOUT_S}s")
        message = "shard died during load"
        if self.conn in ready:
            try:
                message = self.conn.recv()
            except EOFError:
                pass
            if message is None:
                return
        self.close()
        raise RuntimeError(
            f"shard {self.index} for {self.process.name} failed to load: {message}"
        )

    def alive(self) -> bool:
        return self.process.is_alive()

    def close(self) -> None:
        """Kill the process and close the pipe (idempotent).

        A replica holds nothing to flush, so there is no goodbye message:
        a busy shard dies mid-batch instead of finishing one nobody awaits.
        """
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=1.0)
        self.conn.close()

    def respawn(self, reason: str) -> None:
        """Kill (if needed) and respawn the shard; counts the restart.

        ``reason`` is ``"stall"`` (no answer in time — the watchdog
        family, counted in ``lane.restarts`` too, so chaos-soak recovery
        evidence holds across topologies), ``"crash"`` (process died) or
        ``"rolling"`` (a rolling restart, which is neither).
        """
        engine, lane, spec = self.engine, self.lane, self.lane.key.spec
        self.close()
        if reason == "crash":
            # Recorded before the respawn so the autoscaler's crash-loop
            # window sees the death even if the respawn below fails too.
            lane.record_crash(engine.clock())
        self.spawn()
        self.restarts += 1
        engine.metrics.count("shard_restarts_total", spec=spec)
        if reason == "stall":
            with lane.lock:
                lane.restarts += 1
            engine.metrics.count("watchdog_restarts_total", spec=spec)
        elif reason == "crash":
            engine.metrics.count("shard_crashes_total", spec=spec)

    def view(self, fenced: bool) -> dict:
        return {"index": self.index, "alive": self.alive(), "pid": self.process.pid,
                "restarts": self.restarts, "fenced": fenced}

    def begin(self, batch) -> bool:
        # An injected stall rides into the shard with the batch's first
        # dispatch, so the worker process itself goes silent.
        faults, spec = self.engine.faults, self.lane.key.spec
        window = faults.fire(STALL, site=spec) if faults is not None else None
        self.stall_s = window.stall_s if window is not None else 0.0
        self.lost = 0
        return True

    def run(self, batch, quantized: bool):
        """Dispatch to the shard, respawning it and re-routing the batch when
        it dies or stalls, at most ``max_redispatch`` times."""
        engine, lane = self.engine, self.lane
        while True:
            if engine._stopping:
                raise BatchLost("cluster engine stopped mid-batch")
            with self.lock:
                # A shard found dead is respawned first; that is no loss.
                dispatched, reason = self.alive(), "crash"
                if dispatched:
                    stall_s, self.stall_s = self.stall_s, 0.0
                    answer = self._dispatch(batch, quantized, stall_s)
                    if not isinstance(answer, str):
                        return answer
                    reason = answer
                if lane.quarantined:
                    # Crash-loop endpoint: no respawn; answer in the parent.
                    return lane.stand_in.run(batch, False)
                try:
                    # Under the dispatch lock, so the idle-crash sweep cannot
                    # race us into a double restart.
                    self.respawn(reason)
                except Exception as error:
                    raise BatchLost(f"shard {self.index} did not respawn: {error}") from error
            if dispatched:
                self.lost += 1
                if self.lost > engine.cluster.max_redispatch:
                    raise BatchLost(
                        f"batch abandoned after {self.lost} shard losses (last: {reason})"
                    )
                with lane.lock:
                    lane.reroutes += 1
                engine.metrics.count("reroutes_total", spec=lane.key.spec)

    def _dispatch(self, batch, quantized: bool, stall_s: float):
        """Send the batch to the shard and await the answer.

        Returns ``(logits, path)``, or why the shard was lost with the
        batch: ``"crash"`` (the process died or its pipe broke) or
        ``"stall"`` (no answer within ``watchdog_stall_s`` of the send).
        A shard-side exception is raised as :class:`RuntimeError`.
        """
        engine = self.engine
        try:
            self.conn.send((batch.images, quantized, stall_s))
        except OSError:
            return "crash"
        deadline = time.monotonic() + engine.resilience.watchdog_stall_s
        while True:
            left = deadline - time.monotonic()
            ready = wait([self.conn, self.process.sentinel],
                         min(WAIT_SLICE_S, max(left, 0.0)))
            if self.conn in ready:
                try:
                    answer = self.conn.recv()
                except (EOFError, OSError):
                    return "crash"
                if isinstance(answer, str):
                    raise RuntimeError(f"shard error: {answer}")
                return answer
            # The sentinel, not EOF, proves a death: a process forked from
            # this one may still hold the shard's end of the pipe.
            if not self.alive():
                return "crash"
            if left <= 0:
                return "stall"
            if engine._stopping:
                raise BatchLost("cluster engine stopped mid-batch")


class _ParentExecutor(Executor):
    """The in-parent float path a quarantined lane's batches swap to."""

    def __init__(self, engine: "ClusterEngine", key: ModelKey):
        self.engine = engine
        self.key = key
        self.servable = None  # built by the engine's loader on first use
        self.lock = threading.Lock()

    def begin(self, batch) -> bool:
        return False  # float only, so it never takes a half-open probe

    def run(self, batch, quantized: bool):
        with self.lock:
            if self.servable is None:
                self.servable = self.engine.loader(self.key.spec)
        logits = np.asarray(self.servable.predict_float(batch.images), dtype=np.float32)
        self.engine.metrics.count("quarantine_batches_total", spec=self.key.spec)
        return logits, FLOAT


class _RegistryView:
    """Duck-typed registry facade over the shard pools.

    The lane core's snapshot and the chaos-soak harness expect an
    ``engine.registry`` with ``invalidate`` and a ``snapshot()["entries"]``
    listing; a cluster has no in-process model cache, so this reports the
    lanes whose shard pools are live.
    """

    def __init__(self, engine: "ClusterEngine"):
        self._engine = engine

    def invalidate(self, spec) -> bool:
        """Rolling restart of the spec's shards (the cluster analogue of
        dropping a cached entry: replicas reload from disk)."""
        return self._engine.restart_lane(spec)

    def snapshot(self) -> dict:
        return self._engine.registry_snapshot()


class ClusterEngine(LaneCore):
    """Sharded multi-process counterpart of :class:`ServeEngine`.

    The lane core with one :class:`_ShardExecutor` per shard, so it has the
    same operational surface (``warm`` / ``submit`` / ``check_watchdog`` /
    ``drain`` / ``stop`` / ``snapshot``, plus ``policy``, ``guard`` and a
    ``registry`` facade), and the open-loop replay harnesses and the
    admission controller run against either topology unchanged.
    """

    join_timeout_s = 5.0

    def __init__(
        self,
        loader=None,
        policy: BatchPolicy | None = None,
        cluster: ClusterPolicy | None = None,
        metrics: Metrics | None = None,
        clock=time.monotonic,
        resilience: ResiliencePolicy | None = None,
        faults: FaultPlan | None = None,
        admission: AdmissionController | None = None,
    ):
        super().__init__(policy, metrics, clock, resilience, faults, admission)
        self.loader = default_shard_loader if loader is None else loader
        self.cluster = ClusterPolicy() if cluster is None else cluster
        self.registry = _RegistryView(self)
        self._ctx = multiprocessing.get_context("fork")
        self._fork_lock = threading.Lock()  # one shard spawn forks at a time

    # ------------------------------------------------------------------
    # Lanes and shards
    def _open(self, lane: Lane) -> None:
        lane.stand_in = _ParentExecutor(self, lane.key)
        for _ in range(self.cluster.shards):
            self._add(lane)

    def _add(self, lane: Lane) -> None:
        """Spawn one shard at a fresh index and start its dispatch thread."""
        index = lane.claim()
        executor = _ShardExecutor(self, lane, index)
        executor.spawn()
        self._start(lane, index, executor, name="dispatch")

    def warm(self, spec: str | ModelKey) -> None:
        """Spawn (and block until ready) the spec's shard pool."""
        self._lane(ModelKey.parse(spec))

    def submit(self, spec, image, tenant="default", priority=DEFAULT_PRIORITY,
               deadline_ms=None):
        """Enqueue one image (see :meth:`LaneCore.submit`); it must be
        ``(image_hw, image_hw, 3)``, or the batch it joins could not stack."""
        image = np.asarray(image, dtype=np.float32)
        expected = (self.cluster.image_hw, self.cluster.image_hw, 3)
        if image.shape != expected:
            raise ValueError(
                f"image shape {image.shape} is not the cluster's {expected} "
                f"(set ClusterPolicy.image_hw)"
            )
        return super().submit(spec, image, tenant, priority, deadline_ms)

    def kill_shard(self, spec: str | ModelKey, index: int = 0) -> int:
        """SIGKILL one shard process (chaos/testing hook); returns the pid.

        Supervision takes it from there: the dispatch thread (or
        :meth:`check_watchdog` if the shard was idle) respawns the shard
        and re-routes whatever batch was in flight on it.
        """
        lane = self._find(spec)
        executor = lane.executors.get(index) if lane is not None else None
        if executor is None or not executor.alive():
            raise RuntimeError(
                f"shard {index} of {ModelKey.parse(spec).spec} is not running"
            )
        pid = executor.process.pid
        os.kill(pid, signal.SIGKILL)
        return pid

    def restart_lane(self, spec: str | ModelKey) -> bool:
        """Rolling restart of every idle shard in a lane (registry
        ``invalidate`` analogue — replicas reload their artifacts)."""
        lane = self._find(spec)
        if lane is None:
            return False
        restarted = False
        with lane.lock:
            indices = sorted(lane.executors)
        for index in indices:
            executor = lane.executors.get(index)
            if executor is not None and executor.lock.acquire(blocking=False):
                try:  # busy shards are skipped
                    executor.respawn("rolling")
                    restarted = True
                finally:
                    executor.lock.release()
        return restarted

    # ------------------------------------------------------------------
    # Elastic control surface (driven by repro.serve.autoscaler)
    def add_shard(self, spec: str | ModelKey) -> bool:
        """Spawn one extra replica for the spec at a fresh index.

        Returns ``True`` when the shard came up ready; ``False`` when the
        lane does not exist, the engine is stopping, or the spawn failed
        (counted as ``shard_spawn_failures_total`` — the autoscaler's
        crash-loop breaker reacts to repeated failures, the engine does
        not retry on its own).
        """
        lane = self._find(spec)
        if lane is None or self._stopping:
            return False
        try:
            self._add(lane)
        except Exception:
            self.metrics.count("shard_spawn_failures_total", spec=lane.key.spec)
            lane.record_crash(self.clock())
            return False
        self.metrics.count("scale_ups_total", spec=lane.key.spec)
        return True

    def retire_shard(self, spec: str | ModelKey, index: int | None = None,
                     drain_timeout_s: float = 10.0) -> bool:
        """Drain one replica away: fence, finish in-flight, release the shard.

        The fenced dispatch thread pulls no new batches and exits once
        its current batch (if any) completes; only then are the process
        and its pipe closed, so a scale-down never loses a request.  If
        the drain does not complete within ``drain_timeout_s`` the fence
        is lifted and ``False`` returned — the caller (autoscaler) simply
        retries on a later tick.  The last unfenced shard of a lane is
        never retired.
        """
        lane = self._find(spec)
        if lane is None:
            return False
        with lane.lock:
            candidates = [i for i in lane.executors if i not in lane.fenced]
            if len(candidates) <= 1:
                return False  # never drain the pool to zero
            if index is None:
                index = max(candidates)
            elif index not in candidates:
                return False
            lane.fenced.add(index)
            thread = lane.threads.get(index)
        if thread is not None:
            thread.join(timeout=drain_timeout_s)
            if thread.is_alive():
                # Still mid-batch (a stall is being ridden out): abort the
                # retire rather than strand the batch — unfence and retry
                # on a later autoscaler tick.
                with lane.lock:
                    lane.fenced.discard(index)
                return False
        with lane.lock:
            executor = lane.executors.pop(index, None)
            lane.threads.pop(index, None)
            lane.fenced.discard(index)
        if executor is not None:
            executor.close()
        self.metrics.count("scale_downs_total", spec=lane.key.spec)
        return True

    def quarantine_lane(self, spec: str | ModelKey) -> bool:
        """Swap the spec's shards for the in-parent float executor.

        The crash-loop endpoint: dead shards stay down (no respawn
        spinning), live ones idle, and every batch runs on a parent-side
        replica's float path until :meth:`clear_quarantine`.
        """
        return self._quarantine(spec, True)

    def clear_quarantine(self, spec: str | ModelKey) -> bool:
        """Lift the quarantine: the next batch on a dead shard respawns it
        (the recovery probe — if the spec still crash-loops, the
        autoscaler re-quarantines with a longer backoff)."""
        return self._quarantine(spec, False)

    def _quarantine(self, spec: str | ModelKey, on: bool) -> bool:
        lane = self._find(spec)
        if lane is None:
            return False
        with lane.lock:
            if lane.quarantined == on:
                return False
            lane.quarantined = on
        self.metrics.gauge("lane_quarantined", labels={"spec": lane.key.spec}).set(int(on))
        if on:
            self.metrics.count("quarantines_total", spec=lane.key.spec)
        return True

    def lane_specs(self) -> list[str]:
        """Specs with live lanes, sorted for deterministic iteration."""
        with self._lock:
            return sorted(lane.key.spec for lane in self._lanes.values())

    def shard_count(self, spec: str | ModelKey) -> int:
        """Unfenced shards currently serving the spec (0 if no lane)."""
        lane = self._find(spec)
        if lane is None:
            return 0
        with lane.lock:
            return len(lane.executors.keys() - lane.fenced)

    def lane_stats(self, spec: str | ModelKey) -> dict | None:
        """One consistent pressure/health reading for the autoscaler."""
        lane = self._find(spec)
        if lane is None:
            return None
        queued = lane.scheduler.qsize()
        with lane.lock:
            unfenced = [e for i, e in lane.executors.items() if i not in lane.fenced]
            return {
                "spec": lane.key.spec,
                "queue_depth": queued,
                "queue_capacity": self.policy.max_queue,
                "in_flight": len(lane.active),
                "shards": len(unfenced),
                "shards_alive": sum(1 for executor in unfenced if executor.alive()),
                "quarantined": lane.quarantined,
                "crash_times": list(lane.crash_times),
            }

    # ------------------------------------------------------------------
    # Supervision and observability
    def _supervise(self, lane, index, executor, busy, now) -> bool:
        """Respawn a shard that died while idle, in place of the stall rule.

        Busy shards are supervised inline by their dispatch thread (which
        times its own stalls and re-routes the in-flight batch); this sweep
        catches crashes that happen between batches, so a lane never waits
        for the next batch to discover it is down a replica.
        """
        if executor.alive() or not executor.lock.acquire(blocking=False):
            return False  # healthy, or its dispatch thread is handling it
        try:
            executor.respawn("crash")
            return True
        except Exception:
            return False  # the dispatch thread will retry on next batch
        finally:
            executor.lock.release()

    def _shard_views(self, lane: Lane) -> list[dict]:
        return [executor.view(index in lane.fenced)
                for index, executor in sorted(lane.executors.items())]

    def _lane_view(self, lane: Lane) -> dict:
        # ``shards_live`` is read here, at snapshot time, from the same
        # views, so it holds while supervision skips a quarantined lane.
        shards = self._shard_views(lane)
        live = sum(1 for view in shards if view["alive"] and not view["fenced"])
        self.metrics.gauge("shards_live", labels={"spec": lane.key.spec}).set(live)
        return {**super()._lane_view(lane), "reroutes": lane.reroutes,
                "quarantined": lane.quarantined, "shards": shards}

    def registry_snapshot(self) -> dict:
        with self._lock:
            lanes = list(self._lanes.values())
        shards = {}
        for lane in lanes:
            with lane.lock:
                shards[lane.key.spec] = self._shard_views(lane)
        return {
            "entries": [lane.key.spec for lane in lanes],
            "shards": shards,
            "size": len(lanes),
        }
