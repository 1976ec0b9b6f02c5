"""Sharded multi-process serving: replica worker pools over shared memory.

The single-process :class:`~repro.serve.engine.ServeEngine` executes
batches on threads inside the serving process, which caps it at one GIL
and couples every model replica to the same address space: a crashed or
wedged replica is a crashed server.  :class:`ClusterEngine` moves batch
execution into *shard* processes — N replicas per ``ModelKey``, each a
forked worker owning its own copy of the servable — and keeps the
process-level concerns in the parent:

* **zero-copy hand-off** — each shard owns a one-slot ring in a
  :mod:`multiprocessing.shared_memory` segment; the parent writes the
  coalesced batch straight into the slot's image region and flips a
  status word, the shard reads the same mapped pages (no pickling, no
  pipe copy) and writes logits back into the slot's output region.  One
  slot is all a shard can use: its one dispatch thread holds the shard's
  lock until the answer is back, so a second request never waits in the
  ring;
* **supervision** — shards heartbeat through a control word; a dispatch
  that sees the heartbeat go silent past ``watchdog_stall_s`` (or the
  process die) kills and respawns the shard and **re-routes the
  in-flight batch** to the replacement, bounded by ``max_redispatch``;
  :meth:`check_watchdog` additionally restarts shards that crash while
  idle, reusing the watchdog/backoff idioms of :mod:`repro.resilience`;
* **the same lane core as the thread engine** (:mod:`repro.serve.core`)
  — admission, breaker, numeric guard, failover, deadline withholding
  and the metrics counter families are one implementation; each shard
  is one executor of the lane, so the chaos-soak harness audits a
  process topology with unchanged code.  ``stall`` faults are delivered
  *into* the shard through the slot header, so the worker genuinely
  stops heartbeating.

Slot protocol (all header words are aligned int64; single-writer
ownership alternates on the status word, which is written last on x86's
total-store-order — the parent never touches a slot the shard owns and
vice versa):

====== =============================================================
status owner / meaning
====== =============================================================
0      EMPTY — parent may fill
1      REQ   — shard executes (``len``, ``mode``, ``stall_ns`` valid)
2      RES   — parent collects logits (``classes``, ``path`` valid)
3      ERR   — parent collects the UTF-8 error message (``msg_len``)
====== =============================================================

The fork start method is required: shard workers inherit the loader
callable and the shared-memory views by address-space copy, so any
closure (e.g. one returning a pre-built in-memory servable) is a valid
loader without being picklable.

The shard pool is **elastic**: :meth:`ClusterEngine.add_shard` spawns an
extra replica at a fresh index, and :meth:`ClusterEngine.retire_shard`
drains one away — the retiring shard is *fenced* (its dispatch thread
stops pulling new batches), the in-flight batch runs to completion, and
only then are the process and its rings released, so a scale-down can
never lose a request.  A crash-looping spec can be **quarantined**
(:meth:`ClusterEngine.quarantine_lane`): the lane swaps its shard
executors for an in-parent float executor, and dead shards stay down
instead of respawn-spinning, until :meth:`ClusterEngine.clear_quarantine`
probes the shards back.  The :mod:`~repro.serve.autoscaler` drives all
three knobs from ladder/queue/crash pressure.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import numpy as np

from ..resilience import ResiliencePolicy
from ..resilience.faults import STALL, FaultPlan
from .admission import AdmissionController
from .core import DATAPATHS, FLOAT, BatchLost, Executor, Lane, LaneCore, datapath
from .metrics import Metrics
from .registry import ModelKey
from .scheduler import DEFAULT_PRIORITY, BatchPolicy

__all__ = ["ClusterPolicy", "ClusterEngine", "default_shard_loader"]

# Slot status words (see the protocol table in the module docstring).
EMPTY, REQ, RES, ERR = 0, 1, 2, 3
# Execution modes the parent requests.
MODE_QUANT, MODE_FLOAT = 0, 1
# Header word indices; H_PATH holds the DATAPATHS index of the path
# that answered.
H_STATUS, H_LEN, H_CLASSES, H_MODE, H_STALL_NS, H_PATH, H_MSG_LEN = range(7)
HEADER_WORDS = 7
# Control word indices (one control block per shard segment).
C_HEARTBEAT, C_READY, C_STOP = 0, 1, 2
CTRL_WORDS = 4
MSG_BYTES = 512  # UTF-8 error message region per slot

READY_OK, READY_FAILED = 1, -1


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
        channels: int = 3,
        max_classes: int = 64,
        ready_timeout_s: float = 120.0,
        poll_s: float = 0.0005,
        max_redispatch: int = 3,
    ):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if image_hw < 1 or channels < 1 or max_classes < 1:
            raise ValueError("image_hw, channels, max_classes must be >= 1")
        if ready_timeout_s <= 0 or poll_s <= 0 or max_redispatch < 0:
            raise ValueError(
                "ready_timeout_s and poll_s must be > 0, max_redispatch >= 0"
            )
        self.shards = shards
        self.image_hw = image_hw
        self.channels = channels
        self.max_classes = max_classes
        self.ready_timeout_s = ready_timeout_s
        self.poll_s = poll_s
        self.max_redispatch = max_redispatch


class _RingViews:
    """NumPy views over one shard's shared-memory segment: the control
    block and the ring's one slot.

    Built in the parent; the shard inherits the same object through fork,
    so both sides address identical mapped pages.  Holding ``shm`` here
    keeps the mapping alive on both sides of the fork.
    """

    def __init__(self, shm, max_batch: int, image_shape, max_classes: int):
        self.shm = shm
        self.max_batch = max_batch
        self.image_shape = tuple(image_shape)
        self.max_classes = max_classes
        buf = shm.buf
        offset = 0

        def carve(dtype, shape):
            nonlocal offset
            arr = np.ndarray(shape, dtype=dtype, buffer=buf, offset=offset)
            offset += arr.nbytes
            # Keep every region 8-byte aligned so int64 header words stay
            # on natural boundaries (atomic aligned stores on x86/arm64).
            offset = (offset + 7) & ~7
            return arr

        self.ctrl = carve(np.int64, (CTRL_WORDS,))
        self.hdr = carve(np.int64, (HEADER_WORDS,))
        self.msg = carve(np.uint8, (MSG_BYTES,))
        self.images = carve(np.float32, (max_batch,) + self.image_shape)
        self.logits = carve(np.float32, (max_batch, max_classes))
        self.nbytes = offset

    @classmethod
    def required_bytes(cls, max_batch, image_shape, max_classes) -> int:
        slot = (
            MSG_BYTES
            + 4 * max_batch * int(np.prod(image_shape))
            + 4 * max_batch * max_classes
        )
        # Alignment padding upper bound: 8 bytes per carved region.
        return (CTRL_WORDS + HEADER_WORDS) * 8 + slot + 8 * 5

    def write_error(self, message: str) -> None:
        data = message.encode("utf-8", errors="replace")[:MSG_BYTES]
        self.msg[: len(data)] = np.frombuffer(data, dtype=np.uint8)
        self.hdr[H_MSG_LEN] = len(data)

    def read_error(self) -> str:
        length = int(self.hdr[H_MSG_LEN])
        return bytes(self.msg[:length]).decode("utf-8", errors="replace")


def _shard_main(spec: str, loader, views: _RingViews, poll_s: float) -> None:
    """Shard process body: load one replica, then serve the ring's slot.

    Single-threaded by design — the heartbeat stops the moment the worker
    blocks (an injected ``stall_ns`` sleep, a wedged predict), which is
    precisely the signal the parent's supervision keys on.
    """
    # The parent supervises shards; a Ctrl-C on the terminal must not
    # race it by killing workers directly.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    ctrl, row = views.ctrl, views.hdr
    try:
        servable = loader(spec)
    except BaseException as error:  # report, then exit: the parent re-raises
        views.write_error(f"{type(error).__name__}: {error}")
        ctrl[C_READY] = READY_FAILED
        return
    ctrl[C_READY] = READY_OK
    while not ctrl[C_STOP]:
        if row[H_STATUS] != REQ:
            ctrl[C_HEARTBEAT] += 1
            time.sleep(poll_s)
            continue
        stall_ns = int(row[H_STALL_NS])
        if stall_ns > 0:
            # Injected stall: sleep without heartbeating so the parent's
            # staleness detector sees a genuinely silent shard.
            time.sleep(stall_ns / 1e9)
        ctrl[C_HEARTBEAT] += 1
        n = int(row[H_LEN])
        mode = int(row[H_MODE])
        # Zero-copy input: predict consumes the shared mapping directly;
        # the parent does not reuse the slot until the status word flips.
        images = views.images[:n]
        try:
            if mode == MODE_FLOAT:
                logits, path = servable.predict_float(images), FLOAT
            else:
                logits, path = servable.predict(images), datapath(servable)
            logits = np.asarray(logits, dtype=np.float32)
            if logits.ndim != 2 or logits.shape[0] != n:
                raise ValueError(f"model returned logits of shape {logits.shape}")
            classes = min(logits.shape[1], views.max_classes)
            views.logits[:n, :classes] = logits[:, :classes]
            row[H_CLASSES] = classes
            row[H_PATH] = DATAPATHS.index(path)
            row[H_STATUS] = RES
        except BaseException as error:
            views.write_error(f"{type(error).__name__}: {error}")
            row[H_STATUS] = ERR
        ctrl[C_HEARTBEAT] += 1


class _ShardExecutor(Executor):
    """One shard: a forked replica answering batches over its own ring.

    A respawn replaces the process and ring behind the same index.
    ``lock`` is held by whoever operates the shard: its dispatch thread,
    the idle-crash sweep, or a rolling restart.
    """

    def __init__(self, engine: "ClusterEngine", lane: Lane, index: int):
        self.engine = engine
        self.lane = lane
        self.index = index
        self.lock = threading.Lock()
        self.restarts = 0
        self.stall_ns = 0  # injected stall, delivered with the next dispatch
        self.lost = 0  # times the current batch was lost with its shard

    def spawn(self) -> None:
        """Fork a replica over a fresh ring; block until it has loaded."""
        from multiprocessing import shared_memory

        engine, cluster = self.engine, self.engine.cluster
        shape = (cluster.image_hw, cluster.image_hw, cluster.channels)
        layout = (engine.policy.max_batch_size, shape, cluster.max_classes)
        self.shm = shared_memory.SharedMemory(
            create=True, size=_RingViews.required_bytes(*layout)
        )
        self.views = _RingViews(self.shm, *layout)
        self.views.ctrl[:] = 0
        self.views.hdr[:] = 0
        self.process = engine._ctx.Process(
            target=_shard_main,
            args=(self.lane.key.spec, engine.loader, self.views, cluster.poll_s),
            name=f"shard-{self.lane.key.slug}-{self.index}",
            daemon=True,
        )
        self.process.start()
        deadline = time.monotonic() + cluster.ready_timeout_s
        while time.monotonic() < deadline:
            state = int(self.views.ctrl[C_READY])
            if state == READY_OK:
                return
            if state == READY_FAILED or not self.alive():
                message = self.views.read_error() or "shard died during load"
                self.destroy()
                raise RuntimeError(
                    f"shard {self.index} for {self.process.name} failed to "
                    f"load: {message}"
                )
            time.sleep(cluster.poll_s)
        self.destroy()
        raise TimeoutError(
            f"shard {self.index} not ready within {cluster.ready_timeout_s}s"
        )

    def alive(self) -> bool:
        return self.process.is_alive()

    def destroy(self) -> None:
        """Kill the process and release the ring (idempotent)."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=1.0)
        try:
            self.shm.close()
            self.shm.unlink()
        except FileNotFoundError:
            pass

    def close(self) -> None:
        if self.alive():
            self.views.ctrl[C_STOP] = 1
            self.process.join(timeout=1.0)
        self.destroy()

    def respawn(self, reason: str) -> None:
        """Kill (if needed) and respawn the shard; counts the restart.

        ``reason`` is ``"stall"`` (heartbeat went silent — the watchdog
        family, so chaos-soak recovery evidence holds across topologies)
        or ``"crash"`` (process died).
        """
        engine, lane, spec = self.engine, self.lane, self.lane.key.spec
        self.destroy()
        if reason == "crash":
            # Recorded before the respawn so the autoscaler's crash-loop
            # window sees the death even if the respawn below fails too.
            lane.record_crash(engine.clock())
        self.spawn()
        self.restarts += 1
        with lane.lock:
            lane.restarts += 1
        engine._update_live_gauge(lane)
        engine.metrics.count("shard_restarts_total", spec=spec)
        engine.metrics.count(
            "watchdog_restarts_total" if reason == "stall" else "shard_crashes_total",
            spec=spec,
        )

    def view(self, fenced: bool) -> dict:
        return {"index": self.index, "alive": self.alive(), "pid": self.process.pid,
                "restarts": self.restarts, "fenced": fenced}

    def begin(self, batch) -> bool:
        # An injected stall rides into the shard with the batch's first
        # dispatch, so the worker process itself goes silent.
        faults, spec = self.engine.faults, self.lane.key.spec
        window = faults.fire(STALL, site=spec) if faults is not None else None
        self.stall_ns = int(window.stall_s * 1e9) if window is not None else 0
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
                    stall_ns, self.stall_ns = self.stall_ns, 0
                    answer = self._dispatch(batch, quantized, stall_ns)
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

    def _dispatch(self, batch, quantized: bool, stall_ns: int):
        """Write the batch into the shard's slot and await the answer.

        Returns ``(logits, path)``, or why the shard was lost with the
        batch: ``"crash"`` (the process died) or ``"stall"`` (its heartbeat
        went silent past ``watchdog_stall_s``).  A shard-side exception is
        raised as :class:`RuntimeError`.
        """
        engine, views = self.engine, self.views
        row = views.hdr
        if int(row[H_STATUS]) != EMPTY:
            # The previous incarnation died mid-protocol; reclaim the slot.
            row[H_STATUS] = EMPTY
        n = len(batch)
        views.images[:n] = batch.images
        row[H_LEN] = n
        row[H_MODE] = MODE_QUANT if quantized else MODE_FLOAT
        row[H_STALL_NS] = stall_ns
        row[H_STATUS] = REQ  # ownership hand-off: written last
        stall_after = engine.resilience.watchdog_stall_s
        last_beat = int(views.ctrl[C_HEARTBEAT])
        last_change = time.monotonic()
        while True:
            status = int(row[H_STATUS])
            if status == RES:
                logits = np.array(views.logits[:n, : int(row[H_CLASSES])])
                path = DATAPATHS[int(row[H_PATH])]
                row[H_STATUS] = EMPTY
                return logits, path
            if status == ERR:
                message = views.read_error()
                row[H_STATUS] = EMPTY
                raise RuntimeError(f"shard error: {message}")
            if not self.alive():
                return "crash"
            beat = int(views.ctrl[C_HEARTBEAT])
            if beat != last_beat:
                last_beat, last_change = beat, time.monotonic()
            elif time.monotonic() - last_change >= stall_after:
                return "stall"
            if engine._stopping:
                raise BatchLost("cluster engine stopped mid-batch")
            time.sleep(engine.cluster.poll_s)


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

    # ------------------------------------------------------------------
    # Lanes and shards
    def _open(self, lane: Lane) -> None:
        lane.stand_in = _ParentExecutor(self, lane.key)
        for _ in range(self.cluster.shards):
            self._add(lane)
        self._update_live_gauge(lane)

    def _add(self, lane: Lane) -> None:
        """Spawn one shard at a fresh index and start its dispatch thread."""
        index = lane.claim()
        executor = _ShardExecutor(self, lane, index)
        executor.spawn()
        self._start(lane, index, executor, name="dispatch")

    def _update_live_gauge(self, lane: Lane) -> None:
        with lane.lock:
            live = sum(
                1 for index, executor in lane.executors.items()
                if index not in lane.fenced and executor.alive()
            )
        self.metrics.gauge("shards_live", labels={"spec": lane.key.spec}).set(live)

    def warm(self, spec: str | ModelKey) -> None:
        """Spawn (and block until ready) the spec's shard pool."""
        self._lane(ModelKey.parse(spec))

    def submit(self, spec, image, tenant="default", priority=DEFAULT_PRIORITY,
               deadline_ms=None):
        """Enqueue one image (see :meth:`LaneCore.submit`); it must fit the
        shared rings."""
        image = np.asarray(image, dtype=np.float32)
        expected = (self.cluster.image_hw, self.cluster.image_hw, self.cluster.channels)
        if image.shape != expected:
            raise ValueError(
                f"image shape {image.shape} does not fit the cluster's shared "
                f"rings (expected {expected}; set ClusterPolicy.image_hw)"
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
                    executor.respawn("crash")
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
        self._update_live_gauge(lane)
        self.metrics.count("scale_ups_total", spec=lane.key.spec)
        return True

    def retire_shard(self, spec: str | ModelKey, index: int | None = None,
                     drain_timeout_s: float = 10.0) -> bool:
        """Drain one replica away: fence, finish in-flight, release rings.

        The fenced dispatch thread pulls no new batches and exits once
        its current batch (if any) completes; only then are the process
        and its shared-memory segment destroyed, so a scale-down never
        loses a request.  If the drain does not complete within
        ``drain_timeout_s`` the fence is lifted and ``False`` returned —
        the caller (autoscaler) simply retries on a later tick.  The last
        unfenced shard of a lane is never retired.
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
        self._update_live_gauge(lane)
        if thread is not None:
            thread.join(timeout=drain_timeout_s)
            if thread.is_alive():
                # Still mid-batch (a stall is being ridden out): abort the
                # retire rather than strand the batch — unfence and retry
                # on a later autoscaler tick.
                with lane.lock:
                    lane.fenced.discard(index)
                self._update_live_gauge(lane)
                return False
        with lane.lock:
            executor = lane.executors.pop(index, None)
            lane.threads.pop(index, None)
            lane.fenced.discard(index)
        if executor is not None:
            executor.close()
        self._update_live_gauge(lane)
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
        """Respawn a shard that died while idle.

        Busy shards are supervised inline by their dispatch thread (which
        also re-routes the in-flight batch); this sweep catches crashes
        that happen between batches, so a lane never waits for the next
        batch to discover it is down a replica.
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
        return {**super()._lane_view(lane), "reroutes": lane.reroutes,
                "quarantined": lane.quarantined, "shards": self._shard_views(lane)}

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
