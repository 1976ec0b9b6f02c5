"""Elastic control plane: scale, quarantine, and lend shard capacity.

The :class:`~repro.serve.cluster.ClusterEngine` exposes the mechanisms —
:meth:`add_shard` / :meth:`retire_shard` (fenced drain) /
:meth:`quarantine_lane` / :meth:`clear_quarantine` — and this module is
the policy loop that drives them.  :meth:`Autoscaler.tick` reads one
pressure sample per lane (queue depth fraction, admission ladder level,
in-flight count, crash history) and decides:

* **scale up** when pressure stays above ``scale_up_pressure`` (or the
  admission ladder sits at/above :data:`SCALE_UP_LEVEL`) for
  ``scale_up_sustain`` consecutive ticks, bounded by ``max_shards``;
* **scale down** when a lane stays idle for ``scale_down_sustain``
  ticks, bounded by ``min_shards`` — the retire is a *drain* (the engine
  fences the shard, finishes in-flight work, then stops its process) and an
  aborted drain is retried on a later tick, never forced;
* **hysteresis + cooldown** — the sustain counters are the hysteresis
  (one noisy sample never scales), and ``cooldown_s`` separates
  consecutive actions on the same lane so the controller cannot flap;
* **crash-loop quarantine** — ``crash_loop_threshold`` shard deaths
  within ``crash_window_s`` quarantines the spec (the engine stops
  respawning and serves in-parent float); respawn probes back off
  exponentially from ``quarantine_base_s`` up to ``quarantine_max_s``,
  and a probe that crash-loops again re-quarantines at the next rung;
* **capacity borrowing** — when one lane saturates past
  ``borrow_pressure`` while another idles below ``lender_idle``, an idle
  lane's shard is retired (drained) and re-spawned on the hot lane,
  bounded by ``borrow_budget`` concurrent loans and returned when the
  pressure reverses; a loan may dip the lender below ``min_shards``
  (never below one shard) because, unlike a voluntary scale-down, it is
  unwound on reversal.

Everything runs on the injected clock and the engine surface is
duck-typed (``lane_specs`` / ``lane_stats`` / ``add_shard`` /
``retire_shard`` / ``quarantine_lane`` / ``clear_quarantine``), so the
unit tests drive the whole policy against a fake engine on a fake clock.
Every action lands in an event ledger the scale benchmark audits.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

__all__ = ["AutoscalePolicy", "Autoscaler"]

#: Admission ladder level from which a lane whose queue backs it up
#: counts as pressured.
SCALE_UP_LEVEL = 1


@dataclass
class AutoscalePolicy:
    """Tunables for one :class:`Autoscaler`."""

    min_shards: int = 1
    max_shards: int = 4
    scale_up_pressure: float = 0.5  # queue fraction that counts as pressured
    scale_up_sustain: int = 2  # consecutive pressured ticks before scaling
    scale_down_idle: float = 0.05  # queue fraction that counts as idle
    scale_down_sustain: int = 4  # consecutive idle ticks before retiring
    cooldown_s: float = 1.0  # min spacing between actions on one lane
    crash_loop_threshold: int = 3  # crashes within the window -> quarantine
    crash_window_s: float = 10.0
    quarantine_base_s: float = 2.0  # first respawn-probe backoff
    quarantine_max_s: float = 30.0  # backoff ceiling
    borrow_budget: int = 1  # max concurrent cross-lane loans
    borrow_pressure: float = 0.8  # borrower queue fraction to trigger a loan
    lender_idle: float = 0.1  # lender queue fraction to be eligible

    def __post_init__(self):
        if not 1 <= self.min_shards <= self.max_shards:
            raise ValueError(
                f"need 1 <= min_shards <= max_shards, got "
                f"{self.min_shards}..{self.max_shards}"
            )
        if self.scale_up_sustain < 1 or self.scale_down_sustain < 1:
            raise ValueError("sustain counts must be >= 1")
        if not 0.0 <= self.scale_down_idle < self.scale_up_pressure <= 1.0:
            raise ValueError(
                "need 0 <= scale_down_idle < scale_up_pressure <= 1"
            )
        if self.cooldown_s < 0 or self.crash_window_s <= 0:
            raise ValueError("cooldown_s must be >= 0, crash_window_s > 0")
        if self.crash_loop_threshold < 1:
            raise ValueError("crash_loop_threshold must be >= 1")
        if not 0 < self.quarantine_base_s <= self.quarantine_max_s:
            raise ValueError("need 0 < quarantine_base_s <= quarantine_max_s")
        if self.borrow_budget < 0:
            raise ValueError("borrow_budget must be >= 0")
        if not 0.0 <= self.lender_idle < self.borrow_pressure <= 1.0:
            raise ValueError("need 0 <= lender_idle < borrow_pressure <= 1")


class _LaneState:
    """Controller-side memory for one lane."""

    def __init__(self):
        self.pressure_ticks = 0
        self.idle_ticks = 0
        self.last_action_at: float | None = None
        self.quarantined_until = 0.0
        self.quarantine_count = 0  # backoff rung
        self.crash_ignore_before = 0.0  # crashes before this are settled
        self.borrowed = 0  # shards currently borrowed *into* this lane


class Autoscaler:
    """Drive an elastic engine from periodic pressure samples.

    ``engine`` is duck-typed (see the module docstring); ``admission``
    (optional) supplies the degrade-ladder level via ``current_level()``
    so sustained shedding scales the pool up even before the queue depth
    alone would.  Call :meth:`tick` on whatever cadence suits the caller
    — the harness ticks between trace arrivals, production would tick on
    a timer; determinism comes from the injected clock, not the cadence.
    """

    def __init__(self, engine, policy: AutoscalePolicy | None = None,
                 clock=time.monotonic, admission=None):
        self.engine = engine
        self.policy = AutoscalePolicy() if policy is None else policy
        self.clock = clock
        self.admission = admission
        self.events: list[dict] = []
        self._states: dict[str, _LaneState] = {}
        self._loans: list[dict] = []  # active cross-lane borrows
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _state(self, spec: str) -> _LaneState:
        state = self._states.get(spec)
        if state is None:
            state = self._states[spec] = _LaneState()
        return state

    def _record(self, now: float, spec: str, action: str, **detail) -> dict:
        event = {"at": round(now, 6), "spec": spec, "action": action, **detail}
        self.events.append(event)
        return event

    def _in_cooldown(self, state: _LaneState, now: float) -> bool:
        return (
            state.last_action_at is not None
            and now - state.last_action_at < self.policy.cooldown_s
        )

    def _ladder_level(self) -> int:
        if self.admission is None:
            return 0
        return self.admission.current_level()

    # ------------------------------------------------------------------
    def tick(self, now: float | None = None) -> list[dict]:
        """One control-loop pass; returns the events it performed."""
        with self._lock:
            return self._tick_locked(self.clock() if now is None else now)

    def _tick_locked(self, now: float) -> list[dict]:
        performed: list[dict] = []
        p = self.policy
        level = self._ladder_level()
        stats_by_spec: dict[str, dict] = {}
        for spec in self.engine.lane_specs():  # sorted: deterministic order
            stats = self.engine.lane_stats(spec)
            if stats is None:
                continue
            stats_by_spec[spec] = stats
            state = self._state(spec)
            pressure = stats["queue_depth"] / max(1, stats["queue_capacity"])

            # --- crash-loop breaker -----------------------------------
            recent_crashes = [
                t for t in stats.get("crash_times", ())
                if t > state.crash_ignore_before and t >= now - p.crash_window_s
            ]
            if (
                not stats.get("quarantined")
                and len(recent_crashes) >= p.crash_loop_threshold
            ):
                if self.engine.quarantine_lane(spec):
                    backoff = min(
                        p.quarantine_max_s,
                        p.quarantine_base_s * (2 ** state.quarantine_count),
                    )
                    state.quarantine_count += 1
                    state.quarantined_until = now + backoff
                    state.crash_ignore_before = now
                    state.pressure_ticks = state.idle_ticks = 0
                    performed.append(self._record(
                        now, spec, "quarantine",
                        crashes=len(recent_crashes),
                        backoff_s=round(backoff, 3),
                    ))
                continue
            if stats.get("quarantined"):
                if now >= state.quarantined_until:
                    if self.engine.clear_quarantine(spec):
                        # Respawn probe: crashes before this instant are
                        # settled history; only a fresh crash burst should
                        # re-trip the breaker at the next backoff rung.
                        state.crash_ignore_before = now
                        performed.append(self._record(
                            now, spec, "quarantine_clear",
                            rung=state.quarantine_count,
                        ))
                continue  # no scaling while (still) quarantined

            # --- hysteresis counters ----------------------------------
            # The ladder level only updates on admission decisions, so it
            # goes stale the moment arrivals stop; it therefore counts as
            # pressure only while this lane's own queue backs it up.
            pressured = pressure >= p.scale_up_pressure or (
                level >= SCALE_UP_LEVEL and pressure > p.scale_down_idle
            )
            lane_idle = pressure <= p.scale_down_idle and stats["in_flight"] == 0
            if pressured:
                state.pressure_ticks += 1
                state.idle_ticks = 0
            elif lane_idle:
                state.idle_ticks += 1
                state.pressure_ticks = 0
            else:
                state.pressure_ticks = 0
                state.idle_ticks = 0

            if self._in_cooldown(state, now):
                continue

            # --- scale up ---------------------------------------------
            if (
                state.pressure_ticks >= p.scale_up_sustain
                and stats["shards"] < p.max_shards + state.borrowed
            ):
                if self.engine.add_shard(spec):
                    state.last_action_at = now
                    state.pressure_ticks = 0
                    performed.append(self._record(
                        now, spec, "scale_up",
                        shards=stats["shards"] + 1,
                        pressure=round(pressure, 4),
                        level=level,
                    ))
                continue

            # --- scale down (drained) ---------------------------------
            if (
                state.idle_ticks >= p.scale_down_sustain
                and stats["shards"] > p.min_shards + state.borrowed
            ):
                if self.engine.retire_shard(spec):
                    state.last_action_at = now
                    state.idle_ticks = 0
                    performed.append(self._record(
                        now, spec, "scale_down",
                        shards=stats["shards"] - 1, drained=True,
                    ))
                else:
                    # Drain aborted (in-flight work would not finish in
                    # time): leave the counters so a later tick retries.
                    performed.append(self._record(
                        now, spec, "scale_down_aborted", drained=False,
                    ))

        performed.extend(self._borrow_pass(now, stats_by_spec))
        return performed

    # ------------------------------------------------------------------
    def _borrow_pass(self, now: float, stats_by_spec: dict[str, dict]) -> list[dict]:
        """Move idle shards to saturated lanes; unwind on reversal."""
        p = self.policy
        performed: list[dict] = []

        def fraction(spec: str) -> float:
            stats = stats_by_spec.get(spec)
            if stats is None:
                return 0.0
            return stats["queue_depth"] / max(1, stats["queue_capacity"])

        # Return loans whose borrower has cooled off (or whose lender is
        # now the pressured side) — drain a shard back to the lender.
        for loan in list(self._loans):
            borrower, lender = loan["borrower"], loan["lender"]
            if borrower not in stats_by_spec or lender not in stats_by_spec:
                continue
            if fraction(borrower) > p.lender_idle and fraction(lender) < p.borrow_pressure:
                continue  # pressure has not reversed yet
            if now - loan["at"] < p.cooldown_s and fraction(lender) < p.borrow_pressure:
                continue  # anti-flap: hold the loan at least one cooldown
            if not self.engine.retire_shard(borrower):
                continue  # borrower still busy; retry next tick
            self._state(borrower).borrowed -= 1
            returned = self.engine.add_shard(lender)
            self._loans.remove(loan)
            performed.append(self._record(
                now, borrower, "borrow_return",
                lender=lender, respawned=bool(returned),
            ))

        # A genuinely global overload self-limits here: no lane passes the
        # lender test (idle queue, nothing in flight, spare shards), so
        # capacity only moves when one side really is slack.
        budget = p.borrow_budget - len(self._loans)
        if budget <= 0:
            return performed
        hot = [
            s for s in stats_by_spec
            if fraction(s) >= p.borrow_pressure
            and not stats_by_spec[s].get("quarantined")
        ]
        # A loan may dip the lender below ``min_shards`` (never below one
        # shard): unlike a voluntary scale-down it is unwound on pressure
        # reversal, so the floor only guards permanent retirement.
        idle = [
            s for s in stats_by_spec
            if fraction(s) <= p.lender_idle
            and not stats_by_spec[s].get("quarantined")
            and stats_by_spec[s]["shards"] > 1
            and stats_by_spec[s]["in_flight"] == 0
        ]
        for borrower in hot:
            if budget <= 0 or not idle:
                break
            lender = idle.pop(0)
            if not self.engine.retire_shard(lender):
                continue  # lender would not drain cleanly; skip this tick
            if not self.engine.add_shard(borrower):
                # Respawn on the hot lane failed: give the shard back.
                self.engine.add_shard(lender)
                continue
            state = self._state(borrower)
            state.borrowed += 1
            self._loans.append({"borrower": borrower, "lender": lender, "at": now})
            budget -= 1
            performed.append(self._record(
                now, borrower, "borrow", lender=lender,
            ))
        return performed

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-serializable controller state + event ledger summary."""
        with self._lock:
            counts: dict[str, int] = {}
            for event in self.events:
                counts[event["action"]] = counts.get(event["action"], 0) + 1
            return {
                "events": list(self.events),
                "event_counts": dict(sorted(counts.items())),
                "active_loans": list(self._loans),
                "lanes": {
                    spec: {
                        "pressure_ticks": st.pressure_ticks,
                        "idle_ticks": st.idle_ticks,
                        "quarantine_rung": st.quarantine_count,
                        "quarantined_until": round(st.quarantined_until, 6),
                        "borrowed": st.borrowed,
                    }
                    for spec, st in sorted(self._states.items())
                },
            }
