"""Unit tests for the resilience building blocks.

Everything here is clock- or event-driven: the breaker runs on a fake
clock, the retry policy on a fake sleep, and the fault plan on its own
event counters — no test in this module sleeps.
"""

import numpy as np
import pytest

from repro.resilience import (
    CLOSED,
    FAULT_KINDS,
    HALF_OPEN,
    LOAD_ERROR,
    NUMERIC,
    OPEN,
    STALL,
    CircuitBreaker,
    FaultInjected,
    FaultPlan,
    FaultSpec,
    NumericGuard,
    ResiliencePolicy,
    RetryPolicy,
)


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestFaultPlan:
    def test_window_fires_on_exact_event_indices(self):
        plan = FaultPlan([FaultSpec("batch_exception", start=2, count=2)])
        fired = [plan.fire("batch_exception", site="lane") is not None
                 for _ in range(6)]
        assert fired == [False, False, True, True, False, False]
        assert plan.injected("batch_exception") == 2

    def test_sites_keep_independent_counters(self):
        plan = FaultPlan([FaultSpec("stall", start=1, count=1)])
        assert plan.fire("stall", site="a") is None
        assert plan.fire("stall", site="b") is None  # b's own event 0
        assert plan.fire("stall", site="a") is not None
        assert plan.fire("stall", site="b") is not None

    def test_site_bound_spec_only_matches_that_site(self):
        plan = FaultPlan([FaultSpec("numeric", start=0, count=5, site="lane-a")])
        assert plan.fire("numeric", site="lane-b") is None
        assert plan.fire("numeric", site="lane-a") is not None

    def test_raise_if_raises_with_kind_and_site(self):
        plan = FaultPlan([FaultSpec(LOAD_ERROR, start=0, count=1)])
        with pytest.raises(FaultInjected) as exc:
            plan.raise_if(LOAD_ERROR, site="spec")
        assert exc.value.kind == LOAD_ERROR
        assert exc.value.site == "spec"
        plan.raise_if(LOAD_ERROR, site="spec")  # window exhausted: no raise

    def test_seeded_is_reproducible_and_covers_requested_kinds(self):
        a = FaultPlan.seeded(seed=3, kinds=FAULT_KINDS, horizon=10)
        b = FaultPlan.seeded(seed=3, kinds=FAULT_KINDS, horizon=10)
        assert a.specs == b.specs
        assert a.planned_kinds() == set(FAULT_KINDS)
        assert FaultPlan.seeded(seed=4, kinds=FAULT_KINDS).specs != a.specs

    @pytest.mark.parametrize("mode", ["nan", "inf", "overflow"])
    def test_corrupt_logits_each_mode_trips_the_guard(self, mode):
        plan = FaultPlan([FaultSpec(NUMERIC, start=0, count=1, mode=mode)])
        logits = np.linspace(-1.0, 1.0, 40).reshape(5, 8)
        polluted = plan.corrupt_logits(logits, site="lane")
        assert np.isfinite(logits).all()  # input untouched
        assert not NumericGuard().scan(polluted).ok
        # Window exhausted: clean pass-through afterwards.
        again = plan.corrupt_logits(logits, site="lane")
        assert again is logits

    def test_stall_blocks_until_released(self):
        plan = FaultPlan([FaultSpec(STALL, start=0, count=2, stall_s=30.0)])
        plan.release_stalls()  # pre-released: must return immediately
        assert plan.serve_stall(site="lane") is True
        assert plan.serve_stall(site="lane") is True
        assert plan.serve_stall(site="lane") is False  # window exhausted

    def test_snapshot_reports_events_and_injections(self):
        plan = FaultPlan([FaultSpec("queue_spike", start=0, count=1)])
        plan.fire("queue_spike")
        plan.fire("queue_spike")
        snap = plan.snapshot()
        assert snap["events"]["queue_spike"] == 2
        assert snap["injected"] == {"queue_spike": 1}

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("not_a_kind")
        with pytest.raises(ValueError):
            FaultSpec(NUMERIC, mode="garbage")
        with pytest.raises(ValueError):
            FaultSpec(STALL, count=0)


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=10.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(failure_threshold=2, clock=FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # never two in a row

    def test_half_open_single_probe_then_close(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
        breaker.record_failure()
        assert not breaker.allow()  # cooling down
        clock.advance(5.0)
        assert breaker.allow()  # the half-open probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # only one probe until it reports
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.recoveries == 1 and breaker.probes == 1

    def test_failed_probe_reopens_and_rearms_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == OPEN and breaker.trips == 2
        assert not breaker.allow()
        clock.advance(4.9)
        assert not breaker.allow()  # cooldown measured from the re-trip
        clock.advance(0.1)
        assert breaker.allow()

    def test_snapshot_shape(self):
        snap = CircuitBreaker(clock=FakeClock()).snapshot()
        assert snap == {"state": CLOSED, "consecutive_failures": 0,
                        "trips": 0, "probes": 0, "recoveries": 0}


class TestRetryPolicy:
    def test_recovers_within_budget_and_reports_schedule(self):
        sleeps = []
        policy = RetryPolicy(attempts=4, backoff_s=0.1, multiplier=2.0,
                             max_backoff_s=10.0, sleep=sleeps.append)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        seen = []
        assert policy.call(flaky, on_retry=lambda e, a, d: seen.append((a, d))) == "ok"
        assert calls["n"] == 3
        assert sleeps == [pytest.approx(0.1), pytest.approx(0.2)]
        assert seen == [(0, pytest.approx(0.1)), (1, pytest.approx(0.2))]

    def test_exhausted_budget_reraises_last_error(self):
        policy = RetryPolicy(attempts=2, backoff_s=0.0, sleep=lambda s: None)

        def always_fails():
            raise OSError("permanent")

        with pytest.raises(OSError, match="permanent"):
            policy.call(always_fails)

    def test_non_retryable_errors_pass_straight_through(self):
        sleeps = []
        policy = RetryPolicy(attempts=5, retry_on=(OSError,), sleep=sleeps.append)

        def fails_differently():
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            policy.call(fails_differently)
        assert sleeps == []  # no backoff for a non-retryable class

    def test_backoff_is_capped(self):
        policy = RetryPolicy(backoff_s=1.0, multiplier=10.0, max_backoff_s=3.0)
        assert policy.delay(0) == 1.0
        assert policy.delay(1) == 3.0
        assert policy.delay(5) == 3.0


class TestNumericGuard:
    def test_clean_logits_pass(self):
        verdict = NumericGuard().scan(np.linspace(-5, 5, 30))
        assert verdict.ok and verdict.reason == "ok"

    def test_counts_each_failure_class(self):
        guard = NumericGuard(saturation_limit=100.0)
        logits = np.zeros(8)
        logits[0] = np.nan
        logits[1] = np.inf
        logits[2] = -np.inf
        logits[3] = 101.0
        verdict = guard.scan(logits)
        assert (verdict.nan, verdict.inf, verdict.saturated) == (1, 2, 1)
        assert "NaN" in verdict.reason and "saturated" in verdict.reason

    def test_saturation_boundary_is_exclusive(self):
        guard = NumericGuard(saturation_limit=100.0)
        assert guard.scan(np.array([100.0, -100.0])).ok
        assert not guard.scan(np.array([100.0001])).ok


class TestResiliencePolicy:
    def test_defaults_validate(self):
        policy = ResiliencePolicy()
        assert policy.breaker_failures >= 1

    @pytest.mark.parametrize("kwargs", [
        {"breaker_failures": 0},
        {"breaker_cooldown_s": -1.0},
        {"guard_saturation": 0.0},
        {"watchdog_stall_s": 0.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ResiliencePolicy(**kwargs)
