"""CircuitBreaker state machine (unit, injected clock) and its
integration into the service's store/compile paths via FaultPlan
triggers."""

import pytest

from repro.service.breaker import (
    CLOSED, HALF_OPEN, OPEN, CircuitBreaker)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


def _breaker(clock, threshold=3, cooldown=10.0, half_open_max=1):
    return CircuitBreaker("test", failure_threshold=threshold,
                          cooldown_seconds=cooldown,
                          half_open_max=half_open_max, clock=clock)


class TestStateWalk:
    def test_starts_closed_and_allows(self, clock):
        breaker = _breaker(clock)
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_consecutive_failures_trip_open(self, clock):
        breaker = _breaker(clock, threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.opens == 1
        assert not breaker.allow()
        assert breaker.short_circuits == 1

    def test_success_resets_the_streak(self, clock):
        breaker = _breaker(clock, threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED, \
            "non-consecutive failures must not trip"

    def test_cooldown_goes_half_open_then_closes_on_success(self, clock):
        breaker = _breaker(clock, threshold=1, cooldown=10.0)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.state == HALF_OPEN
        assert breaker.allow(), "the probe must pass"
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_half_open_failure_reopens(self, clock):
        breaker = _breaker(clock, threshold=1, cooldown=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.opens == 2
        assert not breaker.allow()

    def test_half_open_probe_budget(self, clock):
        breaker = _breaker(clock, threshold=1, cooldown=1.0,
                           half_open_max=2)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow(), "third probe exceeds the budget"

    def test_snapshot_shape(self, clock):
        breaker = _breaker(clock)
        snapshot = breaker.snapshot()
        assert set(snapshot) == {"state", "failures", "successes",
                                 "opens", "short_circuits"}

    def test_validation(self, clock):
        with pytest.raises(ValueError):
            CircuitBreaker("x", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("x", cooldown_seconds=-1)
        with pytest.raises(ValueError):
            CircuitBreaker("x", half_open_max=0)


class TestServiceIntegration:
    """The store breaker, driven end-to-end by a FaultPlan: every
    store read errors (as a locked database), so `breaker_threshold`
    consecutive request-level store failures open the breaker and
    later requests skip the store outright."""

    def _request(self, tag):
        from repro.service import SpecRequest
        return SpecRequest.create(
            f"(define (f x y) (+ (* x {tag}) y))", ["2", "dyn"],
            id=f"r{tag}")

    def test_store_breaker_opens_and_recovers(self, clock, tmp_path):
        from repro.service import SpecializationService

        plan = {"seed": 5, "seams": {
            "store.read": {"kinds": ["error"], "every": 1},
            "store.write": {"kinds": ["error"], "every": 1}}}
        with SpecializationService(
                workers=0, store_path=tmp_path / "store.sqlite",
                fault_plan=plan, breaker_threshold=2,
                breaker_cooldown=60.0, clock=clock) as service:
            breaker = service.breakers["store"]
            service.run_one(self._request(1))
            assert breaker.failures >= 1
            service.run_one(self._request(2))
            assert breaker.state == OPEN
            assert service.stats.breaker_opens >= 1
            before = service.stats.store_errors
            service.run_one(self._request(3))
            assert service.stats.store_errors == before, \
                "an open breaker must skip the store entirely"
            assert breaker.short_circuits >= 1
            # Cooldown passes; the half-open probe still fails (the
            # plan errors every store hit), so the breaker re-opens.
            clock.advance(60.0)
            service.run_one(self._request(4))
            assert breaker.state == OPEN
            assert breaker.opens >= 2
            # None of this ever surfaced to callers.
            assert service.stats.degraded == 0

    def test_store_breaker_closes_after_faults_stop(self, clock,
                                                    tmp_path):
        from repro.faults import uninstall
        from repro.service import SpecializationService

        plan = {"seed": 5, "seams": {
            "store.read": {"kinds": ["error"], "every": 1}}}
        with SpecializationService(
                workers=0, store_path=tmp_path / "store.sqlite",
                fault_plan=plan, breaker_threshold=1,
                breaker_cooldown=30.0, clock=clock) as service:
            breaker = service.breakers["store"]
            service.run_one(self._request(1))
            assert breaker.state == OPEN
            uninstall()          # the fault clears
            service.fault_plan = None
            clock.advance(30.0)
            service.run_one(self._request(2))
            assert breaker.state == CLOSED, \
                "a clean half-open probe must close the breaker"
            health = service.health()
            assert health["breakers"]["store"]["state"] == CLOSED


class TestCompileBreakerAcrossTheProcessHop:
    """The ``compile`` breaker lives in the scheduler, the compiles in
    the worker: a payload asks for an artifact only while the breaker
    allows one, and the outcome settles that grant."""

    def _request(self, tag):
        from repro.service import SpecRequest
        return SpecRequest.create(
            f"(define (f x y) (+ (* x {tag}) y))", ["2", "dyn"],
            id=f"c{tag}")

    def test_compile_breaker_opens_skips_and_closes(self, clock):
        from repro.faults import active
        from repro.service import SpecializationService

        plan = {"seed": 2, "seams": {"backend.compile": {
            "kinds": ["error"], "every": 1, "times": 2}}}
        with SpecializationService(
                workers=0, backend="compiled", fault_plan=plan,
                breaker_threshold=2, breaker_cooldown=60.0,
                clock=clock) as service:
            breaker = service.breakers["compile"]
            for tag in (1, 2):
                result = service.run_one(self._request(tag))
                assert not result.degraded
                assert result.compiled is None
            assert breaker.state == OPEN
            hits = active().hits["backend.compile"]
            for tag in (3, 4):
                result = service.run_one(self._request(tag))
                assert not result.degraded
                assert result.compiled is None
            assert active().hits["backend.compile"] == hits, \
                "an open breaker must not ask the worker for artifacts"
            assert breaker.short_circuits == 2
            # Cooldown passes; the plan's two errors are spent, so the
            # one half-open probe compiles and closes the breaker.
            clock.advance(60.0)
            result = service.run_one(self._request(5))
            assert result.compiled is not None
            assert breaker.state == CLOSED
            assert service.stats.degraded == 0

    @pytest.mark.parametrize("schedule,settings", [
        ({"kinds": ["error"]}, {}),
        ({"kinds": ["crash"]}, {"max_attempts": 1}),
        ({"kinds": ["crash"]}, {"max_attempts": 2,
                                "quarantine_threshold": 1}),
        ({"kinds": ["hang"], "hang_seconds": 30.0},
         {"workers": 1, "watchdog_timeout": 0.5}),
    ], ids=["failure", "crash", "quarantine", "watchdog"])
    def test_probe_that_never_compiles_is_released(self, clock, schedule,
                                                   settings):
        """A job granted the half-open probe that ends without an
        outcome to report must hand it back; otherwise the probe stays
        spent and the breaker never lets a compile through again."""
        from repro.service import SpecializationService

        options = {"workers": 0, **settings}
        plan = {"seed": 0, "seams": {"worker.execute": {
            **schedule, "keys": ["c1"], "every": 1}}}
        with SpecializationService(
                backend="compiled", breaker_threshold=1,
                breaker_cooldown=60.0, clock=clock, fault_plan=plan,
                **options) as service:
            breaker = service.breakers["compile"]
            breaker.record_failure()
            clock.advance(60.0)
            doomed = service.run_one(self._request(1))
            assert doomed.degraded
            assert breaker.state == HALF_OPEN
            result = service.run_one(self._request(2))
            assert result.compiled is not None, "the probe stayed spent"
            assert breaker.state == CLOSED
