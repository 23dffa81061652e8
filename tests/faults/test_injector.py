"""FaultInjector semantics: deterministic traces, kind realization,
the install/uninstall lifecycle, and the no-plan fast path."""

import pytest

from repro.faults import (
    FaultInjector, FaultPlan, InjectedFault, active, fault_payload,
    fault_point, install, uninstall)


def _plan(seams: dict, seed: int = 42) -> FaultPlan:
    return FaultPlan.from_dict({"seed": seed, "seams": seams})


class TestDeterminism:
    def test_same_plan_same_call_sequence_same_trace(self):
        plan = _plan({"store.read": {"kinds": ["error", "latency"],
                                     "probability": 0.4,
                                     "latency_seconds": 0.0}})
        traces = []
        for _ in range(2):
            injector = FaultInjector(plan, sleep=lambda _s: None)
            for index in range(50):
                try:
                    injector.hit("store.read", key=f"k{index}")
                except InjectedFault:
                    pass
            traces.append(injector.trace())
        assert traces[0] == traces[1]
        assert traces[0], "probability 0.4 over 50 hits fired nothing"

    def test_different_seeds_differ(self):
        traces = []
        for seed in (1, 2):
            plan = _plan({"store.read": {"kinds": ["error"],
                                         "probability": 0.5}},
                         seed=seed)
            injector = FaultInjector(plan)
            for _ in range(64):
                try:
                    injector.hit("store.read")
                except InjectedFault:
                    pass
            traces.append(injector.trace())
        assert traces[0] != traces[1]

    def test_at_trigger_is_exact(self):
        plan = _plan({"store.read": {"kinds": ["error"],
                                     "at": [2, 5]}})
        injector = FaultInjector(plan)
        fired = []
        for hit in range(1, 8):
            try:
                injector.hit("store.read")
            except InjectedFault:
                fired.append(hit)
        assert fired == [2, 5]

    def test_every_trigger(self):
        plan = _plan({"store.read": {"kinds": ["error"],
                                     "every": 3}})
        injector = FaultInjector(plan)
        fired = []
        for hit in range(1, 10):
            try:
                injector.hit("store.read")
            except InjectedFault:
                fired.append(hit)
        assert fired == [3, 6, 9]

    def test_keys_hits_of_other_keys_do_not_count(self):
        plan = _plan({"store.read": {"kinds": ["error"], "at": [2],
                                     "keys": ["a"]}})
        injector = FaultInjector(plan)
        fired = []
        for key in ("b", "a", "b", "a", "a"):
            try:
                injector.hit("store.read", key=key)
            except InjectedFault:
                fired.append(key)
        assert fired == ["a"]
        assert injector.hits["store.read"] == 3
        assert injector.trace() == ["store.read#2:error@a"]

    def test_times_caps_firings(self):
        plan = _plan({"store.read": {"kinds": ["error"],
                                     "every": 1, "times": 2}})
        injector = FaultInjector(plan)
        fired = 0
        for _ in range(10):
            try:
                injector.hit("store.read")
            except InjectedFault:
                fired += 1
        assert fired == 2


class TestRealization:
    def test_error_uses_designated_exception(self):
        plan = _plan({"store.read": {"kinds": ["error"], "at": [1]}})
        injector = FaultInjector(plan)
        with pytest.raises(KeyError):
            injector.hit("store.read",
                         error=lambda message: KeyError(message))

    def test_error_defaults_to_injected_fault(self):
        plan = _plan({"store.read": {"kinds": ["error"], "at": [1]}})
        injector = FaultInjector(plan)
        with pytest.raises(InjectedFault, match="store.read"):
            injector.hit("store.read")

    def test_latency_and_hang_sleep(self):
        plan = _plan({"worker.execute": {
            "kinds": ["hang"], "at": [1], "hang_seconds": 1.5}})
        slept = []
        injector = FaultInjector(plan, sleep=slept.append)
        injector.hit("worker.execute")
        assert slept == [1.5]

    def test_crash_without_action_is_skipped(self):
        plan = _plan({"worker.execute": {"kinds": ["crash"],
                                         "every": 1}})
        injector = FaultInjector(plan)
        injector.hit("worker.execute")  # no crash callable: no-op
        assert injector.trace() == []

    def test_crash_invokes_action(self):
        plan = _plan({"worker.execute": {"kinds": ["crash"],
                                         "at": [1]}})
        injector = FaultInjector(plan)
        called = []
        injector.hit("worker.execute", crash=lambda: called.append(1))
        assert called == [1]

    def test_corrupt_only_at_payload_points(self):
        plan = _plan({"store.read.payload": {"kinds": ["corrupt"],
                                             "at": [1]}})
        injector = FaultInjector(plan)
        original = '{"residual": "(define (f x) x)"}'
        damaged = injector.hit_payload("store.read.payload", original)
        assert damaged != original
        assert len(damaged) == len(original)
        # And the same (seed, seam, hit) damages identically.
        again = FaultInjector(plan).hit_payload(
            "store.read.payload", original)
        assert again == damaged

    def test_counters_and_events(self):
        plan = _plan({"store.read": {"kinds": ["error"], "at": [1]}})
        injector = FaultInjector(plan)
        with pytest.raises(InjectedFault):
            injector.hit("store.read", key="deadbeef")
        assert injector.counters() == {"store.read:error": 1}
        assert injector.trace() == ["store.read#1:error@deadbeef"]


class TestLifecycle:
    def test_no_plan_points_are_noops(self):
        uninstall()
        fault_point("store.read")
        assert fault_payload("store.read.payload", "abc") == "abc"
        assert active() is None

    def test_install_idempotent_by_digest(self):
        plan = _plan({"store.read": {"kinds": ["error"], "at": [99]}})
        first = install(plan)
        first.hits["store.read"] = 7
        same = install(_plan({"store.read": {"kinds": ["error"],
                                             "at": [99]}}))
        assert same is first, "identical plan must keep the injector"
        other = install(_plan({"store.read": {"kinds": ["error"],
                                              "at": [98]}}))
        assert other is not first
        uninstall()
        assert active() is None

    def test_install_none_uninstalls(self):
        install(_plan({"store.read": {"kinds": ["error"], "at": [1]}}))
        assert active() is not None
        install(None)
        assert active() is None

    def test_module_level_points_route_to_active(self):
        install(_plan({"store.read": {"kinds": ["error"], "at": [1]}}))
        with pytest.raises(InjectedFault):
            fault_point("store.read")
        uninstall()
