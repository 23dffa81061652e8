"""The AsyncSubmitter: priority ordering, progress fan-out, close."""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from repro.faults import install
from repro.service import SpecializationService
from repro.service.results import SpecRequest
from repro.service.submit import HIGH, NORMAL, AsyncSubmitter
from repro.workloads import WORKLOADS

GCD = WORKLOADS["gcd"].source


def request(id: str, specs=("48", "18")) -> SpecRequest:
    return SpecRequest.create(GCD, list(specs), id=id)


class TestBasics:
    def test_result_matches_the_blocking_path(self):
        with SpecializationService(workers=0) as service:
            reference = service.run_one(request("ref"))
            with AsyncSubmitter(service) as submitter:
                result = submitter.submit(request("async")).result(30)
        assert result.residual == reference.residual
        assert not result.degraded

    def test_many_submissions_all_resolve(self):
        with SpecializationService(workers=0) as service, \
                AsyncSubmitter(service) as submitter:
            futures = [submitter.submit(request(f"r{i}",
                                                ("dyn", str(i))))
                       for i in range(10)]
            results = [future.result(30) for future in futures]
        assert [result.id for result in results] \
            == [f"r{i}" for i in range(10)]

    def test_bad_priority_rejected(self):
        with SpecializationService(workers=0) as service, \
                AsyncSubmitter(service) as submitter:
            with pytest.raises(ValueError):
                submitter.submit(request("x"), priority=7)


def _block_pump(service, submitter, seconds: float):
    """Occupy the pump thread: install latency on the first executed
    request and submit it.  Returns its future."""
    install({"seed": 1, "seams": {
        "worker.execute": {"kinds": ["latency"], "at": [1],
                           "latency_seconds": seconds}}})
    blocker = submitter.submit(request("blocker"))
    # Wait until the pump has actually taken it (pending drains).
    deadline = time.monotonic() + 5
    while submitter.pending() and time.monotonic() < deadline:
        time.sleep(0.005)
    return blocker


class TestPriority:
    def test_high_jumps_queued_normal_work(self):
        events = []
        lock = threading.Lock()

        def track(tag):
            def on_progress(event, _request):
                with lock:
                    events.append((tag, event))
            return on_progress

        with SpecializationService(workers=0) as service, \
                AsyncSubmitter(service) as submitter:
            blocker = _block_pump(service, submitter, 0.3)
            normal = submitter.submit(request("n", ("50", "15")),
                                      priority=NORMAL,
                                      progress=track("n"))
            high = submitter.submit(request("h", ("36", "60")),
                                    priority=HIGH,
                                    progress=track("h"))
            for future in (blocker, normal, high):
                future.result(30)
        started = [tag for tag, event in events if event == "started"]
        assert started == ["h", "n"]


class TestLruHitsAtSubmit:
    """A fingerprint already in the LRU is answered on the submitting
    thread: no queue, no wave, no pump."""

    def test_hit_resolves_while_the_pump_is_busy(self):
        with SpecializationService(workers=0,
                                   backend="compiled") as service, \
                AsyncSubmitter(service) as submitter:
            warm = submitter.submit(request("warm", ("50", "15")))
            warm.result(30)
            blocker = _block_pump(service, submitter, 0.5)
            hit = submitter.submit(request("hit", ("50", "15")))
            fresh = submitter.submit(request("fresh", ("36", "60")))
            assert hit.done() and not blocker.done()
            assert hit.result(0).cached and hit.result(0).id == "hit"
            assert hit.result(0).compiled == warm.result(0).compiled
            assert not fresh.done()
            assert not fresh.result(30).cached
            assert blocker.done()
        # Counted as a wave counts an LRU hit.
        assert service.stats.submitted == 4
        assert service.stats.completed == 4
        assert service.stats.cache_hits == 1
        assert service.stats.cache_misses == 3
        assert service.backend_stats.artifact_reuses == 1


class TestSharedStateStress:
    """The submitting threads and the pump both write the LRU and its
    counters; a lost update breaks one of the totals below."""

    THREADS = max(8, 2 * (os.cpu_count() or 1))   # more than cores
    PER_THREAD = 120
    CAPACITY = 4

    def _client(self, submitter, n: int, futures: list,
                lock: threading.Lock) -> None:
        mine = []
        for step in range(self.PER_THREAD):
            if step % 3 == 2:    # fresh: a fingerprint never sent
                specs = (str(100 + 1000 * n + step), "18")
            else:                # repeats over a set > CAPACITY
                specs = (str(12 + step % 6), "18")
            mine.append(submitter.submit(request(f"{n}-{step}", specs)))
        with lock:
            futures.extend(mine)

    def test_counters_add_up_under_contention(self):
        futures: list = []
        lock = threading.Lock()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SpecializationService(
                    workers=0, cache_capacity=self.CAPACITY) as service, \
                    AsyncSubmitter(service) as submitter:
                threads = [threading.Thread(
                    target=self._client,
                    args=(submitter, n, futures, lock))
                    for n in range(self.THREADS)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                results = [future.result(timeout=120)
                           for future in futures]
        finally:
            sys.setswitchinterval(interval)
        sent = self.THREADS * self.PER_THREAD
        stats = service.stats
        assert len(results) == sent
        assert stats.cache_hits > 0
        assert stats.cache_hits + stats.cache_misses == sent
        assert stats.submitted == sent
        assert stats.completed + stats.degraded == sent
        assert len(service.cache) <= self.CAPACITY


class TestProgress:
    def test_started_then_retrying_on_crash_retry(self):
        install({"seed": 1, "seams": {
            "worker.execute": {"kinds": ["crash"], "at": [1]}}})
        events = []
        with SpecializationService(workers=0, backoff_base=0.0,
                                   sleep=lambda _s: None) as service, \
                AsyncSubmitter(service) as submitter:
            result = submitter.submit(
                request("retry"),
                progress=lambda event, _r: events.append(event)) \
                .result(30)
        assert events[:2] == ["started", "retrying"]
        assert not result.degraded

    def test_progress_exceptions_do_not_fail_the_work(self):
        def bad_progress(_event, _request):
            raise RuntimeError("listener bug")

        with SpecializationService(workers=0) as service, \
                AsyncSubmitter(service) as submitter:
            result = submitter.submit(request("ok"),
                                      progress=bad_progress).result(30)
        assert not result.degraded


class TestClose:
    def test_close_cancels_queued_work_but_finishes_running(self):
        with SpecializationService(workers=0) as service:
            submitter = AsyncSubmitter(service)
            blocker = _block_pump(service, submitter, 0.3)
            queued = submitter.submit(request("q", ("50", "15")))
            submitter.close()
            assert blocker.result(30) is not None
            assert queued.cancelled()

    def test_submit_after_close_raises(self):
        with SpecializationService(workers=0) as service:
            submitter = AsyncSubmitter(service)
            submitter.close()
            with pytest.raises(RuntimeError):
                submitter.submit(request("late"))

    def test_close_is_idempotent(self):
        with SpecializationService(workers=0) as service:
            submitter = AsyncSubmitter(service)
            submitter.close()
            submitter.close()
