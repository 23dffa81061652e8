"""The batch specialization scheduler.

:class:`SpecializationService` turns many
:class:`~repro.service.results.SpecRequest` into
:class:`~repro.service.results.SpecResult` under a strict contract:
**the caller never sees an exception**.  Whatever happens — a worker
process dies, a deadline expires, the program does not even parse —
every request gets a result; the ones the service could not honestly
specialize come back ``degraded=True`` carrying the trivially-residual
fallback program.

Mechanics, in order:

1. **Cache** — each request's fingerprint is looked up in the bounded
   cross-request LRU (:class:`~repro.service.cache.ResidualCache`,
   :meth:`SpecializationService.lru_lookup`); hits skip the pool
   entirely.
2. **Quarantine** — fingerprints that repeatedly killed workers (the
   *poison pills*; :class:`~repro.service.quarantine.PoisonQuarantine`)
   degrade immediately with reason ``"quarantined"`` for a TTL,
   instead of burning pool restarts on every resubmission.
3. **Pool** — misses are fanned out over a
   :class:`concurrent.futures.ProcessPoolExecutor` in waves.  Futures
   are reaped as they complete, off one completion queue their done
   callbacks feed; each is bounded by the request's deadline, or by
   the service-wide ``watchdog_timeout`` when it has none, kept in a
   heap of absolute limits — O(log wave) bookkeeping per job.
4. **Watchdog** — a future still running past its bound is declared
   hung: its request degrades (reason ``"deadline"`` on a request
   deadline, ``"watchdog"`` on the backstop), and once the rest of the
   wave is reaped the stuck pool members are *terminated* — not
   abandoned to grind forever — and the pool rebuilt
   (``ServiceStats.watchdog_recycles``).
5. **Retry** — a dying worker breaks its pool; affected requests are
   resubmitted to a fresh pool with exponential backoff
   (``backoff_base * 2**(attempt-1)``, capped), up to ``max_attempts``.
   Crashes are charged to the request's fingerprint; past
   ``quarantine_threshold`` of them the fingerprint is quarantined.
6. **Degrade** — timeouts, exhausted retries, quarantine hits and
   deterministic failures fall back to a trivially-residual program:
   :func:`repro.baselines.simple_pe.specialize_simple` (the online
   engine over the empty facet suite) on an all-dynamic division,
   never unfolding (or, if even that fails, the unspecialized
   source), flagged ``degraded=True``.

A request with a deadline additionally gets a *cooperative* engine
budget: ``deadline_budget_fraction`` (default 0.8) of the deadline is
mapped onto the engine's soft wall-clock budget
(``PEConfig.max_wall_seconds``) unless the request set one itself, so
a long-running specialization widens itself down inside the engine and
returns a real — if less specialized — residual *before* the hard
future-timeout kill fires.  Such in-engine degradations count as
``completed`` (and ``ServiceStats.engine_degradations``), not
``degraded``, and are kept out of the cross-request cache: the
injected wall budget is not part of the fingerprint, and what it
produced is timing-dependent.

Mind the fraction on adversarial inputs: post-processing (simplify,
pretty-printing, lowering) runs *outside* the budget-governed region
and scales with the residual the budget permitted, so a fraction close
to 1 can still blow the deadline in the un-metered tail.  Keep it
conservative, or disable ``simplify``/``tidy`` in the request config.

``workers=0`` selects *inline* mode: requests run in-process with no
pool and no hard deadline kills (the cooperative engine budget still
applies), same cache/retry/quarantine/degrade accounting — the mode
the determinism tests, the chaos soak and the ``serve`` loop's tests
use.

With ``backend="compiled"`` every successful residual additionally
carries its :mod:`repro.backend` artifact, stored on the result (and
therefore in the cross-request cache, amortizing compilation across
identical requests).  The worker lowers the residual AST the engine
just built, for every engine, so the scheduling thread never re-parses
or lowers a residual; compilation is best-effort and never fails a
request.

With ``store_path`` set, a persistent artifact store
(:class:`repro.store.ArtifactStore`, SQLite/WAL) mounts as a **second
cache tier below the in-memory LRU**: lookups read through (memory
first, then disk, promoting disk hits into memory), successful results
are written behind to disk, and the store file is shared across worker
processes and service restarts — the warm-start story.  Store hits are
``cached=True`` results like LRU hits; store problems (lock contention,
corrupt rows, a damaged file) degrade to misses and are counted in
``ServiceStats`` (``store_*``), never raised.  The same exclusions
apply as for the LRU: degraded and in-engine-degraded results are
never persisted.

**Circuit breakers** (:class:`~repro.service.breaker.CircuitBreaker`)
guard the two optional dependencies — the store tier and the
compiled-backend lowering.  ``breaker_threshold`` consecutive failures
open a breaker; while open, the path is skipped outright (no lock
retries, no doomed compile attempts) for ``breaker_cooldown`` seconds,
then probed half-open.  The ``compile`` breaker works across the
process hop: a payload asks for an artifact only while the breaker
allows one, and the worker's report (an artifact or none) is recorded
when its outcome is absorbed; an attempt that ends any other way
(crash, hang, deterministic failure) releases its grant, so a
half-open probe never stays spent.  Both breakers' states are in
:meth:`health` and the ``breaker`` profile section.

**Fault injection** (:mod:`repro.faults`): constructing the service
with a ``fault_plan`` — or exporting ``REPRO_FAULT_PLAN`` — installs a
deterministic seeded :class:`~repro.faults.FaultPlan` process-globally
and ships it inside every worker payload, so the named injection
points across the store, worker, genext, backend, scheduler and serve
seams all fire from one plan (the only fault source).  The
``worker.execute`` seam is decided here, once per attempt, right after
``scheduler.dispatch`` passes; the decision rides the payload to the
worker, so its count survives pool restarts and means the same with
any ``workers``.  Firings are folded into
``ServiceStats.faults_injected`` (the ``faults`` profile section); a
``worker.execute`` firing counts when it is decided, so in pooled mode
a wave-mate that breaks the pool first can leave it unrealized.

Every step reports into :class:`~repro.observability.ServiceStats`;
backend work into :class:`~repro.observability.BackendStats`.

**Threads.**  :meth:`SpecializationService.run_batch` runs on one
thread at a time: the caller's, or the
:class:`~repro.service.submit.AsyncSubmitter` pump's.  That thread
alone touches the store, the pool, the quarantine, the breakers and
the progress callbacks.  :meth:`SpecializationService.lru_lookup` may
run on any thread at the same time (the submitter calls it on the
submitting thread, the gateway's event loop): it reads and refreshes
the LRU and counts a hit as ``submitted``, ``completed``, a cache hit
and an artifact reuse.  Those are the only state two threads write,
so the LRU, those counters and ``cache_misses``/``cache_evictions``
are updated only under the service's lock, which is never held across
store I/O, a pool call or a callback.  Every other counter is written
by the thread running ``run_batch`` alone (the hardening mirrors that
:meth:`~SpecializationService.health` recomputes from their sources
aside) and may be read (``/v1/stats``) from any thread.
"""

from __future__ import annotations

import heapq
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from queue import Empty, SimpleQueue
from time import monotonic
from typing import Callable, Mapping, Sequence

from repro.baselines.simple_pe import DYN, specialize_simple
from repro.faults import FaultPlan, active as _active_injector, \
    fault_decision, fault_point, install as _install_plan
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.observability.backend_stats import BackendStats
from repro.observability.service_stats import ServiceStats
from repro.online.config import PEConfig, UnfoldStrategy
from repro.service.breaker import CircuitBreaker
from repro.service.cache import ResidualCache
from repro.service.quarantine import PoisonQuarantine
from repro.service.results import SpecRequest, SpecResult, \
    check_deadline
from repro.service.worker import execute_request

#: Config of the degraded fallback: never unfold, never search — the
#: residual is essentially a tidied copy of the source program.
_FALLBACK_CONFIG = PEConfig(unfold_strategy=UnfoldStrategy.NEVER,
                            simplify=False, tidy=True, fuel=200_000)


@dataclass
class _Job:
    """One cache-missing request moving through the wave loop."""

    index: int
    request: SpecRequest
    key: str
    attempts: int = 0
    backoff: float = 0.0
    #: The attempt holds a ``compile`` breaker grant to settle.
    compiling: bool = False


class SpecializationService:
    """Batch specialization over a worker pool; see module docstring."""

    def __init__(self, workers: int = 1, cache_capacity: int = 256,
                 max_attempts: int = 3, backoff_base: float = 0.05,
                 backoff_cap: float = 2.0,
                 default_deadline: float | None = None,
                 deadline_budget_fraction: float | None = 0.8,
                 default_config: dict | None = None,
                 backend: str = "interp",
                 store_path: str | Path | None = None,
                 store_max_bytes: int | None = None,
                 fault_plan: FaultPlan | Mapping | None = None,
                 watchdog_timeout: float | None = None,
                 quarantine_threshold: int = 3,
                 quarantine_ttl: float = 300.0,
                 breaker_threshold: int = 5,
                 breaker_cooldown: float = 30.0,
                 clock: Callable[[], float] = monotonic,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if backend not in ("interp", "compiled"):
            raise ValueError(
                f"unknown backend {backend!r}; expected 'interp' or "
                f"'compiled'")
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}")
        if deadline_budget_fraction is not None \
                and not 0.0 < deadline_budget_fraction <= 1.0:
            raise ValueError(
                f"deadline_budget_fraction must be in (0, 1], got "
                f"{deadline_budget_fraction}")
        if default_deadline is not None:
            check_deadline(default_deadline)
        if watchdog_timeout is not None and watchdog_timeout <= 0:
            raise ValueError(
                f"watchdog_timeout must be positive or None, got "
                f"{watchdog_timeout}")
        self.workers = workers
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.default_deadline = default_deadline
        self.deadline_budget_fraction = deadline_budget_fraction
        #: Service-wide PEConfig defaults (e.g. budget caps from the
        #: CLI); a request's own config always wins.
        self.default_config = dict(default_config or {})
        #: ``interp`` (residuals as text only) or ``compiled``
        #: (successful residuals additionally carry the compiled
        #: artifact of :mod:`repro.backend`, cached alongside them).
        self.backend = backend
        #: Hard bound for futures whose request carries no deadline;
        #: ``None`` (the default) preserves wait-forever semantics.
        #: Deadline-bearing futures are always watchdogged: past their
        #: deadline the stuck member is terminated, not abandoned.
        self.watchdog_timeout = watchdog_timeout
        self.stats = ServiceStats()
        self.backend_stats = BackendStats()
        self.cache = ResidualCache(cache_capacity, self.stats)
        #: Guards the LRU and the counters an LRU hit writes (see
        #: "Threads" in the module docstring).
        self._lock = threading.Lock()
        #: Per-seam circuit breakers over the optional dependencies.
        self.breakers = {
            "store": CircuitBreaker(
                "store", failure_threshold=breaker_threshold,
                cooldown_seconds=breaker_cooldown, clock=clock),
            "compile": CircuitBreaker(
                "compile", failure_threshold=breaker_threshold,
                cooldown_seconds=breaker_cooldown, clock=clock),
        }
        #: The poison-pill penalty box (see module docstring).
        self.quarantine = PoisonQuarantine(
            threshold=quarantine_threshold, ttl_seconds=quarantine_ttl,
            clock=clock)
        #: The deterministic fault plan, if any: installed process-
        #: globally here and shipped inside every worker payload.
        #: ``None`` falls back to ``REPRO_FAULT_PLAN``.  One plan per
        #: process — constructing a second service with a different
        #: plan re-points the global injector.
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        elif not isinstance(fault_plan, FaultPlan):
            fault_plan = FaultPlan.from_dict(fault_plan)
        self.fault_plan = fault_plan
        if fault_plan is not None:
            _install_plan(fault_plan)
        #: Injections reported back by pool workers (``seam:kind``
        #: counts; inline mode shares the in-process injector instead).
        self._worker_faults: dict[str, int] = {}
        #: The persistent tier (``None`` when no ``store_path``); its
        #: counters land in the same ServiceStats as the LRU's.
        self.store = None
        if store_path is not None:
            from repro.store import ArtifactStore
            self.store = ArtifactStore(store_path,
                                       max_bytes=store_max_bytes,
                                       stats=self.stats)
        self._sleep = sleep
        self._pool: ProcessPoolExecutor | None = None
        #: The per-batch progress callback (see :meth:`run_batch`);
        #: ``None`` outside a batch and whenever the caller gave none.
        self._progress: Callable[[str, SpecRequest], None] | None = None

    def _notify_dispatch(self, job: "_Job") -> None:
        """Report a dispatch to the batch's progress callback:
        ``started`` on the first attempt, ``retrying`` after a crash.
        Never raises — progress is advisory."""
        if self._progress is None:
            return
        event = "started" if job.attempts <= 1 else "retrying"
        try:
            self._progress(event, job.request)
        except Exception:  # noqa: BLE001 — progress must not fail work
            pass

    # -- public API ----------------------------------------------------
    def run_batch(self, requests: Sequence[SpecRequest],
                  progress: Callable[[str, SpecRequest], None]
                  | None = None) -> list[SpecResult]:
        """Serve a batch; one result per request, in request order.

        Identical requests submitted in the *same* batch may each run
        once (the cache fills when the first finishes); across batches
        and waves the later ones hit the cache.

        ``progress``, when given, is called with ``("started",
        request)`` as each cache-missing request is dispatched to a
        worker and ``("retrying", request)`` on every re-dispatch
        after a crash — the seam the gateway's streaming-progress mode
        rides.  The callback runs on the scheduling thread and must be
        cheap; anything it raises is swallowed (progress reporting
        must never fail a request).
        """
        self._progress = progress
        try:
            return self._run_batch(requests)
        finally:
            self._progress = None

    def _run_batch(self, requests: Sequence[SpecRequest]) \
            -> list[SpecResult]:
        results: list[SpecResult | None] = [None] * len(requests)
        jobs: list[_Job] = []
        for index, request in enumerate(requests):
            key = request.fingerprint()
            hit = self.lru_lookup(request, key, submitted=True)
            if hit is None:
                hit = self._store_lookup(request, key)
            if hit is not None:
                results[index] = hit
            elif self.quarantine.short_circuit(key):
                # A poison pill inside its TTL: degrade without
                # burning a single pool restart on it.
                results[index] = self._degrade(
                    _Job(index, request, key), "quarantined")
            else:
                jobs.append(_Job(index, request, key))
        if self.workers == 0:
            for job in jobs:
                self._run_inline(job, results)
        else:
            self._run_pooled(jobs, results)
        self._sync_health()
        assert all(result is not None for result in results)
        return results  # type: ignore[return-value]

    def run_one(self, request: SpecRequest,
                progress: Callable[[str, SpecRequest], None]
                | None = None) -> SpecResult:
        return self.run_batch([request], progress=progress)[0]

    def lru_lookup(self, request: SpecRequest, key: str | None = None,
                   submitted: bool = False) -> SpecResult | None:
        """Answer ``request`` from the in-memory LRU, from any thread.

        A hit is the whole of the request's service: it counts as
        submitted and completed, as a cache hit and, when it carries a
        compiled artifact, as an artifact reuse, and comes back as
        ``request``'s cached result.  A miss returns ``None`` and
        counts nothing, so the caller may still hand the request to
        :meth:`run_batch`; with ``submitted`` (run_batch's own lookup)
        the request counts as submitted either way and a miss as a
        cache miss.  Touches no store, pool or callback."""
        if key is None:
            key = request.fingerprint()
        with self._lock:
            hit = self.cache.get(key, count_miss=submitted)
            if hit is not None or submitted:
                self.stats.submitted += 1
            if hit is None:
                return None
            self._count_cached(hit)
        return hit.for_request(request, cached=True)

    def _count_cached(self, hit: SpecResult) -> None:
        """Count a request answered from a cache tier; the caller
        holds the lock."""
        self.stats.completed += 1
        if hit.compiled is not None:
            self.backend_stats.artifact_reuses += 1

    def health(self) -> dict:
        """JSON-ready hardening introspection: breaker states, the
        quarantine table, watchdog activity, injected faults.  The
        ``ppe serve`` ``{"op": "health"}`` answer and the ``--health``
        CLI output."""
        self._sync_health()
        return {
            "breakers": {name: breaker.snapshot()
                         for name, breaker in self.breakers.items()},
            "quarantine": self.quarantine.snapshot(),
            "watchdog": {"recycles": self.stats.watchdog_recycles,
                         "timeout": self.watchdog_timeout},
            "faults": dict(self.stats.faults_injected),
            "pool": {"workers": self.workers,
                     "restarts": self.stats.pool_restarts},
        }

    def stats_dict(self) -> dict:
        """The ``ServiceStats`` snapshot with the hardening sections
        freshly synced (what ``serve``'s ``stats`` op answers)."""
        self._sync_health()
        return self.stats.as_dict()

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
        # Every future is reaped before run_batch returns, so the pool
        # is idle here and waiting is cheap; wait=False would leave the
        # executor for the interpreter's atexit hook to find half
        # torn down (a "Bad file descriptor" traceback on stderr).
        # Pools abandoned with a still-grinding worker go through
        # _recycle_pool instead, which must not wait.
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "SpecializationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- health sync ---------------------------------------------------
    def _sync_health(self) -> None:
        """Mirror the hardening objects into ``ServiceStats`` so the
        ``--profile`` report and the ``stats`` serve op carry them."""
        self.stats.breaker_opens = sum(
            breaker.opens for breaker in self.breakers.values())
        self.stats.breaker_short_circuits = sum(
            breaker.short_circuits
            for breaker in self.breakers.values())
        self.stats.breaker_seams = {
            name: breaker.snapshot()
            for name, breaker in self.breakers.items()}
        self.stats.quarantined = self.quarantine.short_circuits
        self.stats.poison_pills = self.quarantine.pills
        self.stats.quarantine_detail = self.quarantine.snapshot()
        merged = dict(self._worker_faults)
        injector = _active_injector()
        if injector is not None:
            for label, count in injector.counters().items():
                merged[label] = merged.get(label, 0) + count
        self.stats.faults_injected = merged

    def _absorb_fault_events(self, outcome: dict) -> None:
        """Fold a pool worker's injected-fault events into the
        service-wide counters.  Inline mode shares the in-process
        injector, whose counters :meth:`_sync_health` reads directly —
        folding its events too would double-count."""
        if self.workers == 0:
            return
        for event in outcome.get("fault_events", ()):
            label = event.split("@", 1)[0]          # seam#hit:kind
            seam, _, rest = label.partition("#")
            kind = rest.rpartition(":")[2]
            key = f"{seam}:{kind}"
            self._worker_faults[key] = \
                self._worker_faults.get(key, 0) + 1

    # -- the persistent tier -------------------------------------------
    def _store_lookup(self, request: SpecRequest,
                      key: str) -> SpecResult | None:
        """Read-through to the disk tier; a hit is promoted into the
        in-memory LRU so the next identical request never touches
        disk, and comes back as ``request``'s cached result.  Any
        payload the current build cannot rehydrate counts as corrupt
        and misses.  Behind the ``store`` circuit breaker: a
        persistently failing store is skipped for a cooldown instead
        of paying lock-retry latency on every request."""
        if self.store is None:
            return None
        breaker = self.breakers["store"]
        if not breaker.allow():
            return None
        trouble_before = self._store_trouble()
        payload = self.store.get(key)
        result = None
        if payload is not None:
            try:
                result = SpecResult.from_dict(payload)
            except ValueError:
                self.stats.store_corrupt += 1
                self.store.delete(key)
        if self._store_trouble() > trouble_before:
            breaker.record_failure()
        else:
            breaker.record_success()
        if result is None:
            return None
        with self._lock:
            self.cache.put(key, result)
            self._count_cached(result)
        return result.for_request(request, cached=True)

    def _store_put(self, key: str, result: SpecResult) -> None:
        """Write-behind on completion; best effort (a failed write is
        counted by the store, never surfaced).  Behind the ``store``
        breaker like the read path."""
        if self.store is None or result.degraded:
            return
        breaker = self.breakers["store"]
        if not breaker.allow():
            return
        trouble_before = self._store_trouble()
        committed = self.store.put(key, result.to_dict())
        if committed and self._store_trouble() == trouble_before:
            breaker.record_success()
        else:
            breaker.record_failure()

    def _store_trouble(self) -> int:
        """The store-failure odometer the breaker watches: transient
        errors and corruption events both count (the store itself
        never raises)."""
        return self.stats.store_errors + self.stats.store_corrupt

    # -- payload shaping -----------------------------------------------
    def _deadline_of(self, job: _Job) -> float | None:
        return job.request.deadline if job.request.deadline is not None \
            else self.default_deadline

    def _payload_for(self, job: _Job) -> dict:
        """The worker payload of one attempt, built once the
        ``scheduler.dispatch`` seam has passed.  The request's deadline
        is mapped onto a cooperative engine wall-clock budget (see
        module docstring); an explicit ``max_wall_seconds`` in the
        request wins.  Takes the attempt's ``compile`` breaker grant,
        if any, and decides its ``worker.execute`` fault."""
        payload = job.request.to_payload()
        for name, value in self.default_config.items():
            payload["config"].setdefault(name, value)
        # The genext engine wants the persistent store (for emitted
        # genext bundles) in the worker process.
        if self.store is not None:
            payload["store_path"] = str(self.store.path)
        job.compiling = self.backend == "compiled" \
            and self.breakers["compile"].allow()
        if job.compiling:
            payload["backend"] = "compiled"
        if self.fault_plan is not None:
            payload["fault_plan"] = self.fault_plan.as_dict()
        deadline = self._deadline_of(job)
        if deadline is not None \
                and self.deadline_budget_fraction is not None:
            payload["config"].setdefault(
                "max_wall_seconds",
                deadline * self.deadline_budget_fraction)
        decision = fault_decision("worker.execute", key=job.request.id)
        if decision is not None:
            payload["worker_fault"] = decision
        return payload

    # -- inline mode ---------------------------------------------------
    def _run_inline(self, job: _Job,
                    results: list[SpecResult | None]) -> None:
        while True:
            job.attempts += 1
            self._notify_dispatch(job)
            try:
                fault_point("scheduler.dispatch", key=job.request.id)
                payload = self._payload_for(job)
                payload["inline"] = True
                outcome = execute_request(payload)
            except Exception:  # noqa: BLE001 — crash semantics
                self.stats.worker_crashes += 1
                retry: list[_Job] = []
                self._crashed(job, retry, results)
                if not retry:
                    return
                self._sleep(job.backoff)
                self.stats.backoff_seconds += job.backoff
                continue
            results[job.index] = self._absorb(job, outcome)
            return

    # -- pooled mode ---------------------------------------------------
    def _run_pooled(self, jobs: Sequence[_Job],
                    results: list[SpecResult | None]) -> None:
        pending = list(jobs)
        # After a pool break, retries run one per wave: a persistently
        # crashing request keeps breaking the shared pool, and wave-mates
        # caught in the wreckage would burn their own retry budgets as
        # collateral.  Serial waves isolate the culprit.
        serial = False
        while pending:
            runnable: list[_Job] = []
            for job in pending:
                with self._lock:
                    hit = self.cache.peek(job.key)
                    if hit is not None:
                        self.stats.cache_hits += 1
                        self._count_cached(hit)
                if hit is not None:
                    results[job.index] = hit.for_request(
                        job.request, cached=True)
                elif self.quarantine.short_circuit(job.key):
                    # The fingerprint went toxic while this job waited
                    # (an identical pill ahead of it in the batch).
                    results[job.index] = self._degrade(
                        job, "quarantined")
                else:
                    runnable.append(job)
            if not runnable:
                return
            wave = runnable[:1] if serial else runnable
            leftover = runnable[1:] if serial else []
            pending = []
            broken, hung = self._run_wave(wave, pending, results)
            if broken or hung:
                self._recycle_pool(hung=hung)
                serial = True
            if pending:
                delay = max(job.backoff for job in pending)
                self._sleep(delay)
                self.stats.backoff_seconds += delay
            pending.extend(leftover)

    def _run_wave(self, wave: Sequence[_Job], pending: list[_Job],
                  results: list[SpecResult | None]) -> tuple[bool, int]:
        """Submit one wave and reap every future.  Returns ``(broken,
        hung)``: whether the pool must be recycled, and how many
        futures were declared hung by the watchdog (their members are
        terminated by :meth:`_recycle_pool`)."""
        pool = self._ensure_pool()
        broken = False
        hung = 0
        completed: SimpleQueue[Future] = SimpleQueue()
        inflight: dict[Future, _Job] = {}
        #: ``(absolute reap limit, job index, future, degrade reason)``.
        limits: list[tuple[float, int, Future, str]] = []
        for job in wave:
            job.attempts += 1
            self._notify_dispatch(job)
            try:
                fault_point("scheduler.dispatch", key=job.request.id)
                future = pool.submit(execute_request,
                                     self._payload_for(job))
            except Exception:  # noqa: BLE001 — dispatch is a crash seam
                self.stats.worker_crashes += 1
                broken |= self._crashed(job, pending, results)
                continue
            inflight[future] = job
            future.add_done_callback(completed.put)
            bound, reason = self._deadline_of(job), "deadline"
            if bound is None:
                bound, reason = self.watchdog_timeout, "watchdog"
            if bound is not None:
                heapq.heappush(limits, (monotonic() + bound, job.index,
                                        future, reason))
        while inflight:
            now = monotonic()
            while limits and limits[0][0] <= now:
                _, _, future, reason = heapq.heappop(limits)
                job = inflight.get(future)
                if job is None or future.done():
                    continue  # reaped, or its completion is queued
                # Past its bound and still running: hung.  Degrade the
                # request now; the member is killed after the wave so
                # wave-mates on healthy members finish undisturbed.
                if reason == "deadline":
                    self.stats.timeouts += 1
                future.cancel()
                del inflight[future]
                self._settle_compile(job, None)
                results[job.index] = self._degrade(job, reason)
                hung += 1
                broken = True
            if not inflight:
                break
            try:
                future = completed.get(
                    timeout=limits[0][0] - now if limits else None)
            except Empty:
                continue
            job = inflight.pop(future, None)
            if job is None:
                continue  # declared hung before it finished
            try:
                outcome = future.result()
            except Exception:  # noqa: BLE001
                # The pool broke (a worker died, BrokenProcessPool) —
                # or something unforeseen; either way the caller must
                # not see it.  Retry while attempts remain.
                self.stats.worker_crashes += 1
                broken |= self._crashed(job, pending, results)
            else:
                results[job.index] = self._absorb(job, outcome)
        return broken, hung

    def _crashed(self, job: _Job, pending: list[_Job],
                 results: list[SpecResult | None]) -> bool:
        """Crash bookkeeping shared by dispatch and reap failures:
        charge the fingerprint, then degrade (attempts spent or
        quarantined) or queue the retry.  Returns ``True`` (the pool
        must be considered broken)."""
        self._settle_compile(job, None)
        pill = self.quarantine.record_crash(job.key)
        if job.attempts >= self.max_attempts:
            results[job.index] = self._degrade(job, "worker-crash")
        elif pill:
            # The fingerprint just went toxic: stop burning attempts
            # (and pool restarts) on it mid-request.
            results[job.index] = self._degrade(job, "quarantined")
        else:
            self.stats.retries += 1
            job.backoff = min(self.backoff_cap,
                              self.backoff_base * 2 ** (job.attempts - 1))
            pending.append(job)
        return True

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def _recycle_pool(self, hung: int = 0) -> None:
        """Tear the pool down for a rebuild.  With ``hung`` members
        stuck past their bound, the watchdog *terminates* the pool's
        processes instead of abandoning them to grind forever (the
        pre-watchdog leak), and counts the recycle."""
        if self._pool is None:
            return
        processes = []
        if hung:
            processes = list(
                getattr(self._pool, "_processes", {}).values())
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None
        self.stats.pool_restarts += 1
        if hung:
            self.stats.watchdog_recycles += hung
            for process in processes:
                try:
                    process.terminate()
                except Exception:  # noqa: BLE001 — already gone is fine
                    pass

    # -- outcomes ------------------------------------------------------
    def _absorb(self, job: _Job, outcome: dict) -> SpecResult:
        self._absorb_tiers(outcome)
        self._absorb_fault_events(outcome)
        self._settle_compile(job, outcome)
        if outcome.get("failed"):
            self.stats.errors += 1
            category = outcome.get("category")
            if category:
                self.stats.errors_by_category[category] = \
                    self.stats.errors_by_category.get(category, 0) + 1
            return self._degrade(job, outcome.get("error", "failed"))
        self.quarantine.record_success(job.key)
        result = SpecResult(
            residual=outcome["residual"],
            goal_params=tuple(outcome.get("goal_params", ())),
            engine=job.request.engine, id=job.request.id,
            attempts=job.attempts, stats=outcome.get("stats", {}),
            seconds=outcome.get("seconds", 0.0),
            compiled=outcome.get("compiled"))
        with self._lock:
            self.stats.completed += 1
        budget = (outcome.get("stats") or {}).get("budget") or {}
        if budget.get("degradations"):
            # The engine degraded in-engine: still a real residual,
            # but keep it out of the cross-request cache — the
            # deadline-mapped wall budget is not in the fingerprint,
            # so a timing-dependent, less-specialized residual could
            # shadow a fully specialized answer for identical requests.
            self.stats.engine_degradations += 1
            return result
        with self._lock:
            self.cache.put(job.key, result)
        self._store_put(job.key, result)
        return result

    def _absorb_tiers(self, outcome: dict) -> None:
        """Fold a worker's per-request amortization-tier counters
        (genext cache/store/emit, offline analysis memo) into the
        service-wide stats."""
        tiers = outcome.get("tiers") or {}
        self.stats.genext_hits += tiers.get("genext_hits", 0)
        self.stats.genext_store_hits += \
            tiers.get("genext_store_hits", 0)
        self.stats.genext_store_writes += \
            tiers.get("genext_store_writes", 0)
        self.stats.genext_emits += tiers.get("genext_emits", 0)
        self.stats.analysis_memo_hits += \
            tiers.get("analysis_memo_hits", 0)
        self.stats.analysis_memo_misses += \
            tiers.get("analysis_memo_misses", 0)

    def _settle_compile(self, job: _Job, outcome: dict | None) -> None:
        """Settle the attempt's ``compile`` breaker grant, if any: the
        worker's report when it specialized (an artifact or none),
        otherwise (crash, hang, deterministic failure) hand the grant
        back so a half-open probe does not stay spent."""
        if not job.compiling:
            return
        job.compiling = False
        breaker = self.breakers["compile"]
        if outcome is None or outcome.get("failed"):
            breaker.release()
            return
        self.backend_stats.compile_seconds += \
            outcome.get("compile_seconds", 0.0)
        if "compiled" in outcome:
            self.backend_stats.compiles += 1
            breaker.record_success()
        else:
            breaker.record_failure()

    def _degrade(self, job: _Job, reason: str) -> SpecResult:
        """Graceful degradation: the trivially-residual program, or —
        if the source will not even parse — the source itself."""
        self.stats.degraded += 1
        residual, goal_params = _fallback_residual(job.request.source)
        return SpecResult(
            residual=residual, goal_params=goal_params,
            engine=job.request.engine, id=job.request.id,
            degraded=True, reason=reason, attempts=job.attempts)


def _fallback_residual(source: str) -> tuple[str, tuple[str, ...]]:
    try:
        program = parse_program(source)
        division = [DYN] * program.main.arity
        result = specialize_simple(program, division, _FALLBACK_CONFIG)
        return pretty_program(result.program), result.goal_params
    except Exception:  # noqa: BLE001 — degradation must not raise
        return source, ()
