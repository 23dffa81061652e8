"""Counters for the batch specialization service.

One :class:`ServiceStats` instance lives on every
:class:`repro.service.scheduler.SpecializationService`.  The scheduler
and the cross-request residual cache
(:class:`repro.service.cache.ResidualCache`) both report into it, and
the fault-injection suite (``tests/service/test_faults.py``) pins the
retry/backoff/degradation accounting against injected worker crashes
and deadline expiries.

Counters are cumulative over the service's lifetime, not per batch;
:meth:`ServiceStats.merge` aggregates across services (the throughput
benchmark merges one instance per worker-count configuration).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ServiceStats:
    """Counters for one specialization service."""

    #: Requests handed to the service (cache hits included).
    submitted: int = 0
    #: Requests answered with a real (non-degraded) residual, whether
    #: computed by a worker or served from the cross-request cache.
    completed: int = 0
    #: Requests answered with a fallback residual (``degraded=True``).
    degraded: int = 0
    #: Requests whose engine degraded *in-engine* (budget exhaustion →
    #: widening) and still returned a real residual: the cooperative
    #: alternative to a worker kill.  Counted under ``completed``, not
    #: ``degraded``.
    engine_degradations: int = 0

    #: Cross-request residual-cache traffic (the in-memory tier).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0

    #: Persistent artifact-store traffic (the disk tier below the LRU;
    #: :class:`repro.store.ArtifactStore`).  A store hit is always
    #: preceded by an in-memory ``cache_miss`` — the tiers are
    #: accounted separately.
    store_hits: int = 0
    store_misses: int = 0
    #: Payloads committed to disk (write-behind on completion).
    store_writes: int = 0
    #: Rows deleted to keep the store under its byte cap.
    store_evictions: int = 0
    #: Corruption events absorbed: rows failing their checksum (each
    #: quarantined and served as a miss) and database files SQLite
    #: refused (quarantined wholesale).  Never surfaced as exceptions.
    store_corrupt: int = 0
    #: Transient store failures swallowed (lock contention past the
    #: retry budget, I/O errors); the operation degraded to a miss or
    #: a dropped write.
    store_errors: int = 0

    #: ``genext``-engine tier traffic, reported back by workers (the
    #: tiers themselves live in worker processes).  A request served
    #: from a worker's in-memory module cache counts one
    #: ``genext_hits``; one loaded from the persistent store's
    #: ``genext`` row counts ``genext_store_hits``; a fresh emission
    #: counts ``genext_emits`` (plus ``genext_store_writes`` when the
    #: bundle was persisted).
    genext_hits: int = 0
    genext_store_hits: int = 0
    genext_store_writes: int = 0
    genext_emits: int = 0

    #: ``offline``-engine per-worker analysis-memo traffic: a hit
    #: means the request reused a cached facet analysis (same program,
    #: same abstract input pattern) instead of re-analyzing.
    analysis_memo_hits: int = 0
    analysis_memo_misses: int = 0

    #: Worker-process deaths observed (one per affected in-flight
    #: request: a single crash can break every future of its pool).
    worker_crashes: int = 0
    #: Resubmissions after a crash (bounded by ``max_attempts``).
    retries: int = 0
    #: Per-request deadlines that expired before the worker answered.
    timeouts: int = 0
    #: Deterministic in-worker failures (parse errors, fuel blowups);
    #: these degrade immediately — retrying cannot help.
    errors: int = 0
    #: The same failures keyed by taxonomy category
    #: (:func:`repro.engine.errors.classify`: ``program`` / ``budget`` /
    #: ``facet`` / ``specialization`` / ``internal``).
    errors_by_category: dict = field(default_factory=dict)
    #: Process pools torn down and rebuilt (after crashes/timeouts).
    pool_restarts: int = 0
    #: Exponential-backoff delay accumulated before resubmissions.
    backoff_seconds: float = 0.0

    #: Requests short-circuited by the poison-pill quarantine (their
    #: fingerprint repeatedly killed workers; degraded immediately
    #: with reason ``"quarantined"``, no pool traffic).
    quarantined: int = 0
    #: Fingerprints ever admitted to the poison-pill quarantine.
    poison_pills: int = 0
    #: Hung pool members terminated by the watchdog (stuck futures
    #: past their deadline/watchdog limit; the member is killed and
    #: the pool rebuilt instead of waiting for the hang to drain).
    watchdog_recycles: int = 0
    #: Circuit-breaker trips (closed/half-open → open), all seams.
    breaker_opens: int = 0
    #: Calls skipped because a breaker was open, all seams.
    breaker_short_circuits: int = 0
    #: Fault injections fired, keyed ``seam:kind`` (empty outside
    #: chaos runs; see :mod:`repro.faults`).
    faults_injected: dict = field(default_factory=dict)
    #: Health detail synced by the service (per-breaker state
    #: machines, the quarantine table) — snapshots, not counters, so
    #: :meth:`merge` keeps the receiver's.
    breaker_seams: dict = field(default_factory=dict)
    quarantine_detail: dict = field(default_factory=dict)
    #: Gateway front-door snapshot
    #: (:meth:`repro.observability.GatewayStats.as_dict`), synced by
    #: the gateway before every stats read; empty — and absent from
    #: :meth:`as_dict` — when no gateway fronts this service, so the
    #: batch/serve output shape is unchanged.
    gateway_detail: dict = field(default_factory=dict)

    # -- derived -------------------------------------------------------
    @property
    def cache_hit_rate(self) -> float:
        """Hit rate of the cross-request cache; 0.0 before any lookup
        (guarded like the :class:`CacheStats` rates)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def store_hit_rate(self) -> float:
        """Hit rate of the persistent store tier; 0.0 before any
        lookup."""
        total = self.store_hits + self.store_misses
        return self.store_hits / total if total else 0.0

    @property
    def degraded_rate(self) -> float:
        answered = self.completed + self.degraded
        return self.degraded / answered if answered else 0.0

    def merge(self, other: "ServiceStats") -> None:
        """Accumulate another service's counters."""
        self.submitted += other.submitted
        self.completed += other.completed
        self.degraded += other.degraded
        self.engine_degradations += other.engine_degradations
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_evictions += other.cache_evictions
        self.store_hits += other.store_hits
        self.store_misses += other.store_misses
        self.store_writes += other.store_writes
        self.store_evictions += other.store_evictions
        self.store_corrupt += other.store_corrupt
        self.store_errors += other.store_errors
        self.genext_hits += other.genext_hits
        self.genext_store_hits += other.genext_store_hits
        self.genext_store_writes += other.genext_store_writes
        self.genext_emits += other.genext_emits
        self.analysis_memo_hits += other.analysis_memo_hits
        self.analysis_memo_misses += other.analysis_memo_misses
        self.worker_crashes += other.worker_crashes
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.errors += other.errors
        for category, count in other.errors_by_category.items():
            self.errors_by_category[category] = \
                self.errors_by_category.get(category, 0) + count
        self.pool_restarts += other.pool_restarts
        self.backoff_seconds += other.backoff_seconds
        self.quarantined += other.quarantined
        self.poison_pills += other.poison_pills
        self.watchdog_recycles += other.watchdog_recycles
        self.breaker_opens += other.breaker_opens
        self.breaker_short_circuits += other.breaker_short_circuits
        for label, count in other.faults_injected.items():
            self.faults_injected[label] = \
                self.faults_injected.get(label, 0) + count

    def as_dict(self) -> dict:
        """JSON-ready snapshot (the ``service`` section of the
        ``--profile`` report)."""
        payload = self._as_dict_base()
        # Snapshot, not a counter — present only behind a gateway, so
        # batch/serve stats stay byte-identical to the pre-gateway
        # format.
        if self.gateway_detail:
            payload["gateway"] = dict(self.gateway_detail)
        return payload

    def _as_dict_base(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "degraded": self.degraded,
            "degraded_rate": round(self.degraded_rate, 4),
            "cache": {"hits": self.cache_hits,
                      "misses": self.cache_misses,
                      "evictions": self.cache_evictions,
                      "rate": round(self.cache_hit_rate, 4)},
            "store": {"hits": self.store_hits,
                      "misses": self.store_misses,
                      "writes": self.store_writes,
                      "evictions": self.store_evictions,
                      "corrupt": self.store_corrupt,
                      "errors": self.store_errors,
                      "rate": round(self.store_hit_rate, 4)},
            "genext": {"hits": self.genext_hits,
                       "store_hits": self.genext_store_hits,
                       "store_writes": self.genext_store_writes,
                       "emits": self.genext_emits},
            "analysis_memo": {"hits": self.analysis_memo_hits,
                              "misses": self.analysis_memo_misses},
            "worker_crashes": self.worker_crashes,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "errors": self.errors,
            "errors_by_category": dict(self.errors_by_category),
            "pool_restarts": self.pool_restarts,
            "backoff_seconds": round(self.backoff_seconds, 6),
            "budget": {
                "engine_degradations": self.engine_degradations,
            },
            "faults": dict(self.faults_injected),
            "breaker": {"opens": self.breaker_opens,
                        "short_circuits": self.breaker_short_circuits,
                        "seams": dict(self.breaker_seams)},
            "quarantine": {"requests": self.quarantined,
                           "pills": self.poison_pills,
                           **dict(self.quarantine_detail)},
            "watchdog": {"recycles": self.watchdog_recycles},
        }
