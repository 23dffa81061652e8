"""Bounded cross-request LRU over finished residuals.

This cache sits *above* the per-run caches of PR 1 (the facet suite's
dispatch/interning/outcome memos live inside one specialization; this
one spans requests and services whole residual programs).  Keys are
:meth:`repro.service.results.SpecRequest.fingerprint` — source hash,
entry point, division and config — so two textually different requests
never collide and two identical ones always do.

Eviction is least-recently-used with a hard capacity; every lookup and
eviction reports into the owning service's
:class:`~repro.observability.ServiceStats`, which is how the hit rate
and eviction counts reach the ``--profile`` report.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.observability.service_stats import ServiceStats
from repro.service.results import SpecResult


class ResidualCache:
    """LRU mapping request fingerprints to finished results.

    ``capacity=0`` (``--cache-size 0``) disables the cache: every
    lookup misses and nothing is stored.

    Not thread-safe by itself: the owning
    :class:`~repro.service.scheduler.SpecializationService` makes every
    call under its lock, since the submitting thread and the pump both
    use it.
    """

    def __init__(self, capacity: int = 256,
                 stats: ServiceStats | None = None) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.stats = stats if stats is not None else ServiceStats()
        self._entries: "OrderedDict[str, SpecResult]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str,
            count_miss: bool = True) -> Optional[SpecResult]:
        """Look up a fingerprint, refreshing its recency on a hit.
        ``count_miss=False`` leaves a miss uncounted (a probe whose
        request will be looked up again).

        ``capacity=0`` short-circuits before touching the stats: a
        disabled cache reports no traffic at all, so the configurations
        that turn it off do not pay (or pollute the hit-rate with) a
        counter bump per request."""
        if self.capacity == 0:
            return None
        entry = self._entries.get(key)
        if entry is None:
            if count_miss:
                self.stats.cache_misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.cache_hits += 1
        return entry

    def peek(self, key: str) -> Optional[SpecResult]:
        """Lookup without touching recency or counters."""
        return self._entries.get(key)

    def put(self, key: str, result: SpecResult) -> None:
        """Store a finished result.  Degraded results are refused —
        caching a timeout would pin the degradation long after the
        transient cause is gone."""
        if self.capacity == 0 or result.degraded:
            return
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.cache_evictions += 1

    def clear(self) -> None:
        self._entries.clear()
