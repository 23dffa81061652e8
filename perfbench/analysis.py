"""Per-layer metrics from the traced run's spans and counters.

Time metrics named ``*_ms`` / ``*_us`` are the self time of a layer's
spans per attempted request (a span's self time is its duration minus
that of its child spans), so they split the run over the layers; the
``_p50``/``_p99``/``_sum`` ones say so in their names.

``trace.unattributed_share`` compares the spans with the end-to-end
time they should cover:

* batch workloads: the end-to-end time is the traced wall time x
  (workers + 1), the lane time of the pool members and the scheduling
  thread.  It is covered by each member's ``worker.execute`` spans,
  the scheduling thread's own spans under ``run_batch`` (cache, store,
  lowering, fallback) and whole dispatches whose member never reported
  (killed by the watchdog).  Idle lanes are unattributed time.
* gateway_zipf: the end-to-end time is the sum of request latencies
  from their due times.  Each request is covered by its replayed parse,
  admission and encode spans, its submit queue wait and its wave time.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

#: Every per-layer metric, with its unit, in report order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("gateway.parse_us", "us"), ("gateway.admit_us", "us"),
    ("gateway.encode_us", "us"), ("gateway.shed", "count"),
    ("gateway.internal_errors", "count"),
    ("submit.queue_wait_p50_ms", "ms"), ("submit.queue_wait_p99_ms", "ms"),
    ("submit.wave_size_mean", "count"),
    ("scheduler.hit_wait_p99_ms", "ms"), ("scheduler.ipc_ms", "ms"),
    ("scheduler.pool_restarts", "count"),
    ("scheduler.watchdog_recycles", "count"),
    ("cache.hit_ratio", "ratio"), ("cache.evictions", "count"),
    ("store.get_ms", "ms"), ("store.put_ms", "ms"),
    ("store.hit_ratio", "ratio"), ("store.writes", "count"),
    ("worker.execute_p50_ms", "ms"), ("worker.execute_sum_ms", "ms"),
    ("worker.errors", "count"), ("worker.fallback_ms", "ms"),
    ("lang.parse_ms", "ms"), ("lang.pretty_ms", "ms"),
    ("lang.residual_nodes", "count"),
    ("online.specialize_ms", "ms"), ("online.steps", "count"),
    ("online.facet_evaluations", "count"),
    ("offline.analyze_ms", "ms"), ("offline.specialize_ms", "ms"),
    ("offline.memo_hit_ratio", "ratio"),
    ("genext.emit_ms", "ms"), ("genext.load_ms", "ms"),
    ("genext.specialize_ms", "ms"), ("genext.module_hit_ratio", "ratio"),
    ("simple.specialize_ms", "ms"),
    ("transform.simplify_ms", "ms"),
    ("backend.compile_ms", "ms"), ("backend.compiles", "count"),
    ("engine.degradations", "count"), ("engine.steps_used", "count"),
    ("facets.cache_hit_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
)

#: Span name -> the per-request self-time metric it feeds (in ms).
_SELF_TIME = {
    "store.get": "store.get_ms", "store.put": "store.put_ms",
    "worker.fallback": "worker.fallback_ms",
    "lang.parse": "lang.parse_ms", "lang.pretty": "lang.pretty_ms",
    "online.specialize": "online.specialize_ms",
    "offline.analyze": "offline.analyze_ms",
    "offline.specialize": "offline.specialize_ms",
    "genext.emit": "genext.emit_ms", "genext.load": "genext.load_ms",
    "genext.specialize": "genext.specialize_ms",
    "simple.specialize": "simple.specialize_ms",
    "backend.compile": "backend.compile_ms",
}


def _pid(span_id: str) -> str:
    return span_id.split(":", 1)[0]


def percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def self_times(spans: list[tuple]) -> dict[str, float]:
    children: dict[str, float] = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            children[parent] += end - start
    return {span[0]: (span[4] - span[3]) - children.get(span[0], 0.0)
            for span in spans}


def _ipc(spans: list[tuple]) -> tuple[list[float], float]:
    """IPC per completed dispatch, and the duration of dispatches no
    member reported on (their member was killed)."""
    workers: dict[str, list[tuple]] = defaultdict(list)
    by_pid: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        if span[2] == "worker.execute":
            workers[span[5]].append(span)
            by_pid[_pid(span[0])].append(span)
    previous_end: dict[str, float] = {}
    for pid, members in by_pid.items():
        members.sort(key=lambda s: s[3])
        for before, after in zip(members, members[1:]):
            previous_end[after[0]] = before[4]
    gaps, orphaned = [], 0.0
    for span in spans:
        if span[2] != "scheduler.dispatch":
            continue
        _, _, _, start, end, rid = span
        inside = [w for w in workers.get(rid, ())
                  if w[3] >= start - 1e-3 and w[4] <= end + 1e-3]
        if not inside:
            orphaned += end - start
            continue
        member = inside[0]
        ready = max(start, previous_end.get(member[0], start))
        gaps.append(max(0.0, member[3] - ready)
                    + max(0.0, end - member[4]))
    return gaps, orphaned


def per_layer(spans: list[tuple], waves: list, facet_cache: list[int],
              stats: dict, backend_stats: dict, results: list[dict],
              attempted: int, statuses: list[int], e2e_seconds: float,
              lanes: int | None, overhead_share: float,
              residual_nodes: float) -> dict[str, float]:
    """Every PER_LAYER metric.  ``stats`` is the ServiceStats document
    of the traced phase (differences of counters); ``results`` the
    result documents of the traced phase's requests; ``lanes`` the pool
    size for batch workloads, ``None`` for gateway_zipf (whose
    ``e2e_seconds`` is then the summed latency)."""
    n = max(attempted, 1)
    # Only results computed in this run carry this run's engine stats.
    results = [r for r in results if not r.get("cached")]
    selfs = self_times(spans)
    out: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    by_name: dict[str, list[tuple]] = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)
    for name, metric in _SELF_TIME.items():
        out[metric] = sum(selfs[s[0]] for s in by_name[name]) * 1000 / n
    for name, metric in (("gateway.parse", "gateway.parse_us"),
                         ("gateway.admit", "gateway.admit_us"),
                         ("gateway.encode", "gateway.encode_us")):
        out[metric] = sum(selfs[s[0]] for s in by_name[name]) * 1e6 / n
    out["gateway.shed"] = sum(1 for s in statuses if s == 429)
    out["gateway.internal_errors"] = sum(1 for s in statuses if s >= 500)
    waits = [(s[4] - s[3]) * 1000 for s in by_name["submit.queue_wait"]]
    out["submit.queue_wait_p50_ms"] = percentile(waits, 50)
    out["submit.queue_wait_p99_ms"] = percentile(waits, 99)
    if waves:
        out["submit.wave_size_mean"] = statistics.fmean(
            wave[0] for wave in waves)
    hit_waits = [wave[2] * 1000 for wave in waves for _ in range(wave[1])]
    out["scheduler.hit_wait_p99_ms"] = percentile(hit_waits, 99)
    gaps, orphaned = _ipc(spans)
    out["scheduler.ipc_ms"] = statistics.fmean(gaps) * 1000 \
        if gaps else 0.0
    out["scheduler.pool_restarts"] = stats.get("pool_restarts", 0)
    out["scheduler.watchdog_recycles"] = \
        stats.get("watchdog", {}).get("recycles", 0)
    cache = stats.get("cache", {})
    out["cache.hit_ratio"] = _ratio(
        cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0))
    out["cache.evictions"] = cache.get("evictions", 0)
    store = stats.get("store", {})
    out["store.hit_ratio"] = _ratio(
        store.get("hits", 0), store.get("hits", 0) + store.get("misses", 0))
    out["store.writes"] = store.get("writes", 0)
    executes = [(s[4] - s[3]) * 1000 for s in by_name["worker.execute"]]
    out["worker.execute_p50_ms"] = percentile(executes, 50)
    out["worker.execute_sum_ms"] = sum(executes)
    out["worker.errors"] = stats.get("errors", 0)
    out["lang.residual_nodes"] = residual_nodes
    online = [r["stats"] for r in results
              if r.get("engine") == "online" and r.get("stats")]
    if online:
        out["online.steps"] = statistics.fmean(
            s.get("steps", 0) for s in online)
        out["online.facet_evaluations"] = statistics.fmean(
            s.get("facet_evaluations", 0) for s in online)
    memo = stats.get("analysis_memo", {})
    out["offline.memo_hit_ratio"] = _ratio(
        memo.get("hits", 0), memo.get("hits", 0) + memo.get("misses", 0))
    genext = stats.get("genext", {})
    reused = genext.get("hits", 0) + genext.get("store_hits", 0)
    out["genext.module_hit_ratio"] = _ratio(
        reused, reused + genext.get("emits", 0))
    out["transform.simplify_ms"] = sum(
        (r.get("stats") or {}).get("phase_seconds", {}).get("simplify", 0.0)
        for r in results) * 1000 / n
    out["backend.compiles"] = backend_stats.get("compiles", 0)
    budgets = [(r.get("stats") or {}).get("budget") or {} for r in results]
    out["engine.degradations"] = sum(b.get("degradations", 0)
                                     for b in budgets)
    used = [b.get("used", {}).get("steps", 0) for b in budgets if b]
    out["engine.steps_used"] = statistics.fmean(used) if used else 0.0
    out["facets.cache_hit_ratio"] = _ratio(facet_cache[0],
                                           sum(facet_cache))
    if lanes is not None:
        # The scheduling thread is a lane too: its own work is the
        # top-level spans under run_batch, except the dispatches, which
        # overlap the members' work.
        waves_ids = {s[0] for s in by_name["scheduler.run_batch"]}
        covered = sum(s[4] - s[3] for s in by_name["worker.execute"]) \
            + orphaned + sum(s[4] - s[3] for s in spans
                             if s[1] in waves_ids
                             and s[2] != "scheduler.dispatch")
        total = e2e_seconds * (lanes + 1)
    else:
        covered = sum(s[4] - s[3] for name in (
            "gateway.parse", "gateway.admit", "gateway.encode",
            "submit.queue_wait", "submit.wave") for s in by_name[name])
        total = e2e_seconds
    out["trace.unattributed_share"] = 1.0 - covered / total \
        if total else 0.0
    out["trace.overhead_share"] = overhead_share
    return out


def counter_delta(after: dict, before: dict) -> dict:
    """``after - before`` over the numeric leaves of two stats
    documents (a difference of rates means nothing: the per-layer
    ratios are recomputed from the counts)."""
    out: dict = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = counter_delta(value, before.get(key) or {})
        elif isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            out[key] = value - (before.get(key) or 0)
    return out


def counter_add(left: dict, right: dict) -> dict:
    """Leaf-wise sum of two :func:`counter_delta` documents."""
    out = dict(left)
    for key, value in right.items():
        if isinstance(value, dict):
            out[key] = counter_add(left.get(key) or {}, value)
        else:
            out[key] = (left.get(key) or 0) + value
    return out
