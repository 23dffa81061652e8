"""Experiment: the fault-injection layer's cost and the chaos soak's
shape.

Two claims are measured here:

* **Disabled injection is free.**  Every failure seam in the service
  carries a ``fault_point`` / ``fault_payload`` / ``fault_decision``
  call; with no plan installed each is a single module-global ``None``
  check.  The cost is measured with counts, since paired timings of a
  ~30 ms batch cannot resolve 2%: the bench counts the seam calls a
  fixed service batch makes (the count repeats exactly), times one
  disabled call of each seam function against the literal no-op that
  stands in for compiling it out (over enough calls to resolve the
  difference), and asserts count × per-call cost stays within 2% of
  the batch with every seam stripped.  The batch's own instrumented
  and stripped timings are recorded, ungated.

* **The chaos soak is bounded.**  One soak run (the same seeded
  FaultPlan shape as ``tests/chaos/``) is pushed through the full
  service and its outcome — request throughput, degraded fraction,
  per-seam injection counts, breaker/quarantine activity — is recorded
  to ``BENCH_chaos_soak.json`` so CI can watch the degradation
  trajectory over time.
"""

from __future__ import annotations

import random
import statistics
import time
import timeit
from collections import Counter

import repro.faults as faults_pkg
import repro.gateway.core as gateway_core_mod
import repro.service.scheduler as scheduler_mod
import repro.store.store as store_mod
from repro.faults import uninstall
from repro.service import SpecRequest, SpecializationService
from repro.workloads import WORKLOADS

ROUNDS = 8

#: The bound on the disabled seams' share of a batch.
MAX_OVERHEAD = 0.02

#: Calls per timing loop of one seam function (a loop takes about
#: 10 ms, and its best of ``ROUNDS`` resolves about a ns a call).
CALLS = 200_000

#: Module attributes holding a by-name binding of ``fault_point``;
#: ``repro.faults`` itself covers the lazy importers (backend.emit,
#: genext.emit resolve it at call time).
_POINT_SITES = (store_mod, scheduler_mod, gateway_core_mod,
                faults_pkg)

#: Module attributes holding a by-name binding of ``fault_decision``
#: (the scheduler decides ``worker.execute`` at dispatch).
_DECISION_SITES = (scheduler_mod, faults_pkg)


# The literal no-ops take their seam function's signature, so a call
# costs what it would with the seam's check compiled out.

def _noop_point(seam, key=None, error=None, crash=None):
    return None


def _noop_decision(seam, key=None):
    return None


def _noop_payload(seam, payload, key=None):
    return payload


_NOOPS = {"fault_point": _noop_point, "fault_decision": _noop_decision,
          "fault_payload": _noop_payload}


def _swap_seams(replacement):
    """Rebind every seam call at every by-name site to
    ``replacement(name, original)``; returns an undo."""
    saved = [(site, "fault_point", site.fault_point)
             for site in _POINT_SITES]
    saved += [(site, "fault_decision", site.fault_decision)
              for site in _DECISION_SITES]
    saved += [(site, "fault_payload", site.fault_payload)
              for site in (store_mod, faults_pkg)]
    for site, name, original in saved:
        setattr(site, name, replacement(name, original))

    def undo():
        for site, name, original in saved:
            setattr(site, name, original)

    return undo


def _strip_seams():
    """Swap every seam call for a literal no-op; returns an undo."""
    return _swap_seams(lambda name, _original: _NOOPS[name])


def _count_seam_calls(tmp_path, tag: str) -> Counter:
    """The seam calls one overhead batch makes, by seam function."""
    counts: Counter = Counter()

    def counting(name, original):
        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return call

    undo = _swap_seams(counting)
    try:
        _run_batch(tmp_path, tag)
    finally:
        undo()
    return counts


#: One disabled call per seam function, shaped like its hot call
#: sites, with the literal no-op the stripped batch swaps in for it.
_SEAM_CALLS = {
    "fault_point": (faults_pkg.fault_point, _noop_point,
                    "f('store.read', key='k')"),
    "fault_decision": (faults_pkg.fault_decision, _noop_decision,
                       "f('worker.execute', key='k')"),
    "fault_payload": (faults_pkg.fault_payload, _noop_payload,
                      "f('store.read.payload', '{}', key='k')"),
}


def _extra_seconds_per_call(seam, noop, call: str) -> float:
    """Best-of-rounds cost of one disabled seam call over the no-op.
    Each side gets its own compiled loop, so neither shares a call
    site's specialization with the other."""
    seam_timer = timeit.Timer(call, globals={"f": seam})
    noop_timer = timeit.Timer(call, globals={"f": noop})
    seam_best = noop_best = float("inf")
    for _ in range(ROUNDS):
        seam_best = min(seam_best, seam_timer.timeit(CALLS))
        noop_best = min(noop_best, noop_timer.timeit(CALLS))
    return (seam_best - noop_best) / CALLS


def _overhead_batch() -> list[SpecRequest]:
    """A fixed, cheap, store-exercising batch: every seam on the hot
    path runs (reads, writes, worker execute, dispatch, compile)."""
    batch = []
    for index, (name, specs, engine) in enumerate([
            ("gcd", ["48", "dyn"], "online"),
            ("gcd", ["dyn", "18"], "offline"),
            ("fib", ["7"], "online"), ("fib", ["dyn"], "offline"),
            ("sign_pipeline", ["8", "dyn"], "online"),
            ("sign_pipeline", ["3", "dyn"], "online"),
            ("power", ["dyn", "5"], "offline"),
            ("power", ["2", "3"], "online"),
    ] * 2):
        batch.append(SpecRequest.create(
            WORKLOADS[name].source, specs, engine=engine,
            id=f"bench-{index}-{name}"))
    return batch


def _run_batch(tmp_path, tag: str) -> None:
    with SpecializationService(
            workers=0, backend="compiled",
            store_path=tmp_path / f"{tag}.sqlite") as service:
        results = service.run_batch(_overhead_batch())
    assert not any(result.degraded for result in results)


def test_disabled_fault_points_are_free(tmp_path, benchmark, report,
                                        bench_record):
    uninstall()   # seams present but disabled: the shipped default

    counter = iter(range(10_000))

    def instrumented():
        _run_batch(tmp_path, f"on-{next(counter)}")

    def stripped():
        undo = _strip_seams()
        try:
            _run_batch(tmp_path, f"off-{next(counter)}")
        finally:
            undo()

    # Warm the compile/dispatch caches before measuring either side.
    instrumented()
    stripped()
    counts = _count_seam_calls(tmp_path, f"count-{next(counter)}")
    assert counts == _count_seam_calls(tmp_path,
                                       f"count-{next(counter)}")
    per_call = {name: _extra_seconds_per_call(*_SEAM_CALLS[name])
                for name in _SEAM_CALLS}
    seam_seconds = sum(counts[name] * max(per_call[name], 0.0)
                       for name in _SEAM_CALLS)

    on_samples, off_samples = [], []
    for _ in range(ROUNDS):
        for run, samples in ((instrumented, on_samples),
                             (stripped, off_samples)):
            started = time.perf_counter()
            run()
            samples.append(time.perf_counter() - started)
    instrumented_s = statistics.median(on_samples)
    stripped_s = statistics.median(off_samples)
    overhead = seam_seconds / stripped_s
    report(f"disabled seams: {sum(counts.values())} calls a batch "
           f"({dict(sorted(counts.items()))}), "
           + ", ".join(f"{name} {per_call[name] * 1e9:+.1f}ns"
                       for name in _SEAM_CALLS)
           + f" a call over the no-op: {seam_seconds * 1e6:.2f}us of "
           f"a {stripped_s * 1e3:.2f}ms stripped batch "
           f"({overhead:.3%}); batch medians instrumented "
           f"{instrumented_s * 1e3:.2f}ms, stripped "
           f"{stripped_s * 1e3:.2f}ms (ungated)")
    bench_record("disabled_overhead",
                 seam_calls=dict(sorted(counts.items())),
                 extra_ns_per_call={name: round(per_call[name] * 1e9, 2)
                                    for name in _SEAM_CALLS},
                 seam_seconds=round(seam_seconds, 9),
                 overhead=round(overhead, 6),
                 instrumented_seconds=round(instrumented_s, 6),
                 stripped_seconds=round(stripped_s, 6),
                 batch_overhead=round(
                     (instrumented_s - stripped_s) / stripped_s, 4))
    assert seam_seconds <= MAX_OVERHEAD * stripped_s, \
        f"disabled fault points cost {overhead:.1%} (> 2%)"
    benchmark(instrumented)


def _soak_plan(seed: int) -> dict:
    return {"seed": seed, "seams": {
        "store.read": {"kinds": ["error"], "probability": 0.15},
        "store.read.payload": {"kinds": ["corrupt"],
                               "probability": 0.25},
        "store.write": {"kinds": ["error"], "probability": 0.10},
        "worker.execute": {"kinds": ["crash", "error"],
                           "probability": 0.06},
        "genext.load": {"kinds": ["error"], "probability": 0.10},
        "backend.compile": {"kinds": ["error"], "probability": 0.15},
        "scheduler.dispatch": {"kinds": ["error"],
                               "probability": 0.04},
    }}


def _soak_requests(seed: int, count: int) -> list[SpecRequest]:
    # sign_pipeline's first parameter stays static: ``shrink``
    # recurses on it, so a dynamic value unfolds without bound.
    space = [("gcd", [("36", "48", "60", "dyn"), ("18", "27", "dyn")]),
             ("fib", [("3", "6", "9", "dyn")]),
             ("sign_pipeline", [("-4", "2", "8"),
                                ("1", "2", "dyn")])]
    engines = ("online", "online", "offline", "genext")
    rng = random.Random(seed)
    batch = []
    for index in range(count):
        name, pools = space[rng.randrange(len(space))]
        specs = [rng.choice(pool) for pool in pools]
        if "dyn" not in specs:
            specs[-1] = "dyn" if "dyn" in pools[-1] else specs[-1]
        if "dyn" not in specs:
            specs[0] = "dyn"
        batch.append(SpecRequest.create(
            WORKLOADS[name].source, specs,
            engine=engines[rng.randrange(len(engines))],
            id=f"soak-{index}-{name}"))
    return batch


def test_chaos_soak_trajectory(tmp_path, report, bench_record,
                               track_service_stats):
    uninstall()
    count, seed = 120, 20260809
    batch = _soak_requests(seed, count)
    started = time.perf_counter()
    with SpecializationService(
            workers=0, fault_plan=_soak_plan(seed),
            backend="compiled", store_path=tmp_path / "soak.sqlite",
            store_max_bytes=200_000,
            backoff_base=0.0, sleep=lambda _s: None) as service:
        results = service.run_batch(batch)
        stats = service.stats_dict()
        track_service_stats(service.stats)
    elapsed = time.perf_counter() - started
    degraded = sum(1 for result in results if result.degraded)
    injected = sum(stats["faults"].values())
    report(f"chaos soak: {count} requests in {elapsed:.2f}s "
           f"({count / elapsed:.0f} req/s), {degraded} degraded "
           f"({degraded / count:.0%}), {injected} faults injected, "
           f"breaker opens {stats['breaker']['opens']}, "
           f"poison pills {stats['quarantine']['pills']}")
    assert len(results) == count
    assert injected > 0
    assert degraded / count < 0.5
    bench_record("soak",
                 requests=count, seed=seed,
                 elapsed_seconds=round(elapsed, 3),
                 requests_per_second=round(count / elapsed, 1),
                 degraded=degraded,
                 degraded_fraction=round(degraded / count, 4),
                 faults_injected=injected,
                 faults_by_seam=stats["faults"],
                 breaker_opens=stats["breaker"]["opens"],
                 breaker_short_circuits=stats["breaker"]
                 ["short_circuits"],
                 poison_pills=stats["quarantine"]["pills"],
                 quarantined=stats["quarantine"]["short_circuits"])
