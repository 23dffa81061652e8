"""The three workloads: set-up, timed phase, oracle, metrics.

Each ``run_*`` function returns the result object ``run.py`` prints.
With ``trace=False`` it carries the end-to-end metrics; with
``trace=True`` the run is repeated with the tracing wrappers switched
off and then on, and it carries the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import sys
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from perfbench import (analysis, families, hostspeed, httpload, oracle,
                       procs, tracing)

WORKERS = 2

#: Timed requests per second of ``--seconds`` (batch_fresh).  The count
#: is fixed by the arguments, not by a clock, so it repeats exactly.
FRESH_RATE = 240
FRESH_WARM = 500
#: The timed phase is this many ``run_batch`` rounds; rates and CPU per
#: request are medians over the rounds.
FRESH_ROUNDS = 5

#: gateway_zipf: offered rate, working set and never-seen share.  At
#: 100 req/s with 5% fresh the 2-vCPU reference host sat at the knee
#: of its latency curve (p50 moved 3.2-6.4 ms between runs); 200 req/s
#: with 2% fresh keeps about the same rate of cold requests (4/s) and
#: gives each window enough samples for its p99 (see README.md).
ZIPF_RATE = 200.0
ZIPF_WORKING_SET = 600
ZIPF_FRESH_SHARE = 0.02
#: Latency percentiles and CPU per request are medians over this many
#: equal windows of the schedule.
ZIPF_WINDOWS = 10
#: The generator is backlogged if its lateness in the last quarter of
#: the run exceeds that of the first quarter by more than this.
LATENESS_GROWTH_LIMIT = 0.05

#: batch_hostile: the watchdog backstop and seconds per cycle for
#: sizing.  The slowest request that ends on its own takes 2.4-3.9 s on
#: the reference host; with an 8 s watchdog it ran into the watchdog
#: when a second CPU-bound job shared the two vCPUs, so the margin is 3x.
HOSTILE_WATCHDOG = 12.0
HOSTILE_CYCLE_SECONDS = 30.0
HOSTILE_WARM = 600

#: How many times set-up runs in one run; ``setup_s`` is the median.
SETUP_REPEATS = 3

END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"), ("throughput_rps", "req/s"),
    ("cpu_ms_per_request", "ms"), ("ok_share", "fraction"),
    ("residual_kb_mean", "KiB"), ("residual_steps_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
)
#: gateway_zipf prints these on every run, but they are not declared in
#: BENCHMARK.json: on the 2-vCPU reference host the p99's spread over
#: ten seeds reached 0.84 of the median, above the largest bound the
#: benchmark may declare, and the p50's 0.19 (see README.md).
UNBOUNDED: tuple[tuple[str, str], ...] = (
    ("latency_p50_ms", "ms"), ("latency_p99_ms", "ms"),
)
#: The metrics of each workload that are reported at the reference
#: host's speed (see hostspeed.py): those that are CPU-bound work of
#: the program.  The gateway's rate is the offered rate, and
#: batch_hostile's rate and CPU are mostly watchdog bounds (wall-clock
#: seconds), so those are reported as measured.
SPEED_SCALED: dict[str, tuple[str, ...]] = {
    "batch_fresh": ("setup_s", "throughput_rps", "cpu_ms_per_request"),
    "gateway_zipf": ("setup_s", "cpu_ms_per_request"),
    "batch_hostile": ("setup_s",),
}


@dataclass
class Answer:
    """One request's outcome as the benchmark saw it."""

    planned: families.Planned
    status: int
    document: dict


@dataclass
class Checked:
    correct: bool = True
    failed: int = 0
    not_ok: int = 0
    residual_bytes: list[int] = field(default_factory=list)
    source_steps: int = 0
    residual_steps: int = 0
    residual_nodes: list[int] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    #: id -> (status, degraded, reason, residual) for the determinism test.
    outcomes: dict = field(default_factory=dict)


def check_answers(answers: list[Answer]) -> Checked:
    """The oracle over every distinct answer, plus the failure counts.

    ``failed`` counts requests with no correct answer: a non-200
    status, an answer that fails the oracle, or two different answers
    to one fingerprint.  ``not_ok`` additionally counts degraded
    (fallback) answers and known-unparseable residuals that are still
    unparseable; it is the complement of ``ok_share``.  Sizes,
    node counts and interpreter steps are taken once per distinct
    answer, so a hot request does not weigh more than a cold one."""
    checked = Checked()
    verdicts: dict[tuple, oracle.Verdict] = {}
    by_key: dict[str, str] = {}
    for answer in answers:
        request = answer.planned.request
        doc = answer.document
        checked.outcomes[request.id] = (
            answer.status, doc.get("degraded"), doc.get("reason"),
            doc.get("residual"))
        if answer.status != 200:
            checked.failed += 1
            checked.not_ok += 1
            checked.problems.append(f"{request.id}: HTTP {answer.status}")
            continue
        key = request.fingerprint()
        residual = doc["residual"]
        if not doc.get("degraded"):
            if by_key.setdefault(key, residual) != residual:
                checked.failed += 1
                checked.problems.append(
                    f"{request.id}: a second, different residual")
                continue
        distinct = (key, residual)
        verdict = verdicts.get(distinct)
        if verdict is None:
            verdict = verdicts[distinct] = oracle.check(
                request.source, residual, doc["goal_params"],
                answer.planned.oracle_args)
            if verdict.ok:
                checked.source_steps += verdict.source_steps
                checked.residual_steps += verdict.residual_steps
                if not doc.get("degraded"):
                    checked.residual_bytes.append(len(residual.encode()))
                    checked.residual_nodes.append(verdict.residual_nodes)
        if not verdict.ok:
            checked.not_ok += 1
            if not verdict.parses and answer.planned.known_failure \
                    == families.UNPARSEABLE:
                continue  # fails as it does at the seed commit
            checked.failed += 1
            checked.problems.append(f"{request.id}: {verdict.detail}")
        elif doc.get("degraded"):
            checked.not_ok += 1
    checked.correct = checked.failed == 0
    return checked


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(values: dict[str, float]) -> dict:
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}


def _time_metrics(workload: str, samples: dict[str, list[tuple]]) \
        -> dict[str, float]:
    """The time metrics from ``name -> [(value, factor), ...]``, one pair
    per set-up, round or window, ``factor`` being the host's speed over
    that span (hostspeed.py).  Each metric is the median over its
    samples; one of ``SPEED_SCALED[workload]`` is taken at the reference
    host's speed, each sample by its own span's factor (a duration times
    it, a rate over it), and its measured median is kept as ``raw.*``."""
    out = {}
    for name, pairs in samples.items():
        measured = statistics.median(value for value, _ in pairs)
        if name not in SPEED_SCALED[workload]:
            out[name] = measured
            continue
        power = -1 if name == "throughput_rps" else 1
        out[name] = statistics.median(value * factor ** power
                                      for value, factor in pairs)
        out[f"raw.{name}"] = measured
    return out


def _printed(values: dict[str, float],
             names: tuple[tuple[str, str], ...] = ()) -> dict:
    """The values printed beside the result but not part of it: the
    measured values of the speed-scaled metrics, the probe's factors
    and ``names``."""
    units = dict(END_TO_END)
    out = {name: _metric(values[name], unit) for name, unit in names}
    for name, value in values.items():
        kind, _, metric = name.partition(".")
        if kind == "raw":
            out[name] = _metric(value, units[metric])
        elif kind == "probe":
            out[name] = _metric(value, "ratio")
    return out


def _per_layer(values: dict[str, float]) -> dict:
    return {name: _metric(values[name], unit)
            for name, unit in analysis.PER_LAYER}


def _common(checked: Checked, attempted: int) -> dict[str, float]:
    sizes = checked.residual_bytes
    return {
        "ok_share": (attempted - checked.not_ok) / attempted,
        "residual_kb_mean": statistics.fmean(sizes) / 1024 if sizes else 0.0,
        "residual_steps_ratio": checked.residual_steps
        / max(checked.source_steps, 1),
    }


def _result(checked: Checked, attempted: int, metrics: dict,
            extra: dict | None = None) -> dict:
    out = {"correct": checked.correct, "attempted": attempted,
           "failed": checked.failed, "metrics": metrics}
    if extra:
        out["_detail"] = extra
    return out


def _answers(plans, results) -> list[Answer]:
    return [Answer(planned, 200, result.to_dict())
            for planned, result in zip(plans, results)]


def _service(work: Path, name: str, **options):
    from repro.service import SpecializationService
    return SpecializationService(workers=WORKERS,
                                 store_path=work / f"{name}.db", **options)


def _repeat_setup(setup, repeats: int):
    """Run ``setup`` ``repeats`` times; keep the last service (or
    gateway), close the others; return it with each set-up's ``(start,
    end)`` span."""
    spans, keep = [], None
    for attempt in range(repeats):
        if keep is not None:
            keep.close()
        keep, span = setup(attempt)
        spans.append(span)
    return keep, spans


def _speed_samples(sampler: hostspeed.Sampler, spans,
                   values) -> list[tuple[float, float]]:
    """``(value, host speed factor over its span)`` pairs."""
    return [(value, sampler.factor([span]))
            for value, span in zip(values, spans)]


def _setup_samples(sampler: hostspeed.Sampler, spans) -> list[tuple]:
    return _speed_samples(sampler, spans, [end - start
                                           for start, end in spans])


# -- batch_fresh -------------------------------------------------------------

def _fresh_sizes(seconds: float, smoke: bool) -> tuple[int, int]:
    """Warm-up size and requests per timed round (whole pair cycles)."""
    pairs = len(families.served_pairs())
    per_round = max(pairs, round(seconds * FRESH_RATE / FRESH_ROUNDS
                                 / pairs) * pairs)
    return (pairs if smoke else FRESH_WARM), per_round


def _one_wave(plans):
    return [plans]


def _timed_rounds(service, rounds, waves=_one_wave, skip=()) \
        -> tuple[list, list[tuple[float, float]], list[float]]:
    """Serve each round as the ``run_batch`` calls ``waves`` splits it
    into; return every result and each round's ``(start, end)`` span
    and program CPU seconds (this process's tree less ``skip``, the
    probes)."""
    results, spans, cpus = [], [], []
    for plans in rounds:
        cpu0 = procs.tree_cpu_seconds(_self(), skip)
        began = perf_counter()
        for wave in waves(plans):
            results.extend(service.run_batch([p.request for p in wave]))
        spans.append((began, perf_counter()))
        cpus.append(procs.tree_cpu_seconds(_self(), skip) - cpu0)
    return results, spans, cpus


def run_batch_fresh(seed: int, seconds: float, trace: bool, work: Path,
                    smoke: bool = False) -> dict:
    warm_count, per_round = _fresh_sizes(seconds, smoke)
    warm, rounds = families.fresh_manifests(seed, warm_count, per_round,
                                            FRESH_ROUNDS)
    return _run_batch_workload(
        "batch_fresh", work, warm, rounds, _one_wave, trace, smoke,
        backend="compiled")


def _run_batch_workload(workload: str, work: Path, warm, rounds, waves,
                        trace: bool, smoke: bool, **options) -> dict:
    """Set up a 2-worker service (``SETUP_REPEATS`` times, each serving
    ``warm``), then serve the timed ``rounds``."""
    def setup(attempt: int):
        began = perf_counter()
        service = _service(work, f"{workload}-{attempt}", **options)
        service.run_batch([p.request for p in warm])
        return service, (began, perf_counter())

    repeats = 1 if (smoke or trace) else SETUP_REPEATS
    with hostspeed.Sampler() as sampler:
        service, setup_spans = _repeat_setup(setup, repeats)
        try:
            if trace:
                return _traced_batch(service, rounds, waves)
            results, spans, cpus = _timed_rounds(service, rounds, waves,
                                                 sampler.pids)
            rss = procs.tree_peak_rss_mib(_self(), sampler.pids)
            counts = _counts(service.stats_dict())
        finally:
            service.close()
    plans = [p for r in rounds for p in r]
    checked = check_answers(_answers(plans, results))
    sizes = [len(r) for r in rounds]
    values = _time_metrics(workload, {
        "setup_s": _setup_samples(sampler, setup_spans),
        "throughput_rps": _speed_samples(
            sampler, spans,
            [n / (end - start) for n, (start, end) in zip(sizes, spans)]),
        "cpu_ms_per_request": _speed_samples(
            sampler, spans,
            [cpu * 1000 / n for n, cpu in zip(sizes, cpus)]),
    })
    values.update(peak_rss_mb=rss, **_common(checked, len(plans)))
    values["probe.factor"] = sampler.factor(setup_spans + spans)
    return _result(checked, len(plans), _end_to_end(values),
                   {"counts": counts, "outcomes": checked.outcomes,
                    "problems": checked.problems[:20],
                    "printed": _printed(values)})


def _self() -> int:
    return os.getpid()


def _counts(stats: dict) -> dict:
    """The tier counters that repeat exactly for a seed.  The genext
    and analysis-memo tiers live in the pool members, so which member
    serves a request decides hit or miss there; only their lookup
    totals are fixed (two members missing one genext pattern at once
    may both emit it, so ``emits`` and ``store_hits`` trade places from
    run to run)."""
    genext, memo = stats["genext"], stats["analysis_memo"]
    return {"cache": stats["cache"], "store": stats["store"],
            "genext_lookups": genext["hits"] + genext["store_hits"]
            + genext["emits"],
            "analysis_memo_lookups": memo["hits"] + memo["misses"],
            "pool_restarts": stats.get("pool_restarts", 0),
            "watchdog_recycles": stats.get("watchdog", {}).get(
                "recycles", 0),
            "degraded": stats.get("degraded", 0)}


def _traced_batch(service, rounds, waves) -> dict:
    """Serve ``rounds`` alternately untraced and traced (odd rounds
    traced); per-layer metrics from the traced rounds."""
    tracing.reset()
    rates: dict[bool, list[float]] = {False: [], True: []}
    stats: dict = {}
    backend: dict = {}
    plans_traced, results_traced, wall_traced = [], [], 0.0
    for index, plans in enumerate(rounds):
        traced = index % 2 == 1
        stats_before = service.stats_dict()
        backend_before = dict(vars(service.backend_stats))
        tracing.ENABLED.value = int(traced)
        results, ((began, ended),), _ = _timed_rounds(service, [plans],
                                                      waves)
        wall = ended - began
        tracing.ENABLED.value = 0
        rates[traced].append(len(plans) / wall)
        if traced:
            stats = analysis.counter_add(stats, analysis.counter_delta(
                service.stats_dict(), stats_before))
            backend = analysis.counter_add(backend, analysis.counter_delta(
                dict(vars(service.backend_stats)), backend_before))
            plans_traced += plans
            results_traced += results
            wall_traced += wall
    checked = check_answers(_answers(plans_traced, results_traced))
    spans, wave_log, facet = tracing.collect(tracing.span_dir())
    values = analysis.per_layer(
        spans, wave_log, facet, stats, backend,
        [r.to_dict() for r in results_traced], len(plans_traced), [],
        wall_traced, WORKERS,
        statistics.median(rates[False]) / statistics.median(rates[True])
        - 1.0,
        statistics.fmean(checked.residual_nodes)
        if checked.residual_nodes else 0.0)
    return _result(checked, len(plans_traced), _per_layer(values))


# -- batch_hostile -----------------------------------------------------------

def _pairs(plans):
    return [plans[i:i + WORKERS] for i in range(0, len(plans), WORKERS)]


def hostile_rounds(seed: int, seconds: float, smoke: bool,
                   minimum: int = 1) -> list[list[families.Planned]]:
    """The timed cycles of batch_hostile (one reduced cycle in smoke
    mode)."""
    if smoke:
        return [smoke_hostile(seed, cycle) for cycle in range(minimum)]
    cycles = max(minimum, round(seconds / HOSTILE_CYCLE_SECONDS))
    return [families.hostile_cycle(seed, cycle) for cycle in range(cycles)]


def smoke_hostile(seed: int, cycle: int = 0) -> list[families.Planned]:
    """One request of each failure class (the smoke mode's cycle)."""
    cycle = families.hostile_cycle(seed, cycle)
    pick = {}
    for planned in cycle:
        kind = (planned.family.split("/")[0], planned.known_failure)
        pick.setdefault(kind, planned)
    chosen = list(pick.values())
    hangs = [p for p in chosen if p.known_failure == "watchdog"][:1]
    rest = [p for p in chosen if p.known_failure != "watchdog"]
    return hangs + rest


def run_batch_hostile(seed: int, seconds: float, trace: bool, work: Path,
                      smoke: bool = False) -> dict:
    rounds = hostile_rounds(seed, seconds, smoke, 2 if trace else 1)
    warm = families.draw_fresh(
        random.Random(f"hostile-warm:{seed}"),
        len(families.served_pairs()) if smoke else HOSTILE_WARM, "hw",
        set())
    return _run_batch_workload(
        "batch_hostile", work, warm, rounds, _pairs, trace, smoke,
        watchdog_timeout=HOSTILE_WATCHDOG)


# -- gateway_zipf -------------------------------------------------------------

def _stats_of(port: int) -> dict:
    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/v1/stats", timeout=30) as response:
        return json.loads(response.read())["stats"]


def _zipf_setup(work: Path, name: str, warm, traced_dir=None):
    gateway = httpload.Gateway(work / f"{name}.db", WORKERS, traced_dir)
    try:
        statuses = httpload.warm_pass(
            gateway.port,
            [httpload.payload_of(p.request) for p in warm])
        if any(status != 200 for status in statuses):
            raise RuntimeError(f"set-up pass answered {set(statuses)}")
    except BaseException:
        gateway.close()
        raise
    return gateway, (gateway.started, perf_counter())


def _zipf_drive(gateway, timed, rate):
    """Drive ``timed`` at ``rate``; CPU per request (ms) comes back as
    one value per window."""
    bodies = [httpload.request_bytes(httpload.payload_of(p.request))
              for p in timed]
    stats0 = _stats_of(gateway.port)
    load = httpload.open_loop(
        gateway.port, bodies, rate, windows=ZIPF_WINDOWS,
        on_window=lambda: procs.tree_cpu_seconds(gateway.pid))
    rss = procs.tree_peak_rss_mib(gateway.pid)
    stats = analysis.counter_delta(_stats_of(gateway.port), stats0)
    cpu_per_request = [(cpu1 - cpu0) * 1000 / (i1 - i0)
                       for (i0, cpu0), (i1, cpu1)
                       in zip(load.windows, load.windows[1:])]
    return bodies, load, cpu_per_request, rss, stats


def _lateness_check(lateness: list[float]) -> tuple[bool, float, float]:
    quarter = max(1, len(lateness) // 4)
    first = statistics.fmean(lateness[:quarter])
    last = statistics.fmean(lateness[-quarter:])
    return last - first <= LATENESS_GROWTH_LIMIT, first, last


def run_gateway_zipf(seed: int, seconds: float, trace: bool, work: Path,
                     smoke: bool = False) -> dict:
    count = max(20 * ZIPF_WINDOWS, round(seconds * ZIPF_RATE))
    working_set = 60 if smoke else ZIPF_WORKING_SET
    warm, timed = families.zipf_plan(seed, working_set, count,
                                     ZIPF_FRESH_SHARE)
    if trace:
        return _traced_zipf(warm, timed, work)
    with hostspeed.Sampler() as sampler:
        gateway, setup_spans = _repeat_setup(
            lambda attempt: _zipf_setup(work, f"zipf-{attempt}", warm),
            1 if smoke else SETUP_REPEATS)
        try:
            bodies, load, cpus, rss, stats = _zipf_drive(gateway, timed,
                                                         ZIPF_RATE)
        finally:
            gateway.close()
    steady, first, last = _lateness_check(load.lateness)
    answers = [Answer(p, status, doc) for p, status, doc
               in zip(timed, load.statuses, load.documents)]
    checked = check_answers(answers)
    if not steady:
        checked.correct = False
        checked.problems.append(
            f"load generator backlog: lateness {first * 1000:.1f} ms "
            f"-> {last * 1000:.1f} ms")
    # A request without an answer misses every latency limit.
    latencies = [lat * 1000 if status == 200 else float("inf")
                 for lat, status in zip(load.latencies, load.statuses)]
    width = len(latencies) // ZIPF_WINDOWS
    windows = [latencies[k * width:(k + 1) * width]
               for k in range(ZIPF_WINDOWS)]
    print(f"gateway_zipf: generator lateness first/last quarter "
          f"{first * 1000:.2f}/{last * 1000:.2f} ms, "
          f"max {max(load.lateness) * 1000:.2f} ms")
    # The gateway uses about a third of one vCPU in short bursts: the
    # probes' mean over a 2 s window is a noisy estimate of the speed
    # those bursts saw, their mean over the whole phase a good one.
    timed_factor = sampler.factor([(load.started, load.finished)])
    values = _time_metrics("gateway_zipf", {
        "setup_s": _setup_samples(sampler, setup_spans),
        "throughput_rps": [
            (len(timed) / (load.finished - load.started), 1.0)],
        "cpu_ms_per_request": [(cpu, timed_factor) for cpu in cpus],
    })
    values.update(
        latency_p50_ms=statistics.median(
            analysis.percentile(window, 50) for window in windows),
        latency_p99_ms=statistics.median(
            analysis.percentile(window, 99) for window in windows),
        peak_rss_mb=rss, **_common(checked, len(timed)))
    values["probe.factor"] = sampler.factor(
        setup_spans + [(load.started, load.finished)])
    return _result(checked, len(timed), _end_to_end(values),
                   {"counts": _counts(stats), "outcomes": checked.outcomes,
                    "problems": checked.problems[:20],
                    "printed": _printed(values, UNBOUNDED),
                    "lateness_ms": [first * 1000, last * 1000]})


def _traced_zipf(warm, timed, work: Path) -> dict:
    """Untraced gateway, then a traced one, on the same requests; the
    gateway's own layers are replayed in-process afterwards."""
    span_dir = tracing.span_dir()
    median_latency = []
    for traced in (False, True):
        gateway, _ = _zipf_setup(work, f"zipf-trace-{int(traced)}", warm,
                                 span_dir if traced else None)
        try:
            began = perf_counter()
            bodies, load, _, _, stats = _zipf_drive(gateway, timed,
                                                    ZIPF_RATE)
        finally:
            gateway.close()
        median_latency.append(statistics.median(load.latencies))
    tracing.reset()
    httpload.replay_gateway_layers(bodies, load.documents, load.statuses)
    spans, waves, facet = tracing.collect(span_dir, since=began)
    answers = [Answer(p, status, doc) for p, status, doc
               in zip(timed, load.statuses, load.documents)]
    checked = check_answers(answers)
    values = analysis.per_layer(
        spans, waves, facet, stats, {},
        [doc for doc in load.documents if doc], len(timed), load.statuses,
        sum(load.latencies), None,
        median_latency[1] / median_latency[0] - 1.0,
        statistics.fmean(checked.residual_nodes)
        if checked.residual_nodes else 0.0)
    return _result(checked, len(timed), _per_layer(values))


RUNNERS = {
    "batch_fresh": run_batch_fresh,
    "gateway_zipf": run_gateway_zipf,
    "batch_hostile": run_batch_hostile,
}


def run(workload: str, seed: int, seconds: float, trace: bool,
        work: Path, smoke: bool = False) -> dict:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    if trace:
        (work / "spans").mkdir()
        tracing.install(work / "spans")
    try:
        return RUNNERS[workload](seed, seconds, trace, work, smoke)
    finally:
        sys.stdout.flush()
        shutil.rmtree(work, ignore_errors=True)
