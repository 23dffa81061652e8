"""Spans around calls into the public functions of each layer.

Nothing under ``src/`` is changed: :func:`install` rebinds the module
attributes through which the service, the workers and the gateway reach
those functions, so every call goes through a timing wrapper.  Pool
members are forked after :func:`install`, so they inherit the wrappers.

A span is ``(id, parent, name, start, end, request_id)``.  ``start`` and
``end`` are ``time.perf_counter()`` readings, which come from the
system-wide monotonic clock on Linux and so compare across processes.
The parent is the enclosing span on the same thread.  Spans are held in
memory; a pool member appends the spans of each request to its own
file under the span directory once the request is done, and the owning
process writes its spans at the end of the run.

Recording is off until :data:`ENABLED` is set.  :func:`install` puts
the flag in shared memory created before any fork, so flipping it in
the parent also turns tracing on in the pool members; a disabled
wrapper costs one check of the flag.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from time import perf_counter

#: The on/off flag in shared memory; created by :func:`install`, before
#: which no wrapper exists to read it.
ENABLED: "multiprocessing.sharedctypes.Synchronized"

_spans: list[tuple] = []
_local = threading.local()
_counter = itertools.count(1)
_span_dir: Path | None = None


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _new_id() -> str:
    return f"{os.getpid()}:{next(_counter)}"


def record(name: str, start: float, end: float,
           request_id: str | None = None, parent: str | None = None) \
        -> None:
    """Record a span whose bounds were observed elsewhere (a future's
    completion, a progress event)."""
    _spans.append((_new_id(), parent, name, start, end, request_id))


class _Span:
    __slots__ = ("name", "request_id", "span_id", "parent", "start")

    def __init__(self, name: str, request_id: str | None) -> None:
        self.name = name
        self.request_id = request_id

    def __enter__(self) -> "_Span":
        stack = _stack()
        self.parent = stack[-1].span_id if stack else None
        if self.request_id is None and stack:
            self.request_id = stack[-1].request_id
        self.span_id = _new_id()
        stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = perf_counter()
        _stack().pop()
        _spans.append((self.span_id, self.parent, self.name, self.start,
                       end, self.request_id))


def span(name: str, request_id: str | None = None) -> _Span:
    return _Span(name, request_id)


def wrap(func, name: str):
    """``func`` with a span around each call while tracing is on."""
    @functools.wraps(func)
    def traced(*args, **kwargs):
        if not ENABLED.value:
            return func(*args, **kwargs)
        with _Span(name, None):
            return func(*args, **kwargs)
    return traced


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module attribute bound to
    ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


# -- pool members ------------------------------------------------------------

_suites: list = []


def _cache_totals() -> tuple[int, int]:
    hits = misses = 0
    for ref in list(_suites):
        suite = ref()
        if suite is None:
            _suites.remove(ref)
            continue
        stats = suite.cache_stats
        hits += stats.dispatch_hits + stats.vector_hits \
            + stats.op_hits + stats.outcome_hits
        misses += stats.dispatch_misses + stats.vector_misses \
            + stats.op_misses + stats.outcome_misses
    return hits, misses


def traced_execute_request(payload):
    """The worker entry point the traced scheduler ships to its pool:
    ``execute_request`` under a ``worker.execute`` span, with the
    request's spans and facet-cache traffic appended to this member's
    span file afterwards."""
    from repro.service import worker
    if not ENABLED.value:
        return worker.execute_request(payload)
    hits0, misses0 = _cache_totals()
    mark = len(_spans)
    with _Span("worker.execute", payload.get("id")):
        outcome = worker.execute_request(payload)
    hits1, misses1 = _cache_totals()
    request_spans = _spans[mark:]
    del _spans[mark:]
    if _span_dir is not None:
        line = json.dumps({"start": request_spans[-1][3],
                           "spans": request_spans,
                           "facet_cache": [hits1 - hits0,
                                           misses1 - misses0]})
        with open(_span_dir / f"spans-{os.getpid()}.jsonl", "a",
                  encoding="utf-8") as handle:
            handle.write(line + "\n")
    return outcome


class TracedPool(ProcessPoolExecutor):
    """The scheduler's pool, with a ``scheduler.dispatch`` span from
    each submit to the moment its future completes."""

    def submit(self, fn, /, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        if ENABLED.value:
            payload = args[0] if args else {}
            request_id = payload.get("id") \
                if isinstance(payload, dict) else None
            stack = _stack()
            parent = stack[-1].span_id if stack else None
            start = perf_counter()
            future.add_done_callback(
                lambda _f: record("scheduler.dispatch", start,
                                  perf_counter(), request_id, parent))
        return future


# -- gateway submit seam -----------------------------------------------------

def _traced_submitter_class():
    from repro.service.submit import AsyncSubmitter

    class TracedSubmitter(AsyncSubmitter):
        """``submit.queue_wait`` from each submit to its ``started``
        event (a dispatch) or, for a hit, to its result; then
        ``submit.wave`` from ``started`` to the result."""

        def submit(self, request, priority=1, progress=None):
            if not ENABLED.value:
                return super().submit(request, priority, progress)
            start = perf_counter()
            marks: dict = {}

            def on_progress(event, req):
                if event == "started" and "started" not in marks:
                    marks["started"] = perf_counter()
                    record("submit.queue_wait", start, marks["started"],
                           request.id)
                if progress is not None:
                    progress(event, req)

            future = super().submit(request, priority, on_progress)

            def on_done(_future):
                now = perf_counter()
                if "started" in marks:
                    record("submit.wave", marks["started"], now,
                           request.id)
                else:
                    record("submit.queue_wait", start, now, request.id)
            future.add_done_callback(on_done)
            return future

    return TracedSubmitter


# -- installation -----------------------------------------------------------

def _wrap_genext_loader(load):
    @functools.wraps(load)
    def traced_load(*args, **kwargs):
        if not ENABLED.value:
            module = load(*args, **kwargs)
        else:
            with _Span("genext.load", None):
                module = load(*args, **kwargs)
        for attr in ("specialize_compiled", "specialize_specs"):
            inner = getattr(module, attr, None)
            if inner is not None:
                setattr(module, attr, wrap(inner, "genext.specialize"))
        return module
    return traced_load


def _wrap_run_batch(run_batch):
    @functools.wraps(run_batch)
    def traced(self, requests, progress=None):
        if not ENABLED.value:
            return run_batch(self, requests, progress)
        with _Span("scheduler.run_batch", None) as wave:
            results = run_batch(self, requests, progress)
        end = perf_counter()
        hits = sum(1 for result in results if result.cached)
        WAVES.append((len(requests), hits, end - wave.start, wave.start))
        return results
    return traced


#: ``(wave size, cache hits in it, seconds, start)`` per ``run_batch``
#: call.
WAVES: list[tuple[int, int, float, float]] = []


def install(span_dir: Path) -> None:
    """Wrap every traced function (idempotent per process)."""
    global _span_dir
    _span_dir = Path(span_dir)
    from importlib import import_module

    import repro.backend
    import repro.genext
    import repro.offline.analysis
    import repro.service.scheduler as scheduler
    import repro.service.worker as worker
    from repro.baselines import simple_pe
    from repro.gateway import server
    from repro.offline import specializer as offline_specializer
    from repro.online import specializer as online_specializer
    from repro.service.cache import ResidualCache
    from repro.service.scheduler import SpecializationService
    from repro.store.store import ArtifactStore

    parser = import_module("repro.lang.parser")
    pretty = import_module("repro.lang.pretty")
    if getattr(scheduler, "execute_request", None) \
            is traced_execute_request:
        return
    global ENABLED
    ENABLED = multiprocessing.RawValue("b", 0)
    # The fallback's engine call, reached only from the scheduler.
    scheduler.specialize_simple = wrap(simple_pe.specialize_simple,
                                       "worker.fallback")
    for original, name in (
            (parser.parse_program, "lang.parse"),
            (pretty.pretty_program, "lang.pretty"),
            (online_specializer.specialize_online, "online.specialize"),
            (offline_specializer.specialize_offline,
             "offline.specialize"),
            (repro.offline.analysis.analyze, "offline.analyze"),
            (simple_pe.specialize_simple, "simple.specialize"),
            (repro.genext.emit_genext, "genext.emit"),
            (repro.backend.compile_program, "backend.compile")):
        _rebind(original, wrap(original, name))
    _rebind(repro.genext.load_genext,
            _wrap_genext_loader(repro.genext.load_genext))

    original_suite = worker.default_suite

    def traced_suite():
        import weakref
        suite = original_suite()
        _suites.append(weakref.ref(suite))
        return suite
    worker.default_suite = traced_suite

    for cls, names in ((ResidualCache, ("get", "put")),
                       (ArtifactStore, ("get", "put"))):
        prefix = "cache" if cls is ResidualCache else "store"
        for attr in names:
            setattr(cls, attr, wrap(getattr(cls, attr),
                                    f"{prefix}.{attr}"))
    SpecializationService.run_batch = _wrap_run_batch(
        SpecializationService.run_batch)
    scheduler.execute_request = traced_execute_request
    scheduler.ProcessPoolExecutor = TracedPool
    server.AsyncSubmitter = _traced_submitter_class()


def dump(path: Path) -> None:
    """Write this process's spans (and wave log) as one JSON document."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"spans": _spans, "waves": WAVES}, handle)


def collect(span_dir: Path, since: float = float("-inf")) \
        -> tuple[list[tuple], list, list[int]]:
    """Every span written under ``span_dir`` plus this process's own,
    less those that started before ``since``; returns ``(spans, waves,
    facet-cache [hits, misses])``."""
    spans = list(_spans)
    waves = list(WAVES)
    facet = [0, 0]
    for path in sorted(Path(span_dir).glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            entry = json.loads(line)
            if entry["start"] < since:
                continue
            spans.extend(tuple(s) for s in entry["spans"])
            facet[0] += entry["facet_cache"][0]
            facet[1] += entry["facet_cache"][1]
    for path in sorted(Path(span_dir).glob("process-*.json")):
        entry = json.loads(path.read_text(encoding="utf-8"))
        spans.extend(tuple(s) for s in entry["spans"])
        waves.extend(tuple(w) for w in entry["waves"])
    return ([s for s in spans if s[3] >= since],
            [w for w in waves if w[3] >= since], facet)


def span_dir() -> Path | None:
    return _span_dir


def reset() -> None:
    _spans.clear()
    WAVES.clear()
