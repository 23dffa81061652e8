"""Worker entry point: one specialization, inside a pool process.

:func:`execute_request` is the only function the scheduler ships to
``concurrent.futures`` workers, so it speaks plain dicts on both sides
(payloads pickle cheaply and identically under fork and spawn).  It
never raises for *program* reasons: parse errors, spec errors and fuel
blowups come back as a ``{"failed": True, ...}`` marker so the
scheduler can distinguish deterministic failures (degrade immediately,
retrying cannot help) from worker crashes (retry with backoff).

A pool member outlives many requests, so it keeps five per-process
tiers that later requests reuse:

* parsed programs by source;
* loaded genext modules with their text, each owning the facet suite
  its walk warms;
* offline facet analyses by input division;
* the facet suites whose operator and restriction memos the engines
  warm: one with its abstract companion for the online, offline and
  genext-fingerprint paths, and the empty suite the simple engine
  runs over;
* compiled residual bodies, in :mod:`repro.backend.emit`.

Every facet suite is bounded by ``_SUITE_MEMO_CAP`` memo entries: past
it, a process suite is replaced by a fresh one, and a cached genext
module is loaded again from its kept text, so its constant cells and
suite start fresh.

Lowering to the compiled backend happens here too, for every engine,
straight off the residual AST: the scheduling thread never parses or
lowers a residual.  Whether a payload asks for an artifact is the
scheduler's ``compile`` breaker's call; the worker only reports how
the attempt went.

Faults come only from the scheduler's FaultPlan.  The scheduler
decides ``worker.execute`` and ships a firing under the payload's
``worker_fault`` key, which no request can produce; it is realized
here: ``crash`` kills the process (raises :class:`WorkerCrash`
inline), ``hang``/``latency`` sleep, and ``error`` raises inside the
failure seam, so the request degrades without retry.
"""

from __future__ import annotations

import functools
import os
from collections import OrderedDict
from time import perf_counter
from typing import Any, Mapping

from repro.backend import compile_program
from repro.baselines.simple_pe import specialize_simple
from repro.engine.errors import classify
from repro.faults import active as _active_injector, install, realize
from repro.facets import FacetSuite, default_suite
from repro.facets.abstract.vector import AbstractSuite
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.lang.program import Program
from repro.offline import analysis as analysis_mod
from repro.offline.specializer import specialize_offline
from repro.online.config import PEConfig
from repro.online.specializer import specialize_online
from repro.service.specs import parse_specs, simple_division


class WorkerCrash(RuntimeError):
    """Raised instead of ``os._exit`` when a crash fault fires in
    inline (``workers=0``) mode, where killing the process would kill
    the caller too.  The scheduler treats it exactly like a pool
    worker's death."""


# -- per-process amortization tiers ----------------------------------------
#
# Worker processes are long-lived (one pool outlasts many requests), so
# the per-program artifacts below amortize across requests without any
# cross-process coordination.  Each request reports what it used in an
# ``outcome["tiers"]`` mapping; the scheduler folds those into
# ``ServiceStats``.

#: Loaded genext modules, ``(store_key, pattern_fp)`` ->
#: ``(module, python text)``, LRU.
_GENEXT_CACHE_CAP = 32
_genext_cache: OrderedDict = OrderedDict()

#: Offline facet analyses, ``(source, division)`` ->
#: ``(suite, analysis)``, LRU, each with the suite it was analyzed
#: with.
_ANALYSIS_MEMO_CAP = 128
_analysis_memo: OrderedDict = OrderedDict()

#: Artifact-store handles by path (the store reopens itself after a
#: fork, so one handle per path is safe in pool workers).
_stores: dict = {}

#: The process's facet suite and its abstract companion, shared by the
#: online engine, the offline engine (pattern, analysis and
#: specialization) and genext's pattern fingerprinting, so each request
#: starts from the product-operator memos of the requests before it.
#: The memos are transparent, so a warm pair gives the results a fresh
#: one would; once they hold more than ``_SUITE_MEMO_CAP`` entries the
#: pair is replaced by a fresh one.  The simple engine's empty suite is
#: kept and replaced the same way, and so is each cached genext
#: module's suite (see :func:`_genext_module`).
_SUITE_MEMO_CAP = 50_000
_suites: tuple[FacetSuite, AbstractSuite] | None = None
_empty_suite: FacetSuite | None = None


@functools.lru_cache(maxsize=64)
def _parse(source: str) -> Program:
    """Parsed programs by source, LRU.  ASTs are frozen dataclasses, so
    every request on one source shares one parse."""
    return parse_program(source)


def _process_suites() -> tuple[FacetSuite, AbstractSuite]:
    """The process's suite pair, built lazily through
    :func:`default_suite` and rebuilt past the memo bound."""
    global _suites
    if _suites is None or (_suites[0].memo_size()
                           + _suites[1].memo_size() > _SUITE_MEMO_CAP):
        suite = default_suite()
        _suites = (suite, AbstractSuite(suite))
    return _suites


def _process_empty_suite() -> FacetSuite:
    """The process's suite without facets, rebuilt past the memo
    bound."""
    global _empty_suite
    if _empty_suite is None \
            or _empty_suite.memo_size() > _SUITE_MEMO_CAP:
        _empty_suite = FacetSuite()
    return _empty_suite


@functools.lru_cache(maxsize=1)
def _wire_facet_names(facets: tuple) -> tuple[str, ...]:
    from repro.genext import facet_name_of
    return tuple(facet_name_of(f) for f in facets)


def _store_for(path: str):
    """Best effort: a store that cannot open is no store (the genext
    engine then runs emit-per-miss, which is still correct)."""
    store = _stores.get(path)
    if store is None and path not in _stores:
        from repro.store import ArtifactStore
        try:
            store = ArtifactStore(path)
        except Exception:  # noqa: BLE001 — store trouble != request failure
            store = None
        _stores[path] = store
    return store


# -- the worker body -------------------------------------------------------

def execute_request(payload: Mapping[str, Any]) -> dict:
    """Run one specialization request; return a plain result dict.

    Deterministic failures return ``{"failed": True, "error": ...}``;
    only infrastructure faults (a dying process) escape this function.
    With ``"backend": "compiled"`` in the payload a successful outcome
    also carries the residual's compiled artifact (see
    :func:`_attach_artifact`).
    """
    started = perf_counter()
    inline = bool(payload.get("inline"))
    plan = payload.get("fault_plan")
    if plan is not None:
        # Install the scheduler's seeded FaultPlan in this process
        # (idempotent by plan digest — pool workers outlive requests).
        install(plan)
    injector = _active_injector()
    mark = len(injector.events) if injector is not None else 0
    try:
        decision = payload.get("worker_fault")
        if decision is not None:
            realize(decision,
                    crash=_inline_crash if inline else _pool_crash)
        result, extra = _specialize(payload)
        outcome = {
            "id": payload.get("id"),
            "engine": payload.get("engine", "online"),
            "residual": pretty_program(result.program),
            "goal_params": list(result.goal_params),
            "stats": result.stats.as_dict(),
            **extra,
        }
    except WorkerCrash:
        raise
    except Exception as error:  # noqa: BLE001 — the seam to the caller
        outcome = {
            "failed": True,
            "error": f"{type(error).__name__}: {error}",
            "category": classify(error),
            "id": payload.get("id"),
            "engine": payload.get("engine", "online"),
            "seconds": perf_counter() - started,
        }
        _attach_fault_events(outcome, injector, mark)
        return outcome
    if payload.get("backend") == "compiled":
        _attach_artifact(outcome, result.program)
    outcome["seconds"] = perf_counter() - started
    _attach_fault_events(outcome, injector, mark)
    return outcome


def _attach_artifact(outcome: dict, program: Program) -> None:
    """Lower the residual AST the engine just built — no pretty-print
    → re-parse round trip — and ship its artifact as
    ``outcome["compiled"]``, with the time spent as
    ``outcome["compile_seconds"]``.  Best effort: a residual the
    backend cannot compile (nested past CPython's parser limits, an
    injected ``backend.compile`` fault) ships without ``compiled``,
    which the scheduler's ``compile`` breaker counts as a failure."""
    started = perf_counter()
    try:
        outcome["compiled"] = compile_program(program).artifact()
    except Exception:  # noqa: BLE001 — the artifact is best-effort
        pass
    outcome["compile_seconds"] = perf_counter() - started


def _inline_crash() -> None:
    raise WorkerCrash("injected crash (fault plan)")


def _pool_crash() -> None:
    os._exit(13)


def _attach_fault_events(outcome: dict, injector, mark: int) -> None:
    """Ship the injections this request triggered back to the
    scheduler (worker processes hold their own injector; the scheduler
    folds the events into ``ServiceStats.faults_injected``)."""
    if injector is not None and len(injector.events) > mark:
        outcome["fault_events"] = injector.events[mark:]


def _specialize(payload: Mapping[str, Any]) -> tuple[Any, dict]:
    """Run the requested engine.  Returns its result (``program``,
    ``goal_params``, ``stats``) and the outcome's extra fields (the
    amortization ``tiers`` the request used)."""
    source = payload["source"]
    specs = list(payload.get("specs", ()))
    config = _decode_config(payload.get("config") or {})
    engine = payload.get("engine", "online")
    tiers: dict[str, int] = {}
    if engine == "simple":
        program = _parse(source)
        division = simple_division(specs)
        result = specialize_simple(program, division, config,
                                   _process_empty_suite())
    elif engine == "online":
        program = _parse(source)
        suite, _ = _process_suites()
        inputs = parse_specs(suite, specs)
        result = specialize_online(program, inputs, suite, config)
    elif engine == "offline":
        suite, inputs, analysis = _offline_prepare(source, specs,
                                                   tiers)
        result = specialize_offline(analysis.program, inputs, suite,
                                    analysis=analysis, config=config)
    elif engine == "genext":
        # Served from an emitted generating extension, amortized per
        # (source, config) across three tiers — per-process module
        # cache, persistent store row, fresh emission.
        module = _genext_module(source, specs,
                                dict(payload.get("config") or {}),
                                payload.get("store_path"), tiers)
        result = module.specialize_specs(specs)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    return result, ({"tiers": tiers} if tiers else {})


def _offline_prepare(source: str, specs: list[str],
                     tiers: dict) -> tuple:
    """The per-worker analysis memo of the ``offline`` engine.

    The facet analysis depends only on the program and the division
    its inputs enter it as (:func:`repro.offline.analysis.
    analysis_input`: a literal is Static of its sort, a facet spec its
    abstract image), so the memo is keyed on that class — every
    literal exponent of ``power`` shares one analysis, and it is the
    analysis an emitted genext of the same specs runs under.  Each
    entry keeps the suite it was analyzed with, which outlives a
    replacement of the process pair.
    """
    suite, abstract_suite = _process_suites()
    inputs = parse_specs(suite, specs)
    pattern = tuple(analysis_mod.analysis_input(abstract_suite, item)
                    for item in inputs)
    key = (source, pattern)
    entry = _analysis_memo.get(key)
    if entry is not None:
        _analysis_memo.move_to_end(key)
        tiers["analysis_memo_hits"] = 1
        cached_suite, analysis = entry
        if cached_suite is not suite:
            # Analyzed before the process pair was replaced: the
            # input vectors come from the suite it was analyzed with.
            inputs = parse_specs(cached_suite, specs)
        return cached_suite, inputs, analysis
    tiers["analysis_memo_misses"] = 1
    analysis = analysis_mod.analyze(_parse(source), list(pattern),
                                    abstract_suite)
    _analysis_memo[key] = (suite, analysis)
    while len(_analysis_memo) > _ANALYSIS_MEMO_CAP:
        _analysis_memo.popitem(last=False)
    return suite, inputs, analysis


def _genext_module(source: str, specs: list[str], wire_config: dict,
                   store_path: str | None, tiers: dict):
    """Resolve the emitted genext module for one request.

    Tier order: per-process LRU (``genext_hits``) → persistent store
    row (``genext_store_hits``; a row whose Python will not load is
    deleted and treated as a miss) → emit from scratch
    (``genext_emits``), write-behind merged into the store row
    (``genext_store_writes``).  The LRU keeps each module's text: a
    module whose suite holds more than ``_SUITE_MEMO_CAP`` memo
    entries is loaded again from it, still a per-process hit.
    """
    import hashlib
    from repro.genext import emit_genext, genext_store_key, load_genext
    from repro.genext.emit import generalized_pattern
    suite, abstract_suite = _process_suites()
    _, _, pattern_fp = generalized_pattern(suite, abstract_suite, specs)
    source_sha = hashlib.sha256(source.encode("utf-8")).hexdigest()
    store_key = genext_store_key(source_sha, wire_config,
                                 _wire_facet_names(suite.facets))
    cache_key = (store_key, pattern_fp)
    entry = _genext_cache.get(cache_key)
    if entry is not None:
        _genext_cache.move_to_end(cache_key)
        tiers["genext_hits"] = 1
        module, text = entry
        if module.runtime.suite.memo_size() > _SUITE_MEMO_CAP:
            # Its suite's memos outgrew the process bound: load the
            # kept text again, so its cells and suite start fresh.
            module = load_genext(text)
            _genext_cache[cache_key] = (module, text)
        return module
    module = None
    store = _store_for(store_path) if store_path else None
    if store is not None:
        row = store.get(store_key)
        if row is not None:
            text = ((row.get("patterns") or {})
                    .get(pattern_fp) or {}).get("python")
            if isinstance(text, str):
                try:
                    module = load_genext(text)
                except Exception:  # noqa: BLE001 — bad row == miss
                    # Checksums cannot catch *semantic* damage (a row
                    # written by an incompatible build); drop it so
                    # the re-emit below replaces it.
                    store.delete(store_key)
                    module = None
                else:
                    tiers["genext_store_hits"] = 1
    if module is None:
        emitted = emit_genext(source, specs, config=wire_config)
        tiers["genext_emits"] = 1
        text = emitted.python_source
        module = load_genext(text)
        if store is not None:
            from repro.genext import GENEXT_PROTOCOL
            row = store.get(store_key)
            patterns = dict((row or {}).get("patterns") or {})
            patterns[pattern_fp] = {"python": text}
            bundle = {"kind": "genext", "version": GENEXT_PROTOCOL,
                      "patterns": patterns}
            if store.put(store_key, bundle, kind="genext"):
                tiers["genext_store_writes"] = 1
    _genext_cache[cache_key] = (module, text)
    while len(_genext_cache) > _GENEXT_CACHE_CAP:
        _genext_cache.popitem(last=False)
    return module


def _decode_config(overrides: Mapping[str, Any]) -> PEConfig:
    from repro.service.results import _decode_config_value
    return PEConfig(**{name: _decode_config_value(name, value)
                       for name, value in overrides.items()})
