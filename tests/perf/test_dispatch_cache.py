"""Perf-regression smoke tests for the facet-suite caching layer.

Two invariants guard the hot-path overhaul:

* **Transparency** — with caching on and off, specialization of the
  generator corpus produces byte-identical residual programs and
  identical semantic counters; so does one warm suite reused across
  the whole corpus, as a service worker reuses its suite across
  requests, and so does the facet analysis with the
  :class:`~repro.facets.abstract.AbstractSuite` memo on and off.
* **Effectiveness** — on that same corpus the primitive-dispatch cache
  must keep a hit rate above 50%; a drop means the cache key or the
  suite's reuse pattern regressed and the speedup claim no longer
  holds.
"""

from __future__ import annotations

from repro.facets import (
    FacetSuite, IntervalFacet, ParityFacet, SignFacet, VectorSizeFacet)
from repro.facets.abstract import AbstractSuite
from repro.facets.library.interval import Interval
from repro.lang.errors import PEError
from repro.lang.pretty import pretty_program
from repro.lang.values import INT, is_value
from repro.offline.analysis import analyze
from repro.offline.specializer import specialize_offline
from repro.online import PEConfig, specialize_online
from repro.workloads.generator import GenConfig, generate_program

GEN = GenConfig(functions=3, max_depth=3)
PE_CONFIG = PEConfig(unfold_fuel=12, max_variants=4, fuel=2_000_000)
#: Offline specialization of some corpus programs runs for seconds; a
#: step budget keeps it short (its degradations are deterministic).
OFFLINE_CONFIG = PEConfig(unfold_fuel=12, max_variants=4,
                          max_steps=5_000)
SEEDS = range(0, 40)
POOL = [3, -2, 5, 1]


def _suite(caching: bool) -> FacetSuite:
    return FacetSuite([SignFacet(), ParityFacet(), IntervalFacet(),
                       VectorSizeFacet()], caching=caching)


def _inputs(suite: FacetSuite, arity: int, mask: int) -> list:
    """Alternate static literals and facet-carrying dynamic inputs."""
    inputs = []
    for i in range(arity):
        value = POOL[i]
        if mask & (1 << i):
            inputs.append(suite.input(
                INT,
                sign=suite.facet_named("sign").abstract(value),
                parity=suite.facet_named("parity").abstract(value),
                interval=Interval(value - 1, value + 1)))
        else:
            inputs.append(value)
    return inputs


def _specialize_corpus(caching: bool, shared: bool = False):
    """(residual texts, semantic stats, merged cache stats) per seed;
    ``shared`` specializes every program with one suite."""
    residuals: dict[tuple[int, int], str] = {}
    counters: dict[tuple[int, int], dict] = {}
    suites: list[FacetSuite] = [_suite(caching)] if shared else []
    for seed in SEEDS:
        program = generate_program(seed, GEN)
        arity = program.main.arity
        for mask in (0b0101, 0b1111):
            if not shared:
                suites.append(_suite(caching))
            suite = suites[-1]
            try:
                result = specialize_online(
                    program, _inputs(suite, arity, mask), suite,
                    PE_CONFIG)
            except PEError:
                residuals[seed, mask] = "<blowup>"
                counters[seed, mask] = {}
                continue
            residuals[seed, mask] = pretty_program(result.program)
            stats = result.stats.as_dict()
            stats.pop("phase_seconds", None)
            counters[seed, mask] = stats
    return residuals, counters, suites


def test_caching_is_transparent_and_effective():
    on_residuals, on_counters, on_suites = _specialize_corpus(True)
    off_residuals, off_counters, _ = _specialize_corpus(False)

    # Transparency: byte-identical residuals, identical counters.
    assert on_residuals == off_residuals
    assert on_counters == off_counters

    # Effectiveness: aggregate dispatch hit rate above 50%.
    hits = sum(s.cache_stats.dispatch_hits for s in on_suites)
    misses = sum(s.cache_stats.dispatch_misses for s in on_suites)
    assert hits + misses > 0
    rate = hits / (hits + misses)
    assert rate > 0.5, f"dispatch hit rate {rate:.2%} fell below 50%"


def test_one_warm_suite_matches_a_fresh_suite_per_program():
    warm_residuals, warm_counters, (suite,) = _specialize_corpus(
        True, shared=True)
    fresh_residuals, fresh_counters, _ = _specialize_corpus(True)
    assert warm_residuals == fresh_residuals
    assert warm_counters == fresh_counters
    assert suite.memo_size() > 0


def _analyze_corpus(programs: dict, abstract: AbstractSuite | None,
                    caching: bool):
    """Facet signatures, annotations (by node identity, so compare
    runs over the same ``programs``) and offline residuals per seed,
    with ``abstract`` shared across programs (``None``: a fresh
    abstract suite per program)."""
    signatures, annotations, residuals = {}, {}, {}
    for seed, program in programs.items():
        for mask in (0b0101, 0b1111):
            pair = abstract or AbstractSuite(_suite(caching))
            suite = pair.online
            inputs = _inputs(suite, program.main.arity, mask)
            pattern = [pair.abstract_of_online(
                suite.const_vector(v) if is_value(v) else v)
                for v in inputs]
            try:
                analysis = analyze(program, pattern, pair)
                result = specialize_offline(program, inputs, suite,
                                            analysis=analysis,
                                            config=OFFLINE_CONFIG)
            except PEError as error:
                residuals[seed, mask] = f"<{type(error).__name__}>"
                continue
            signatures[seed, mask] = analysis.signatures
            annotations[seed, mask] = analysis.annotations
            residuals[seed, mask] = pretty_program(result.program)
    return signatures, annotations, residuals


def test_abstract_memo_is_transparent():
    programs = {seed: generate_program(seed, GEN) for seed in range(20)}
    warm = AbstractSuite(_suite(True))
    memo_on = _analyze_corpus(programs, warm, caching=True)
    memo_off = _analyze_corpus(programs, None, caching=False)
    assert memo_on == memo_off
    assert len(memo_on[0]) > len(programs)
    assert warm.memo_size() > 0
    # The memo follows the online suite's switch.
    assert AbstractSuite(_suite(False)).caching is False


def test_caching_off_suites_report_no_cache_traffic():
    suite = _suite(False)
    program = generate_program(7, GEN)
    try:
        specialize_online(program,
                          _inputs(suite, program.main.arity, 0b0101),
                          suite, PE_CONFIG)
    except PEError:
        pass
    stats = suite.cache_stats
    assert stats.dispatch_hits == 0
    assert stats.vector_hits == 0
    assert stats.outcome_hits == 0
