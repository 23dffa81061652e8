"""The worker's process facet suites are transparent.

A pool member keeps one :class:`~repro.facets.FacetSuite` and its
:class:`~repro.facets.abstract.AbstractSuite`, and one empty suite for
the simple engine, for every request it serves, so each request starts
from the memos of the ones before it.  That warm state may change no
output: a mixed, shuffled sequence of requests through one process
gives, request by request, the residuals, statistics and tier counters
of a fresh suite per request — also when the suites are replaced
part-way through the sequence.
"""

from __future__ import annotations

import random

import pytest

from repro.service import SpecRequest, worker
from repro.workloads import WORKLOADS

#: Signed zeros must not leak from one request into the next through
#: the suite's interned constants.
_ZEROS = "(define (f x y) (if (< y 0) (* x -1.0) (+ x y)))"

#: (source, specs, engine): every engine, repeated abstract patterns
#: (analysis-memo and genext-module hits) and distinct literals.
_ROWS = [
    (WORKLOADS["inner_product"].source, ["size=3", "size=3"], "online"),
    (WORKLOADS["inner_product"].source, ["size=3", "size=3"], "offline"),
    (WORKLOADS["inner_product"].source, ["size=4", "dyn"], "genext"),
    (WORKLOADS["inner_product"].source,
     ["#(1.0 0.0 -2.0)", "#(-0.0 3.0 0.0)"], "online"),
    (WORKLOADS["power"].source, ["dyn", "10"], "online"),
    (WORKLOADS["power"].source, ["dyn", "10"], "offline"),
    (WORKLOADS["power"].source, ["dyn", "7"], "offline"),
    (WORKLOADS["power"].source, ["dyn", "7"], "genext"),
    (WORKLOADS["power"].source, ["dyn", "6"], "simple"),
    (WORKLOADS["sign_pipeline"].source, ["sign=pos", "dyn"], "online"),
    (WORKLOADS["sign_pipeline"].source, ["sign=neg", "dyn"], "offline"),
    (WORKLOADS["clamped_lookup"].source,
     ["dyn", "interval=2:3", "1", "4"], "online"),
    (WORKLOADS["clamped_lookup"].source,
     ["dyn", "interval=2:3", "1", "4"], "offline"),
    (WORKLOADS["alternating_sum"].source, ["size=4"], "offline"),
    (WORKLOADS["poly_eval"].source, ["size=3", "dyn"], "genext"),
    (WORKLOADS["gcd"].source, ["48", "18"], "online"),
    (WORKLOADS["gcd"].source, ["48", "dyn"], "offline"),
    (WORKLOADS["gcd"].source, ["40", "dyn"], "offline"),
    (WORKLOADS["gcd"].source, ["48", "18"], "simple"),
    (WORKLOADS["gcd"].source, ["48", "dyn"], "simple"),
    (WORKLOADS["power"].source, ["dyn", "10"], "simple"),
    (WORKLOADS["inner_product"].source,
     ["#(1.0 0.0 -2.0)", "#(-0.0 3.0 0.0)"], "simple"),
    (WORKLOADS["binary_search"].source, ["size=7", "dyn"], "online"),
    (WORKLOADS["mini_vm"].source,
     ["#(3.0 1.0 7.0 2.0 -4.0 4.0 0.0)", "dyn"], "offline"),
    (WORKLOADS["matvec"].source,
     ["#(1.0 -2.0 0.0 3.0)", "size=2", "size=2"], "online"),
    (WORKLOADS["ho_pipeline"].source, ["#(1.0 -2.0 5.0)", "dyn"],
     "online"),
    (_ZEROS, ["0.0", "dyn"], "online"),
    (_ZEROS, ["-0.0", "dyn"], "online"),
    (_ZEROS, ["-0.0", "dyn"], "offline"),
    (_ZEROS, ["0.0", "dyn"], "offline"),
    (_ZEROS, ["0.0", "dyn"], "simple"),
    (_ZEROS, ["-0.0", "dyn"], "simple"),
]


#: The shipped bound on the suite's memo tables.
_CAP = worker._SUITE_MEMO_CAP


def _sequence(seed: int) -> list[dict]:
    """Every row twice, shuffled: second runs meet warm tiers."""
    requests = [SpecRequest.create(source, specs, engine=engine,
                                   id=f"{index}-{copy}")
                for index, (source, specs, engine) in enumerate(_ROWS)
                for copy in range(2)]
    random.Random(seed).shuffle(requests)
    return [dict(request.to_payload(), inline=True)
            for request in requests]


def _serve(payloads: list[dict], monkeypatch,
           cap: int) -> tuple[list[dict], list]:
    """Run ``payloads`` through cold worker tiers with the suite bound
    at ``cap`` entries.  Returns the comparable part of each outcome
    and the suites that served them."""
    monkeypatch.setattr(worker, "_SUITE_MEMO_CAP", cap)
    monkeypatch.setattr(worker, "_suites", None)
    monkeypatch.setattr(worker, "_empty_suite", None)
    worker._analysis_memo.clear()
    worker._genext_cache.clear()
    suites = []
    outcomes = []
    try:
        for payload in payloads:
            outcome = worker.execute_request(payload)
            suite = worker._empty_suite \
                if payload["engine"] == "simple" else worker._suites[0]
            if suite not in suites:
                suites.append(suite)
            outcome.pop("seconds")
            outcome.get("stats", {}).pop("phase_seconds", None)
            outcomes.append(outcome)
    finally:
        worker._analysis_memo.clear()
        worker._genext_cache.clear()
    return outcomes, suites


@pytest.mark.parametrize("seed", [0, 1])
def test_warm_suite_matches_a_fresh_suite_per_request(seed, monkeypatch):
    payloads = _sequence(seed)
    # A negative bound replaces the suite before every request: the
    # fresh-suite-per-request reference.
    fresh, fresh_suites = _serve(payloads, monkeypatch, cap=-1)
    warm, warm_suites = _serve(payloads, monkeypatch, cap=_CAP)
    assert not any(outcome.get("failed") for outcome in warm)
    assert len(fresh_suites) == len(payloads)
    # The default suite and the simple engine's empty one.
    assert len(warm_suites) == 2
    assert warm == fresh


def test_replacing_the_suite_mid_sequence_changes_nothing(monkeypatch):
    payloads = _sequence(2)
    warm, _ = _serve(payloads, monkeypatch, cap=_CAP)
    replaced, suites = _serve(payloads, monkeypatch, cap=100)
    assert 2 < len(suites) < len(payloads)
    # The simple engine's empty suite was replaced too.
    assert sum(not suite.facets for suite in suites) > 1
    # Residuals, stats and the per-request tier counters (analysis
    # memo and genext module hits) all agree.
    assert replaced == warm
    assert any(outcome.get("tiers", {}).get("analysis_memo_hits")
               for outcome in replaced)


@pytest.mark.parametrize("zeros", [("0.0", "-0.0"), ("-0.0", "0.0")])
def test_signed_zeros_stay_apart_in_one_process(zeros, monkeypatch):
    """Python's ``0.0 == -0.0``; the suite's interned constants must
    still keep them apart, whichever comes first."""
    payloads = [
        dict(SpecRequest.create(_ZEROS, [zero, "dyn"]).to_payload(),
             inline=True)
        for zero in zeros]
    warm, _ = _serve(payloads, monkeypatch, cap=_CAP)
    for payload, outcome in zip(payloads, warm):
        assert _serve([payload], monkeypatch, cap=_CAP)[0] == [outcome]
    assert warm[0]["residual"] != warm[1]["residual"]
