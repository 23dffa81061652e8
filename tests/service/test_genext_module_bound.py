"""A cached genext module's facet suite is bounded like the process's.

Each module a pool member keeps loaded owns a
:class:`~repro.facets.FacetSuite` whose memos every request served from
it warms.  Once they hold more than the worker's ``_SUITE_MEMO_CAP``
entries, the next request reloads the module from its kept text, so
its constant cells and suite start fresh.  The reload is still a
per-process hit, and no output changes.
"""

from __future__ import annotations

from repro.service import SpecRequest, worker
from repro.workloads import WORKLOADS

#: The shipped bound on the suite's memo tables.
_CAP = worker._SUITE_MEMO_CAP

#: A bound the module's suite passes within a few requests.
_LOW = 60


def _payloads() -> list[dict]:
    """Fresh genext requests of one program and one division: every
    literal exponent shares the module, and each adds new constants."""
    return [dict(SpecRequest.create(WORKLOADS["power"].source,
                                    ["dyn", str(n)], engine="genext",
                                    id=str(n)).to_payload(), inline=True)
            for n in range(2, 42)]


def _serve(monkeypatch, cap: int) -> tuple[list[dict], list, list[int]]:
    """Serve the payloads through cold worker tiers with the suite
    bound at ``cap``.  Returns the comparable outcomes, the distinct
    module objects that served them and the module suite's memo size
    after each request."""
    monkeypatch.setattr(worker, "_SUITE_MEMO_CAP", cap)
    monkeypatch.setattr(worker, "_suites", None)
    worker._analysis_memo.clear()
    worker._genext_cache.clear()
    outcomes, modules, sizes = [], [], []
    try:
        for payload in _payloads():
            outcome = worker.execute_request(payload)
            (module, _), = worker._genext_cache.values()
            if module not in modules:
                modules.append(module)
            sizes.append(module.runtime.suite.memo_size())
            outcome.pop("seconds")
            outcome["stats"].pop("phase_seconds", None)
            outcomes.append(outcome)
    finally:
        worker._analysis_memo.clear()
        worker._genext_cache.clear()
    return outcomes, modules, sizes


def test_module_reloads_past_the_bound_and_answers_alike(monkeypatch):
    warm, warm_modules, warm_sizes = _serve(monkeypatch, _CAP)
    bounded, modules, sizes = _serve(monkeypatch, _LOW)
    assert not any(outcome.get("failed") for outcome in warm)
    # Unbounded, one module serves every request and its memo grows.
    assert len(warm_modules) == 1
    assert warm_sizes == sorted(warm_sizes) and warm_sizes[-1] > 2 * _LOW
    # Bounded, the module is reloaded each time its memo passes the
    # bound, so the memo never holds much more than the bound.
    assert len(modules) > 2
    growth = max(later - earlier
                 for earlier, later in zip(warm_sizes, warm_sizes[1:]))
    assert max(sizes) <= _LOW + max(growth, warm_sizes[0])
    # Residuals, statistics and tier counters are unchanged: a reload
    # from the kept text is still a per-process hit.
    assert bounded == warm
    assert [outcome["tiers"] for outcome in bounded[1:]] \
        == [{"genext_hits": 1}] * (len(bounded) - 1)
