"""The gateway over a persistent store, over real sockets.

The gateway builds its service on one thread and uses it from the
submitter's pump thread (and, for LRU hits, from the event loop), so
these tests pin that the store tier works across threads and that
answering LRU hits at submit leaves every counter where the wave path
put it.
"""

from __future__ import annotations

from repro.service import SpecializationService
from repro.service.results import SpecRequest

from tests.gateway.conftest import GCD, HttpClient, http, \
    specialize_payload


def test_gateway_warm_starts_on_a_filled_store(gateway_factory,
                                               tmp_path):
    path = tmp_path / "s.db"
    with SpecializationService(workers=0, store_path=path) as seeding:
        seeding.run_one(SpecRequest.create(GCD, ["48", "18"], id="s"))
    service = SpecializationService(workers=0, store_path=path)
    try:
        harness = gateway_factory(service=service)
        response = http(harness.port, "POST", "/v1/specialize",
                        specialize_payload(id="warm"))
        assert response.status == 200
        assert response.json["cached"] is True
        store = http(harness.port, "GET",
                     "/v1/stats").json["stats"]["store"]
        assert store["hits"] == 1
        assert store["corrupt"] == 0
        assert list(tmp_path.glob("s.db.corrupt-*")) == []
    finally:
        service.close()


def test_counters_of_a_mix_of_lru_hits_store_hits_and_fresh_work(
        gateway_factory, tmp_path):
    # With room for two results in the LRU, the sequence below gives
    # LRU hits (A, C, A), store hits of results the LRU evicted (B, A)
    # and fresh work (A, B, C, D).  The expected counters are those
    # the wave path gives, where every request crossed the pump; only
    # store.corrupt differs from it, because there the pump's first
    # store read hit the wrong-thread connection and quarantined the
    # file (its rebuilt copy then served the rest).
    specs = {"A": ("48", "18"), "B": ("50", "15"), "C": ("36", "60"),
             "D": ("21", "14")}
    order = "ABACBCDAA"
    service = SpecializationService(workers=0, cache_capacity=2,
                                    store_path=tmp_path / "s.db")
    client = None
    try:
        harness = gateway_factory(service=service)
        client = HttpClient(harness.port)
        cached = []
        for index, name in enumerate(order):
            response = client.request(
                "POST", "/v1/specialize",
                specialize_payload(specs=specs[name], id=f"{index}"))
            assert response.status == 200
            cached.append(response.json["cached"])
        stats = client.request("GET", "/v1/stats").json["stats"]
    finally:
        if client is not None:
            client.close()
        service.close()
    assert cached == [False, False, True, False, True, True, False,
                      True, True]
    assert (stats["submitted"], stats["completed"]) == (9, 9)
    assert {name: stats["cache"][name]
            for name in ("hits", "misses", "evictions")} \
        == {"hits": 3, "misses": 6, "evictions": 4}
    assert {name: stats["store"][name]
            for name in ("hits", "misses", "writes", "evictions",
                         "corrupt", "errors")} \
        == {"hits": 2, "misses": 4, "writes": 4, "evictions": 0,
            "corrupt": 0, "errors": 0}
