"""One store transaction per batch.

:meth:`ArtifactStore.put_many` writes a batch of rows in one
transaction, and the service writes each ``run_batch`` call's results
with it before the call returns.  These tests pin that a batch leaves
exactly what one ``put`` per row would (keys, payload texts, LRU order,
counters), byte cap included; that a lock or damage error during the
transaction commits no row of the batch and is counted as the store
documents it; and that ``run_batch`` makes one store write, which a
fresh store opened afterwards reads back whole.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.faults import FaultPlan, install, uninstall
from repro.service import SpecRequest, SpecializationService
from repro.store import ArtifactStore, encode_payload
from repro.store import store as store_module

from tests.store.test_eviction import sized_payload


def table_image(path) -> list[tuple[str, str]]:
    """Every live row's key and payload text, least recently used
    first: what a batch must leave byte for byte."""
    conn = sqlite3.connect(path)
    try:
        return conn.execute(
            "SELECT key, payload FROM artifacts ORDER BY seq").fetchall()
    finally:
        conn.close()


def _counters(store: ArtifactStore) -> tuple[int, int, int]:
    stats = store.stats
    return stats.store_writes, stats.store_evictions, stats.store_errors


#: ``(cap, rows already stored, the batch)``; sizes in bytes.
SCENARIOS = {
    "uncapped": (None, [("a", 100), ("b", 100)],
                 [("c", 100), ("a", 120), ("d", 90)]),
    "evicts older rows and part of the batch": (
        350, [("a", 100), ("b", 100), ("c", 100)],
        [("d", 100), ("e", 100), ("f", 100), ("g", 100)]),
    "mixed sizes": (400, [("a", 150), ("b", 100)],
                    [("c", 200), ("d", 60), ("e", 150), ("f", 90)]),
    "a repeated key and an oversized row": (
        300, [("a", 100), ("b", 100)],
        [("c", 100), ("huge", 500), ("a", 80), ("c", 110)]),
}


class TestBatchEqualsSequentialPuts:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_same_rows_texts_and_order(self, tmp_path, scenario):
        cap, before, batch = SCENARIOS[scenario]
        paths = [tmp_path / "batch.db", tmp_path / "sequential.db"]
        stores = [ArtifactStore(path, max_bytes=cap) for path in paths]
        for store in stores:
            for key, size in before:
                assert store.put(key, sized_payload(key, size))
            store.get(before[0][0])         # refresh the oldest row
        rows = [(key, sized_payload(f"{key}{size}", size))
                for key, size in batch]
        batched, sequential = stores
        written = batched.put_many(rows)
        committed = [sequential.put(key, payload) for key, payload in rows]
        assert written == sum(committed)
        assert table_image(paths[0]) == table_image(paths[1])
        assert list(batched.keys()) == list(sequential.keys())
        assert _counters(batched) == _counters(sequential)
        if cap is not None:
            assert batched.total_bytes() <= cap
        for store in stores:
            store.close()

    def test_payloads_may_be_callables_encoded_in_the_transaction(
            self, tmp_path):
        calls = []

        def later(tag):
            def payload():
                calls.append(tag)
                return {"tag": tag}
            return payload

        with ArtifactStore(tmp_path / "s.db") as store:
            assert store.put_many([("x", later("x")),
                                   ("y", {"tag": "y"})]) == 2
            assert calls == ["x"]
            assert [text for _, text in table_image(tmp_path / "s.db")] \
                == [encode_payload({"tag": "x"}),
                    encode_payload({"tag": "y"})]

    def test_an_empty_batch_writes_nothing(self, tmp_path):
        with ArtifactStore(tmp_path / "s.db") as store:
            assert store.put_many([]) == 0
            assert _counters(store) == (0, 0, 0)


@pytest.fixture
def plan():
    """Install a fault plan for one test."""
    def installing(seams):
        install(FaultPlan.from_dict({"seed": 3, "seams": seams}))
    yield installing
    uninstall()


ROWS = [(f"k{index}", {"index": index}) for index in range(5)]


class TestFailedBatchCommitsNothing:
    def test_locked_throughout_writes_no_row(self, tmp_path, plan,
                                             monkeypatch):
        monkeypatch.setattr(store_module, "_RETRY_SLEEP", 0.0)
        with ArtifactStore(tmp_path / "s.db") as store:
            store.put("old", {"index": -1})
            # The eviction seam fires after every row is upserted.
            plan({"store.evict": {"kinds": ["error"], "every": 1}})
            store.max_bytes = 10_000
            assert store.put_many(ROWS) == 0
            assert list(store.keys()) == ["old"]
            # One locked-database error per attempt, as for a put.
            assert store.stats.store_errors \
                == store_module._WRITE_RETRIES + 1
            assert store.stats.store_writes == 1

    def test_a_lock_that_clears_retries_the_whole_batch(
            self, tmp_path, plan, monkeypatch):
        monkeypatch.setattr(store_module, "_RETRY_SLEEP", 0.0)
        with ArtifactStore(tmp_path / "s.db", max_bytes=10_000) as store:
            plan({"store.evict": {"kinds": ["error"], "at": [1]},
                  "store.write": {"kinds": ["error"], "at": [2]}})
            assert store.put_many(ROWS) == len(ROWS)
            assert list(store.keys()) == [key for key, _ in ROWS]
            assert store.stats.store_errors == 2
            assert store.stats.store_writes == len(ROWS)

    def test_a_real_lock_is_retried_then_given_up(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setattr(store_module, "_RETRY_SLEEP", 0.0)
        path = tmp_path / "s.db"
        with ArtifactStore(path, busy_timeout=0.01) as store:
            holder = sqlite3.connect(path, isolation_level=None)
            holder.execute("BEGIN IMMEDIATE")
            try:
                assert store.put_many(ROWS) == 0
            finally:
                holder.execute("ROLLBACK")
                holder.close()
            assert len(store) == 0
            assert store.stats.store_errors \
                == store_module._WRITE_RETRIES + 1
            assert store.stats.store_corrupt == 0

    @pytest.mark.parametrize("failures", [1, 2])
    def test_damage_mid_batch(self, tmp_path, failures):
        """A ``DatabaseError`` after some rows were upserted: the file
        is quarantined and rebuilt, and the batch is written once more
        on the rebuilt file.  Damage that persists there writes no
        row."""
        raised = []

        def damaged():
            if len(raised) < failures:
                raised.append(1)
                raise sqlite3.DatabaseError(
                    "database disk image is malformed")
            return {"index": 99}

        rows = ROWS[:3] + [("bad", damaged)] + ROWS[3:]
        path = tmp_path / "s.db"
        with ArtifactStore(path) as store:
            store.put("old", {"index": -1})
            written = store.put_many(rows)
            assert store.stats.store_corrupt == failures
            assert len(list(tmp_path.glob("s.db.corrupt-*"))) == failures
            assert store.stats.store_errors == 0
            if failures == 1:
                # The rebuilt file holds the whole batch, and only it.
                assert written == len(rows)
                assert list(store.keys()) == [key for key, _ in rows]
            else:
                assert written == 0
                assert len(store) == 0

    def test_an_exception_of_the_caller_rolls_back_and_propagates(
            self, tmp_path):
        def broken():
            raise KeyError("not a store problem")

        with ArtifactStore(tmp_path / "s.db") as store:
            with pytest.raises(KeyError):
                store.put_many(ROWS[:2] + [("bad", broken)])
            assert len(store) == 0
            # The connection is usable: the transaction was closed.
            assert store.put_many(ROWS) == len(ROWS)


def _requests(count: int) -> list[SpecRequest]:
    return [SpecRequest.create(
        f"(define (f x y) (+ (* x {tag}) y))", ["2", "dyn"],
        id=f"r{tag}") for tag in range(count)]


class TestServiceWritesOncePerBatch:
    @pytest.mark.parametrize("workers", [0, 1])
    def test_run_batch_makes_one_write_before_it_returns(
            self, tmp_path, workers, monkeypatch):
        path = tmp_path / "s.db"
        calls = []
        with SpecializationService(workers=workers,
                                   store_path=path) as service:
            real = service.store.put_many

            def counting(rows, *args, **kwargs):
                calls.append(len(rows))
                return real(rows, *args, **kwargs)

            monkeypatch.setattr(service.store, "put_many", counting)
            requests = _requests(6)
            results = service.run_batch(requests)
            assert calls == [len(requests)]
            assert service.stats.store_writes == len(requests)
            # Before close: a fresh store sees every row, each the
            # canonical text of the result the caller holds.
            with ArtifactStore(path) as fresh:
                assert len(fresh) == len(requests)
                for request, result in zip(requests, results):
                    assert fresh.get(request.fingerprint()) \
                        == json.loads(encode_payload(result.to_dict()))
            assert dict(table_image(path)) == {
                request.fingerprint(): encode_payload(result.to_dict())
                for request, result in zip(requests, results)}
            # All hits: nothing left to write.
            service.run_batch(requests)
            assert calls == [len(requests)]
            assert service.breakers["store"].failures == 0

    def test_the_breaker_counts_one_outcome_per_write(self, tmp_path,
                                                      plan, monkeypatch):
        monkeypatch.setattr(store_module, "_RETRY_SLEEP", 0.0)
        with SpecializationService(workers=0, store_path=tmp_path / "s.db",
                                   breaker_threshold=2) as service:
            plan({"store.write": {"kinds": ["error"], "every": 1}})
            service.run_batch(_requests(5))
            breaker = service.breakers["store"]
            assert breaker.failures == 1
            assert service.stats.store_errors \
                == store_module._WRITE_RETRIES + 1
            assert service.stats.store_writes == 0
            assert len(service.store) == 0
