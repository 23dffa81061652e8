"""The ``genext`` artifact kind under the store's crash/corruption
contract.

Emitted genext bundles live in the same SQLite store as residual
payloads, under ``kind="genext"``.  The store contract does not bend
for the new kind: corrupt rows are quarantined and read as misses,
never raised, and the worker's answer to any store-tier failure is to
re-emit — the store is a cache of something the worker can always
recompute.  ``ppe store verify`` walks genext rows like any others.
"""

from __future__ import annotations

import sqlite3
from contextlib import closing

import pytest

from repro.cli import main
from repro.genext import GENEXT_PROTOCOL
from repro.observability import ServiceStats
from repro.service import worker
from repro.service.worker import execute_request
from repro.store import ArtifactStore
from repro.workloads import WORKLOADS

SOURCE = WORKLOADS["power"].source


def _payload(store_path, specs=("dyn", "10")):
    return {"source": SOURCE, "specs": list(specs),
            "engine": "genext", "config": {},
            "store_path": str(store_path)}


def _drop_memory_tier() -> None:
    """Force the next request through the store tier (keep the open
    store handle — only the module cache is dropped)."""
    worker._genext_cache.clear()


class TestRoundTrip:
    def test_put_get_and_kind_accounting(self, tmp_path):
        with ArtifactStore(tmp_path / "s.db") as store:
            store.put("k1", {"kind": "genext", "patterns": {}},
                      kind="genext")
            store.put("k2", {"residual": "(define (f) 1)"})
            assert store.get("k1") == {"kind": "genext",
                                       "patterns": {}}
            assert store.kinds() == {"genext": 1, "result": 1}
            assert store.snapshot()["kinds"] == {"genext": 1,
                                                 "result": 1}

    def test_unknown_kind_is_rejected(self, tmp_path):
        with ArtifactStore(tmp_path / "s.db") as store:
            with pytest.raises(ValueError):
                store.put("k", {}, kind="sandwich")

    def test_worker_persists_and_reloads(self, tmp_path):
        path = tmp_path / "s.db"
        first = execute_request(_payload(path))
        assert not first.get("failed")
        assert first["tiers"] == {"genext_emits": 1,
                                  "genext_store_writes": 1}
        with ArtifactStore(path) as store:
            assert store.kinds() == {"genext": 1}
        _drop_memory_tier()
        second = execute_request(_payload(path))
        assert second["tiers"] == {"genext_store_hits": 1}
        assert second["residual"] == first["residual"]


class TestCorruption:
    def _tamper(self, path, sql: str) -> None:
        conn = sqlite3.connect(path)
        conn.execute(sql)
        conn.commit()
        conn.close()

    def test_bad_row_quarantines_misses_and_reemits(self, tmp_path):
        path = tmp_path / "s.db"
        baseline = execute_request(_payload(path))
        # Flip the payload under the checksum: the store must
        # quarantine the row, the worker must re-emit — never raise.
        for store in worker._stores.values():
            if store is not None:
                store.close()
        worker._stores.clear()
        worker._genext_cache.clear()
        self._tamper(path,
                     "UPDATE artifacts SET payload = 'X' || payload")
        outcome = execute_request(_payload(path))
        assert not outcome.get("failed")
        assert outcome["residual"] == baseline["residual"]
        assert outcome["tiers"]["genext_emits"] == 1
        assert outcome["tiers"]["genext_store_writes"] == 1
        with ArtifactStore(path) as store:
            assert store.quarantined() >= 1

    def test_semantically_damaged_python_is_dropped(self, tmp_path):
        """A row that passes its checksum but holds broken Python (a
        version skew, a partial writer) is deleted and re-emitted —
        checksums cannot catch semantic damage, the loader must."""
        path = tmp_path / "s.db"
        first = execute_request(_payload(path))
        key = None
        with ArtifactStore(path) as store:
            rows = sqlite3.connect(path).execute(
                "SELECT key FROM artifacts").fetchall()
            key = rows[0][0]
            bundle = store.get(key)
            fp = next(iter(bundle["patterns"]))
            bundle["patterns"][fp]["python"] = "def ("  # SyntaxError
            store.put(key, bundle, kind="genext")
        _drop_memory_tier()
        outcome = execute_request(_payload(path))
        assert not outcome.get("failed")
        assert outcome["residual"] == first["residual"]
        assert outcome["tiers"]["genext_emits"] == 1

    def test_previous_protocol_row_is_reemitted(self, tmp_path):
        """A row emitted under the previous protocol (whose call sites
        do not yield) fails to bind to this runtime: it is dropped and
        re-emitted, and the answer does not change."""
        path = tmp_path / "s.db"
        first = execute_request(_payload(path))
        with closing(sqlite3.connect(path)) as conn:
            (key,), = conn.execute("SELECT key FROM artifacts")
        with ArtifactStore(path) as store:
            bundle = store.get(key)
            pattern = next(iter(bundle["patterns"].values()))
            current = f"'protocol': {GENEXT_PROTOCOL},"
            assert current in pattern["python"]
            pattern["python"] = pattern["python"].replace(
                current, f"'protocol': {GENEXT_PROTOCOL - 1},")
            store.put(key, bundle, kind="genext")
        _drop_memory_tier()
        outcome = execute_request(_payload(path))
        assert not outcome.get("failed")
        assert outcome["residual"] == first["residual"]
        assert outcome["tiers"] == {"genext_emits": 1,
                                    "genext_store_writes": 1}

    def test_store_verify_covers_genext_rows(self, tmp_path, capsys):
        path = tmp_path / "s.db"
        execute_request(_payload(path))
        for store in worker._stores.values():
            if store is not None:
                store.close()
        worker._stores.clear()
        assert main(["store", "verify",
                     "--store-path", str(path)]) == 0
        self._tamper(path,
                     "UPDATE artifacts SET checksum = 'deadbeef'")
        assert main(["store", "verify",
                     "--store-path", str(path)]) == 1

    def test_unwritable_store_still_answers(self, tmp_path):
        """A store path that cannot be opened degrades to the
        in-memory tier: the request still gets its residual."""
        path = tmp_path / "not-a-dir"
        path.write_text("file, not a directory")
        outcome = execute_request(
            _payload(path / "s.db"))
        assert not outcome.get("failed")
        assert outcome["tiers"]["genext_emits"] == 1


class TestMissingStats:
    def test_store_stats_flow_through_worker(self, tmp_path):
        """The worker's store handle reports into per-process
        ServiceStats-compatible counters without raising."""
        path = tmp_path / "s.db"
        execute_request(_payload(path))
        stats = ServiceStats()
        with ArtifactStore(path, stats=stats) as store:
            assert store.get("missing") is None
        assert stats.store_misses == 1
