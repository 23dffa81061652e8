"""Unit tests for :class:`repro.store.ArtifactStore`: round trips,
persistence across reopen, the byte cap, and the stats contract."""

from __future__ import annotations

import sqlite3
import sys
import threading

import pytest

from repro.observability import ServiceStats
from repro.store import ArtifactStore, checksum_text, encode_payload


def payload(tag: str, pad: int = 0) -> dict:
    return {"residual": f"(define (f) {tag})", "tag": tag,
            "pad": "x" * pad}


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        store = ArtifactStore(tmp_path / "s.db")
        assert store.put("a", payload("a"))
        assert store.get("a") == payload("a")
        assert store.stats.store_hits == 1
        assert store.stats.store_writes == 1

    def test_miss(self, tmp_path):
        store = ArtifactStore(tmp_path / "s.db")
        assert store.get("absent") is None
        assert store.stats.store_misses == 1
        assert store.stats.store_hits == 0

    def test_overwrite_replaces(self, tmp_path):
        store = ArtifactStore(tmp_path / "s.db")
        store.put("a", payload("old"))
        store.put("a", payload("new"))
        assert store.get("a") == payload("new")
        assert len(store) == 1

    def test_non_string_values_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "s.db")
        rich = {"ints": [1, 2, 3], "nested": {"f": 0.5, "none": None},
                "flags": [True, False]}
        store.put("a", rich)
        assert store.get("a") == rich

    def test_delete(self, tmp_path):
        store = ArtifactStore(tmp_path / "s.db")
        store.put("a", payload("a"))
        assert store.delete("a") is True
        assert store.delete("a") is False
        assert store.get("a") is None

    def test_persists_across_reopen(self, tmp_path):
        path = tmp_path / "s.db"
        with ArtifactStore(path) as store:
            store.put("a", payload("a"))
        with ArtifactStore(path) as reopened:
            assert reopened.get("a") == payload("a")
            assert reopened.stats.store_corrupt == 0

    def test_shared_stats_instance(self, tmp_path):
        stats = ServiceStats()
        store = ArtifactStore(tmp_path / "s.db", stats=stats)
        store.put("a", payload("a"))
        store.get("a")
        assert stats.store_writes == 1
        assert stats.store_hits == 1


class TestByteCap:
    def test_oversized_payload_is_refused(self, tmp_path):
        store = ArtifactStore(tmp_path / "s.db", max_bytes=16)
        assert store.put("a", payload("a", pad=100)) is False
        assert len(store) == 0

    def test_negative_cap_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactStore(tmp_path / "s.db", max_bytes=-1)

    def test_total_bytes_meters_payload_text(self, tmp_path):
        store = ArtifactStore(tmp_path / "s.db")
        store.put("a", payload("a"))
        expected = len(encode_payload(payload("a")).encode("utf-8"))
        assert store.total_bytes() == expected


class TestIntrospection:
    def test_snapshot_shape(self, tmp_path):
        store = ArtifactStore(tmp_path / "s.db", max_bytes=1024)
        store.put("a", payload("a"))
        snapshot = store.snapshot()
        assert set(snapshot) == {"path", "entries", "bytes",
                                 "max_bytes", "quarantined", "kinds"}
        assert snapshot["entries"] == 1
        assert snapshot["kinds"] == {"result": 1}
        assert snapshot["max_bytes"] == 1024
        assert snapshot["bytes"] > 0

    def test_keys_in_lru_order(self, tmp_path):
        store = ArtifactStore(tmp_path / "s.db")
        for tag in "abc":
            store.put(tag, payload(tag))
        store.get("a")          # refresh: a becomes most recent
        assert list(store.keys()) == ["b", "c", "a"]

    def test_contains(self, tmp_path):
        store = ArtifactStore(tmp_path / "s.db")
        store.put("a", payload("a"))
        assert "a" in store
        assert "b" not in store


def on_thread(call):
    """Run ``call`` on a second thread and return what it returned."""
    box: list = []
    thread = threading.Thread(target=lambda: box.append(call()))
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive(), "store call did not return"
    return box[0]


class TestThreads:
    """A store built on one thread serves the others: ``ppe gateway``
    builds its service on the main thread and uses it from the
    submitter's pump thread."""

    def test_get_and_put_from_a_second_thread(self, tmp_path):
        store = ArtifactStore(tmp_path / "s.db")
        store.put("a", payload("a"))
        assert on_thread(lambda: store.get("a")) == payload("a")
        assert on_thread(lambda: store.put("b", payload("b"))) is True
        assert store.get("b") == payload("b")
        assert store.stats.store_corrupt == 0
        assert store.stats.store_errors == 0
        assert list(tmp_path.glob("s.db.corrupt-*")) == []

    def test_threads_share_one_connection_without_interleaving(
            self, tmp_path):
        # Each put is one BEGIN IMMEDIATE..COMMIT on the shared
        # connection; two threads inside it at once would fail with
        # "cannot start a transaction within a transaction".
        store = ArtifactStore(tmp_path / "s.db")
        keys = [f"k{i}" for i in range(6)]
        wrong: list[str] = []

        def hammer(offset: int) -> None:
            for step in range(30):
                key = keys[(offset + step) % len(keys)]
                if step % 2:
                    got = store.get(key)
                    if got is not None and got != payload(key):
                        wrong.append(key)
                elif not store.put(key, payload(key)):
                    wrong.append(f"put {key}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(n,))
                       for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert store.stats.store_errors == 0
        assert store.stats.store_corrupt == 0
        assert sorted(store.keys()) == keys

    def test_programming_error_is_not_damage(self, tmp_path):
        # Misuse of a connection (here one closed under the store)
        # says nothing about the file: a store error and a miss, and
        # the file stays where it is.
        store = ArtifactStore(tmp_path / "s.db")
        store.put("a", payload("a"))
        store._connection().close()
        assert store.get("a") is None
        assert store.put("b", payload("b")) is False
        assert store.stats.store_errors == 2
        assert store.stats.store_corrupt == 0
        assert list(tmp_path.glob("s.db.corrupt-*")) == []
        with sqlite3.connect(tmp_path / "s.db") as conn:
            assert conn.execute(
                "SELECT key FROM artifacts").fetchall() == [("a",)]


def test_row_checksum_binds_the_key():
    """Two keys never share a checksum for the same payload — a
    cross-row payload swap is detectable corruption, not a valid
    read."""
    from repro.store import row_checksum
    text = encode_payload({"k": 1})
    assert row_checksum("a", text) != row_checksum("b", text)
    import hashlib
    assert checksum_text(text) \
        == hashlib.sha256(text.encode()).hexdigest()


def test_cross_row_payload_swap_is_detected(tmp_path):
    import sqlite3
    store = ArtifactStore(tmp_path / "s.db")
    store.put("a", payload("a"))
    store.put("b", payload("b"))
    store.close()
    conn = sqlite3.connect(tmp_path / "s.db")
    (text_a, sum_a), = conn.execute(
        "SELECT payload, checksum FROM artifacts WHERE key='a'")
    conn.execute("UPDATE artifacts SET payload=?, checksum=? "
                 "WHERE key='b'", (text_a, sum_a))
    conn.commit()
    conn.close()
    store = ArtifactStore(tmp_path / "s.db")
    assert store.get("b") is None       # not a's payload
    assert store.stats.store_corrupt == 1
