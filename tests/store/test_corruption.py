"""Crash/corruption harness for the persistent artifact store.

The contract under test: **no flavour of on-disk damage ever surfaces
as an exception or as wrong data.**  A corrupted entry reads as a miss,
is quarantined, and is counted in ``ServiceStats.store_corrupt``; a
database file SQLite itself rejects is quarantined wholesale and the
store restarts empty.  The property tests simulate the two classic
failure modes — a write killed partway (truncation at a random byte)
and media damage (a random bit flip) — against real stored payloads.
"""

from __future__ import annotations

import json
import sqlite3
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability import ServiceStats
from repro.store import ArtifactStore

from tests.conftest import scaled_examples

#: Payloads shaped like the documents the service stores: a residual
#: plus assorted bookkeeping.
payloads = st.fixed_dictionaries({
    "residual": st.text(min_size=1, max_size=200),
    "goal_params": st.lists(st.text(
        alphabet="abcxyz", min_size=1, max_size=4), max_size=4),
    "seconds": st.floats(allow_nan=False, allow_infinity=False,
                         width=32),
    "attempts": st.integers(min_value=0, max_value=9),
})

entries_strategy = st.dictionaries(
    keys=st.text(alphabet="0123456789abcdef", min_size=8, max_size=8),
    values=payloads, min_size=1, max_size=6)


def populate(path: Path, entries: dict) -> None:
    with ArtifactStore(path) as store:
        for key, payload in entries.items():
            assert store.put(key, payload)
    # Closing the last connection checkpoints the WAL into the main
    # file, so corrupting the main file hits the committed data.


def assert_damage_is_absorbed(path: Path, entries: dict) \
        -> ServiceStats:
    """The harness's core assertion: reopening a (possibly damaged)
    store and reading every key never raises, never returns wrong
    data (the key-bound checksum makes cross-row swaps detectable),
    accounts every lookup as a hit or a miss, survives a full
    ``verify`` scan, and stays writable afterwards.

    Deliberately *not* asserted here: that every lost key implies a
    ``store_corrupt`` count.  SQLite has no page checksums, so damage
    below the row level (say, a bit flip in a b-tree cell count, or a
    truncation to zero bytes that reads as a fresh database) can make
    rows vanish without anything detectable remaining — those read as
    plain misses.  Whenever the damage *is* detectable (checksum
    mismatch, undecodable page, unreadable file) the deterministic
    suites below pin that it is counted and quarantined, never
    raised."""
    stats = ServiceStats()
    with ArtifactStore(path, stats=stats) as store:
        for key, original in entries.items():
            got = store.get(key)    # must never raise
            assert got is None or got == original, \
                f"corruption produced wrong data for {key!r}"
        assert stats.store_hits + stats.store_misses == len(entries)
        # A full verify scan over the damaged file must not raise
        # either, and must report in the documented shape.
        outcome = store.verify()
        assert set(outcome) == {"checked", "corrupt"}
        assert outcome["corrupt"] >= 0
        # The store must stay usable after absorbing the damage.
        assert store.put("post-damage", {"ok": True})
        assert store.get("post-damage") == {"ok": True}
    return stats


class TestKillAtRandomByte:
    @given(entries=entries_strategy,
           cut=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=scaled_examples(60), deadline=None)
    def test_truncation_reads_as_misses_never_raises(self, entries,
                                                     cut):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.db"
            populate(path, entries)
            size = path.stat().st_size
            with open(path, "r+b") as handle:
                handle.truncate(int(size * cut))
            assert_damage_is_absorbed(path, entries)


class TestBitFlip:
    @given(entries=entries_strategy,
           position=st.floats(min_value=0.0, max_value=1.0),
           bit=st.integers(min_value=0, max_value=7))
    @settings(max_examples=scaled_examples(60), deadline=None)
    def test_bit_flip_reads_as_misses_never_raises(self, entries,
                                                   position, bit):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.db"
            populate(path, entries)
            size = path.stat().st_size
            offset = min(int(size * position), size - 1)
            with open(path, "r+b") as handle:
                handle.seek(offset)
                byte = handle.read(1)[0]
                handle.seek(offset)
                handle.write(bytes([byte ^ (1 << bit)]))
            assert_damage_is_absorbed(path, entries)


class TestRowLevelCorruption:
    """Deterministic cases where the damage is *inside* a row, so the
    checksum — not SQLite — is the detector."""

    def _tamper(self, path: Path, sql: str) -> None:
        conn = sqlite3.connect(path)
        conn.execute(sql)
        conn.commit()
        conn.close()

    def test_flipped_payload_is_quarantined_and_counted(self,
                                                        tmp_path):
        path = tmp_path / "s.db"
        populate(path, {"k": {"residual": "(define (f) 1)"}})
        self._tamper(path,
                     "UPDATE artifacts SET payload = 'X' || payload")
        stats = ServiceStats()
        with ArtifactStore(path, stats=stats) as store:
            assert store.get("k") is None
            assert stats.store_corrupt == 1
            assert stats.store_misses == 1
            assert store.quarantined() == 1
            # Quarantined rows never come back.
            assert store.get("k") is None

    def test_tampered_checksum_is_detected(self, tmp_path):
        path = tmp_path / "s.db"
        populate(path, {"k": {"residual": "(define (f) 1)"}})
        self._tamper(path,
                     "UPDATE artifacts SET checksum = 'deadbeef'")
        stats = ServiceStats()
        with ArtifactStore(path, stats=stats) as store:
            assert store.get("k") is None
            assert stats.store_corrupt == 1

    def test_consistent_checksum_over_garbage_fails_decode(
            self, tmp_path):
        """An adversarial row whose checksum matches non-JSON payload
        text still reads as a counted miss (the decode step is the
        second line of defence)."""
        from repro.store import row_checksum
        path = tmp_path / "s.db"
        populate(path, {"k": {"residual": "(define (f) 1)"}})
        garbage = "not json {"
        conn = sqlite3.connect(path)
        conn.execute("UPDATE artifacts SET payload = ?, checksum = ?",
                     (garbage, row_checksum("k", garbage)))
        conn.commit()
        conn.close()
        stats = ServiceStats()
        with ArtifactStore(path, stats=stats) as store:
            assert store.get("k") is None
            assert stats.store_corrupt == 1

    def test_corrupt_rows_do_not_poison_good_ones(self, tmp_path):
        path = tmp_path / "s.db"
        entries = {f"k{i}": {"residual": f"(define (f) {i})"}
                   for i in range(4)}
        populate(path, entries)
        self._tamper(path, "UPDATE artifacts SET checksum = 'bad' "
                           "WHERE key IN ('k1', 'k3')")
        stats = ServiceStats()
        with ArtifactStore(path, stats=stats) as store:
            assert store.get("k0") == entries["k0"]
            assert store.get("k2") == entries["k2"]
            assert store.get("k1") is None
            assert store.get("k3") is None
            assert stats.store_corrupt == 2
            assert stats.store_hits == 2
            assert stats.store_misses == 2


class TestFileLevelCorruption:
    def test_empty_file_restarts_clean(self, tmp_path):
        path = tmp_path / "s.db"
        populate(path, {"k": {"residual": "r"}})
        path.write_bytes(b"")
        with ArtifactStore(path) as store:
            # SQLite treats a zero-byte file as a fresh database: the
            # data is gone but nothing raises and writes work.
            assert store.get("k") is None
            assert store.put("k2", {"ok": 1})

    def test_overwritten_header_quarantines_the_file(self, tmp_path):
        path = tmp_path / "s.db"
        populate(path, {"k": {"residual": "r"}})
        with open(path, "r+b") as handle:
            handle.write(b"this is not a sqlite database at all")
        stats = ServiceStats()
        with ArtifactStore(path, stats=stats) as store:
            assert stats.store_corrupt == 1
            assert store.get("k") is None
            assert store.put("k", {"residual": "r"})
        # The damaged file was preserved for inspection.
        sidecars = list(tmp_path.glob("s.db.corrupt-*"))
        assert len(sidecars) == 1

    def test_flipped_schema_text_quarantines_the_file(self, tmp_path):
        """A flipped high bit inside page one's schema SQL makes SQLite
        hand back undecodable text while the store opens — a
        ``UnicodeDecodeError``, not a ``DatabaseError``.  Found by the
        bit-flip property above: one entry, bit 7 at offset 3360 of
        the 28 KiB file, the ``T`` of ``CREATE TABLE quarantine``
        (located by content here, so the case survives a change of
        page layout)."""
        path = tmp_path / "s.db"
        entries = {"00000000": {"residual": "0", "goal_params": [],
                                "seconds": 0.0, "attempts": 0}}
        populate(path, entries)
        offset = path.read_bytes().index(b"CREATE TABLE quarantine") \
            + len("CREATE ")
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)[0]
            handle.seek(offset)
            handle.write(bytes([byte ^ 0x80]))
        stats = assert_damage_is_absorbed(path, entries)
        assert stats.store_corrupt == 1
        assert len(list(tmp_path.glob("s.db.corrupt-*"))) == 1

    def test_write_that_finds_damage_still_lands(self, tmp_path):
        """A flipped bit that every read and ``verify`` step over but
        the next write trips on ("database disk image is malformed"):
        the store quarantines and rebuilds the file, and the write
        that found the damage must still land on the rebuilt one.
        Found by the bit-flip property above: five entries, bit 1 at
        position 0.5705219970481975 (byte 16358 of the 28 KiB
        file)."""
        path = tmp_path / "s.db"
        entries = {key: {"residual": "0", "goal_params": [],
                         "seconds": 0.0, "attempts": 0}
                   for key in ("00000000", "00000001", "00000002",
                               "00000010", "00000100")}
        populate(path, entries)
        size = path.stat().st_size
        offset = min(int(size * 0.5705219970481975), size - 1)
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)[0]
            handle.seek(offset)
            handle.write(bytes([byte ^ (1 << 1)]))
        stats = assert_damage_is_absorbed(path, entries)
        assert stats.store_corrupt == 1
        assert len(list(tmp_path.glob("s.db.corrupt-*"))) == 1

    def test_quarantine_sidecars_do_not_collide(self, tmp_path):
        path = tmp_path / "s.db"
        for _ in range(2):
            populate(path, {"k": {"residual": "r"}})
            with open(path, "r+b") as handle:
                handle.write(b"garbage garbage garbage garbage!")
            with ArtifactStore(path) as store:
                assert store.get("k") is None
        assert len(list(tmp_path.glob("s.db.corrupt-*"))) == 2


def test_service_payloads_round_trip_through_json(tmp_path):
    """The store's JSON canonicalization keeps service documents
    byte-stable: encode → store → read → encode is a fixed point."""
    from repro.store import encode_payload
    document = {"residual": "(define (f n) (* n 2))",
                "goal_params": ["n"], "engine": "online",
                "stats": {"facet_evaluations": 12}}
    with ArtifactStore(tmp_path / "s.db") as store:
        store.put("k", document)
        got = store.get("k")
    assert json.loads(encode_payload(got)) == document
    assert encode_payload(got) == encode_payload(document)
