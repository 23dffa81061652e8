"""The disk-backed, content-addressed artifact store.

:class:`ArtifactStore` persists JSON payloads (the service's
:meth:`~repro.service.results.SpecResult.to_dict` documents, compiled
artifacts included) keyed on request fingerprints, in one SQLite file
shared across processes and restarts.  Its contract mirrors the rest of
the serving stack: **a store problem is never the caller's problem.**

* Reads are corruption-safe.  Every row carries a SHA-256 checksum of
  its payload; a row that fails the checksum — or will not decode as
  JSON — is quarantined (moved to the ``quarantine`` table, best
  effort), counted in ``ServiceStats.store_corrupt``, and reported as
  a plain miss.  Damage below the row level (a truncated or bit-flipped
  database file that SQLite itself rejects) quarantines the whole file
  to a ``.corrupt-<n>`` sidecar and restarts empty — again a miss,
  never an exception.
* Writes are atomic per batch.  ``put_many`` writes a batch of rows
  in a single ``BEGIN IMMEDIATE`` transaction (one upsert per row,
  one eviction, one commit), and ``put`` is its one-row case; WAL
  journaling makes the commit all-or-nothing under crashes, and a
  failed write rolls back every row of its batch and reports that
  none was written.  The service writes each ``run_batch``'s results
  this way, so a batch costs one commit, not one per result.
* Eviction is LRU by a store-global access sequence under a byte cap:
  when a write pushes the payload total past ``max_bytes``, the
  least-recently-used rows go first, inside the same transaction; a
  batch's own rows go last, oldest first, so a batch leaves the rows
  (and the LRU order) one ``put`` per row would.
* Concurrency across processes is delegated to SQLite: WAL readers
  never block, writers queue on ``busy_timeout`` with a bounded retry
  on top, and every connection is per-process (a fork is detected by
  PID and reopens).  Within a process, every thread shares the one
  connection under a lock the store owns, so a store built on one
  thread serves another (``ppe gateway`` builds its service on the
  main thread and uses it from the submitter's pump thread).  A
  ``ProgrammingError`` is misuse of a connection, not damage to the
  file, and never quarantines it.

The store speaks plain dicts so it has no opinion about what it holds;
the service layer (:mod:`repro.service.scheduler`) does the
``SpecResult`` round-trip.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.faults import fault_payload, fault_point
from repro.observability.service_stats import ServiceStats
from repro.store import schema

#: Seconds SQLite itself waits on a locked database before raising.
DEFAULT_BUSY_TIMEOUT = 10.0

#: A row's payload for :meth:`ArtifactStore.put_many`: the mapping, or
#: a callable returning it.
Row = Mapping[str, Any] | Callable[[], Mapping[str, Any]]


def _injected_locked(message: str) -> sqlite3.OperationalError:
    """The exception the store's fault seams raise for the ``error``
    kind: a locked-database error, so injection exercises the real
    contention machinery (bounded retries, ``store_errors``, degrade
    to miss) rather than an artificial code path."""
    return sqlite3.OperationalError(f"{message}: database is locked")

#: Locked-database retries on top of the busy timeout (each waits
#: ``_RETRY_SLEEP`` before trying again).
_WRITE_RETRIES = 3
_RETRY_SLEEP = 0.02


def checksum_text(payload_text: str) -> str:
    """SHA-256 hex of a serialized payload."""
    return hashlib.sha256(payload_text.encode("utf-8")).hexdigest()


def row_checksum(key: str, payload_text: str) -> str:
    """The per-row checksum: SHA-256 over ``key NUL payload``.  Binding
    the key in means a damaged b-tree can never serve one key's payload
    under another key as valid — cross-row swaps fail verification just
    like in-place damage."""
    blob = key.encode("utf-8") + b"\x00" + payload_text.encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def encode_payload(payload: Mapping[str, Any]) -> str:
    """Canonical JSON (sorted keys) so identical payloads are
    byte-identical on disk regardless of dict insertion order."""
    return json.dumps(payload, sort_keys=True)


def _serialized(method):
    """Run a store method holding the store's lock.  The threads of
    a process share its one connection, and a transaction must not
    interleave with another thread's statements."""
    @functools.wraps(method)
    def serialized(self: "ArtifactStore", *args: Any, **kwargs: Any):
        with self._process_lock():
            return method(self, *args, **kwargs)
    return serialized


class ArtifactStore:
    """One SQLite-backed artifact store; see module docstring."""

    def __init__(self, path: str | Path,
                 max_bytes: int | None = None,
                 stats: ServiceStats | None = None,
                 busy_timeout: float = DEFAULT_BUSY_TIMEOUT) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(
                f"max_bytes must be >= 0 or None, got {max_bytes}")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.stats = stats if stats is not None else ServiceStats()
        self.busy_timeout = busy_timeout
        self._conn: sqlite3.Connection | None = None
        self._pid: int | None = None
        self._lock = threading.RLock()
        self._lock_pid = os.getpid()
        # Open eagerly so a corrupted file is quarantined up front and
        # path problems (unwritable directory) surface at construction
        # — the one place a raise is the right answer.
        self._connection()

    # -- connection lifecycle ------------------------------------------
    def _process_lock(self) -> threading.RLock:
        """The lock over this process's connection.  A forked child
        gets a fresh one: the parent's may have been held, at the
        fork, by a thread the child does not have."""
        if self._lock_pid != os.getpid():
            self._lock = threading.RLock()
            self._lock_pid = os.getpid()
        return self._lock

    def _connection(self) -> sqlite3.Connection:
        """The per-process connection, reopened after a fork.  Any
        thread may use it while holding :meth:`_process_lock`."""
        if self._conn is not None and self._pid == os.getpid():
            return self._conn
        if self._conn is not None:
            # Forked child: the inherited handle must not be used (or
            # closed — that would checkpoint under the parent).  Drop
            # the reference and open our own.
            self._conn = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            self._conn = self._open()
        except (sqlite3.DatabaseError, UnicodeDecodeError):
            # The file is not a database SQLite will open (truncated
            # header, foreign schema version, flipped bytes in page
            # one — a flipped high bit in the schema text surfaces as
            # a decode error): quarantine it and start empty.
            self._quarantine_file("unreadable database file")
            self._conn = self._open()
        self._pid = os.getpid()
        return self._conn

    def _open(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.path, timeout=self.busy_timeout, isolation_level=None,
            check_same_thread=False)
        try:
            for pragma in schema.PRAGMAS:
                conn.execute(pragma)
            conn.execute(
                f"PRAGMA busy_timeout={int(self.busy_timeout * 1000)}")
            conn.execute("BEGIN IMMEDIATE")
            for ddl in schema.CREATE_TABLES:
                conn.execute(ddl)
            conn.execute(schema.SET_VERSION,
                         (str(schema.SCHEMA_VERSION),))
            row = conn.execute(schema.GET_VERSION).fetchone()
            conn.execute("COMMIT")
            if row is None or row[0] != str(schema.SCHEMA_VERSION):
                conn.close()
                raise sqlite3.DatabaseError(
                    f"schema version {row[0] if row else None!r} != "
                    f"{schema.SCHEMA_VERSION}")
        except BaseException:
            conn.close()
            raise
        return conn

    def _quarantine_file(self, reason: str) -> None:
        """Move the damaged database (and its WAL/SHM sidecars) aside
        and count one corruption event.  Never raises."""
        if self._conn is not None:
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
            self._conn = None
        self.stats.store_corrupt += 1
        for index in range(1000):
            target = self.path.with_name(
                f"{self.path.name}.corrupt-{index}")
            if not target.exists():
                break
        try:
            os.replace(self.path, target)
        except OSError:
            # Last resort: we cannot preserve the evidence, but the
            # store must come back — drop the file.
            try:
                self.path.unlink(missing_ok=True)
            except OSError:
                pass
        for suffix in ("-wal", "-shm"):
            sidecar = self.path.with_name(self.path.name + suffix)
            try:
                sidecar.unlink(missing_ok=True)
            except OSError:
                pass

    def _reset_after_corruption(self, reason: str) -> None:
        """A live connection reported ``DatabaseError`` mid-operation:
        the file is damaged below the row level.  Quarantine and
        reopen empty; the caller turns the operation into a miss."""
        self._quarantine_file(reason)
        try:
            self._conn = self._open()
            self._pid = os.getpid()
        except sqlite3.Error:
            self._conn = None

    @_serialized
    def close(self) -> None:
        if self._conn is not None and self._pid == os.getpid():
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
        self._conn = None

    def __enter__(self) -> "ArtifactStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- reads ---------------------------------------------------------
    @_serialized
    def get(self, key: str) -> dict | None:
        """Look up a payload; ``None`` on miss, lock trouble, or any
        flavour of corruption.  Never raises."""
        try:
            fault_point("store.read", key=key, error=_injected_locked)
            row = self._connection().execute(
                schema.SELECT_ROW, (key,)).fetchone()
        except sqlite3.DatabaseError as error:
            if _is_damage(error):
                self._reset_after_corruption(str(error))
            else:
                self.stats.store_errors += 1
            self.stats.store_misses += 1
            return None
        except sqlite3.Error:
            self.stats.store_errors += 1
            self.stats.store_misses += 1
            return None
        if row is None:
            self.stats.store_misses += 1
            return None
        payload_text, claimed = row
        if isinstance(payload_text, str):
            # Simulated disk damage between write and read; the
            # key-bound checksum below catches it (quarantine + miss).
            payload_text = fault_payload("store.read.payload",
                                         payload_text, key=key)
        payload = self._decode_row(key, payload_text, claimed)
        if payload is None:
            self.stats.store_misses += 1
            return None
        self._touch(key)
        self.stats.store_hits += 1
        return payload

    def _decode_row(self, key: str, payload_text: object,
                    claimed: object) -> dict | None:
        """Checksum + decode; quarantines and counts a bad row."""
        if isinstance(payload_text, str) \
                and row_checksum(key, payload_text) == claimed:
            try:
                payload = json.loads(payload_text)
            except ValueError:
                payload = None
            if isinstance(payload, dict):
                return payload
        self._quarantine_row(key, payload_text, claimed,
                             "checksum/decode failure")
        return None

    def _quarantine_row(self, key: str, payload_text: object,
                        claimed: object, reason: str) -> None:
        self.stats.store_corrupt += 1
        try:
            conn = self._connection()
            conn.execute("BEGIN IMMEDIATE")
            conn.execute(schema.QUARANTINE_ROW,
                         (key, str(payload_text), str(claimed),
                          reason, time.time()))
            conn.execute(schema.DELETE, (key,))
            conn.execute("COMMIT")
        except sqlite3.Error:
            self._rollback()

    def _touch(self, key: str) -> None:
        """Refresh recency on a hit; fire-and-forget (a lost touch
        costs LRU accuracy, not correctness)."""
        try:
            conn = self._connection()
            conn.execute("BEGIN IMMEDIATE")
            conn.execute(schema.TOUCH, (time.time(), key))
            conn.execute("COMMIT")
        except sqlite3.Error:
            self._rollback()

    # -- writes --------------------------------------------------------
    def put(self, key: str, payload: Mapping[str, Any],
            kind: str = "result") -> bool:
        """Upsert one payload: :meth:`put_many` of one row.  ``False``
        (never an exception) when the write could not be committed or
        the payload alone exceeds the cap."""
        return self.put_many([(key, payload)], kind) == 1

    @_serialized
    def put_many(self, rows: Sequence[tuple[str, Row]],
                 kind: str = "result") -> int:
        """Upsert ``rows`` in one transaction: in row order, with
        consecutive access sequence numbers, then one eviction of LRU
        rows past the byte cap, the newest row going last.  The rows
        that survive, and their LRU order, are what one :meth:`put`
        per row would leave.  A row's payload is a mapping or a
        callable returning one, encoded inside the transaction, so a
        caller need not hold a batch of encoded documents.  Returns
        how many rows were written: 0 (never an exception) when the
        transaction could not be committed; a payload that alone
        exceeds the cap is skipped.  Lock retries and damage handling
        cover the whole transaction.  What a payload callable raises
        rolls the transaction back and reaches the caller, as an
        unencodable payload does.  ``kind`` labels the rows for
        reporting (``result`` or ``genext``); reads are kind-blind."""
        if kind not in schema.KINDS:
            raise ValueError(
                f"unknown artifact kind {kind!r}; expected one of "
                f"{schema.KINDS}")
        if not rows:
            return 0
        rebuilt = False
        for attempt in range(_WRITE_RETRIES + 1):
            try:
                written = self._write_once(rows, kind)
            except sqlite3.DatabaseError as error:
                if not _is_damage(error):
                    self.stats.store_errors += 1
                    if _is_locked(error) and attempt < _WRITE_RETRIES:
                        time.sleep(_RETRY_SLEEP * (attempt + 1))
                        continue
                    return 0
                self._reset_after_corruption(str(error))
                if rebuilt:
                    return 0
                # The write that found the damage still belongs in
                # the store: retry it once on the rebuilt file.
                rebuilt = True
                continue
            except sqlite3.Error:
                self.stats.store_errors += 1
                return 0
            self.stats.store_writes += written
            return written
        return 0

    def _write_once(self, rows: Sequence[tuple[str, Row]],
                    kind: str) -> int:
        """One attempt at the :meth:`put_many` transaction; rolls back
        whatever it raises."""
        try:
            conn = self._connection()
            conn.execute("BEGIN IMMEDIATE")
            fault_point("store.write", key=rows[0][0],
                        error=_injected_locked)
            first = seq = conn.execute(schema.NEXT_SEQ).fetchone()[0]
            now = time.time()
            for key, payload in rows:
                payload_text = encode_payload(
                    payload() if callable(payload) else payload)
                size = len(payload_text.encode("utf-8"))
                if self.max_bytes is not None and size > self.max_bytes:
                    continue
                conn.execute(schema.UPSERT,
                             (key, payload_text,
                              row_checksum(key, payload_text),
                              kind, size, seq, now, now))
                seq += 1
                newest = key
            if seq > first:
                self._evict_over_cap(conn, keep=newest)
            conn.execute("COMMIT")
        except BaseException:
            self._rollback()
            raise
        return seq - first

    def _evict_over_cap(self, conn: sqlite3.Connection,
                        keep: str | None = None) -> int:
        """Inside an open transaction: delete LRU rows until the
        payload total fits ``max_bytes``.  The just-written ``keep``
        key goes last — only if eviction alone cannot make room."""
        if self.max_bytes is None:
            return 0
        fault_point("store.evict", error=_injected_locked)
        total = conn.execute(schema.TOTAL_BYTES).fetchone()[0]
        if total <= self.max_bytes:
            return 0
        evicted = 0
        deferred: tuple[str, int] | None = None
        for key, size in conn.execute(schema.LRU_ROWS).fetchall():
            if total <= self.max_bytes:
                break
            if key == keep:
                deferred = (key, size)
                continue
            conn.execute(schema.DELETE, (key,))
            total -= size
            evicted += 1
        if total > self.max_bytes and deferred is not None:
            conn.execute(schema.DELETE, (deferred[0],))
            evicted += 1
        self.stats.store_evictions += evicted
        return evicted

    @_serialized
    def delete(self, key: str) -> bool:
        try:
            conn = self._connection()
            conn.execute("BEGIN IMMEDIATE")
            cursor = conn.execute(schema.DELETE, (key,))
            conn.execute("COMMIT")
            return cursor.rowcount > 0
        except sqlite3.Error:
            self._rollback()
            self.stats.store_errors += 1
            return False

    def _rollback(self) -> None:
        try:
            if self._conn is not None:
                self._conn.execute("ROLLBACK")
        except sqlite3.Error:
            pass

    # -- maintenance ---------------------------------------------------
    @_serialized
    def gc(self, max_bytes: int | None = None,
           max_quarantine: int | None = None) -> dict:
        """Enforce a byte cap now (the store's own by default), prune
        the quarantine table down to its ``max_quarantine`` most
        recent rows, and report what went.  Used by ``ppe store gc``.
        Before this grew a quarantine bound, every corrupt row ever
        seen stayed on disk forever — gc never touched that table."""
        cap = self.max_bytes if max_bytes is None else max_bytes
        before = self.total_bytes()
        evicted = 0
        if cap is not None:
            try:
                conn = self._connection()
                conn.execute("BEGIN IMMEDIATE")
                saved = self.max_bytes
                self.max_bytes = cap
                try:
                    # gc has no freshly-written row to protect.
                    evicted = self._evict_over_cap(conn, keep=None)
                finally:
                    self.max_bytes = saved
                conn.execute("COMMIT")
            except sqlite3.DatabaseError as error:
                self._rollback()
                if _is_damage(error):
                    self._reset_after_corruption(str(error))
                else:
                    self.stats.store_errors += 1
            except sqlite3.Error:
                self._rollback()
                self.stats.store_errors += 1
        pruned = 0
        if max_quarantine is not None:
            pruned = self.prune_quarantine(max_quarantine)
        after = self.total_bytes()
        return {"evicted": evicted, "bytes_before": before,
                "bytes_after": after,
                "freed_bytes": max(before - after, 0),
                "entries": len(self),
                "quarantine_pruned": pruned,
                "quarantined": self.quarantined()}

    @_serialized
    def prune_quarantine(self, max_rows: int) -> int:
        """Drop all but the ``max_rows`` most recently quarantined
        rows; returns how many went.  Best effort like every other
        store operation — a locked or damaged database prunes
        nothing and counts a ``store_error``."""
        if max_rows < 0:
            raise ValueError(
                f"max_rows must be >= 0, got {max_rows}")
        try:
            conn = self._connection()
            conn.execute("BEGIN IMMEDIATE")
            cursor = conn.execute(schema.PRUNE_QUARANTINE, (max_rows,))
            conn.execute("COMMIT")
            return max(cursor.rowcount, 0)
        except sqlite3.DatabaseError as error:
            self._rollback()
            if _is_damage(error):
                self._reset_after_corruption(str(error))
            else:
                self.stats.store_errors += 1
            return 0
        except sqlite3.Error:
            self._rollback()
            self.stats.store_errors += 1
            return 0

    @_serialized
    def verify(self) -> dict:
        """Checksum every row, quarantining failures; report
        ``{"checked": n, "corrupt": k}``.  Used by
        ``ppe store verify``."""
        checked = 0
        bad: list[tuple[str, object, object]] = []
        try:
            rows = self._connection().execute(
                schema.ALL_ROWS).fetchall()
        except sqlite3.DatabaseError as error:
            if not _is_damage(error):
                self.stats.store_errors += 1
                return {"checked": 0, "corrupt": 0}
            self._reset_after_corruption(str(error))
            return {"checked": 0, "corrupt": 1}
        except sqlite3.Error:
            self.stats.store_errors += 1
            return {"checked": 0, "corrupt": 0}
        for key, payload_text, claimed in rows:
            checked += 1
            ok = isinstance(payload_text, str) \
                and row_checksum(key, payload_text) == claimed
            if ok:
                try:
                    ok = isinstance(json.loads(payload_text), dict)
                except ValueError:
                    ok = False
            if not ok:
                bad.append((key, payload_text, claimed))
        for key, payload_text, claimed in bad:
            self._quarantine_row(key, payload_text, claimed,
                                 "verify: checksum/decode failure")
        return {"checked": checked, "corrupt": len(bad)}

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        return self._scalar(schema.COUNT_ROWS, 0)

    @_serialized
    def __contains__(self, key: str) -> bool:
        try:
            row = self._connection().execute(
                schema.SELECT_ROW, (key,)).fetchone()
        except sqlite3.Error:
            return False
        return row is not None

    @_serialized
    def keys(self) -> Iterator[str]:
        """Live keys, least-recently-used first."""
        try:
            rows = self._connection().execute(
                schema.ALL_KEYS).fetchall()
        except sqlite3.Error:
            return iter(())
        return iter([key for (key,) in rows])

    def total_bytes(self) -> int:
        return self._scalar(schema.TOTAL_BYTES, 0)

    def quarantined(self) -> int:
        return self._scalar(schema.COUNT_QUARANTINED, 0)

    @_serialized
    def _scalar(self, sql: str, default: int) -> int:
        try:
            row = self._connection().execute(sql).fetchone()
        except sqlite3.Error:
            return default
        return default if row is None else row[0]

    @_serialized
    def kinds(self) -> dict[str, int]:
        """Live row counts per artifact kind (absent kinds omitted)."""
        try:
            rows = self._connection().execute(
                schema.COUNT_BY_KIND).fetchall()
        except sqlite3.Error:
            return {}
        return {kind: count for kind, count in rows}

    @_serialized
    def snapshot(self) -> dict:
        """JSON-ready description for ``ppe store stats``."""
        return {
            "path": str(self.path),
            "entries": len(self),
            "bytes": self.total_bytes(),
            "max_bytes": self.max_bytes,
            "quarantined": self.quarantined(),
            "kinds": self.kinds(),
        }


def _is_locked(error: sqlite3.Error) -> bool:
    """A contention error (retry/skip) as opposed to corruption
    (quarantine and rebuild)."""
    message = str(error).lower()
    return isinstance(error, sqlite3.OperationalError) \
        and ("locked" in message or "busy" in message)


def _is_damage(error: sqlite3.DatabaseError) -> bool:
    """Damage to the file (quarantine and rebuild), as opposed to
    contention or a ``ProgrammingError``: misuse of a connection (a
    closed handle, one used from a thread it refuses) says nothing
    about the file, so it counts as a store error and misses."""
    return not (_is_locked(error)
                or isinstance(error, sqlite3.ProgrammingError))
