"""Multi-process hammering of one store file.

WAL mode plus ``BEGIN IMMEDIATE`` transactions and a generous busy
timeout are what stand between N concurrent services and a
``database is locked`` exception; these tests drive a reader/writer
mix from several real processes against a single database and assert

* no exception of any kind escapes a store operation,
* no lost updates: every key ends up with exactly the deterministic
  payload its writers wrote (writers of the same key write the same
  bytes, so any interleaving must converge),
* the final table is byte-identical (keys, payload text, checksums)
  to a single-process run of the same operations,
* no corruption events were recorded — contention is not corruption.
"""

from __future__ import annotations

import multiprocessing
import sqlite3
import threading
from concurrent.futures import ProcessPoolExecutor

from repro.store import ArtifactStore

WORKERS = 4
OPS_PER_WORKER = 40
KEYS = [f"key-{i:02d}" for i in range(8)]


def deterministic_payload(key: str) -> dict:
    """Same key → same payload, in every process."""
    return {"residual": f"(define (f) {key!r})",
            "goal_params": [key], "weight": len(key) * 7}


def hammer(args: tuple[str, int]) -> dict:
    """One worker process: interleaved puts and gets over the shared
    key space.  Returns its observations for the parent to assert on
    (asserting in the child would just surface as a pickled
    exception)."""
    path, worker_id = args
    wrong: list[str] = []
    raised: list[str] = []
    store = ArtifactStore(path, busy_timeout=60.0)
    for step in range(OPS_PER_WORKER):
        key = KEYS[(worker_id + step) % len(KEYS)]
        try:
            if step % 3 == 2:
                got = store.get(key)
                if got is not None \
                        and got != deterministic_payload(key):
                    wrong.append(key)
            else:
                store.put(key, deterministic_payload(key))
        except Exception as error:  # noqa: BLE001 — the contract
            raised.append(f"{type(error).__name__}: {error}")
    snapshot = {"wrong": wrong, "raised": raised,
                "errors": store.stats.store_errors,
                "corrupt": store.stats.store_corrupt}
    store.close()
    return snapshot


def table_image(path) -> dict[str, tuple[str, str]]:
    """Key → (payload text, checksum): the byte-level content that
    must match a single-process run."""
    conn = sqlite3.connect(path)
    rows = conn.execute(
        "SELECT key, payload, checksum FROM artifacts").fetchall()
    conn.close()
    return {key: (payload, checksum)
            for key, payload, checksum in rows}


def test_n_processes_one_store(tmp_path):
    path = tmp_path / "shared.db"
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=WORKERS,
                             mp_context=context) as pool:
        outcomes = list(pool.map(
            hammer, [(str(path), worker) for worker in range(WORKERS)]))

    for outcome in outcomes:
        assert outcome["raised"] == [], \
            f"store operation raised under contention: " \
            f"{outcome['raised']}"
        assert outcome["wrong"] == [], \
            f"lost/duplicated update observed: {outcome['wrong']}"
        assert outcome["corrupt"] == 0, \
            "contention was misdiagnosed as corruption"
        assert outcome["errors"] == 0, \
            "lock contention escaped the busy timeout"

    # Single-process reference: the same operations, serially.
    reference_path = tmp_path / "reference.db"
    for worker in range(WORKERS):
        hammer((str(reference_path), worker))

    parallel = table_image(path)
    serial = table_image(reference_path)
    assert parallel == serial, \
        "parallel run's table diverges from the single-process run"
    # Every hammered key was written at least once by someone.
    assert set(parallel) == set(KEYS)


def test_reader_during_writer_transaction(tmp_path):
    """WAL's reason for existing: a reader sees the last committed
    state while another connection holds the write lock — no blocking
    and no torn read."""
    path = tmp_path / "s.db"
    writer = ArtifactStore(path)
    writer.put("k", deterministic_payload("k"))
    reader = ArtifactStore(path)

    # Open a write transaction on the writer's connection and leave it
    # uncommitted while the reader looks.
    conn = writer._connection()
    conn.execute("BEGIN IMMEDIATE")
    conn.execute("UPDATE artifacts SET payload = 'torn'")
    assert reader.get("k") == deterministic_payload("k")
    conn.execute("ROLLBACK")
    writer.close()
    reader.close()


def test_fork_reopens_the_connection(tmp_path):
    """A forked child must not reuse the parent's SQLite handle; the
    PID guard gives it a fresh one transparently."""
    path = tmp_path / "s.db"
    store = ArtifactStore(path)
    store.put("parent", deterministic_payload("parent"))

    context = multiprocessing.get_context("fork")

    def child(queue) -> None:
        try:
            got = store.get("parent")
            store.put("child", deterministic_payload("child"))
            queue.put(("ok", got))
        except Exception as error:  # noqa: BLE001
            queue.put(("raised", repr(error)))

    queue = context.Queue()
    process = context.Process(target=child, args=(queue,))
    process.start()
    status, value = queue.get(timeout=30)
    process.join(timeout=30)
    assert status == "ok"
    assert value == deterministic_payload("parent")
    # The child's write is visible to the parent.
    assert store.get("child") == deterministic_payload("child")
    store.close()


def test_fork_while_another_thread_holds_the_store(tmp_path):
    """The threads of a process share its connection under the store's
    lock; a child forked while a parent thread holds that lock gets a
    fresh lock (and connection), since the holder does not exist in
    the child."""
    store = ArtifactStore(tmp_path / "s.db")
    store.put("parent", deterministic_payload("parent"))
    held, release = threading.Event(), threading.Event()

    def hold() -> None:
        with store._process_lock():
            held.set()
            release.wait(30)

    holder = threading.Thread(target=hold)
    holder.start()
    context = multiprocessing.get_context("fork")
    queue = context.Queue()
    try:
        assert held.wait(10)
        process = context.Process(
            target=lambda q: q.put(store.get("parent")), args=(queue,))
        process.start()
        try:
            got = queue.get(timeout=30)
        finally:
            process.join(timeout=5)
            if process.is_alive():
                process.kill()
    finally:
        release.set()
        holder.join(timeout=30)
    assert not holder.is_alive()
    assert got == deterministic_payload("parent")
    store.close()
