"""The gateway under test and the load process that drives it.

The gateway runs as ``python -m repro.cli gateway`` in a subprocess
(``traced_gateway.py`` in the traced run).  The load generator is an
open loop: request ``i`` is due at ``t0 + i / rate`` and is written on
one of two keep-alive connections (round robin) at its due time,
pipelined behind whatever that connection still has in flight, so a
slow response delays the requests behind it as it would for a real
client with two connections.  Latency is measured from the due time to
the last byte of the response; the generator records how late it sent
each request.
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent

#: Keep-alive connections of the load process (one per vCPU of the
#: reference host).
CONNECTIONS = 2
#: Entries per ``{"requests": [...]}`` body of the set-up pass.
WARM_BATCH = 8


def payload_of(request) -> dict:
    """A SpecRequest as the JSON body of ``POST /v1/specialize``."""
    payload = request.to_payload()
    if not payload["config"]:
        del payload["config"]
    return payload


def request_bytes(body: dict) -> bytes:
    data = json.dumps(body).encode()
    return (f"POST /v1/specialize HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(data)}\r\n\r\n").encode() + data


class Gateway:
    """A ``ppe gateway`` subprocess on an ephemeral port."""

    def __init__(self, store_path: Path, workers: int,
                 traced_dir: Path | None = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        cli = ["gateway", "--port", "0", "--workers", str(workers),
               "--store-path", str(store_path)]
        if traced_dir is None:
            argv = [sys.executable, "-m", "repro.cli", *cli]
        else:
            argv = [sys.executable, str(PERFBENCH / "traced_gateway.py"),
                    str(traced_dir), *cli]
        self.started = perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self.port = None
        self.log: list[str] = []
        for line in self.process.stderr:
            self.log.append(line)
            if "listening on http://" in line:
                self.port = int(line.rsplit(":", 1)[1])
                break
        if self.port is None:
            self.process.wait(timeout=30)
            raise RuntimeError("gateway did not start: "
                               + "".join(self.log[-20:]))
        # Keep draining stderr so the pipe can never fill up.
        self._drain = threading.Thread(target=self._drain_stderr,
                                       daemon=True)
        self._drain.start()

    def _drain_stderr(self) -> None:
        for line in self.process.stderr:
            self.log.append(line)

    @property
    def pid(self) -> int:
        return self.process.pid

    def close(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._drain.join(timeout=10)


def _read_response_blocking(stream) -> tuple[int, bytes]:
    status_line = stream.readline()
    if not status_line:
        raise ConnectionError("gateway closed the connection")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = stream.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    return status, stream.read(length)


@dataclass
class LoadResult:
    statuses: list[int] = field(default_factory=list)
    documents: list[dict] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    #: ``(request index, value of on_window)`` at each window boundary
    #: of the schedule.
    windows: list[tuple] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0


def open_loop(port: int, bodies: list[bytes], rate: float, windows: int,
              on_window) -> LoadResult:
    """Send ``bodies`` on the open-loop schedule from one sender thread
    (``time.sleep`` wakes within a fraction of a millisecond, where an
    event loop rounds its timeouts to whole milliseconds); one receiver
    thread per connection reads the answers in order.  ``on_window``
    is called at ``windows`` evenly spaced points of the schedule and
    at its end (the CPU samples of the program under test)."""
    count = len(bodies)
    result = LoadResult(statuses=[0] * count, documents=[{}] * count,
                        latencies=[0.0] * count, lateness=[0.0] * count)
    sockets = [socket.create_connection(("127.0.0.1", port))
               for _ in range(CONNECTIONS)]
    for sock in sockets:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    pending = [queue.SimpleQueue() for _ in sockets]
    raw: list[bytes] = [b""] * count
    errors: list[BaseException] = []

    def receive(slot: int) -> None:
        stream = sockets[slot].makefile("rb")
        try:
            while True:
                item = pending[slot].get()
                if item is None:
                    return
                index, due = item
                status, body = _read_response_blocking(stream)
                result.latencies[index] = perf_counter() - due
                result.statuses[index] = status
                raw[index] = body
        except BaseException as error:  # noqa: BLE001 — reported below
            errors.append(error)
        finally:
            stream.close()

    receivers = [threading.Thread(target=receive, args=(slot,),
                                  daemon=True)
                 for slot in range(CONNECTIONS)]
    for thread in receivers:
        thread.start()
    boundaries = {round(count * k / windows) for k in range(windows)}
    start = perf_counter() + 0.05
    result.started = start
    try:
        for index, body in enumerate(bodies):
            due = start + index / rate
            delay = due - perf_counter()
            if delay > 0:
                time.sleep(delay)
            if index in boundaries:
                result.windows.append((index, on_window()))
            slot = index % CONNECTIONS
            sockets[slot].sendall(body)
            result.lateness[index] = perf_counter() - due
            pending[slot].put((index, due))
    finally:
        for slot_queue in pending:
            slot_queue.put(None)
        for thread in receivers:
            thread.join(timeout=120)
        for sock in sockets:
            sock.close()
    result.finished = perf_counter()
    result.windows.append((count, on_window()))
    if errors or any(thread.is_alive() for thread in receivers):
        raise RuntimeError(f"load generator failed: {errors[:1]}")
    result.documents = [json.loads(body) for body in raw]
    return result


def warm_pass(port: int, entries: list[dict]) -> list[int]:
    """Send ``entries`` as ``{"requests": [...]}`` batches, each
    connection waiting for its previous answer (the set-up pass)."""
    chunks = [entries[i:i + WARM_BATCH]
              for i in range(0, len(entries), WARM_BATCH)]
    statuses: list[int] = []
    errors: list[BaseException] = []

    def worker(slot: int) -> None:
        try:
            with socket.create_connection(("127.0.0.1", port)) as sock, \
                    sock.makefile("rb") as stream:
                for chunk in chunks[slot::CONNECTIONS]:
                    sock.sendall(request_bytes({"requests": chunk}))
                    statuses.append(_read_response_blocking(stream)[0])
        except BaseException as error:  # noqa: BLE001 — reported below
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(slot,))
               for slot in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    if errors or any(thread.is_alive() for thread in threads):
        raise RuntimeError(f"set-up pass failed: {errors[:1]}")
    return statuses


# -- the gateway's own layers, replayed in-process ---------------------------

def replay_gateway_layers(bodies: list[bytes], documents: list[dict],
                          statuses: list[int]) -> None:
    """Run each timed request through the gateway's public parse,
    admission and encode functions in this process, under the tracing
    wrappers, so their cost is measured without sockets."""
    from repro.gateway.admission import AdmissionController
    from repro.gateway.protocol import json_response_bytes, read_request
    from repro.service.results import SpecResult

    from perfbench import tracing

    admission = AdmissionController(max_queue=64)

    async def replay() -> None:
        for body, document, status in zip(bodies, documents, statuses):
            result = SpecResult.from_dict(document) \
                if status == 200 else None
            reader = asyncio.StreamReader()
            reader.feed_data(body)
            reader.feed_eof()
            with tracing.span("gateway.parse"):
                await read_request(reader)
            with tracing.span("gateway.admit"):
                decision = admission.try_admit(None)
                if decision.admitted:
                    admission.release(1, seconds=0.001)
            with tracing.span("gateway.encode"):
                if result is not None:
                    document = result.to_dict()
                json_response_bytes(status, document)

    asyncio.run(replay())
