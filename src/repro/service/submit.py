"""The asynchronous submission seam over the blocking scheduler.

:class:`~repro.service.scheduler.SpecializationService` is a blocking
batch engine: ``run_batch`` parks the calling thread on pool futures
until the whole wave is reaped.  An asyncio front door (the gateway)
must never do that on its event loop — accepting connections, shedding
overload and answering ``/v1/health`` all have to keep running while a
wave grinds.

:class:`AsyncSubmitter` is the seam between the two worlds: a single
daemon thread owns the service and pumps a thread-safe **priority**
queue of submissions.  Callers (any thread, including an event loop)
get a :class:`concurrent.futures.Future` back immediately; asyncio
callers wrap it with :func:`asyncio.wrap_future` and await.  The pump
drains opportunistically — the first submission blocks, then up to
``BATCH_MAX - 1`` more are taken without waiting — so concurrent
traffic forms real waves over the service's worker pool instead of
trickling through one request at a time.

A request whose fingerprint is in the service's in-memory LRU never
enters the queue: :meth:`AsyncSubmitter.submit` answers it on the
submitting thread (:meth:`SpecializationService.lru_lookup`) and
returns an already-resolved future, counted as ``run_batch`` counts an
LRU hit.  Everything else queues: store reads (which can wait seconds
behind a writer, and must never run on an event loop), quarantine,
retries, progress events and fresh work stay on the pump.

Two-level priority: submissions carry :data:`HIGH` or :data:`NORMAL`;
the queue is ordered ``(priority, arrival)``, so a high-priority
request jumps every queued normal one but never preempts work already
dispatched.  FIFO is preserved within a lane.

Per-submission progress callbacks ride the scheduler's ``progress``
seam: the pump fans the batch-wide ``(event, request)`` stream back
out to the submission that owns the request (by object identity — the
exact instances submitted are the ones the scheduler reports on).
Callbacks run on the pump thread; the gateway bounces them onto its
event loop with ``call_soon_threadsafe``.

The service's no-raise contract carries over: a submission's future
resolves with a :class:`~repro.service.results.SpecResult` (possibly
``degraded=True``), or — only if the service itself broke its
contract — with that exception.  Futures cancelled while still queued
are skipped, not run.
"""

from __future__ import annotations

import itertools
import queue
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable

from repro.service.results import SpecRequest, SpecResult
from repro.service.scheduler import SpecializationService

#: Priority ranks: lower sorts first.  Exactly two lanes — the
#: gateway's API-key-keyed fast lane and everyone else.
HIGH = 0
NORMAL = 1

#: Most submissions the pump drains into one service wave.
BATCH_MAX = 8

#: The close sentinel outranks both lanes so shutdown never waits
#: behind queued work (queued submissions are cancelled instead).
_SHUTDOWN_RANK = -1


@dataclass(order=True)
class _Ticket:
    """One queued submission; ordering is (priority, arrival seq)."""

    priority: int
    seq: int
    submission: "_Submission | None" = field(compare=False,
                                             default=None)


@dataclass
class _Submission:
    request: SpecRequest
    future: "Future[SpecResult]"
    progress: Callable[[str, SpecRequest], None] | None = None


class AsyncSubmitter:
    """Non-blocking, priority-ordered submission over one service."""

    def __init__(self, service: SpecializationService) -> None:
        self.service = service
        self._queue: "queue.PriorityQueue[_Ticket]" = \
            queue.PriorityQueue()
        self._seq = itertools.count()
        self._closed = False
        self._thread = threading.Thread(
            target=self._pump, name="ppe-submitter", daemon=True)
        self._thread.start()

    # -- submission side ----------------------------------------------
    def submit(self, request: SpecRequest, priority: int = NORMAL,
               progress: Callable[[str, SpecRequest], None]
               | None = None) -> "Future[SpecResult]":
        """Queue one request; returns its future immediately.  An LRU
        hit never enters the queue: its future comes back already
        resolved, and ``progress`` is never called for it (a hit has
        no dispatch to report)."""
        if self._closed:
            raise RuntimeError("submitter is closed")
        if priority not in (HIGH, NORMAL):
            raise ValueError(f"priority must be HIGH ({HIGH}) or "
                             f"NORMAL ({NORMAL}), got {priority}")
        future: "Future[SpecResult]" = Future()
        hit = self.service.lru_lookup(request)
        if hit is not None:
            future.set_result(hit)
            return future
        self._queue.put(_Ticket(priority, next(self._seq),
                                _Submission(request, future, progress)))
        return future

    def pending(self) -> int:
        """Submissions queued but not yet picked up by the pump."""
        return self._queue.qsize()

    def close(self) -> None:
        """Stop the pump (jumping ahead of queued work), cancel
        whatever was still queued, and join the thread.  Idempotent.
        The in-flight wave, if any, finishes and resolves its futures
        first — the scheduler cannot abandon dispatched work."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(_Ticket(_SHUTDOWN_RANK, next(self._seq)))
        self._thread.join()
        while True:
            try:
                ticket = self._queue.get_nowait()
            except queue.Empty:
                break
            if ticket.submission is not None:
                ticket.submission.future.cancel()

    def __enter__(self) -> "AsyncSubmitter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- pump side -----------------------------------------------------
    def _pump(self) -> None:
        while True:
            ticket = self._queue.get()
            if ticket.submission is None:
                return
            batch = [ticket.submission]
            stop = False
            while len(batch) < BATCH_MAX:
                try:
                    ticket = self._queue.get_nowait()
                except queue.Empty:
                    break
                if ticket.submission is None:
                    stop = True
                    break
                batch.append(ticket.submission)
            self._run(batch)
            if stop:
                return

    def _run(self, batch: list[_Submission]) -> None:
        # Mark everything RUNNING first; submissions cancelled while
        # queued drop out here and are never dispatched.
        live = [submission for submission in batch
                if submission.future.set_running_or_notify_cancel()]
        if not live:
            return
        owners = {id(submission.request): submission
                  for submission in live}

        def fan_out(event: str, request: SpecRequest) -> None:
            submission = owners.get(id(request))
            if submission is not None \
                    and submission.progress is not None:
                submission.progress(event, request)

        try:
            results = self.service.run_batch(
                [submission.request for submission in live],
                progress=fan_out)
        except Exception as error:  # noqa: BLE001 — contract breach
            # The service promises never to raise; if it ever does,
            # surface the breach on every waiter instead of wedging
            # them forever.
            for submission in live:
                submission.future.set_exception(error)
            return
        for submission, result in zip(live, results):
            submission.future.set_result(result)
