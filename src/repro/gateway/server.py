"""The asyncio HTTP gateway: the specializer's network front door.

One event-loop thread accepts connections, parses requests
(:mod:`repro.gateway.protocol`), makes admission decisions
(:mod:`repro.gateway.admission`) and shapes responses
(:mod:`repro.gateway.core`); the blocking
:class:`~repro.service.scheduler.SpecializationService` runs behind
the :class:`~repro.service.submit.AsyncSubmitter` pump thread, so the
loop **never blocks on a wave** — health checks, stats and shed
decisions stay responsive while specialization grinds.  A request
whose fingerprint is in the service's in-memory LRU is answered on the
loop at submit (a lookup under the service's lock, no store read);
store hits and fresh work go through the pump.

Routes:

* ``GET /v1/health`` — the service's hardening snapshot, answered
  directly on the loop (it never enters the admission queue, so it
  works precisely when the queue is full);
* ``GET /v1/stats`` — the full :class:`ServiceStats` document with a
  ``gateway`` section (connections, sheds, per-status counts,
  admission state) synced in;
* ``POST /v1/specialize`` — one request object, or ``{"requests":
  [...]}`` for a batch (admitted all-or-nothing).  A single result is
  byte-identical to the ``ppe serve`` JSONL answer for the same
  request.  With ``?stream=1`` (or ``"stream": true`` in the body)
  the response is chunked NDJSON progress events: ``queued`` per
  entry at admission, ``started``/``retrying`` as the scheduler
  dispatches, ``done`` (carrying the full result document) per
  completion.

Backpressure: admission sheds with ``429`` + ``Retry-After`` (see
:mod:`repro.gateway.admission`); protocol violations answer their
HTTP status and close; handler bugs answer a structured ``500`` and
the connection survives.  Fault seams ``gateway.accept``,
``gateway.admit`` and ``gateway.respond`` (:mod:`repro.faults`) let
the chaos harness drive all three regions deterministically.
"""

from __future__ import annotations

import asyncio
import contextlib
import math
from time import monotonic
from typing import Any, Awaitable, Callable

from repro.faults import fault_point
from repro.gateway.admission import AdmissionController, LANE_HIGH
from repro.gateway.core import (
    build_request, decode_json_object, internal_error_payload,
    invalid_request_payload)
from repro.gateway.protocol import (
    DEFAULT_MAX_BODY_BYTES, HttpRequest, ProtocolError, chunk_bytes,
    chunked_head_bytes, json_response_bytes, last_chunk_bytes,
    read_request)
from repro.gateway.router import Router
from repro.observability.gateway_stats import GatewayStats
from repro.service.scheduler import SpecializationService
from repro.service.submit import HIGH, NORMAL, AsyncSubmitter

#: Cap on entries per batch request (one HTTP request must not be
#: able to occupy the whole admission queue forever).
DEFAULT_BATCH_LIMIT = 64


def _encode_event(event: dict) -> bytes:
    """One NDJSON progress event as a chunked-response chunk."""
    import json
    return chunk_bytes(
        (json.dumps(event, sort_keys=True) + "\n").encode("utf-8"))


class GatewayServer:
    """The HTTP front door over one specialization service."""

    def __init__(self, service: SpecializationService,
                 host: str = "127.0.0.1", port: int = 0, *,
                 max_queue: int = 64,
                 quota_rate: float | None = None,
                 quota_burst: float | None = None,
                 priority_keys: tuple[str, ...] = (),
                 high_reserve: int | None = None,
                 default_engine: str = "online",
                 batch_limit: int = DEFAULT_BATCH_LIMIT,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.default_engine = default_engine
        self.batch_limit = batch_limit
        self.max_body_bytes = max_body_bytes
        self.stats = GatewayStats()
        self.admission = AdmissionController(
            max_queue=max_queue, quota_rate=quota_rate,
            quota_burst=quota_burst, priority_keys=priority_keys,
            high_reserve=high_reserve)
        self.router = Router()
        self.router.add("GET", "/v1/health", self._handle_health)
        self.router.add("GET", "/v1/stats", self._handle_stats)
        self.router.add("POST", "/v1/specialize",
                        self._handle_specialize)
        self._submitter: AsyncSubmitter | None = None
        self._server: asyncio.base_events.Server | None = None

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting.  With ``port=0`` the kernel picks
        a free port, published back into ``self.port``."""
        self._submitter = AsyncSubmitter(self.service)
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._submitter is not None:
            self._submitter.close()
            self._submitter = None

    async def __aenter__(self) -> "GatewayServer":
        await self.start()
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.aclose()

    # -- connection handling -------------------------------------------
    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self.stats.connections += 1
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self.max_body_bytes)
                except ProtocolError as error:
                    # The byte stream cannot be trusted after a
                    # framing error: answer and close.
                    self.stats.malformed += 1
                    await self._respond(
                        writer, error.status,
                        {"ok": False, "error": str(error)},
                        extra_headers=(("Connection", "close"),),
                        seam=False)
                    break
                except (asyncio.IncompleteReadError,
                        ConnectionError):
                    break
                if request is None:
                    break
                keep_alive = request.keep_alive
                try:
                    await self._dispatch(request, writer)
                except ConnectionError:
                    break
                except Exception as error:  # noqa: BLE001 — survive
                    # The backstop mirrors the serve loop's: no
                    # request may kill the front door.  Written
                    # without the respond seam so an injected respond
                    # fault cannot recurse.
                    self.stats.internal_errors += 1
                    await self._respond(
                        writer, 500, internal_error_payload(error),
                        seam=False)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch(self, request: HttpRequest,
                        writer: asyncio.StreamWriter) -> None:
        self.stats.requests += 1
        fault_point("gateway.accept", key=request.path)
        handler, status, payload = self.router.resolve(
            request.method, request.path)
        if handler is None:
            extra = (("Allow",
                      self.router.allow_header(request.path)),) \
                if status == 405 else ()
            await self._respond(writer, status, payload,
                                extra_headers=extra)
            return
        await handler(request, writer)

    async def _respond(self, writer: asyncio.StreamWriter,
                       status: int, payload: dict,
                       extra_headers: tuple = (),
                       seam: bool = True) -> None:
        """One complete JSON response.  The ``gateway.respond`` seam
        fires *before* any byte is written, so an injected fault turns
        into a clean structured 500, never a half response."""
        if seam:
            fault_point("gateway.respond")
        writer.write(json_response_bytes(status, payload,
                                         extra_headers=extra_headers))
        self.stats.observe_status(status)
        await writer.drain()

    # -- routes --------------------------------------------------------
    async def _handle_health(self, request: HttpRequest,
                             writer: asyncio.StreamWriter) -> None:
        # Answered directly on the loop — health never queues, so it
        # keeps working while a wave has the admission queue full.
        await self._respond(writer, 200,
                            {"ok": True,
                             "health": self.service.health()})

    async def _handle_stats(self, request: HttpRequest,
                            writer: asyncio.StreamWriter) -> None:
        self.sync_stats()
        await self._respond(writer, 200,
                            {"ok": True,
                             "stats": self.service.stats_dict()})

    def sync_stats(self) -> None:
        """Publish the gateway section into the service's
        :class:`ServiceStats` (``/v1/stats``, ``--profile``)."""
        self.stats.queue_high_watermark = max(
            self.stats.queue_high_watermark,
            self.admission.high_watermark)
        detail = self.stats.as_dict()
        detail["admission"] = self.admission.snapshot()
        self.service.stats.gateway_detail = detail

    async def _handle_specialize(self, request: HttpRequest,
                                 writer: asyncio.StreamWriter) -> None:
        data, error = decode_json_object(request.json_text())
        if error is not None:
            await self._respond(writer, 400, error)
            return
        batch = "requests" in data
        stream = str(request.query.get("stream", "")).lower() \
            in ("1", "true") or data.get("stream") is True
        if batch:
            entries = data["requests"]
            if not isinstance(entries, list) or not entries:
                await self._respond(
                    writer, 400,
                    {"ok": False, "error":
                     "'requests' must be a non-empty list"})
                return
            if len(entries) > self.batch_limit:
                await self._respond(
                    writer, 400,
                    {"ok": False, "error":
                     f"batch of {len(entries)} entries exceeds the "
                     f"{self.batch_limit}-entry cap"})
                return
        else:
            # "stream" rides alongside the request fields; strip it
            # before strict validation.
            entries = [{key: value for key, value in data.items()
                        if key != "stream"}]

        api_key = request.header("x-api-key")
        fault_point("gateway.admit", key=api_key)
        decision = self.admission.try_admit(api_key,
                                            count=len(entries))
        if not decision.admitted:
            if decision.reason == "quota":
                self.stats.shed_quota += decision.count
            else:
                self.stats.shed_queue += decision.count
            retry_header = str(max(1,
                                   math.ceil(decision.retry_after)))
            await self._respond(
                writer, 429,
                {"ok": False,
                 "error": f"request shed ({decision.reason}); "
                          f"retry after {decision.retry_after}s",
                 "reason": decision.reason,
                 "retry_after": decision.retry_after},
                extra_headers=(("Retry-After", retry_header),))
            return
        self.stats.admitted += decision.count
        priority = HIGH if decision.lane == LANE_HIGH else NORMAL
        if stream:
            await self._run_streaming(writer, entries, priority)
        else:
            await self._run_buffered(writer, entries, batch, priority)

    # -- admitted work -------------------------------------------------
    def _validate(self, entries: list, priority: int,
                  progress_for: Callable[[int, Any],
                                         Callable | None] | None
                  = None) -> list:
        """Validate admitted entries, releasing the ticket of every
        invalid one immediately.  Returns per-entry items:
        ``("error", payload)`` or ``("future", future)``."""
        assert self._submitter is not None, "start() first"
        items: list[tuple[str, Any]] = []
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict):
                self.admission.release()
                items.append(("error",
                              {"ok": False, "id": None, "error":
                               "expected a JSON object"}))
                continue
            try:
                spec_request = build_request(entry,
                                             self.default_engine)
            except (ValueError, TypeError) as error:
                self.admission.release()
                items.append(("error",
                              invalid_request_payload(error, entry)))
                continue
            progress = progress_for(index, entry) \
                if progress_for is not None else None
            items.append(("future", self._submitter.submit(
                spec_request, priority=priority,
                progress=progress)))
        return items

    async def _run_buffered(self, writer: asyncio.StreamWriter,
                            entries: list, batch: bool,
                            priority: int) -> None:
        started = monotonic()
        valid = 0
        try:
            items = self._validate(entries, priority)
            valid = sum(1 for kind, _ in items if kind == "future")
            results = []
            for kind, value in items:
                if kind == "error":
                    results.append(value)
                    continue
                if value.done():
                    # An LRU hit, resolved at submit: read it here
                    # rather than pay wrap_future's cross-thread
                    # wake-up, but still yield once, so one
                    # connection's pipelined hits cannot hold the loop.
                    await asyncio.sleep(0)
                    outcome = value.result()
                else:
                    outcome = await asyncio.wrap_future(value)
                results.append(outcome.to_dict())
        finally:
            if valid:
                elapsed = monotonic() - started
                self.admission.release(valid,
                                       seconds=elapsed / valid)
        self.stats.completed += valid
        if batch:
            await self._respond(writer, 200,
                                {"ok": True, "results": results})
        else:
            # Byte-identical to the serve loop's JSONL answer for the
            # same request (modulo HTTP framing): the result document
            # alone, canonical encoding.
            status = 200 if items[0][0] == "future" else 400
            await self._respond(writer, status, results[0])

    async def _run_streaming(self, writer: asyncio.StreamWriter,
                             entries: list, priority: int) -> None:
        """Chunked NDJSON progress: ``queued`` per entry up front,
        ``started``/``retrying`` as the scheduler dispatches, ``done``
        (with the result document) or ``error`` per entry."""
        loop = asyncio.get_running_loop()
        events: asyncio.Queue[dict] = asyncio.Queue()
        started = monotonic()

        def progress_for(index: int, entry: dict) \
                -> Callable[[str, Any], None]:
            rid = entry.get("id")

            def on_progress(event: str, _request: Any) -> None:
                # Pump-thread context: bounce onto the loop.
                loop.call_soon_threadsafe(
                    events.put_nowait,
                    {"event": event, "index": index, "id": rid})
            return on_progress

        fault_point("gateway.respond")
        writer.write(chunked_head_bytes())
        self.stats.observe_status(200)
        self.stats.streamed += 1
        valid = 0
        try:
            items = self._validate(entries, priority, progress_for)
            for index, (kind, value) in enumerate(items):
                rid = entries[index].get("id") \
                    if isinstance(entries[index], dict) else None
                if kind == "error":
                    writer.write(_encode_event(
                        {"event": "error", "index": index,
                         "id": rid, "error": value["error"]}))
                    self.stats.events_streamed += 1
                    continue
                valid += 1
                writer.write(_encode_event(
                    {"event": "queued", "index": index, "id": rid}))
                self.stats.events_streamed += 1

                def on_done(future: Any, index: int = index,
                            rid: Any = rid) -> None:
                    error = future.exception()
                    if error is not None:
                        event = {"event": "failed", "index": index,
                                 "id": rid, "error": str(error)}
                    else:
                        event = {"event": "done", "index": index,
                                 "id": rid,
                                 "result": future.result().to_dict()}
                    loop.call_soon_threadsafe(events.put_nowait,
                                              event)
                value.add_done_callback(on_done)
            await writer.drain()
            remaining = valid
            while remaining:
                event = await events.get()
                if event["event"] in ("done", "failed"):
                    remaining -= 1
                writer.write(_encode_event(event))
                self.stats.events_streamed += 1
                await writer.drain()
            writer.write(last_chunk_bytes())
            await writer.drain()
        finally:
            if valid:
                elapsed = monotonic() - started
                self.admission.release(valid,
                                       seconds=elapsed / valid)
        self.stats.completed += valid
