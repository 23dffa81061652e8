"""Counters for the asyncio specialization gateway.

One :class:`GatewayStats` instance lives on every
:class:`repro.gateway.GatewayServer`.  The connection handler, the
router and the admission controller all report into it; the gateway
syncs a snapshot into :class:`~repro.observability.ServiceStats`
(the ``gateway`` section of ``GET /v1/stats`` and the ``--profile``
report) so one document describes the whole serving stack.

Counters are cumulative over the gateway's lifetime.  Everything here
mutates only on the event loop thread, so there are no locks.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class GatewayStats:
    """Counters for one gateway front door."""

    #: TCP connections accepted.
    connections: int = 0
    #: HTTP requests successfully parsed off those connections.
    requests: int = 0
    #: Requests the HTTP layer rejected (bad request line, oversized
    #: body, bad framing) — answered 4xx and the connection closed.
    malformed: int = 0
    #: Specialization jobs admitted past admission control.
    admitted: int = 0
    #: Jobs shed because the bounded queue was full (429).
    shed_queue: int = 0
    #: Jobs shed because the client was over its token-bucket quota
    #: (429).
    shed_quota: int = 0
    #: Jobs whose result was delivered (degraded results included;
    #: they are still answers).
    completed: int = 0
    #: Specialize calls served in streaming (chunked progress) mode.
    streamed: int = 0
    #: Progress events written to streaming clients.
    events_streamed: int = 0
    #: Responses that fell back to a 500 (handler bug or an injected
    #: ``gateway.*`` fault) — the "zero uncaught exceptions" odometer.
    internal_errors: int = 0
    #: Responses written, keyed by HTTP status code (as strings, so
    #: the dict is JSON-ready).
    responses_by_status: dict = field(default_factory=dict)
    #: Deepest the admission queue ever got (admitted minus released).
    queue_high_watermark: int = 0

    def observe_status(self, status: int) -> None:
        key = str(status)
        self.responses_by_status[key] = \
            self.responses_by_status.get(key, 0) + 1

    @property
    def shed(self) -> int:
        """Total jobs shed by admission control (queue + quota)."""
        return self.shed_queue + self.shed_quota

    @property
    def shed_rate(self) -> float:
        """Shed jobs over admission decisions; 0.0 before any."""
        decided = self.admitted + self.shed
        return self.shed / decided if decided else 0.0

    def as_dict(self) -> dict:
        """JSON-ready snapshot (the ``gateway`` section of
        ``/v1/stats`` and the ``--profile`` report)."""
        return {
            "connections": self.connections,
            "requests": self.requests,
            "malformed": self.malformed,
            "admitted": self.admitted,
            "shed_queue": self.shed_queue,
            "shed_quota": self.shed_quota,
            "shed_rate": round(self.shed_rate, 4),
            "completed": self.completed,
            "streamed": self.streamed,
            "events_streamed": self.events_streamed,
            "internal_errors": self.internal_errors,
            "responses_by_status": dict(self.responses_by_status),
            "queue_high_watermark": self.queue_high_watermark,
        }
