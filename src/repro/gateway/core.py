"""The protocol-independent request-handling core.

Both front doors — the ``ppe serve`` stdin/stdout JSONL loop
(:mod:`repro.service.serve`) and the HTTP gateway
(:mod:`repro.gateway.server`) — accept the same caller-controlled JSON
objects, validate them into :class:`~repro.service.results.SpecRequest`
the same way, and shape the same response documents.  That logic
exists exactly once, here; the transports own only their framing
(lines vs. HTTP messages) and their concurrency story.

The contract the serve loop pinned (``tests/gateway/`` keeps it
byte-identical) is the contract the gateway inherits:

* bad JSON → ``{"ok": false, "error": "bad JSON: ..."}``;
* a non-object → ``{"ok": false, "error": "expected a JSON object"}``;
* ``{"op": ...}`` objects answer stats/health/shutdown, unknown ops
  get ``{"ok": false, "error": "unknown op ..."}``;
* a request object that fails validation answers ``{"ok": false,
  "error": ..., "id": ...}``;
* a valid request answers its
  :meth:`~repro.service.results.SpecResult.to_dict` — the service
  never raises, so neither does this layer (for input reasons);
* anything unforeseen is wrapped by :func:`internal_error_payload`.

Wire encoding is canonical everywhere: ``json.dumps(payload,
sort_keys=True)`` via :func:`encode_response`.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.faults import fault_point

# repro.service.serve imports this module, and repro.service's package
# init imports serve — so importing repro.service at this module's top
# would cycle whenever repro.gateway loads first.  The one runtime use
# (SpecRequest, in build_request) imports it lazily; the annotations
# below stay strings via `from __future__ import annotations`.
if False:  # pragma: no cover — typing only
    from repro.service.results import SpecRequest
    from repro.service.scheduler import SpecializationService


def encode_response(payload: Mapping[str, Any]) -> str:
    """The one response encoder: canonical sorted-key JSON, no
    trailing newline (transports add their own framing)."""
    return json.dumps(payload, sort_keys=True)


def decode_json_object(text: str) \
        -> tuple[dict | None, dict | None]:
    """Decode one JSON object off the wire.  Returns ``(data, None)``
    on success, ``(None, error payload)`` on bad JSON or a non-object
    — the error payload is the response to send."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        return None, {"ok": False, "error": f"bad JSON: {error}"}
    if not isinstance(data, dict):
        return None, {"ok": False, "error": "expected a JSON object"}
    return data, None


def handle_op(service: SpecializationService, data: Mapping[str, Any]) \
        -> tuple[dict | None, bool]:
    """Answer an ``{"op": ...}`` object.  Returns ``(payload, stop)``;
    payload is ``None`` when ``data`` carries no op (it is a request
    object), and ``stop`` is ``True`` only for ``shutdown``."""
    op = data.get("op")
    if op is None:
        return None, False
    if op == "shutdown":
        return {"ok": True, "op": "shutdown"}, True
    if op == "stats":
        return {"ok": True, "op": "stats",
                "stats": service.stats_dict()}, False
    if op == "health":
        return {"ok": True, "op": "health",
                "health": service.health()}, False
    return {"ok": False, "error": f"unknown op {op!r}"}, False


def build_request(data: Mapping[str, Any], default_engine: str,
                  seam: str | None = None) -> SpecRequest:
    """Validate one request object into a :class:`SpecRequest`.
    Raises :class:`ValueError` (and kin) on anything malformed; with
    ``seam`` given, passes through that fault-injection point first
    (``serve.request`` for the JSONL loop — the gateway carries its
    own seams in the connection handler instead)."""
    from repro.service.results import SpecRequest
    if seam is not None:
        fault_point(seam, key=data.get("id")
                    if isinstance(data.get("id"), str) else None)
    return SpecRequest.from_dict(data, default_engine=default_engine)


def invalid_request_payload(error: Exception,
                            data: Mapping[str, Any]) -> dict:
    """The structured answer to a request object that failed
    validation."""
    return {"ok": False, "error": str(error), "id": data.get("id")}


def handle_request_data(service: SpecializationService,
                        data: Mapping[str, Any], default_engine: str,
                        seam: str | None = "serve.request") -> dict:
    """One request object → its response payload, synchronously.
    Validation failures answer in-band; the service itself never
    raises.  (The gateway validates and runs in separate steps so
    admission control and async submission can sit between them; this
    fused path is the serve loop's.)"""
    try:
        request = build_request(data, default_engine, seam=seam)
    except (ValueError, TypeError) as error:
        return invalid_request_payload(error, data)
    return service.run_one(request).to_dict()


def internal_error_payload(error: BaseException,
                           data: object = None) -> dict:
    """The last-resort backstop payload: nothing a caller sends may
    kill a front door, so unforeseen failures are answered
    structurally."""
    return {"ok": False,
            "error": f"internal error: {type(error).__name__}: {error}",
            "id": data.get("id") if isinstance(data, Mapping)
            else None}
