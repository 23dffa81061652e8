"""End-to-end gateway behavior over real sockets."""

from __future__ import annotations

import json
import threading
import time

from repro.gateway.core import encode_response
from repro.service import SpecializationService
from repro.service.results import SpecRequest
from repro.workloads import WORKLOADS

from tests.gateway.conftest import (GCD, HttpClient, http,
                                    specialize_payload)

SLOW_WORKER_PLAN = {"seed": 1, "seams": {
    "worker.execute": {"kinds": ["latency"], "every": 1,
                       "latency_seconds": 0.5}}}


class TestRoutes:
    def test_health(self, gateway_factory):
        harness = gateway_factory()
        response = http(harness.port, "GET", "/v1/health")
        assert response.status == 200
        payload = response.json
        assert payload["ok"] is True
        assert "breakers" in payload["health"]
        assert "quarantine" in payload["health"]

    def test_stats_carries_the_gateway_section(self, gateway_factory):
        harness = gateway_factory()
        http(harness.port, "POST", "/v1/specialize",
             specialize_payload(id="warm"))
        response = http(harness.port, "GET", "/v1/stats")
        assert response.status == 200
        gateway = response.json["stats"]["gateway"]
        assert gateway["admitted"] == 1
        assert gateway["completed"] == 1
        assert gateway["responses_by_status"]["200"] >= 1
        assert gateway["admission"]["max_queue"] == 64
        assert gateway["admission"]["inflight"] == 0

    def test_unknown_path_404(self, gateway_factory):
        harness = gateway_factory()
        response = http(harness.port, "GET", "/v2/nope")
        assert response.status == 404
        assert response.json["ok"] is False

    def test_wrong_method_405_with_allow(self, gateway_factory):
        harness = gateway_factory()
        response = http(harness.port, "GET", "/v1/specialize")
        assert response.status == 405
        assert response.headers["allow"] == "POST"
        response = http(harness.port, "POST", "/v1/health")
        assert response.status == 405
        assert response.headers["allow"] == "GET"


class TestSpecialize:
    def test_single_result_matches_blocking_path_bytes(
            self, gateway_factory):
        harness = gateway_factory()
        response = http(harness.port, "POST", "/v1/specialize",
                        specialize_payload(id="g"))
        assert response.status == 200
        document = response.json
        assert document["id"] == "g"
        assert not document["degraded"]
        assert "(define (gcd) 6)" in document["residual"]
        # The HTTP body is the serve loop's canonical JSONL line.
        assert response.body == \
            (encode_response(document) + "\n").encode()
        # Residual bytes match the blocking path exactly.
        with SpecializationService(workers=0) as reference:
            direct = reference.run_one(
                SpecRequest.create(GCD, ["48", "18"], id="g"))
        assert document["residual"] == direct.residual

    def test_batch_preserves_order_and_answers_invalid_in_band(
            self, gateway_factory):
        harness = gateway_factory()
        response = http(harness.port, "POST", "/v1/specialize", {
            "requests": [
                specialize_payload(id="a"),
                {"id": "broken", "specs": ["dyn"]},   # no source
                specialize_payload(id="b", specs=("50", "15")),
                "not an object",
            ]})
        assert response.status == 200
        payload = response.json
        assert payload["ok"] is True
        results = payload["results"]
        assert len(results) == 4
        assert results[0]["id"] == "a" and "residual" in results[0]
        assert results[1] == {
            "ok": False, "id": "broken",
            "error": "request needs exactly one of 'source' or "
                     "'file'"}
        assert results[2]["id"] == "b"
        assert results[3]["ok"] is False
        # Invalid entries released their queue slots.
        stats = http(harness.port, "GET", "/v1/stats").json
        assert stats["stats"]["gateway"]["admission"]["inflight"] == 0

    def test_invalid_single_request_is_400(self, gateway_factory):
        harness = gateway_factory()
        response = http(harness.port, "POST", "/v1/specialize",
                        {"id": "x", "specs": ["dyn"]})
        assert response.status == 400
        assert response.json == {
            "ok": False, "id": "x",
            "error": "request needs exactly one of 'source' or "
                     "'file'"}

    def test_wrongly_typed_config_value_is_400(self, gateway_factory):
        harness = gateway_factory()
        response = http(harness.port, "POST", "/v1/specialize",
                        specialize_payload(id="x",
                                           config={"max_steps": "5000"}))
        assert response.status == 400
        assert response.json == {
            "ok": False, "id": "x",
            "error": "config field 'max_steps' must be int or null, "
                     "got '5000'"}

    def test_bad_or_unsatisfiable_spec_is_400(self, gateway_factory):
        """A spec that does not parse, or that no value satisfies, is
        the client's error: answered 400 at the door, never degraded
        by a worker (and never counted as an ``internal`` error)."""
        harness = gateway_factory()
        client = HttpClient(harness.port)
        try:
            for text in ("interval=3:1", "size=x", "colour=red",
                         "#(1 a)", "sign=pos,interval=-3:-1"):
                response = client.request(
                    "POST", "/v1/specialize", specialize_payload(
                        source=WORKLOADS["sign_pipeline"].source,
                        specs=("dyn", text), id=text,
                        engine="offline"))
                assert response.status == 400, text
                assert response.json["ok"] is False
                assert response.json["id"] == text
                assert text in response.json["error"]
            stats = client.request("GET", "/v1/stats").json["stats"]
        finally:
            client.close()
        assert stats["submitted"] == 0
        assert stats["errors_by_category"] == {}

    def test_bad_json_body_is_400(self, gateway_factory):
        harness = gateway_factory()
        response = http(harness.port, "POST", "/v1/specialize",
                        raw_body=b"{nope")
        assert response.status == 400
        assert response.json["error"].startswith("bad JSON:")
        response = http(harness.port, "POST", "/v1/specialize",
                        raw_body=b"[1, 2]")
        assert response.status == 400
        assert response.json["error"] == "expected a JSON object"

    def test_empty_and_oversized_batches_rejected(
            self, gateway_factory):
        harness = gateway_factory(batch_limit=2)
        assert http(harness.port, "POST", "/v1/specialize",
                    {"requests": []}).status == 400
        response = http(harness.port, "POST", "/v1/specialize",
                        {"requests": [specialize_payload()] * 3})
        assert response.status == 400
        assert "cap" in response.json["error"]


class TestConnections:
    def test_keep_alive_serves_many_requests(self, gateway_factory):
        harness = gateway_factory()
        client = HttpClient(harness.port)
        try:
            for index in range(3):
                response = client.request(
                    "POST", "/v1/specialize",
                    specialize_payload(id=f"k{index}"))
                assert response.status == 200
                assert response.json["id"] == f"k{index}"
            assert http(harness.port, "GET", "/v1/stats")
        finally:
            client.close()

    def test_connection_close_honored(self, gateway_factory):
        harness = gateway_factory()
        client = HttpClient(harness.port)
        try:
            response = client.request("GET", "/v1/health",
                                      headers={"Connection": "close"})
            assert response.status == 200
            assert client.closed_by_peer()
        finally:
            client.close()

    def test_malformed_http_answers_400_and_closes(
            self, gateway_factory):
        harness = gateway_factory()
        client = HttpClient(harness.port)
        try:
            response = client.send_raw(b"NOT HTTP AT ALL\r\n\r\n")
            assert response.status == 400
            assert response.headers["connection"] == "close"
            assert client.closed_by_peer()
        finally:
            client.close()
        # The server survives to answer the next connection.
        assert http(harness.port, "GET", "/v1/health").status == 200

    def test_oversized_body_is_413(self, gateway_factory):
        harness = gateway_factory(max_body_bytes=128)
        response = http(harness.port, "POST", "/v1/specialize",
                        raw_body=b"x" * 1000)
        assert response.status == 413


class TestBackpressure:
    def test_queue_full_sheds_429_then_recovers(self,
                                                gateway_factory):
        service = SpecializationService(
            workers=0, fault_plan={"seed": 1, "seams": {
                "worker.execute": {"kinds": ["latency"], "at": [1],
                                   "latency_seconds": 1.0}}})
        try:
            harness = gateway_factory(service=service, max_queue=1,
                                      high_reserve=0)
            slow_response = {}

            def slow():
                slow_response["response"] = http(
                    harness.port, "POST", "/v1/specialize",
                    specialize_payload(id="slow"))

            thread = threading.Thread(target=slow)
            thread.start()
            time.sleep(0.3)       # the slow job is admitted + running
            shed = http(harness.port, "POST", "/v1/specialize",
                        specialize_payload(id="shed"))
            assert shed.status == 429
            assert shed.json["reason"] == "queue-full"
            assert shed.json["retry_after"] > 0
            assert int(shed.headers["retry-after"]) >= 1
            thread.join(timeout=30)
            assert slow_response["response"].status == 200
            # The slot was released: new work is admitted again.
            after = http(harness.port, "POST", "/v1/specialize",
                         specialize_payload(id="after"))
            assert after.status == 200
        finally:
            service.close()

    def test_quota_sheds_429_per_client(self, gateway_factory):
        harness = gateway_factory(quota_rate=0.001, quota_burst=2)
        key = {"X-API-Key": "greedy"}
        for index in range(2):
            assert http(harness.port, "POST", "/v1/specialize",
                        specialize_payload(id=f"q{index}"),
                        headers=key).status == 200
        shed = http(harness.port, "POST", "/v1/specialize",
                    specialize_payload(id="q2"), headers=key)
        assert shed.status == 429
        assert shed.json["reason"] == "quota"
        assert "retry-after" in shed.headers
        # A different client still gets in.
        assert http(harness.port, "POST", "/v1/specialize",
                    specialize_payload(id="other"),
                    headers={"X-API-Key": "patient"}).status == 200
        stats = http(harness.port, "GET", "/v1/stats").json
        gateway = stats["stats"]["gateway"]
        assert gateway["shed_quota"] == 1
        assert gateway["admission"]["clients"]["clients"] >= 2

    def test_priority_key_rides_the_reserve(self, gateway_factory):
        service = SpecializationService(
            workers=0, fault_plan={"seed": 1, "seams": {
                "worker.execute": {"kinds": ["latency"], "at": [1],
                                   "latency_seconds": 1.0}}})
        try:
            harness = gateway_factory(service=service, max_queue=1,
                                      high_reserve=1,
                                      priority_keys=("vip",))
            responses = {}

            def post(tag, headers=None):
                responses[tag] = http(
                    harness.port, "POST", "/v1/specialize",
                    specialize_payload(id=tag), headers=headers)

            thread = threading.Thread(target=post, args=("slow",))
            thread.start()
            time.sleep(0.3)
            post("normal")        # queue full for the normal lane
            post("vip", {"X-API-Key": "vip"})   # reserve admits it
            thread.join(timeout=30)
            assert responses["normal"].status == 429
            assert responses["vip"].status == 200
            assert responses["slow"].status == 200
        finally:
            service.close()


class TestConcurrency:
    def test_health_answers_while_a_wave_is_in_flight(
            self, gateway_factory):
        service = SpecializationService(workers=0,
                                        fault_plan=SLOW_WORKER_PLAN)
        try:
            harness = gateway_factory(service=service)

            def slow():
                http(harness.port, "POST", "/v1/specialize",
                     specialize_payload(id="grinding"))

            thread = threading.Thread(target=slow)
            thread.start()
            time.sleep(0.15)      # the wave is grinding (0.5 s)
            began = time.monotonic()
            response = http(harness.port, "GET", "/v1/health")
            elapsed = time.monotonic() - began
            thread.join(timeout=30)
            assert response.status == 200
            # Health never enters the admission queue: it answered
            # well inside the wave's 0.5 s grind.
            assert elapsed < 0.3, \
                f"health took {elapsed:.3f}s behind a wave"
        finally:
            service.close()


class TestStreaming:
    def test_event_sequence_and_byte_identical_result(
            self, gateway_factory):
        harness = gateway_factory()
        response = http(harness.port, "POST",
                        "/v1/specialize?stream=1",
                        specialize_payload(id="s"))
        assert response.status == 200
        assert response.chunked
        assert response.headers["content-type"] \
            == "application/x-ndjson"
        events = response.events
        assert [event["event"] for event in events] \
            == ["queued", "started", "done"]
        assert all(event["id"] == "s" and event["index"] == 0
                   for event in events)
        document = events[-1]["result"]
        assert "(define (gcd) 6)" in document["residual"]
        # The embedded result is the same canonical document the
        # buffered path answers.
        with SpecializationService(workers=0) as reference:
            direct = reference.run_one(
                SpecRequest.create(GCD, ["48", "18"], id="s"))
        assert document["residual"] == direct.residual

    def test_stream_flag_in_body(self, gateway_factory):
        harness = gateway_factory()
        response = http(harness.port, "POST", "/v1/specialize",
                        specialize_payload(id="sb", stream=True))
        assert response.chunked
        assert [event["event"] for event in response.events] \
            == ["queued", "started", "done"]

    def test_streamed_batch_with_invalid_entry(self,
                                               gateway_factory):
        harness = gateway_factory()
        response = http(harness.port, "POST",
                        "/v1/specialize?stream=1", {
                            "requests": [
                                specialize_payload(id="ok1"),
                                {"id": "bad", "specs": ["dyn"]},
                                specialize_payload(
                                    id="ok2", specs=("50", "15")),
                            ]})
        events = response.events
        by_index = {}
        for event in events:
            by_index.setdefault(event["index"], []).append(
                event["event"])
        assert by_index[1] == ["error"]
        assert by_index[0][0] == "queued" \
            and by_index[0][-1] == "done"
        assert by_index[2][0] == "queued" \
            and by_index[2][-1] == "done"
        done = {event["index"]: event["result"]["id"]
                for event in events if event["event"] == "done"}
        assert done == {0: "ok1", 2: "ok2"}
        stats = http(harness.port, "GET", "/v1/stats").json
        gateway = stats["stats"]["gateway"]
        assert gateway["streamed"] == 1
        assert gateway["events_streamed"] >= 7
        assert gateway["admission"]["inflight"] == 0

    def test_retrying_events_stream_on_crash_retry(
            self, gateway_factory):
        service = SpecializationService(
            workers=0, backoff_base=0.0, sleep=lambda _s: None,
            fault_plan={"seed": 1, "seams": {
                "worker.execute": {"kinds": ["crash"], "at": [1]}}})
        try:
            harness = gateway_factory(service=service)
            response = http(harness.port, "POST",
                            "/v1/specialize?stream=1",
                            specialize_payload(id="r"))
            kinds = [event["event"] for event in response.events]
            assert kinds == ["queued", "started", "retrying", "done"]
        finally:
            service.close()


class TestRequestsCarryOnlyData:
    """The gateway takes inline ``source`` only: ``file`` belongs to
    ``ppe batch`` manifests, and faults come only from a FaultPlan."""

    SECRET = "secret text the gateway must never serve back\n"

    def test_file_and_fault_are_unknown_fields(self, gateway_factory,
                                               tmp_path):
        target = tmp_path / "secret.txt"
        target.write_text(self.SECRET)
        harness = gateway_factory()
        bodies = [
            {"id": "leak", "file": str(target)},
            specialize_payload(
                id="truncate", specs=("36", "60"),
                fault={"kind": "crash", "times": 1,
                       "token": str(target)}),
            specialize_payload(id="pill", specs=("50", "15"),
                               fault={"kind": "crash"}),
        ]
        for body in bodies:
            response = http(harness.port, "POST", "/v1/specialize",
                            body)
            assert response.status == 400
            assert response.json["id"] == body["id"]
            assert "unknown request field(s)" in response.json["error"]
            assert b"secret text" not in response.body
        clean = http(harness.port, "POST", "/v1/specialize",
                     specialize_payload(id="clean", specs=("50", "15")))
        assert clean.status == 200
        assert not clean.json["degraded"]
        assert clean.json["reason"] is None
        assert target.read_text() == self.SECRET
        stats = http(harness.port, "GET", "/v1/stats").json["stats"]
        assert stats["worker_crashes"] == 0


class TestDeadlineValues:
    DEADLINES = ["NaN", "Infinity", "-Infinity", "0", "-1", "1e10"]

    def _body(self, id: str, deadline: str) -> bytes:
        return (f'{{"id": "{id}", "source": {json.dumps(GCD)}, '
                f'"specs": ["48", "18"], "deadline": {deadline}}}'
                ).encode()

    def test_non_finite_or_non_positive_deadlines_are_400(
            self, gateway_factory):
        harness = gateway_factory()
        for value in self.DEADLINES:
            response = http(harness.port, "POST", "/v1/specialize",
                            raw_body=self._body("d", value))
            assert response.status == 400, value
            assert "deadline must be a finite number" \
                in response.json["error"]

    def test_nan_entry_does_not_sink_its_batch(self, gateway_factory):
        """A NaN deadline used to reach the pool's reaper and raise
        there, failing every request in the wave and recycling the
        pool."""
        entries = b", ".join([
            json.dumps(specialize_payload(id="a")).encode(),
            self._body("nan", "NaN"),
            json.dumps(specialize_payload(id="b", specs=("50", "15"),
                                          deadline=30)).encode()])
        with SpecializationService(workers=1) as service:
            harness = gateway_factory(service=service)
            response = http(harness.port, "POST", "/v1/specialize",
                            raw_body=b'{"requests": [' + entries + b"]}")
            assert response.status == 200
            results = response.json["results"]
            assert [r["id"] for r in results] == ["a", "nan", "b"]
            assert results[1]["ok"] is False
            assert not results[0]["degraded"]
            assert not results[2]["degraded"]
            assert service.stats.pool_restarts == 0
