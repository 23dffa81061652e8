"""The serve loop's JSONL byte format, pinned.

``ppe serve`` now delegates parsing/validation/response shaping to
:mod:`repro.gateway.core` — the same code the HTTP gateway runs.
These tests pin the exact response bytes the loop emitted *before*
that refactor, so sharing the core can never drift the JSONL wire
format; plus the two serve-loop satellites: every response line is
flushed (a piped consumer never deadlocks), and ``{"op": "health"}``
stays responsive around in-flight work.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.faults import install
from repro.service import SpecializationService, serve
from repro.service.results import SpecRequest
from repro.workloads import WORKLOADS

GCD = WORKLOADS["gcd"].source

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def serve_bytes(*lines: object) -> str:
    """Run the loop over JSON lines; return the raw output text."""
    text = "\n".join(
        line if isinstance(line, str) else json.dumps(line)
        for line in lines) + "\n"
    out = io.StringIO()
    with SpecializationService(workers=0) as service:
        serve(service, io.StringIO(text), out)
    return out.getvalue()


class TestPinnedBytes:
    """Exact pre-refactor response lines, byte for byte."""

    def test_bad_json_line(self):
        assert serve_bytes("not json") == (
            '{"error": "bad JSON: Expecting value: line 1 column 1 '
            '(char 0)", "ok": false}\n')

    def test_non_object_line(self):
        assert serve_bytes("[1, 2, 3]") == \
            '{"error": "expected a JSON object", "ok": false}\n'

    def test_unknown_op_line(self):
        assert serve_bytes({"op": "teleport"}) == \
            '{"error": "unknown op \'teleport\'", "ok": false}\n'

    def test_invalid_request_line(self):
        assert serve_bytes({"specs": ["dyn"]}) == (
            '{"error": "request needs exactly one of \'source\' or '
            '\'file\'", "id": null, "ok": false}\n')

    def test_wrongly_typed_field_line(self):
        assert serve_bytes({"source": 42, "specs": []}) == (
            '{"error": "source must be a string, got int", '
            '"id": null, "ok": false}\n')

    def test_shutdown_line(self):
        assert serve_bytes({"op": "shutdown"}) == \
            '{"ok": true, "op": "shutdown"}\n'

    def test_result_lines_are_canonical_sorted_json(self):
        output = serve_bytes(
            {"id": "g", "source": GCD, "specs": ["48", "18"]})
        [line] = output.splitlines()
        document = json.loads(line)
        assert line == json.dumps(document, sort_keys=True)
        assert document["id"] == "g"
        assert "(define (gcd) 6)" in document["residual"]

    def test_residual_bytes_match_the_direct_path(self):
        output = serve_bytes(
            {"id": "g", "source": GCD, "specs": ["48", "18"]})
        document = json.loads(output)
        with SpecializationService(workers=0) as service:
            direct = service.run_one(
                SpecRequest.create(GCD, ["48", "18"], id="g"))
        assert document["residual"] == direct.residual

    def test_injected_serve_fault_is_a_structured_line(self):
        install({"seed": 1, "seams": {
            "serve.request": {"kinds": ["error"], "at": [1]}}})
        assert serve_bytes(
            {"id": "f", "source": GCD, "specs": ["48", "18"]}) == (
            '{"error": "internal error: InjectedFault: injected '
            'fault at serve.request (hit 1)", '
            '"id": "f", "ok": false}\n')


def _reader(stream, lines: list, lock) -> None:
    for line in stream:
        with lock:
            lines.append(line)


def _finish(child, reader: threading.Thread) -> None:
    """Stop a child still running, let the reader drain its stdout to
    EOF, then close both pipes."""
    if child.poll() is None:
        child.kill()
    child.wait(timeout=30)
    reader.join(timeout=30)
    assert not reader.is_alive(), "stdout reader did not finish"
    child.stdin.close()
    child.stdout.close()


class TestPipedProcess:
    """A real ``ppe serve`` child on real pipes: the flush contract.

    The consumer writes one line, then *waits* for its answer before
    writing the next.  If any response sat unflushed in the child's
    stdio buffer, this handshake would deadlock — the timeout turns
    that into a failure instead of a hang."""

    def _spawn(self, *extra: str) -> subprocess.Popen:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC)
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--workers", "0", *extra],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, env=env)

    def _handshake(self, child, payload: dict, lines: list,
                   lock, expect: int, timeout: float = 30.0) -> dict:
        child.stdin.write(json.dumps(payload) + "\n")
        child.stdin.flush()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with lock:
                if len(lines) >= expect:
                    return json.loads(lines[expect - 1])
            time.sleep(0.01)
        child.kill()
        raise AssertionError(
            f"no response line {expect} within {timeout}s — "
            f"the serve loop is not flushing")

    def test_every_response_is_flushed_promptly(self):
        child = self._spawn()
        lines: list[str] = []
        lock = threading.Lock()
        reader = threading.Thread(
            target=_reader, args=(child.stdout, lines, lock),
            daemon=True)
        reader.start()
        try:
            first = self._handshake(
                child, {"id": "a", "source": GCD,
                        "specs": ["48", "18"]}, lines, lock, 1)
            assert first["id"] == "a"
            health = self._handshake(child, {"op": "health"},
                                     lines, lock, 2)
            assert health["ok"] is True and "breakers" in \
                health["health"]
            stats = self._handshake(child, {"op": "stats"},
                                    lines, lock, 3)
            assert stats["stats"]["completed"] == 1
            bye = self._handshake(child, {"op": "shutdown"},
                                  lines, lock, 4)
            assert bye == {"ok": True, "op": "shutdown"}
            assert child.wait(timeout=30) == 0
        finally:
            _finish(child, reader)

    def test_health_is_answered_in_band_between_slow_requests(self):
        plan = json.dumps({"seed": 1, "seams": {
            "worker.execute": {"kinds": ["latency"], "every": 1,
                               "latency_seconds": 0.2}}})
        child = self._spawn("--fault-plan", plan)
        lines: list[str] = []
        lock = threading.Lock()
        reader = threading.Thread(target=_reader,
                                  args=(child.stdout, lines, lock),
                                  daemon=True)
        reader.start()
        try:
            # Write a slow request AND the health op back to back
            # without waiting: both must be answered, in order.
            child.stdin.write(json.dumps(
                {"id": "slow", "source": GCD,
                 "specs": ["48", "18"]}) + "\n")
            child.stdin.write(json.dumps({"op": "health"}) + "\n")
            child.stdin.flush()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                with lock:
                    if len(lines) >= 2:
                        break
                time.sleep(0.01)
            with lock:
                captured = list(lines)
            assert len(captured) >= 2, "serve answered fewer than 2"
            assert json.loads(captured[0])["id"] == "slow"
            assert json.loads(captured[1])["ok"] is True
            child.stdin.write(json.dumps({"op": "shutdown"}) + "\n")
            child.stdin.flush()
            assert child.wait(timeout=30) == 0
        finally:
            _finish(child, reader)


class TestServiceHealthConcurrency:
    """Satellite: ``health()`` must not serialize behind a wave."""

    def test_health_returns_while_run_batch_grinds(self):
        install({"seed": 1, "seams": {
            "worker.execute": {"kinds": ["latency"], "at": [1],
                               "latency_seconds": 0.5}}})
        with SpecializationService(workers=0) as service:
            started = threading.Event()

            def grind():
                started.set()
                service.run_batch([SpecRequest.create(
                    GCD, ["48", "18"], id="grind")])

            thread = threading.Thread(target=grind)
            thread.start()
            started.wait(5)
            time.sleep(0.1)       # the wave is inside the 0.5s sleep
            began = time.monotonic()
            health = service.health()
            elapsed = time.monotonic() - began
            thread.join(timeout=30)
        assert "breakers" in health
        assert elapsed < 0.25, \
            f"health() blocked {elapsed:.3f}s behind the wave"
