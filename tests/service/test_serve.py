"""The JSONL serve loop and the ``ppe batch`` / ``ppe serve`` CLI."""

from __future__ import annotations

import io
import json

from repro.cli import main
from repro.service import SpecializationService, serve
from repro.workloads import WORKLOADS

GCD = WORKLOADS["gcd"].source


def pump(*lines: object) -> list[dict]:
    """Run the loop over JSON lines; return the decoded responses."""
    text = "\n".join(
        line if isinstance(line, str) else json.dumps(line)
        for line in lines) + "\n"
    out = io.StringIO()
    with SpecializationService(workers=0) as service:
        serve(service, io.StringIO(text), out)
    return [json.loads(line) for line in out.getvalue().splitlines()]


class TestServeLoop:
    def test_request_response(self):
        [response] = pump(
            {"id": "g", "source": GCD, "specs": ["48", "18"]})
        assert response["id"] == "g"
        assert not response["degraded"]
        assert "(define (gcd) 6)" in response["residual"]

    def test_one_response_per_line_in_order(self):
        responses = pump(
            {"id": "a", "source": GCD, "specs": ["48", "18"]},
            {"id": "b", "source": GCD, "specs": ["50", "15"]})
        assert [r["id"] for r in responses] == ["a", "b"]

    def test_stats_op(self):
        responses = pump(
            {"id": "a", "source": GCD, "specs": ["48", "18"]},
            {"op": "stats"})
        stats = responses[-1]
        assert stats["ok"] is True
        assert stats["stats"]["submitted"] == 1
        assert stats["stats"]["completed"] == 1

    def test_shutdown_op_acknowledges_and_stops(self):
        responses = pump(
            {"op": "shutdown"},
            {"id": "after", "source": GCD, "specs": ["48", "18"]})
        assert responses == [{"ok": True, "op": "shutdown"}]

    def test_malformed_lines_do_not_kill_the_loop(self):
        responses = pump(
            "this is not json",
            "[1, 2, 3]",
            {"op": "teleport"},
            {"specs": ["dyn"]},              # no source and no file
            {"id": "ok", "source": GCD, "specs": ["48", "18"]})
        assert [r.get("ok", "absent") for r in responses[:4]] \
            == [False, False, False, False]
        assert responses[-1]["id"] == "ok"
        assert not responses[-1]["degraded"]

    def test_blank_lines_are_skipped(self):
        responses = pump(
            "", "   ",
            {"id": "ok", "source": GCD, "specs": ["48", "18"]})
        assert len(responses) == 1

    def test_bad_program_degrades_in_band(self):
        [response] = pump({"id": "bad", "source": "(define (f x",
                           "specs": ["dyn"]})
        assert response["degraded"] is True
        assert "ParseError" in response["reason"]


class TestServeLoopRobustness:
    """Satellite regression: wrongly-*typed* fields used to pass
    ``from_dict`` validation and detonate later (``{"source": 42}``
    reached ``fingerprint()`` and killed the loop with an
    ``AttributeError``).  Every shape here must be answered with a
    structured error line, and the loop must keep serving."""

    BAD_LINES = [
        {"source": 42},                               # non-string source
        {"source": GCD, "specs": "not-a-list-item", "id": 7},
        {"source": GCD, "config": "fast"},            # non-object config
        {"source": GCD, "config": ["max_steps", 1]},
        {"source": GCD, "fault": "boom"},             # not a request field
        {"source": GCD, "deadline": "soon"},          # non-number deadline
        {"source": GCD, "deadline": True},
        {"source": GCD, "specs": [1, 2]},             # non-string specs
        {"file": 42},                                 # manifest-only field
        {"source": None},
        # Config values must fit PEConfig's field types.
        *({"source": GCD, "config": config} for config in (
            {"unfold_strategy": None}, {"unfold_strategy": 5},
            {"unfold_strategy": True}, {"max_steps": "5000"},
            {"max_variants": None}, {"simplify": "no"})),
        # json.loads accepts NaN and Infinity; no timer honours them,
        # a deadline at or below 0 is hung on arrival, and a wait of
        # 1e10 s overflows the pool's timed reap.
        *({"source": GCD, "deadline": value}
          for value in (float("nan"), float("inf"), float("-inf"), 0,
                        -1, 1e10)),
    ]

    def test_wrongly_typed_fields_answered_not_fatal(self):
        survivor = {"id": "ok", "source": GCD, "specs": ["48", "18"]}
        responses = pump(*self.BAD_LINES, survivor)
        assert len(responses) == len(self.BAD_LINES) + 1
        for response in responses[:-1]:
            assert response["ok"] is False
            assert response["error"]
        assert responses[-1]["id"] == "ok"
        assert not responses[-1]["degraded"]

    def test_error_lines_echo_the_id_when_stringy(self):
        [response, _] = pump(
            {"id": "who", "source": 42},
            {"op": "shutdown"})
        assert response["ok"] is False
        assert response["id"] == "who"

    def test_health_op(self):
        responses = pump(
            {"id": "a", "source": GCD, "specs": ["48", "18"]},
            {"op": "health"})
        health = responses[-1]
        assert health["ok"] is True and health["op"] == "health"
        assert health["health"]["breakers"]["store"]["state"] \
            == "closed"
        assert health["health"]["quarantine"]["size"] == 0
        assert health["health"]["watchdog"]["recycles"] == 0

    def test_stats_op_carries_hardening_sections(self):
        responses = pump(
            {"id": "a", "source": GCD, "specs": ["48", "18"]},
            {"op": "stats"})
        stats = responses[-1]["stats"]
        assert stats["faults"] == {}
        assert stats["breaker"]["opens"] == 0
        assert stats["quarantine"]["pills"] == 0
        assert stats["watchdog"]["recycles"] == 0

    def test_injected_serve_fault_is_answered_in_band(self):
        plan = {"seed": 21, "seams": {
            "serve.request": {"kinds": ["error"], "at": [1]}}}
        text = "\n".join([
            json.dumps({"id": "a", "source": GCD,
                        "specs": ["48", "18"]}),
            json.dumps({"id": "b", "source": GCD,
                        "specs": ["48", "18"]})]) + "\n"
        out = io.StringIO()
        with SpecializationService(workers=0,
                                   fault_plan=plan) as service:
            serve(service, io.StringIO(text), out)
        first, second = [json.loads(line)
                         for line in out.getvalue().splitlines()]
        assert first["ok"] is False
        assert "injected fault at serve.request" in first["error"]
        assert second["id"] == "b" and not second["degraded"]


class TestRequestsCarryOnlyData:
    """A wire request is data: it cannot name a server file to read
    (``file`` is the batch manifest's) nor steer fault injection
    (``fault``; faults come only from a FaultPlan)."""

    SECRET = "secret text the loop must never serve back\n"

    def test_file_and_fault_are_unknown_fields(self, tmp_path):
        target = tmp_path / "secret.txt"
        target.write_text(self.SECRET)
        lines = [
            {"id": "leak", "file": str(target)},
            {"id": "truncate", "source": GCD, "specs": ["36", "60"],
             "fault": {"kind": "crash", "times": 1,
                       "token": str(target)}},
            {"id": "pill", "source": GCD, "specs": ["50", "15"],
             "fault": {"kind": "crash"}},
        ]
        clean = {"id": "clean", "source": GCD, "specs": ["50", "15"]}
        out = io.StringIO()
        text = "\n".join(json.dumps(line)
                         for line in [*lines, clean]) + "\n"
        with SpecializationService(workers=0) as service:
            serve(service, io.StringIO(text), out)
            crashes = service.stats.worker_crashes
        responses = [json.loads(line)
                     for line in out.getvalue().splitlines()]
        for response, line in zip(responses, lines):
            assert response["ok"] is False
            assert response["id"] == line["id"]
            assert "unknown request field(s)" in response["error"]
        assert target.read_text() == self.SECRET
        assert "secret text" not in out.getvalue()
        assert crashes == 0
        assert not responses[-1]["degraded"]
        assert responses[-1]["reason"] is None


class TestBatchCLI:
    def _manifest(self, tmp_path, entries):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"requests": entries}))
        return path

    def test_batch_writes_results_and_profile(self, tmp_path, capsys):
        manifest = self._manifest(tmp_path, [
            {"id": "g", "source": GCD, "specs": ["48", "18"]},
            {"id": "p", "source": WORKLOADS["power"].source,
             "specs": ["dyn", "5"], "engine": "offline"},
        ])
        out = tmp_path / "results.json"
        profile = tmp_path / "profile.json"
        code = main(["batch", str(manifest), "--workers", "2",
                     "--output", str(out), "--profile", str(profile)])
        assert code == 0
        results = json.loads(out.read_text())
        assert [r["id"] for r in results] == ["g", "p"]
        assert not any(r["degraded"] for r in results)
        report = json.loads(profile.read_text())
        assert report["version"] == 1
        assert report["service"]["submitted"] == 2
        assert report["service"]["completed"] == 2
        assert "batch" in report["phases"]

    def test_batch_stdout_and_stderr_summary(self, tmp_path, capsys):
        manifest = self._manifest(tmp_path, [
            {"id": "g", "source": GCD, "specs": ["48", "18"]}])
        code = main(["batch", str(manifest), "--workers", "0"])
        assert code == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)[0]["id"] == "g"
        assert "1 requests, 0 degraded" in captured.err

    def test_batch_file_references_resolve_against_manifest(
            self, tmp_path, capsys):
        (tmp_path / "prog.ppe").write_text(GCD)
        manifest = self._manifest(tmp_path, [
            {"id": "f", "file": "prog.ppe", "specs": ["48", "18"]}])
        code = main(["batch", str(manifest), "--workers", "0"])
        assert code == 0
        [result] = json.loads(capsys.readouterr().out)
        assert "(define (gcd) 6)" in result["residual"]

    def test_bad_manifest_exits_nonzero(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text("{\"requests\": 7}")
        import pytest
        with pytest.raises(SystemExit):
            main(["batch", str(path)])


class TestServeCLI:
    def test_serve_reads_stdin_writes_stdout(self, tmp_path,
                                             monkeypatch, capsys):
        lines = json.dumps(
            {"id": "g", "source": GCD, "specs": ["48", "18"]}) + "\n" \
            + json.dumps({"op": "shutdown"}) + "\n"
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
        code = main(["serve", "--workers", "0"])
        assert code == 0
        out_lines = capsys.readouterr().out.splitlines()
        assert json.loads(out_lines[0])["id"] == "g"
        assert json.loads(out_lines[-1]) == {"ok": True,
                                             "op": "shutdown"}

    def test_serve_survives_undecodable_bytes_on_stdin(
            self, monkeypatch, capsys):
        # Raw binary junk would raise UnicodeDecodeError in the line
        # iterator before the loop ever saw the line; the CLI re-wraps
        # stdin with errors="replace" so it is answered as bad JSON.
        raw = b"\xff\xfe\x00garbage\n" \
            + json.dumps({"op": "shutdown"}).encode() + b"\n"

        class FakeStdin:
            buffer = io.BytesIO(raw)

        import sys
        monkeypatch.setattr(sys, "stdin", FakeStdin())
        code = main(["serve", "--workers", "0"])
        assert code == 0
        out_lines = capsys.readouterr().out.splitlines()
        first = json.loads(out_lines[0])
        assert first["ok"] is False and "bad JSON" in first["error"]
        assert json.loads(out_lines[-1]) == {"ok": True,
                                             "op": "shutdown"}

    def test_serve_health_flag_and_fault_plan(self, tmp_path,
                                              monkeypatch, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"seed": 4, "seams": {
            "serve.request": {"kinds": ["latency"], "at": [1],
                              "latency_seconds": 0.0}}}))
        health_path = tmp_path / "health.json"
        lines = json.dumps(
            {"id": "g", "source": GCD, "specs": ["48", "18"]}) + "\n" \
            + json.dumps({"op": "shutdown"}) + "\n"
        import sys
        monkeypatch.setattr(sys, "stdin", io.StringIO(lines))
        code = main(["serve", "--workers", "0",
                     "--fault-plan", str(plan),
                     "--health", str(health_path)])
        assert code == 0
        health = json.loads(health_path.read_text())
        assert health["faults"] == {"serve.request:latency": 1}
        assert health["quarantine"]["pills"] == 0

    def test_serve_rejects_an_infinite_default_deadline(self):
        import pytest
        with pytest.raises(SystemExit, match="deadline"):
            main(["serve", "--workers", "0", "--deadline", "inf"])

    def test_serve_rejects_bad_fault_plan(self, monkeypatch):
        import pytest
        with pytest.raises(SystemExit, match="bad fault plan"):
            main(["serve", "--workers", "0",
                  "--fault-plan", "{broken"])
