"""``stats.backend``: the compiled backend's profile counters."""

from __future__ import annotations

import json

from repro.cli import main
from repro.observability import BackendStats, build_report


def test_counters_round_trip_through_as_dict():
    stats = BackendStats(compiles=2, compile_seconds=0.25,
                         compiled_runs=7, artifact_reuses=3,
                         shadow_runs=5, shadow_inconclusive=1,
                         mismatches=0)
    assert stats.as_dict() == {
        "compiles": 2, "compile_seconds": 0.25, "compiled_runs": 7,
        "artifact_reuses": 3, "shadow_runs": 5,
        "shadow_inconclusive": 1, "mismatches": 0,
    }


def test_build_report_backend_section():
    stats = BackendStats(compiles=1, compiled_runs=2)
    report = build_report(command="ppe batch m.json",
                          backend_stats=stats)
    assert report["stats"]["backend"]["compiles"] == 1
    assert report["stats"]["backend"]["compiled_runs"] == 2


def test_build_report_without_backend_has_no_section():
    report = build_report(command="ppe batch m.json")
    assert "backend" not in report.get("stats", {})


def test_cli_batch_profile_reports_backend_section(tmp_path, capsys):
    program = tmp_path / "gcd.ppe"
    program.write_text(
        "(define (gcd a b) (if (= b 0) a (gcd b (mod a b))))")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([
        {"file": "gcd.ppe", "specs": ["dyn", "18"], "id": "g"},
    ]))
    profile_path = tmp_path / "profile.json"
    assert main(["batch", str(manifest), "--workers", "0",
                 "--backend", "compiled",
                 "--profile", str(profile_path)]) == 0
    capsys.readouterr()
    report = json.loads(profile_path.read_text())
    assert report["stats"]["backend"]["compiles"] == 1
    assert report["stats"]["backend"]["mismatches"] == 0

    # The interp backend keeps the report exactly as it was.
    profile_interp = tmp_path / "profile_interp.json"
    assert main(["batch", str(manifest), "--workers", "0",
                 "--profile", str(profile_interp)]) == 0
    capsys.readouterr()
    report = json.loads(profile_interp.read_text())
    assert "backend" not in report.get("stats", {})
