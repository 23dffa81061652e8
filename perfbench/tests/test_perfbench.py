"""The benchmark's own tests: smoke runs, determinism, the oracle,
process accounting and the refusal to run without the program.

Run from the repository root::

    python -m pytest perfbench/tests -q

Every workload runs in ``--smoke`` mode (a few seconds each).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import (families, hostspeed, oracle, procs,  # noqa: E402
                       workloads)
from repro.lang.values import Vector  # noqa: E402
from repro.service import SpecRequest  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
WORKDIR = ROOT / ".perfbench_test"


def _run(workload: str, seed: int = 7, trace: int = 0,
         detail: Path | None = None, cwd: Path = ROOT) -> tuple[int, str]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", "2", "--trace", str(trace),
            "--smoke"]
    if detail is not None:
        argv += ["--detail", str(detail)]
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    return done.returncode, done.stdout


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def workdir():
    WORKDIR.mkdir(exist_ok=True)
    yield WORKDIR
    shutil.rmtree(WORKDIR, ignore_errors=True)


@pytest.mark.timeout(180)
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric(workload, trace):
    code, stdout = _run(workload, trace=trace)
    assert code == 0, stdout
    result = _last_json(stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, stdout
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        for name in ("setup_s", "throughput_rps", "cpu_ms_per_request"):
            assert result["metrics"][name]["value"] > 0


@pytest.mark.timeout(180)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_outcomes(workload, workdir):
    runs = []
    for attempt in range(2):
        detail = workdir / f"{workload}-{attempt}.json"
        code, stdout = _run(workload, seed=11, detail=detail)
        assert code == 0, stdout
        runs.append((_last_json(stdout),
                     json.loads(detail.read_text())))
    (first, first_detail), (second, second_detail) = runs
    assert first["attempted"] == second["attempted"]
    assert first["failed"] == second["failed"]
    # Request ids, failure flags, reasons and residual bytes.
    differing = {rid: (outcome[:3], second_detail["outcomes"].get(rid,
                                                                  ())[:3])
                 for rid, outcome in first_detail["outcomes"].items()
                 if outcome != second_detail["outcomes"].get(rid)}
    assert not differing, differing
    assert first_detail["counts"] == second_detail["counts"]
    for name in ("ok_share", "residual_kb_mean", "residual_steps_ratio"):
        assert first["metrics"][name] == second["metrics"][name]


def test_manifests_follow_the_seed():
    def fingerprints(seed):
        warm, rounds = families.fresh_manifests(seed, 60, 51, 2)
        return [p.request.fingerprint() for p in warm] \
            + [p.request.fingerprint() for r in rounds for p in r]

    assert fingerprints(3) == fingerprints(3)
    assert fingerprints(3) != fingerprints(4)
    assert len(set(fingerprints(3))) == len(fingerprints(3))
    zipf_a = families.zipf_plan(3, 60, 200, 0.05)
    zipf_b = families.zipf_plan(3, 60, 200, 0.05)
    assert [p.request.id for p in zipf_a[1]] \
        == [p.request.id for p in zipf_b[1]]
    hostile = [p.request.fingerprint() for p in families.hostile_cycle(3)]
    assert hostile == [p.request.fingerprint()
                       for p in families.hostile_cycle(3)]
    assert hostile != [p.request.fingerprint()
                       for p in families.hostile_cycle(4)]


def test_hostile_holds_every_known_failing_pair():
    cycle = families.hostile_cycle(5)
    present = {(p.family, p.request.engine) for p in cycle}
    for label, engine, _ in families.KNOWN_FAILING:
        assert (label, engine) in present
    for case in families.ADVERSARIAL_CASES:
        for engine in families.ENGINES:
            assert (f"adversarial/{case.name}", engine) in present
    served = {(f.label, engine) for f, engine in families.served_pairs()}
    assert not served & {(label, engine)
                         for label, engine, _ in families.KNOWN_FAILING}


def test_power_oracle_inputs_tell_exponents_apart():
    rng = random.Random(1)
    for label in ("power/static_n", "power/sign_x"):
        family = next(f for f in families.SERVED if f.label == label)
        for _ in range(50):
            _, args = family.draw(rng)
            assert all(abs(x) >= 2 for x, _ in args)


def _answer(family: str, residual: str, known_failure=None):
    source = "(define (f v i) (vref v i))"
    request = SpecRequest.create(
        source=source, specs=["#(1 2)", "dyn"], engine="online", id=family)
    planned = families.Planned(
        request, family, ((Vector.of([1, 2]), 2),), known_failure)
    document = {"residual": residual, "goal_params": ["i"],
                "degraded": False}
    return workloads.Answer(planned, 200, document)


def test_known_unparseable_residual_lowers_ok_share_only():
    unreadable = "(define (f i) (vref #(1 2) i))"
    expected = workloads.check_answers(
        [_answer("a", unreadable, families.UNPARSEABLE)])
    assert (expected.correct, expected.failed, expected.not_ok) \
        == (True, 0, 1)
    # The same answer where no failure is expected fails the run ...
    unexpected = workloads.check_answers([_answer("b", unreadable)])
    assert (unexpected.correct, unexpected.failed) == (False, 1)
    # ... and once the residual reads back, it counts as served.
    fixed = workloads.check_answers([_answer(
        "c", "(define (f i) (if (= i 1) 1.0 2.0))", families.UNPARSEABLE)])
    assert (fixed.correct, fixed.failed, fixed.not_ok) == (True, 0, 0)


def test_speed_scaled_metrics_follow_the_probe():
    # Two set-ups on a host half as fast as the reference, two rounds
    # on one a quarter faster.
    samples = {"setup_s": [(4.0, 0.5), (6.0, 0.5)],
               "throughput_rps": [(100.0, 1.25), (120.0, 1.25)],
               "cpu_ms_per_request": [(6.0, 1.25), (8.0, 1.25)]}
    fresh = workloads._time_metrics("batch_fresh", samples)
    assert (fresh["setup_s"], fresh["throughput_rps"],
            fresh["cpu_ms_per_request"]) == (2.5, 88.0, 8.75)
    assert (fresh["raw.setup_s"], fresh["raw.throughput_rps"]) \
        == (5.0, 110.0)
    hostile = workloads._time_metrics("batch_hostile", samples)
    assert (hostile["setup_s"], hostile["throughput_rps"],
            hostile["cpu_ms_per_request"]) == (2.5, 110.0, 7.0)
    assert "raw.throughput_rps" not in hostile


def test_probe_process_is_stopped_and_read():
    with hostspeed.Sampler() as sampler:
        began = time.perf_counter()
        time.sleep(1.0)
        span = (began, time.perf_counter())
    for pid in sampler.pids:
        assert not Path(f"/proc/{pid}").exists()
    # One probe per vCPU, one pass per 100 ms each.
    assert len(sampler.passes) >= 3 * len(os.sched_getaffinity(0))
    assert 0 < sampler.factor([span]) < 100


def test_oracle_rejects_a_wrong_residual():
    source = "(define (f x y) (+ x y))"
    good = oracle.check(source, "(define (f x) (+ x 2))", ("x",),
                        [(1, 2), (5, 2)])
    assert good.ok and good.source_steps > 0
    bad = oracle.check(source, "(define (f x) (+ x 3))", ("x",),
                       [(1, 2)])
    assert not bad.ok
    assert not oracle.check(source, "(define (f x) (", ("x",),
                            [(1, 2)]).ok


def test_cpu_of_reaped_children_is_counted():
    before = procs.tree_cpu_seconds(os.getpid())
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import time\nt = time.process_time()\n"
         "while time.process_time() - t < 0.3: pass"])
    child.wait(timeout=60)
    assert procs.tree_cpu_seconds(os.getpid()) - before >= 0.25
    assert procs.tree_peak_rss_mib(os.getpid()) > 0


def test_exits_nonzero_without_the_program(workdir):
    bare = workdir / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    began = time.monotonic()
    done = subprocess.run(
        [*BENCHMARK["command"], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout
    assert time.monotonic() - began < 170
