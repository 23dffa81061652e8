"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``--smoke`` shrinks every workload to a
few seconds (the benchmark's own tests use it); ``--detail PATH`` also
writes the per-request outcomes and tier counters there as JSON.

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("batch_fresh", "gateway_zipf", "batch_hostile")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--detail", type=Path, default=None)
    options = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    # A terminated run still unwinds, so the gateway and pool it started
    # are stopped and waited for.  Forked pool members get the default
    # action back, so the watchdog's terminate still kills them at once.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.register_at_fork(after_in_child=lambda: signal.signal(
        signal.SIGTERM, signal.SIG_DFL))
    # A run must end within 180 s; past 170 it gives up the same way.
    signal.signal(signal.SIGALRM, lambda *_: sys.exit(124))
    signal.alarm(170)

    result = workloads.run(options.workload, options.seed,
                           options.seconds, bool(options.trace),
                           ROOT / ".perfbench_work", smoke=options.smoke)
    signal.alarm(0)
    detail = result.pop("_detail", {})
    if options.detail is not None:
        options.detail.write_text(json.dumps(detail, sort_keys=True))
    for problem in detail.get("problems", []):
        print(f"problem: {problem}")
    for name, metric in result["metrics"].items():
        print(f"{options.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']}")
    for name, metric in detail.get("printed", {}).items():
        print(f"{options.workload} {name} = {metric['value']:.6g} "
              f"{metric['unit']} (printed only, no bound)")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
