"""``ppe gateway`` with the benchmark's tracing wrappers installed.

Usage: ``python traced_gateway.py SPAN_DIR GATEWAY-ARGS...``.  Tracing
is on from the start; the spans of this process are written to
``SPAN_DIR/process-PID.json`` when the gateway exits (SIGTERM), those
of its pool members by the members themselves.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    from perfbench import tracing
    from repro.cli import main as ppe_main

    span_dir = Path(sys.argv[1])
    tracing.install(span_dir)
    tracing.ENABLED.value = 1
    try:
        return ppe_main(sys.argv[2:])
    finally:
        tracing.ENABLED.value = 0
        tracing.dump(span_dir / f"process-{os.getpid()}.json")


if __name__ == "__main__":
    sys.exit(main())
