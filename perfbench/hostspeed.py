"""The host's speed during a run, from a reference loop beside it.

On a shared virtual machine the same code runs faster or slower from
one second to the next and from one hour to the next: on the 2-vCPU
development host a fixed pure-Python loop switched between about 17 and
33 ms per pass in spells of 0.2-3 s, each vCPU on its own, and sets of
ten batch_fresh runs half an hour apart gave medians of 229 and 315
req/s.  Loops timed only while the program is idle sample too few of
those spells: normalized by them, batch_fresh spread more than it did
raw.

So a :class:`Sampler` runs one probe process per vCPU, pinned to it, for
the whole run beside the program; every 100 ms each times one 2 ms pass
of the reference loop in thread CPU time (about 2% of its vCPU), so
both vCPUs the program runs on are watched all the time.  CPU time
leaves out the time a probe waits for its vCPU, so the program keeping
both vCPUs busy does not slow it down (with zero, one or two busy
processes beside one probe the mean pass was 1.93, 2.08 and 1.78 ms,
within the host's own spread); what moves it is how fast the host runs
code.  :meth:`Sampler.factor` is the reference pass time over the mean
pass time within given spans of the run, and the metrics that scale
with the host's speed are reported as they would read on the reference
host: a duration is multiplied and a rate divided by it.

The loop is a small tree evaluator over tuples, dicts and closures:
call-heavy, allocation-heavy pure Python like the program under test,
but none of its code, so a change to the program does not change the
probe's own work.

Run as a script with a CPU number, this file is a probe process: pinned
to that CPU, it times passes until a line (or the end) arrives on its
standard input, then prints one ``perf_counter cpu_seconds`` line per
pass.
"""

from __future__ import annotations

import os
import select
import statistics
import subprocess
import sys
import time

#: Mean thread CPU seconds of one pass on the reference host (the 2-vCPU
#: Intel Xeon virtual machine at 2.0 GHz the bounds were set on).  Only
#: the scale of the reported values depends on it.
REFERENCE = 0.0021
#: Seconds between the starts of two passes.
INTERVAL = 0.1

_OPS = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
        "*": lambda a, b: (a * b) % 1_000_003,
        "max": max, "min": min}
_NAMES = tuple(_OPS)


def _build(depth: int, seed: int):
    if depth == 0:
        return ("var", "xyz"[seed % 3]) if seed % 4 else ("lit", seed % 97)
    return ("op", _NAMES[seed % len(_NAMES)],
            _build(depth - 1, seed * 7 + 1), _build(depth - 1, seed * 5 + 3))


def _eval(node, env: dict) -> int:
    kind = node[0]
    if kind == "lit":
        return node[1]
    if kind == "var":
        return env[node[1]]
    return _OPS[node[1]](_eval(node[2], env), _eval(node[3], env))


def _one_pass() -> int:
    total = 0
    for i in range(15):
        tree = _build(7, i)
        total += _eval(tree, {"x": i, "y": i * 3 + 1, "z": i % 5})
    return total


class Sampler:
    """The probe processes, from construction to the end of its
    ``with`` block."""

    def __init__(self) -> None:
        #: ``(perf_counter at start, thread CPU seconds)`` per pass, of
        #: every vCPU.
        self.passes: list[tuple[float, float]] = []
        self._processes = [
            subprocess.Popen([sys.executable, __file__, str(cpu)],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True)
            for cpu in sorted(os.sched_getaffinity(0))]

    @property
    def pids(self) -> frozenset[int]:
        return frozenset(process.pid for process in self._processes)

    def __enter__(self) -> "Sampler":
        return self

    def __exit__(self, *exc) -> None:
        """End the probe processes and collect their passes."""
        for process in self._processes:
            try:
                # A line, not end of file, stops the probe: pool members
                # forked after it hold the pipe's write end too.
                out, _ = process.communicate("stop\n", timeout=30)
            except BaseException:
                for other in self._processes:
                    other.kill()
                    other.wait()
                raise
            self.passes += [(float(at), float(cpu)) for at, cpu
                            in (line.split() for line in out.splitlines())]

    def factor(self, spans: list[tuple[float, float]]) -> float:
        """Reference seconds per second of this host within ``spans``
        (``(start, end)`` readings of ``perf_counter``, which compare
        across processes on Linux): the reference pass time over the
        mean pass time."""
        return REFERENCE / statistics.fmean(
            cpu for at, cpu in self.passes
            if any(start <= at <= end for start, end in spans))


def _probe(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    _one_pass()  # warm the interpreter's caches; not a sample
    lines = []
    while not select.select([sys.stdin], [], [], INTERVAL)[0]:
        at, cpu0 = time.perf_counter(), time.thread_time()
        _one_pass()
        lines.append(f"{at!r} {time.thread_time() - cpu0!r}")
    print("\n".join(lines))


if __name__ == "__main__":
    _probe(int(sys.argv[1]))
