"""CPU and peak-RSS accounting over a whole process tree.

The program under test is a tree: the benchmark process (batch
workloads) or a gateway subprocess (gateway_zipf), plus its pool
members.  Pool members come and go — the watchdog kills hung ones and
a broken pool is rebuilt — so a sum over live processes alone would
lose the CPU of every member that ended.  A process's CPU moves into
its parent's *children* counters (``RUSAGE_CHILDREN``, the ``cutime``
and ``cstime`` fields of ``/proc/PID/stat``) when the parent reaps it,
so summing own + reaped-children time over the live processes of the
tree counts every CPU second exactly once.
"""

from __future__ import annotations

import os
import resource
from typing import Collection

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            text = handle.read().decode("ascii", "replace")
    except OSError:
        return None
    # The command name may hold spaces; fields resume after its ')'.
    return text[text.rindex(")") + 2:].split()


def _children_map() -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is None:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    return children


def tree(root: int, skip: Collection[int] = ()) -> list[int]:
    """``root`` and its live (or not yet reaped) descendants, less the
    subtrees of ``skip`` (helpers of the benchmark's own)."""
    children = _children_map()
    out, stack = [], [root]
    while stack:
        pid = stack.pop()
        if pid in skip:
            continue
        out.append(pid)
        stack.extend(children.get(pid, ()))
    return out


def tree_cpu_seconds(root: int, skip: Collection[int] = ()) -> float:
    """User + system CPU of the tree so far, reaped members included."""
    total = 0.0
    for pid in tree(root, skip):
        if pid == os.getpid():
            own = resource.getrusage(resource.RUSAGE_SELF)
            reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
            total += own.ru_utime + own.ru_stime \
                + reaped.ru_utime + reaped.ru_stime
            continue
        fields = _stat_fields(pid)
        if fields is None:
            continue
        # utime, stime, cutime, cstime are fields 14-17 of stat(5);
        # after dropping pid and comm they sit at 11..14.
        total += sum(int(fields[i]) for i in range(11, 15)) / _TICK
    return total


def _hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mib(root: int, skip: Collection[int] = ()) -> float:
    """Largest resident set any process of the tree reached: VmHWM of
    the live ones, and ``RUSAGE_CHILDREN``'s maximum for the reaped
    children of this process."""
    peak = max((_hwm_kib(pid) for pid in tree(root, skip)), default=0)
    if root == os.getpid():
        peak = max(peak,
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0
