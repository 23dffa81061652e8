"""Experiment: resource-governance overhead.

The budget meter is the walk's run state (``repro.online.walk.Ctx``)
and sits on the hot path: one comparison per node visit, the step and
wall-clock checks every ``repro.engine.budget.STEP_STRIDE`` steps, and
one count and comparison per residual node.  So it must be near-free
when nothing is close to exhaustion.  This benchmark times the online
specializer on the Figure 8 inner product and on the higher-order
pipeline twice — once with the default (finite but huge) budgets and
once with every budget dimension disabled — and asserts the governed
median stays within 5% of the ungoverned one.

With ``REPRO_BENCH_JSON_DIR`` set, the measured pairs go to
``BENCH_budget_overhead.json`` like every benchmark's rows (the CI
``bench`` job archives it).
"""

from __future__ import annotations

import statistics
import time

from repro.lang.values import VECTOR
from repro.online.config import PEConfig
from repro.online.specializer import specialize_online
from repro.workloads import WORKLOADS

#: Budgets off: with no step or wall-clock budget the meter skips
#: those checks at each ``STEP_STRIDE`` mark, and with no node budget
#: it only counts residual nodes.
UNGOVERNED = PEConfig(max_steps=None, max_residual_nodes=None)
GOVERNED = PEConfig()  # the defaults: 1M steps / 250k nodes

ROUNDS = 25

#: The acceptance bound, plus an absolute floor so timer noise on a
#: sub-millisecond workload cannot fail the relative check.
MAX_OVERHEAD = 0.05
NOISE_FLOOR_SECONDS = 0.002


def _paired_medians(governed, ungoverned) -> tuple[float, float]:
    """Interleave the two variants so load drift hits both equally."""
    governed_samples, ungoverned_samples = [], []
    for _ in range(ROUNDS):
        for run, samples in ((governed, governed_samples),
                             (ungoverned, ungoverned_samples)):
            started = time.perf_counter()
            run()
            samples.append(time.perf_counter() - started)
    return (statistics.median(governed_samples),
            statistics.median(ungoverned_samples))


def _assert_overhead(report, bench_record, name, governed,
                     ungoverned):
    overhead = (governed - ungoverned) / ungoverned
    report(f"{name}: governed {governed * 1e3:.2f}ms, "
           f"ungoverned {ungoverned * 1e3:.2f}ms, "
           f"overhead {overhead:+.1%}")
    assert governed - ungoverned <= max(
        MAX_OVERHEAD * ungoverned, NOISE_FLOOR_SECONDS), \
        f"{name}: governance overhead {overhead:.1%} exceeds 5%"
    bench_record(name, governed_seconds=round(governed, 6),
                 ungoverned_seconds=round(ungoverned, 6),
                 overhead=round(overhead, 4))


def test_overhead_inner_product(benchmark, report, size_suite,
                                bench_record):
    program = WORKLOADS["inner_product"].program()
    inputs = [size_suite.input(VECTOR, size=64)] * 2

    def governed():
        return specialize_online(program, inputs, size_suite, GOVERNED)

    def ungoverned():
        return specialize_online(program, inputs, size_suite,
                                 UNGOVERNED)

    # Warm the dispatch/interning caches before measuring either side.
    assert governed().program == ungoverned().program
    governed_s, ungoverned_s = _paired_medians(governed, ungoverned)
    benchmark(governed)
    _assert_overhead(report, bench_record, "inner_product(size=64)",
                     governed_s, ungoverned_s)


def test_overhead_higher_order(benchmark, report, rich_suite,
                               bench_record):
    program = WORKLOADS["ho_pipeline"].program()
    inputs = [rich_suite.input(VECTOR, size=8),
              rich_suite.const_vector(2.0)]

    def governed():
        return specialize_online(program, inputs, rich_suite, GOVERNED)

    def ungoverned():
        return specialize_online(program, inputs, rich_suite,
                                 UNGOVERNED)

    assert governed().program == ungoverned().program
    governed_s, ungoverned_s = _paired_medians(governed, ungoverned)
    benchmark(governed)
    _assert_overhead(report, bench_record, "ho_pipeline(size=8)",
                     governed_s, ungoverned_s)
