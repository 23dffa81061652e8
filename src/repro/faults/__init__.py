"""Deterministic, seeded fault injection for the serving stack.

The service's failure contract — *never raise, never serve wrong
bytes* — is enforced by machinery scattered across many seams:
scheduler retry/backoff, budget degradation, store quarantine, genext
re-emission, circuit breakers, the poison-pill quarantine and the
hung-worker watchdog.  This package is how all of those seams are
exercised **together**, on demand, reproducibly:

* :class:`FaultPlan` (:mod:`repro.faults.plan`) — a JSON-serializable
  description of *what* to break: a seed plus a per-seam schedule
  (probability and/or explicit hit triggers, fault kinds, timing
  knobs).  Settable via the ``REPRO_FAULT_PLAN`` environment variable
  (inline JSON or a file path) and the ``--fault-plan`` CLI flag.
* :class:`FaultInjector` (:mod:`repro.faults.inject`) — the active
  plan, consulted by named injection points
  (:func:`fault_point` / :func:`fault_payload`) threaded through every
  failure seam in the stack (see :data:`SEAMS`).  ``worker.execute``,
  decided by the scheduler and realized in the worker, goes through
  :func:`fault_decision` and :func:`realize`.  ``store.write`` counts
  store write transactions, not rows: the service writes a whole
  ``run_batch`` call's results in one.  Decisions are a pure
  function of ``(seed, seam, hit-index)``, so re-running a seed
  reproduces the identical injection trace; every firing is recorded
  in an inspectable trace.

When no plan is installed (the production default), every injection
point short-circuits on one module-global ``None`` check — the
benchmarked overhead of the disabled path is ≤ 2 %
(``benchmarks/bench_chaos_soak.py``).
"""

from repro.faults.inject import (
    FaultInjector, InjectedFault, active, fault_decision, fault_payload,
    fault_point, install, realize, uninstall)
from repro.faults.plan import FAULT_KINDS, FAULT_PLAN_ENV, SEAMS, FaultPlan

__all__ = [
    "FAULT_KINDS", "FAULT_PLAN_ENV", "FaultInjector", "FaultPlan",
    "InjectedFault", "SEAMS", "active", "fault_decision",
    "fault_payload", "fault_point", "install", "realize", "uninstall",
]
