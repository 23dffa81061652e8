"""The :class:`FaultInjector` and the injection-point functions.

Call sites declare a *seam* and what they can realize::

    # a plain failure seam: may sleep or raise the designated error
    fault_point("store.read", key=key,
                error=lambda msg: sqlite3.OperationalError(msg))

    # a payload-bearing seam: may return a corrupted payload
    text = fault_payload("store.read.payload", text, key=key)

    # a seam decided here and realized in another process
    decision = fault_decision("worker.execute", key=request_id)
    ...  # ship ``decision``; the receiver calls realize(decision, ...)

With no installed plan each of these is a single module-global
``None`` check — the production cost of carrying the injection points
(benchmarked ≤ 2 % in ``benchmarks/bench_chaos_soak.py``).

Determinism: whether hit *n* of a seam fires — and which kind it
realizes — is a pure SHA-256 hash of ``(seed, seam, n)``.  Replaying
the same plan over the same per-process call sequence therefore
reproduces the identical injection trace; :meth:`FaultInjector.trace`
exposes it for assertion (``seam#hit:kind[@key]`` strings).
"""

from __future__ import annotations

import hashlib
import time
from typing import Any, Callable, Mapping

from repro.faults.plan import FaultPlan, SeamSchedule


class InjectedFault(RuntimeError):
    """The default exception an ``error`` fault raises when the call
    site designates no seam-specific exception."""


class FaultInjector:
    """One installed :class:`FaultPlan`, with per-seam hit counters
    and the trace of every firing."""

    def __init__(self, plan: FaultPlan,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.plan = plan
        self._sleep = sleep
        #: Hits per seam (fired or not), 1-based after increment.
        self.hits: dict[str, int] = {}
        #: Firings per seam (the ``times`` cap meters these).
        self.fired: dict[str, int] = {}
        #: Injections fired, by ``seam:kind`` (a firing decided for
        #: another process counts here even if it is never realized).
        self.injected: dict[str, int] = {}
        #: The ordered trace: ``seam#hit:kind[@key]``.
        self.events: list[str] = []

    # -- decisions -----------------------------------------------------
    def _decide(self, schedule: SeamSchedule, seam: str,
                hit: int) -> str | None:
        """The kind hit ``hit`` realizes, or ``None``.  Pure in
        ``(seed, seam, hit)``."""
        fired = self.fired.get(seam, 0)
        if schedule.times is not None and fired >= schedule.times:
            return None
        if schedule.triggers(hit):
            pass
        elif schedule.probability > 0.0:
            if _unit(self.plan.seed, seam, hit, "fire") \
                    >= schedule.probability:
                return None
        else:
            return None
        kinds = schedule.kinds
        if len(kinds) == 1:
            return kinds[0]
        index = int(_unit(self.plan.seed, seam, hit, "kind")
                    * len(kinds))
        return kinds[min(index, len(kinds) - 1)]

    def decide(self, seam: str, key: str | None = None,
               supported: tuple[str, ...] = ("crash", "hang", "latency",
                                             "error")) -> dict | None:
        """Count one hit of ``seam`` and decide it without realizing
        it.  A firing of a ``supported`` kind is recorded and returned
        as plain data (``seam``, ``hit``, ``kind``, ``seconds``) for
        :func:`realize`, possibly in another process: the scheduler
        decides ``worker.execute`` this way and ships the decision to
        the worker.  A hit whose key the schedule's ``keys`` do not
        list is not counted."""
        schedule = self.plan.seams.get(seam)
        if schedule is None or (schedule.keys
                                and key not in schedule.keys):
            return None
        hit = self.hits.get(seam, 0) + 1
        self.hits[seam] = hit
        kind = self._decide(schedule, seam, hit)
        if kind not in supported:
            return None
        self.fired[seam] = self.fired.get(seam, 0) + 1
        label = f"{seam}:{kind}"
        self.injected[label] = self.injected.get(label, 0) + 1
        self.events.append(f"{seam}#{hit}:{kind}"
                           + (f"@{key}" if key else ""))
        seconds = schedule.hang_seconds if kind == "hang" \
            else schedule.latency_seconds
        return {"seam": seam, "hit": hit, "kind": kind,
                "seconds": seconds}

    # -- realization ---------------------------------------------------
    def hit(self, seam: str, key: str | None = None,
            error: Callable[[str], BaseException] | None = None,
            crash: Callable[[], Any] | None = None) -> None:
        """One pass through a plain injection point; may sleep, raise,
        or kill the process.  Unsupported kinds (a ``crash`` where the
        call site gave no crash action) are skipped silently."""
        supported = ("hang", "latency", "error") \
            + (("crash",) if crash is not None else ())
        decision = self.decide(seam, key, supported)
        if decision is not None:
            realize(decision, error, crash, self._sleep)

    def hit_payload(self, seam: str, payload: str,
                    key: str | None = None) -> str:
        """One pass through a payload-bearing point; may return a
        corrupted payload (only the ``corrupt`` kind applies)."""
        decision = self.decide(seam, key, ("corrupt",))
        if decision is None:
            return payload
        return _corrupt(payload, self.plan.seed, seam, decision["hit"])

    # -- introspection -------------------------------------------------
    def trace(self) -> list[str]:
        """The ordered injection trace (a copy)."""
        return list(self.events)

    def counters(self) -> dict[str, int]:
        """Injections fired, keyed ``seam:kind`` — the ``faults``
        section of :class:`~repro.observability.ServiceStats`."""
        return dict(self.injected)


def realize(decision: Mapping[str, Any],
            error: Callable[[str], BaseException] | None = None,
            crash: Callable[[], Any] | None = None,
            sleep: Callable[[float], None] = time.sleep) -> None:
    """Act on a :meth:`FaultInjector.decide` firing: sleep for
    ``hang``/``latency``, raise the call site's designated exception
    (default :class:`InjectedFault`) for ``error``, run ``crash``."""
    kind = decision["kind"]
    if kind in ("hang", "latency"):
        sleep(decision["seconds"])
    elif kind == "error":
        message = (f"injected fault at {decision['seam']} "
                   f"(hit {decision['hit']})")
        raise (error(message) if error is not None
               else InjectedFault(message))
    elif kind == "crash" and crash is not None:
        crash()


def _unit(seed: int, seam: str, hit: int, salt: str) -> float:
    """A deterministic draw in ``[0, 1)`` from ``(seed, seam, hit)``."""
    blob = f"{seed}|{seam}|{hit}|{salt}".encode("utf-8")
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


def _corrupt(payload: str, seed: int, seam: str, hit: int) -> str:
    """Deterministically damage one character of ``payload`` (or
    append one to an empty payload) — enough to break any checksum."""
    if not payload:
        return "\x00"
    index = int(_unit(seed, seam, hit, "pos") * len(payload))
    index = min(index, len(payload) - 1)
    flipped = chr((ord(payload[index]) ^ 0x01) & 0x10FFFF)
    if flipped == payload[index]:  # pragma: no cover — xor 1 always differs
        flipped = "\x00"
    return payload[:index] + flipped + payload[index + 1:]


#: The active injector; ``None`` (the production default) makes every
#: injection point a single attribute check.
_ACTIVE: FaultInjector | None = None


def install(plan: FaultPlan | Mapping[str, Any] | None,
            sleep: Callable[[float], None] = time.sleep) \
        -> FaultInjector | None:
    """Install ``plan`` process-globally (``None`` uninstalls).
    Returns the active injector.  Re-installing an identical plan
    keeps the current injector (and its counters) — the idempotence
    long-lived worker processes rely on."""
    global _ACTIVE
    if plan is None:
        _ACTIVE = None
        return None
    if not isinstance(plan, FaultPlan):
        plan = FaultPlan.from_dict(plan)
    if _ACTIVE is not None and _ACTIVE.plan.digest() == plan.digest():
        return _ACTIVE
    _ACTIVE = FaultInjector(plan, sleep=sleep)
    return _ACTIVE


def uninstall() -> None:
    """Remove the active plan (every point back to a no-op)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> FaultInjector | None:
    """The process-global injector, if a plan is installed."""
    return _ACTIVE


def fault_point(seam: str, key: str | None = None,
                error: Callable[[str], BaseException] | None = None,
                crash: Callable[[], Any] | None = None) -> None:
    """A named injection point; a no-op unless a plan is installed."""
    if _ACTIVE is None:
        return
    _ACTIVE.hit(seam, key=key, error=error, crash=crash)


def fault_decision(seam: str, key: str | None = None) -> dict | None:
    """Decide a plain injection point here and realize it elsewhere
    (see :meth:`FaultInjector.decide`); ``None`` unless a plan is
    installed and the hit fires."""
    if _ACTIVE is None:
        return None
    return _ACTIVE.decide(seam, key=key)


def fault_payload(seam: str, payload: str,
                  key: str | None = None) -> str:
    """A payload-bearing injection point; identity unless a plan is
    installed (the ``corrupt`` kind mutates the payload)."""
    if _ACTIVE is None:
        return payload
    return _ACTIVE.hit_payload(seam, payload, key=key)
