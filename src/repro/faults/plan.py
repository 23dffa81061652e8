"""The :class:`FaultPlan`: what to break, where, and when.

A plan is plain JSON so it travels everywhere a request does — the
``REPRO_FAULT_PLAN`` environment variable, the ``--fault-plan`` CLI
flag, and the worker payloads the scheduler ships to pool processes::

    {"seed": 42,
     "seams": {
       "store.read":    {"kinds": ["error"], "probability": 0.1},
       "worker.execute": {"kinds": ["crash", "hang"], "at": [3, 7],
                          "hang_seconds": 0.05}}}

Per-seam schedule fields (any combination; a hit fires when *any*
trigger matches):

``probability``
    Chance in ``[0, 1]`` that a given hit fires.  The draw is **not**
    a stateful RNG: it is a pure hash of ``(seed, seam, hit index)``,
    so two runs of the same plan over the same call sequence produce
    the identical injection trace.
``at``
    Explicit 1-based hit indices that always fire — the deterministic
    trigger the breaker/quarantine/watchdog unit tests use.
``every``
    Fire every N-th hit (1-based: hits N, 2N, ...).
``times``
    Cap on total firings for the seam (``None`` = unlimited).
``keys``
    Request ids to target (``worker.execute`` and
    ``scheduler.dispatch`` key their hits by request id).  A hit whose
    key is not listed neither fires nor advances the seam's count.
``kinds``
    Fault kinds to choose from, a subset of :data:`FAULT_KINDS`; the
    choice among several is again a pure hash.  Kinds a call site does
    not support are skipped (a ``crash`` scheduled on a store seam is
    a no-op, not an error).
``hang_seconds`` / ``latency_seconds``
    Sleep durations for the ``hang`` and ``latency`` kinds.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

#: Environment variable carrying a plan: inline JSON (first character
#: ``{``) or the path of a JSON file.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Every fault kind an injection point can be asked to realize.
#:
#: * ``crash``   — kill the worker process (pool) / raise
#:   :class:`~repro.service.worker.WorkerCrash` (inline); only
#:   supported at seams that declare a crash action.
#: * ``hang``    — sleep ``hang_seconds`` (drive deadlines/watchdog).
#: * ``latency`` — sleep ``latency_seconds`` (jitter, not failure).
#: * ``error``   — raise the call site's designated transient
#:   exception (e.g. a locked-database error at store seams).
#: * ``corrupt`` — mutate the payload passing through a
#:   :func:`~repro.faults.inject.fault_payload` point (drive checksum
#:   quarantine); only supported at payload-bearing seams.
FAULT_KINDS = ("crash", "hang", "latency", "error", "corrupt")

#: The named injection points threaded through the stack, with the
#: kinds each supports.  A plan naming an unknown seam is rejected up
#: front — a typo must not silently inject nothing.  Each seam counts
#: its hits where it is decided: ``worker.execute`` on the scheduling
#: thread (once per attempt), the store, genext and backend seams in
#: whichever process hits them.  ``store.write`` counts one hit per
#: write transaction, keyed by its first row: one per ``put`` (a
#: genext bundle) and one per ``run_batch`` for all of its results
#: (``ArtifactStore.put_many``), not one per result.  It fires inside
#: the transaction, so an injected lock rolls back the whole batch and
#: goes through the store's lock retries, each a hit of its own.
SEAMS = {
    "store.read": ("error", "hang", "latency"),
    "store.read.payload": ("corrupt",),
    "store.write": ("error", "hang", "latency"),
    "store.evict": ("error",),
    "worker.execute": ("crash", "hang", "latency", "error"),
    "genext.load": ("error", "latency"),
    "backend.compile": ("error", "latency"),
    "scheduler.dispatch": ("error", "latency"),
    "serve.request": ("error", "latency"),
    "gateway.accept": ("error", "latency"),
    "gateway.admit": ("error", "latency"),
    "gateway.respond": ("error", "latency"),
}


@dataclass(frozen=True)
class SeamSchedule:
    """The validated per-seam schedule of one plan entry."""

    seam: str
    kinds: tuple[str, ...]
    probability: float = 0.0
    at: tuple[int, ...] = ()
    every: int | None = None
    times: int | None = None
    keys: tuple[str, ...] = ()
    hang_seconds: float = 30.0
    latency_seconds: float = 0.01

    def triggers(self, hit: int) -> bool:
        """Does the schedule (probability aside) fire on ``hit``
        (1-based)?"""
        if hit in self.at:
            return True
        return self.every is not None and hit % self.every == 0

    def as_dict(self) -> dict:
        payload: dict[str, Any] = {"kinds": list(self.kinds)}
        if self.probability:
            payload["probability"] = self.probability
        if self.at:
            payload["at"] = list(self.at)
        if self.every is not None:
            payload["every"] = self.every
        if self.times is not None:
            payload["times"] = self.times
        if self.keys:
            payload["keys"] = list(self.keys)
        payload["hang_seconds"] = self.hang_seconds
        payload["latency_seconds"] = self.latency_seconds
        return payload


_SCHEDULE_FIELDS = {"kinds", "probability", "at", "every", "times",
                    "keys", "hang_seconds", "latency_seconds"}


@dataclass(frozen=True)
class FaultPlan:
    """One validated fault-injection plan; see module docstring."""

    seed: int
    seams: Mapping[str, SeamSchedule] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        if not isinstance(data, Mapping):
            raise ValueError(
                f"fault plan must be an object, got {data!r}")
        unknown = sorted(set(data) - {"seed", "seams"})
        if unknown:
            raise ValueError(
                f"unknown fault-plan field(s) {unknown}; known: "
                f"['seams', 'seed']")
        seed = data.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"fault-plan seed must be an int, got "
                             f"{seed!r}")
        seams: dict[str, SeamSchedule] = {}
        entries = data.get("seams") or {}
        if not isinstance(entries, Mapping):
            raise ValueError("fault-plan 'seams' must be an object")
        for seam, entry in entries.items():
            seams[seam] = _decode_schedule(seam, entry)
        return cls(seed=seed, seams=seams)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"fault plan is not valid JSON: {error}") from None
        return cls.from_dict(data)

    @classmethod
    def from_spec(cls, value: str) -> "FaultPlan":
        """Decode a plan *specifier*: inline JSON when the text starts
        with ``{``, else a file path.  The shape the ``--fault-plan``
        flag and ``REPRO_FAULT_PLAN`` both accept."""
        value = value.strip()
        if value.startswith("{"):
            return cls.from_json(value)
        try:
            text = Path(value).read_text(encoding="utf-8")
        except OSError as error:
            raise ValueError(
                f"cannot read fault plan {value!r}: {error}") from None
        return cls.from_json(text)

    @classmethod
    def from_env(cls, environ: Mapping[str, str] | None = None) \
            -> "FaultPlan | None":
        """The plan named by ``REPRO_FAULT_PLAN`` (see
        :meth:`from_spec`); ``None`` when the variable is unset or
        empty."""
        value = (environ if environ is not None
                 else os.environ).get(FAULT_PLAN_ENV, "").strip()
        if not value:
            return None
        return cls.from_spec(value)

    def as_dict(self) -> dict:
        """The JSON-ready wire form (ships in worker payloads)."""
        return {"seed": self.seed,
                "seams": {seam: schedule.as_dict()
                          for seam, schedule in sorted(self.seams.items())}}

    def digest(self) -> str:
        """Stable identity used to skip redundant re-installs in
        long-lived worker processes."""
        import hashlib
        blob = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _decode_schedule(seam: str, entry: Any) -> SeamSchedule:
    if seam not in SEAMS:
        raise ValueError(f"unknown fault seam {seam!r}; known: "
                         f"{sorted(SEAMS)}")
    if not isinstance(entry, Mapping):
        raise ValueError(f"schedule for seam {seam!r} must be an "
                         f"object, got {entry!r}")
    unknown = sorted(set(entry) - _SCHEDULE_FIELDS)
    if unknown:
        raise ValueError(
            f"unknown schedule field(s) {unknown} for seam {seam!r}; "
            f"known: {sorted(_SCHEDULE_FIELDS)}")
    kinds = entry.get("kinds")
    if kinds is None:
        # Default: everything the seam supports.
        kinds = list(SEAMS[seam])
    if isinstance(kinds, str):
        kinds = [kinds]
    if not kinds:
        raise ValueError(f"seam {seam!r}: 'kinds' must not be empty")
    for kind in kinds:
        if kind not in FAULT_KINDS:
            raise ValueError(
                f"seam {seam!r}: unknown fault kind {kind!r}; known: "
                f"{list(FAULT_KINDS)}")
        if kind not in SEAMS[seam]:
            raise ValueError(
                f"seam {seam!r} does not support kind {kind!r}; "
                f"supported: {list(SEAMS[seam])}")
    probability = entry.get("probability", 0.0)
    if not isinstance(probability, (int, float)) \
            or isinstance(probability, bool) \
            or not 0.0 <= probability <= 1.0:
        raise ValueError(f"seam {seam!r}: probability must be in "
                         f"[0, 1], got {probability!r}")
    at = entry.get("at", ())
    if not isinstance(at, (list, tuple)) or any(
            not isinstance(n, int) or isinstance(n, bool) or n < 1
            for n in at):
        raise ValueError(f"seam {seam!r}: 'at' must be a list of "
                         f"1-based hit indices, got {at!r}")
    every = entry.get("every")
    if every is not None and (not isinstance(every, int)
                              or isinstance(every, bool) or every < 1):
        raise ValueError(f"seam {seam!r}: 'every' must be a positive "
                         f"int, got {every!r}")
    times = entry.get("times")
    if times is not None and (not isinstance(times, int)
                              or isinstance(times, bool) or times < 0):
        raise ValueError(f"seam {seam!r}: 'times' must be a "
                         f"non-negative int, got {times!r}")
    keys = entry.get("keys", ())
    if not isinstance(keys, (list, tuple)) \
            or not all(isinstance(key, str) for key in keys):
        raise ValueError(f"seam {seam!r}: 'keys' must be a list of "
                         f"request ids, got {keys!r}")
    hang_seconds = _seconds(seam, entry, "hang_seconds", 30.0)
    latency_seconds = _seconds(seam, entry, "latency_seconds", 0.01)
    return SeamSchedule(
        seam=seam, kinds=tuple(kinds), probability=float(probability),
        at=tuple(sorted(at)), every=every, times=times,
        keys=tuple(keys), hang_seconds=hang_seconds,
        latency_seconds=latency_seconds)


def _seconds(seam: str, entry: Mapping[str, Any], name: str,
             default: float) -> float:
    value = entry.get(name, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or value < 0:
        raise ValueError(f"seam {seam!r}: {name} must be a "
                         f"non-negative number, got {value!r}")
    return float(value)
