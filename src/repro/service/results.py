"""Requests and results of the batch specialization service.

A :class:`SpecRequest` is everything one specialization needs, as plain
data: program source, engine choice (``online`` / ``offline`` /
``genext`` / ``simple``), the input division as spec strings (see
:mod:`repro.service.specs`) and :class:`~repro.online.config.PEConfig`
overrides, and nothing that steers the service (faults come only from
a :class:`~repro.faults.FaultPlan`).  Plain data on purpose — requests
cross process boundaries (the worker pool) and wire formats (the
``batch`` manifest, the ``serve`` JSONL loop, the gateway) unchanged.

A :class:`SpecResult` is the answer: the pretty-printed residual
program, the goal parameters it kept, the run's
:class:`~repro.observability.PEStats` snapshot, and the service
bookkeeping (``degraded``, ``cached``, ``attempts``, ``reason``).  The
service **never** raises to the caller; a request that cannot be
served honestly comes back ``degraded=True`` with the fallback
residual.

:func:`SpecRequest.fingerprint` is the cross-request cache key:
a SHA-256 over source hash, entry point, division and config — the
semantic identity of the request.  ``id`` and ``deadline``
deliberately stay out of it.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Mapping, Sequence, get_args, get_type_hints

from repro.online.config import PEConfig, UnfoldStrategy
from repro.service.specs import check_spec

ENGINES = ("online", "offline", "genext", "simple")

#: The pinned answer to an entry with no program text, or two.
_SOURCE_OR_FILE = "request needs exactly one of 'source' or 'file'"

#: PEConfig fields a request may override, with their types (read
#: from PEConfig's annotations).
_CONFIG_TYPES = get_type_hints(PEConfig)


def _decode_config_value(name: str, value: Any) -> Any:
    """Check a wire config value against ``PEConfig``'s annotation of
    ``name`` and decode it.  An int is neither a bool nor a float,
    ``null`` fits only a ``| None`` field, and ``unfold_strategy`` is
    one of the strategy names."""
    types = get_args(_CONFIG_TYPES[name]) or (_CONFIG_TYPES[name],)
    if value is None and type(None) in types:
        return None
    if UnfoldStrategy in types:
        try:
            return UnfoldStrategy(value)
        except ValueError:
            raise ValueError(
                f"unknown unfold_strategy {value!r}; expected one of "
                f"{[s.value for s in UnfoldStrategy]}") from None
    accepted = types + (int,) if float in types else types
    if isinstance(value, accepted) \
            and (bool in types or not isinstance(value, bool)):
        return value
    expected = " or ".join("null" if kind is type(None) else kind.__name__
                           for kind in types)
    raise ValueError(
        f"config field {name!r} must be {expected}, got {value!r}")


def _encode_config_value(value: Any) -> Any:
    if isinstance(value, UnfoldStrategy):
        return value.value
    return value


@dataclass(frozen=True)
class SpecRequest:
    """One specialization request, as plain serializable data."""

    #: Program source text (the parsed program's first definition is
    #: the goal function, as everywhere else in the repo).
    source: str
    #: Input specs, one per goal parameter (``repro.service.specs``).
    specs: tuple[str, ...] = ()
    #: ``online`` | ``offline`` | ``genext`` | ``simple``.
    engine: str = "online"
    #: PEConfig overrides as a sorted, hashable item tuple.
    config: tuple[tuple[str, Any], ...] = ()
    #: Caller-chosen correlation id, echoed on the result.
    id: str | None = None
    #: Per-request wall-clock budget (seconds); the service default
    #: applies when ``None``.
    deadline: float | None = None

    # -- construction --------------------------------------------------
    @classmethod
    def create(cls, source: str, specs: Sequence[str] = (),
               engine: str = "online",
               config: Mapping[str, Any] | None = None,
               id: str | None = None,
               deadline: float | None = None) -> "SpecRequest":
        """Validating constructor: checks the engine name, the config
        keys, **every field's type** and every spec against the spec
        grammar (:class:`~repro.service.specs.SpecError`, a
        ``ValueError``, for one that does not parse or that no value
        satisfies), normalizes mappings into
        hashable tuples.  Type strictness is load-bearing: the serve
        loop and the batch manifest feed caller-controlled JSON in
        here, and a wrongly-typed field that slips through surfaces
        later as an ``AttributeError`` deep inside the service — which
        must never happen (the loop answers a ``ValueError`` from here
        with a structured error line instead)."""
        if not isinstance(source, str):
            raise ValueError(
                f"source must be a string, got {type(source).__name__}")
        if not isinstance(engine, str) or engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}")
        if isinstance(specs, str) \
                or not isinstance(specs, Sequence) \
                or not all(isinstance(spec, str) for spec in specs):
            raise ValueError("specs must be a list of spec strings")
        for spec in specs:
            check_spec(spec)
        if id is not None and not isinstance(id, str):
            raise ValueError(
                f"id must be a string, got {type(id).__name__}")
        if deadline is not None:
            check_deadline(deadline)
        items: tuple[tuple[str, Any], ...] = ()
        if config is not None and not isinstance(config, Mapping):
            raise ValueError(
                f"config must be an object, got "
                f"{type(config).__name__}")
        if config:
            unknown = sorted(set(config) - set(_CONFIG_TYPES))
            if unknown:
                raise ValueError(
                    f"unknown PEConfig field(s) {unknown}; known: "
                    f"{sorted(_CONFIG_TYPES)}")
            items = tuple(sorted(
                (name, _decode_config_value(name, value))
                for name, value in config.items()))
        return cls(source=source, specs=tuple(specs), engine=engine,
                   config=items, id=id, deadline=deadline)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any],
                  default_engine: str = "online") -> "SpecRequest":
        """Decode one wire request (a ``serve`` line, a gateway body,
        or a manifest entry once :func:`load_manifest` has resolved
        its ``file``).  Entries that name no engine get
        ``default_engine`` (the CLI's ``--engine`` flag)."""
        if not isinstance(data, Mapping):
            raise ValueError(f"request must be an object, got {data!r}")
        known = {"source", "specs", "engine", "config", "id",
                 "deadline"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown request field(s) {unknown}; "
                             f"known: {sorted(known)}")
        if "source" not in data:
            raise ValueError(_SOURCE_OR_FILE)
        specs = data.get("specs", ())
        if isinstance(specs, str):
            specs = specs.split()
        return cls.create(
            source=data["source"], specs=specs,
            engine=data.get("engine", default_engine),
            config=data.get("config"), id=data.get("id"),
            deadline=data.get("deadline"))

    # -- projections ---------------------------------------------------
    def pe_config(self) -> PEConfig:
        return PEConfig(**dict(self.config))

    def to_payload(self) -> dict:
        """The plain dict shipped to a worker process."""
        payload: dict[str, Any] = {
            "source": self.source, "specs": list(self.specs),
            "engine": self.engine,
            "config": {name: _encode_config_value(value)
                       for name, value in self.config},
        }
        if self.id is not None:
            payload["id"] = self.id
        return payload

    def fingerprint(self) -> str:
        """Cross-request cache key: the request's semantic identity."""
        source_hash = hashlib.sha256(self.source.encode()).hexdigest()
        identity = {
            "source": source_hash,
            "specs": list(self.specs),
            "engine": self.engine,
            "config": [[name, _encode_config_value(value)]
                       for name, value in self.config],
        }
        blob = json.dumps(identity, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class SpecResult:
    """The service's answer to one :class:`SpecRequest`."""

    #: Pretty-printed residual program.
    residual: str
    #: Goal parameters the residual kept (the dynamic division).
    goal_params: tuple[str, ...] = ()
    engine: str = "online"
    id: str | None = None
    #: ``True`` when the residual is a fallback (timeout, repeated
    #: crash, or a deterministic failure), not the requested
    #: specialization.  Degraded residuals still compute the source
    #: program's function — they just specialize nothing.
    degraded: bool = False
    #: Why the request degraded (``deadline``, ``worker-crash``, or the
    #: failure message); ``None`` on the happy path.
    reason: str | None = None
    #: Served from the cross-request residual cache.
    cached: bool = False
    #: Worker attempts consumed (0 for cache hits).
    attempts: int = 1
    #: ``PEStats.as_dict()`` of the run; ``{}`` when degraded before
    #: any engine ran.
    stats: Mapping[str, Any] = field(default_factory=dict)
    #: Worker-side wall-clock seconds.
    seconds: float = 0.0
    #: Compiled-backend artifact
    #: (:meth:`repro.backend.emit.CompiledProgram.artifact`) when the
    #: service runs with ``backend="compiled"``; ``None`` otherwise.
    #: Rides the cross-request cache with the result, so compilation
    #: cost is amortized across identical requests.
    compiled: Mapping[str, Any] | None = None

    def to_dict(self) -> dict:
        payload = {
            "id": self.id, "engine": self.engine,
            "residual": self.residual,
            "goal_params": list(self.goal_params),
            "degraded": self.degraded, "reason": self.reason,
            "cached": self.cached, "attempts": self.attempts,
            "stats": dict(self.stats),
            "seconds": round(self.seconds, 6),
        }
        # Only present with the compiled backend, so interp-backend
        # output stays byte-identical to the artifact-less format.
        if self.compiled is not None:
            payload["compiled"] = dict(self.compiled)
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SpecResult":
        """Rehydrate a :meth:`to_dict` document — the persistent
        artifact store's read path.  Strict about the one field the
        service cannot do without (``residual``), lenient about the
        bookkeeping, so a payload written by an older build still
        loads.  Raises :class:`ValueError` on anything else; the store
        tier treats that as a miss."""
        if not isinstance(data, Mapping):
            raise ValueError(f"result must be an object, got {data!r}")
        residual = data.get("residual")
        if not isinstance(residual, str):
            raise ValueError("result payload has no residual text")
        goal_params = data.get("goal_params", ())
        if not isinstance(goal_params, Sequence) \
                or isinstance(goal_params, str):
            raise ValueError("goal_params must be a list")
        compiled = data.get("compiled")
        if compiled is not None and not isinstance(compiled, Mapping):
            raise ValueError("compiled artifact must be an object")
        stats = data.get("stats") or {}
        if not isinstance(stats, Mapping):
            raise ValueError("stats must be an object")
        return cls(
            residual=residual,
            goal_params=tuple(str(p) for p in goal_params),
            engine=str(data.get("engine", "online")),
            id=data.get("id"),
            degraded=bool(data.get("degraded", False)),
            reason=data.get("reason"),
            cached=bool(data.get("cached", False)),
            attempts=int(data.get("attempts", 1)),
            stats=dict(stats),
            seconds=float(data.get("seconds", 0.0)),
            compiled=dict(compiled) if compiled is not None else None)

    def for_request(self, request: SpecRequest,
                    cached: bool = False) -> "SpecResult":
        """Rebind a (possibly cached) result to a concrete request."""
        return replace(self, id=request.id, cached=cached)


def check_deadline(deadline: Any) -> None:
    """Raise :class:`ValueError` unless ``deadline`` is a finite number
    of seconds above 0 that a timer can wait for (``json.loads``
    accepts ``NaN`` and ``Infinity``, and a wait beyond
    ``threading.TIMEOUT_MAX`` overflows)."""
    if isinstance(deadline, bool) \
            or not isinstance(deadline, (int, float)):
        raise ValueError(f"deadline must be a number, got "
                         f"{type(deadline).__name__}")
    if not (math.isfinite(deadline)
            and 0 < deadline <= threading.TIMEOUT_MAX):
        raise ValueError(f"deadline must be a finite number of "
                         f"seconds in (0, {threading.TIMEOUT_MAX:g}], "
                         f"got {deadline!r}")


def load_manifest(text: str, base_dir: Path | None = None,
                  default_engine: str = "online") -> list[SpecRequest]:
    """Decode a ``ppe batch`` manifest: a JSON array of request
    objects, or an object with a ``requests`` array.  Entries that
    name no engine get ``default_engine``.  Only a manifest entry may
    name its program by a ``file`` path, resolved against
    ``base_dir``."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ValueError(f"manifest is not valid JSON: {error}") \
            from None
    if isinstance(data, Mapping):
        data = data.get("requests")
    if not isinstance(data, list):
        raise ValueError("manifest must be a JSON array of requests "
                         "or an object with a 'requests' array")
    return [SpecRequest.from_dict(_with_source(entry, base_dir),
                                  default_engine)
            for entry in data]


def _with_source(entry: Any, base_dir: Path | None) -> Any:
    """A manifest entry with its ``file`` read into ``source``."""
    if not isinstance(entry, Mapping) or "file" not in entry:
        return entry
    if "source" in entry:
        raise ValueError(_SOURCE_OR_FILE)
    entry = dict(entry)
    name = entry.pop("file")
    if not isinstance(name, str):
        raise ValueError(f"file must be a path string, got "
                         f"{type(name).__name__}")
    entry["source"] = (Path(base_dir or ".") / name).read_text()
    return entry
