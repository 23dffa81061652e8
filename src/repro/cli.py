"""``ppe`` — command-line front end.

Subcommands:

* ``ppe run FILE ARGS...`` — evaluate a program on literal arguments;
  ``--backend {interp,compiled,shadow}`` picks the engine (``shadow``
  runs both and verifies they agree);
* ``ppe compile FILE`` — lower a program to native Python through
  :mod:`repro.backend` and print the emitted module;
* ``ppe specialize FILE SPEC...`` — online PPE; each SPEC is a literal
  (static), ``dyn`` (dynamic), or ``facet=value`` pairs like
  ``size=3`` / ``sign=pos`` (dynamic with facet information);
* ``ppe analyze FILE SPEC...`` — facet analysis; SPECs as above but
  literals mean Static, and the Figure 9 table is printed;
* ``ppe offline FILE SPEC...`` — analysis (literals Static, as for
  ``analyze``) + offline specialization;
* ``ppe cogen emit FILE SPEC...`` — emit the program's generating
  extension as a standalone Python module (``--output PATH``; the
  module's ``specialize(inputs)`` replays the analysis' decisions with
  no re-parsing or re-analysis — see :mod:`repro.genext`);
* ``ppe cogen run FILE SPEC...`` — emit the genext in memory and
  specialize through it (the fused path the service's ``genext``
  engine serves);
* ``ppe workloads`` — list the shipped program corpus;
* ``ppe batch MANIFEST`` — serve a JSON manifest of specialization
  requests through :mod:`repro.service` (worker pool, deadlines,
  cross-request cache, graceful degradation);
* ``ppe serve`` — long-running stdin/stdout JSONL loop over the same
  service, for driving from other processes;
* ``ppe gateway`` — asyncio HTTP front door over the same service
  (:mod:`repro.gateway`): ``POST /v1/specialize`` (single, batch and
  ``?stream=1`` chunked-progress modes), ``GET /v1/health``, ``GET
  /v1/stats``; admission control via ``--max-queue`` (bounded queue,
  sheds with 429 + Retry-After), ``--quota RATE[:BURST]``
  (per-API-key token buckets) and ``--priority-key KEY`` (the
  high-priority lane);
* ``ppe store {stats,gc,verify}`` — administer the persistent
  artifact store (:mod:`repro.store`): print its snapshot, enforce a
  byte cap (``gc`` also takes ``--max-quarantine N`` to prune the
  quarantine table down to its N most recent rows), or checksum every
  row (``verify`` exits 1 when it quarantined corrupt entries — the
  scriptable health check).

Facets available from the command line: ``sign``, ``parity``,
``interval`` (``interval=lo:hi``), ``size``.

``specialize``, ``analyze`` and ``offline`` accept ``--profile [PATH]``:
a JSON report with per-phase wall-clock times (parse / analyze /
specialize / simplify), the specializer's work counters, and the facet
suite's cache hit rates is written to PATH (stderr when omitted or
``-``).  The report's ``stats.budget`` section records budget usage
and any graceful degradations (see :mod:`repro.engine.budget`).

``batch``, ``serve`` and ``gateway`` share the service flags: the
budget flags below, ``--engine``, ``--backend``, ``--store-path`` /
``--store-max-bytes``, ``--fault-plan`` and ``--health``, plus
``--workers`` / ``--deadline`` / ``--cache-size``.

``specialize``, ``offline``, ``batch`` and ``serve`` accept the budget
flags ``--max-steps`` / ``--max-residual-nodes`` /
``--max-unfold-depth`` / ``--max-wall-seconds`` (0 = unlimited).
Crossing a budget never fails the run: the engine widens at the
offending call and reports the degradations on stderr.  For ``batch``
and ``serve`` the flags are service-wide defaults; per-request
``config`` entries win.

``batch`` and ``serve`` accept ``--engine
{online,offline,genext,simple}``: the engine for requests that do not
name one themselves (``genext`` serves from per-program emitted
generating extensions, amortized across spec vectors via the worker
cache and the store's ``genext`` artifact kind).

``batch`` and ``serve`` also accept ``--backend {interp,compiled}``:
with ``compiled``, each successful residual additionally carries its
compiled-backend artifact (a ``compiled`` key on the result), cached
alongside the residual so compilation cost is amortized across
identical requests.

``batch`` and ``serve`` accept ``--store-path PATH`` (and optionally
``--store-max-bytes N``) to mount the persistent artifact store as a
second cache tier below the in-memory LRU: results survive restarts,
and an identical manifest re-run against a warm store performs zero
specializations.

``batch`` and ``serve`` accept ``--fault-plan SPEC`` (inline JSON or
a file path; also settable as ``REPRO_FAULT_PLAN``): a deterministic
seeded fault-injection plan (:mod:`repro.faults`) threaded through
every failure seam of the service — the chaos-testing entry point.
They also accept ``--health [PATH]``: after the run (``batch``) or at
shutdown (``serve``), write the service's hardening introspection —
circuit-breaker states, the poison-pill quarantine table, watchdog
recycles, injected-fault counts — as JSON to PATH, or stderr when
PATH is omitted or ``-``.  The same document answers the serve loop's
``{"op": "health"}`` op, and its counters appear in the ``--profile``
report's ``faults`` / ``breaker`` / ``quarantine`` / ``watchdog``
sections.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.backend.verify import BACKENDS
from repro.lang.parser import parse_program
from repro.lang.interp import run_program
from repro.lang.pretty import pretty_program
from repro.facets.vector import FacetSuite, FacetVector
from repro.facets.abstract.vector import AbstractSuite
from repro.lang.values import Value
from repro.observability import PhaseTimer, build_report, write_report
from repro.online.specializer import specialize_online
from repro.offline.analysis import analysis_input, analyze
from repro.offline.report import facet_table
from repro.offline.specializer import OfflineSpecializer
from repro.service.results import ENGINES
from repro.service.specs import SpecError, parse_spec, parse_value
from repro.service.worker import default_suite as _default_suite


def _parse_value(text: str) -> Value:
    try:
        return parse_value(text)
    except SpecError as error:
        raise SystemExit(f"ppe: {error}") from None


def _parse_spec(suite: FacetSuite, text: str) -> FacetVector | Value:
    try:
        return parse_spec(suite, text)
    except SpecError as error:
        raise SystemExit(f"ppe: {error}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ppe",
        description="Parameterized partial evaluation "
                    "(Consel & Khoo, PLDI 1991)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_cmd = sub.add_parser("run", help="evaluate a program")
    run_cmd.add_argument("file", type=Path)
    run_cmd.add_argument("args", nargs="*")
    run_cmd.add_argument(
        "--backend", choices=BACKENDS, default="interp",
        help="execution engine: the tree-walking interpreter "
             "(default), natively compiled Python, or 'shadow' "
             "(both, verified against each other)")

    compile_cmd = sub.add_parser(
        "compile",
        help="lower a program to Python via the compiled backend")
    compile_cmd.add_argument("file", type=Path)
    compile_cmd.add_argument(
        "--output", type=Path, default=None, metavar="PATH",
        help="write the emitted Python to PATH (default stdout)")

    spec_cmds = []
    for name, help_text in (
            ("specialize", "online parameterized PE"),
            ("analyze", "facet analysis (Figure 4)"),
            ("offline", "facet analysis + offline specialization")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("file", type=Path)
        cmd.add_argument("specs", nargs="*")
        cmd.add_argument(
            "--profile", nargs="?", const="-", default=None,
            metavar="PATH",
            help="emit a JSON profile report (phase times, work "
                 "counters, cache hit rates) to PATH, or stderr "
                 "when PATH is omitted or '-'")
        if name != "analyze":
            spec_cmds.append(cmd)

    def _add_budget_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--max-steps", type=int, default=None, metavar="N",
            help="soft PE-step budget; past it the engine widens "
                 "instead of raising (0 = unlimited)")
        cmd.add_argument(
            "--max-residual-nodes", type=int, default=None,
            metavar="N",
            help="soft residual-size budget in AST nodes "
                 "(0 = unlimited)")
        cmd.add_argument(
            "--max-unfold-depth", type=int, default=None, metavar="N",
            help="unfold-depth cap; deeper calls residualize and "
                 "record a degrade event (0 = unlimited)")
        cmd.add_argument(
            "--max-wall-seconds", type=float, default=None,
            metavar="SECONDS",
            help="soft wall-clock budget for one specialization "
                 "(0 = unlimited)")

    for cmd in spec_cmds:
        _add_budget_flags(cmd)

    cogen_cmd = sub.add_parser(
        "cogen",
        help="emitted generating extensions (the fused cogen path)")
    cogen_sub = cogen_cmd.add_subparsers(dest="cogen_command",
                                         required=True)
    cogen_emit = cogen_sub.add_parser(
        "emit",
        help="emit the program's generating extension as Python")
    cogen_emit.add_argument(
        "--output", type=Path, default=None, metavar="PATH",
        help="write the emitted module to PATH (default stdout)")
    cogen_run = cogen_sub.add_parser(
        "run",
        help="emit the genext in memory and specialize through it")
    for cmd in (cogen_emit, cogen_run):
        cmd.add_argument("file", type=Path)
        cmd.add_argument("specs", nargs="*")

    sub.add_parser("workloads", help="list the shipped corpus")

    batch_cmd = sub.add_parser(
        "batch",
        help="specialize a JSON manifest of requests via the service")
    batch_cmd.add_argument("manifest", type=Path)
    serve_cmd = sub.add_parser(
        "serve", help="JSONL request/response loop on stdin/stdout")
    gateway_cmd = sub.add_parser(
        "gateway",
        help="asyncio HTTP front door with admission control "
             "(POST /v1/specialize, GET /v1/health, GET /v1/stats)")
    gateway_cmd.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="address to bind (default 127.0.0.1)")
    gateway_cmd.add_argument(
        "--port", type=int, default=8787, metavar="N",
        help="port to bind (0 = let the kernel pick; default 8787)")
    gateway_cmd.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="admission-queue bound: jobs queued or running before "
             "new work is shed with 429 (default 64)")
    gateway_cmd.add_argument(
        "--quota", default=None, metavar="RATE[:BURST]",
        help="per-API-key token-bucket quota: RATE admissions/second "
             "with an optional BURST cap (default: no quotas)")
    gateway_cmd.add_argument(
        "--priority-key", action="append", default=None, metavar="KEY",
        help="API key granted the high-priority lane (repeatable): "
             "jumps queued normal work and sheds last")
    for cmd in (batch_cmd, serve_cmd, gateway_cmd):
        cmd.add_argument(
            "--workers", type=int, default=2, metavar="N",
            help="worker processes (0 = run requests inline; "
                 "default 2)")
        cmd.add_argument(
            "--deadline", type=float, default=None, metavar="SECONDS",
            help="default per-request deadline (requests may override)")
        cmd.add_argument(
            "--cache-size", type=int, default=256, metavar="N",
            help="cross-request residual-cache capacity "
                 "(0 disables; default 256)")
    for cmd in (batch_cmd, serve_cmd, gateway_cmd):
        _add_budget_flags(cmd)
        cmd.add_argument(
            "--engine", choices=ENGINES, default="online",
            help="engine for requests that name none themselves "
                 "('genext' serves from per-program emitted "
                 "generating extensions; default 'online')")
        cmd.add_argument(
            "--backend", choices=("interp", "compiled"),
            default="interp",
            help="with 'compiled', successful residuals additionally "
                 "carry their compiled-backend artifact (cached "
                 "alongside the residual)")
        cmd.add_argument(
            "--store-path", type=Path, default=None, metavar="PATH",
            help="mount the persistent artifact store at PATH as a "
                 "second cache tier (shared across workers and "
                 "restarts; created if missing)")
        cmd.add_argument(
            "--store-max-bytes", type=int, default=None, metavar="N",
            help="byte cap for the persistent store; past it the "
                 "least-recently-used entries are evicted "
                 "(default: unbounded)")
        cmd.add_argument(
            "--fault-plan", default=None, metavar="SPEC",
            help="deterministic fault-injection plan: inline JSON or "
                 "a file path (also: the REPRO_FAULT_PLAN variable)")
        cmd.add_argument(
            "--health", nargs="?", const="-", default=None,
            metavar="PATH",
            help="after the run, write hardening introspection "
                 "(breakers, quarantine, watchdog, injected faults) "
                 "as JSON to PATH, or stderr when omitted or '-'")
    store_cmd = sub.add_parser(
        "store",
        help="administer the persistent artifact store")
    store_sub = store_cmd.add_subparsers(dest="store_command",
                                         required=True)
    for name, help_text in (
            ("stats", "print the store snapshot as JSON"),
            ("gc", "evict least-recently-used entries past the cap"),
            ("verify", "checksum every row, quarantining corrupt "
                       "ones; exits 1 if any were corrupt")):
        cmd = store_sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "--store-path", type=Path, required=True, metavar="PATH",
            help="path of the store database")
        if name == "gc":
            cmd.add_argument(
                "--store-max-bytes", type=int, default=None,
                metavar="N",
                help="byte cap to enforce (omitting it makes gc a "
                     "report-only no-op)")
            cmd.add_argument(
                "--max-quarantine", type=int, default=None,
                metavar="N",
                help="prune the quarantine table down to its N most "
                     "recently quarantined rows (omitting it leaves "
                     "the table alone)")

    batch_cmd.add_argument(
        "--output", type=Path, default=None, metavar="PATH",
        help="write the JSON results array to PATH (default stdout)")
    batch_cmd.add_argument(
        "--profile", nargs="?", const="-", default=None, metavar="PATH",
        help="emit a JSON profile report (phase times, service "
             "counters, cache hit rate) to PATH, or stderr when PATH "
             "is omitted or '-'")

    options = parser.parse_args(argv)

    if options.command == "workloads":
        from repro.workloads import WORKLOADS
        for workload in WORKLOADS.values():
            marker = " [higher-order]" if workload.higher_order else ""
            print(f"{workload.name:18} {workload.description}{marker}")
        return 0

    if options.command == "cogen":
        return _run_cogen(options)

    if options.command == "batch":
        return _run_batch(options)

    if options.command == "serve":
        return _run_serve(options)

    if options.command == "gateway":
        return _run_gateway(options)

    if options.command == "store":
        return _run_store(options)

    profile_to = getattr(options, "profile", None)
    timer = PhaseTimer()

    with timer.phase("parse"):
        program = parse_program(options.file.read_text())

    if options.command == "run":
        arguments = [_parse_value(a) for a in options.args]
        if options.backend == "interp":
            result = run_program(program, *arguments)
        else:
            from repro.backend import execute_program
            from repro.observability import BackendStats
            backend_stats = BackendStats()
            result = execute_program(program, arguments,
                                     backend=options.backend,
                                     stats=backend_stats)
            if options.backend == "shadow":
                print(f"; shadow: {backend_stats.shadow_runs} "
                      f"comparison(s), "
                      f"{backend_stats.mismatches} mismatch(es)",
                      file=sys.stderr)
        print(result)
        return 0

    if options.command == "compile":
        from repro.backend import compile_program
        compiled = compile_program(program)
        if options.output is not None:
            options.output.write_text(compiled.python_source)
        else:
            print(compiled.python_source, end="")
        print(f"; fingerprint: {compiled.fingerprint}",
              file=sys.stderr)
        return 0

    suite = _default_suite()
    specs = [_parse_spec(suite, s) for s in options.specs]

    def _emit_profile(stats=None) -> None:
        if profile_to is None:
            return
        if stats is not None:
            for name, seconds in stats.phase_seconds.items():
                timer.add(name, seconds)
        report = build_report(
            command=f"ppe {options.command} {options.file}",
            timer=timer, stats=stats, cache_stats=suite.cache_stats)
        try:
            write_report(report, profile_to)
        except OSError as error:
            raise SystemExit(
                f"ppe: cannot write profile report: {error}")

    if options.command == "specialize":
        result = specialize_online(program, specs, suite,
                                   _budget_config(options))
        print(pretty_program(result.program), end="")
        print(f"; facet evaluations: "
              f"{result.stats.facet_evaluations}", file=sys.stderr)
        _warn_degradations(result.stats)
        _emit_profile(result.stats)
        return 0

    abstract_suite = AbstractSuite(suite)
    pattern = [analysis_input(abstract_suite, item) for item in specs]
    with timer.phase("analyze"):
        analysis = analyze(program, pattern, abstract_suite)

    if options.command == "analyze":
        print(facet_table(analysis,
                          title=f"Facet analysis of {options.file}"))
        _emit_profile()
        return 0

    result = OfflineSpecializer(
        analysis, suite, _budget_config(options)).specialize(specs)
    print(pretty_program(result.program), end="")
    print(f"; facet evaluations: {result.stats.facet_evaluations}",
          file=sys.stderr)
    _warn_degradations(result.stats)
    _emit_profile(result.stats)
    return 0


def _budget_overrides(options: argparse.Namespace) -> dict:
    """Budget flags as PEConfig overrides; 0 means unlimited."""
    overrides = {}
    for name in ("max_steps", "max_residual_nodes",
                 "max_unfold_depth", "max_wall_seconds"):
        value = getattr(options, name, None)
        if value is not None:
            overrides[name] = None if value == 0 else value
    return overrides


def _budget_config(options: argparse.Namespace):
    from repro.online.config import PEConfig
    overrides = _budget_overrides(options)
    return PEConfig(**overrides) if overrides else None


def _warn_degradations(stats) -> None:
    if stats.degradations:
        reasons = ", ".join(
            f"{reason}: {count}" for reason, count in
            sorted(stats.degradations_by_reason.items()))
        print(f"; budget degradations: {stats.degradations} "
              f"({reasons}) — residual is correct but less "
              f"specialized", file=sys.stderr)


def _run_cogen(options: argparse.Namespace) -> int:
    """``ppe cogen {emit,run}``: the fused generating-extension path
    from the command line."""
    from repro.lang.errors import PEError
    from repro.genext import emit_genext, load_genext

    try:
        source = options.file.read_text()
    except OSError as error:
        raise SystemExit(f"ppe: cannot read program: {error}")
    try:
        emitted = emit_genext(source, list(options.specs))
    except (PEError, SpecError, ValueError) as error:
        raise SystemExit(f"ppe: {error}")
    if options.cogen_command == "emit":
        if options.output is not None:
            options.output.write_text(emitted.python_source)
        else:
            print(emitted.python_source, end="")
        print(f"; store key: {emitted.store_key}", file=sys.stderr)
        print(f"; pattern: {emitted.pattern_fingerprint}",
              file=sys.stderr)
        return 0
    module = load_genext(emitted.python_source)
    try:
        result = module.specialize_specs(list(options.specs))
    except (PEError, SpecError) as error:
        raise SystemExit(f"ppe: {error}")
    print(pretty_program(result.program), end="")
    print(f"; facet evaluations: {result.stats.facet_evaluations}",
          file=sys.stderr)
    return 0


def _run_store(options: argparse.Namespace) -> int:
    """``ppe store {stats,gc,verify}``.  ``stats`` and ``gc`` exit 0
    (their output is the report); ``verify`` exits 1 when it found —
    and quarantined — corrupt entries, so scripts can alarm on it."""
    from repro.store import ArtifactStore

    try:
        store = ArtifactStore(options.store_path)
    except OSError as error:
        raise SystemExit(f"ppe: cannot open store: {error}")
    with store:
        if options.store_command == "stats":
            payload = store.snapshot()
            payload["corrupt_quarantined"] = store.stats.store_corrupt
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        if options.store_command == "gc":
            outcome = store.gc(options.store_max_bytes,
                               max_quarantine=options.max_quarantine)
            print(json.dumps(outcome, indent=2, sort_keys=True))
            return 0
        outcome = store.verify()
        # File-level corruption counts too: a damaged database is
        # quarantined at open, before verify can walk any row.
        outcome["corrupt"] = store.stats.store_corrupt
        print(json.dumps(outcome, indent=2, sort_keys=True))
        return 1 if outcome["corrupt"] else 0


def _write_health(service, destination: str | Path) -> None:
    """``--health``: the service's hardening introspection as JSON to
    a path, or stderr for ``-``."""
    payload = json.dumps(service.health(), indent=2, sort_keys=True)
    if str(destination) == "-":
        print(payload, file=sys.stderr)
        return
    try:
        Path(destination).write_text(payload + "\n")
    except OSError as error:
        raise SystemExit(f"ppe: cannot write health report: {error}")


def _service(options: argparse.Namespace):
    """The ``SpecializationService`` that ``batch``, ``serve`` and
    ``gateway`` run, built from their shared flags.  Without
    ``--fault-plan`` the service falls back to ``REPRO_FAULT_PLAN``."""
    from repro.faults import FaultPlan
    from repro.service import SpecializationService
    try:
        fault_plan = None if options.fault_plan is None \
            else FaultPlan.from_spec(options.fault_plan)
    except ValueError as error:
        raise SystemExit(f"ppe: bad fault plan: {error}")
    try:
        return SpecializationService(
            workers=options.workers, cache_capacity=options.cache_size,
            default_deadline=options.deadline,
            default_config=_budget_overrides(options),
            backend=options.backend, store_path=options.store_path,
            store_max_bytes=options.store_max_bytes,
            fault_plan=fault_plan)
    except ValueError as error:
        raise SystemExit(f"ppe: {error}")


def _run_batch(options: argparse.Namespace) -> int:
    from repro.service import load_manifest

    timer = PhaseTimer()
    try:
        text = options.manifest.read_text()
    except OSError as error:
        raise SystemExit(f"ppe: cannot read manifest: {error}")
    try:
        requests = load_manifest(text, options.manifest.parent,
                                 default_engine=options.engine)
    except (ValueError, OSError) as error:
        raise SystemExit(f"ppe: bad manifest: {error}")

    with _service(options) as service:
        with timer.phase("batch"):
            results = service.run_batch(requests)
        stats = service.stats
        backend_stats = service.backend_stats
        if options.health is not None:
            _write_health(service, options.health)

    payload = json.dumps([result.to_dict() for result in results],
                         indent=2, sort_keys=True)
    if options.output is not None:
        options.output.write_text(payload + "\n")
    else:
        print(payload)
    degraded = sum(1 for result in results if result.degraded)
    print(f"; {len(results)} requests, {degraded} degraded, "
          f"cache hit rate "
          f"{stats.cache_hit_rate:.0%}", file=sys.stderr)

    if options.profile is not None:
        report = build_report(
            command=f"ppe batch {options.manifest}", timer=timer,
            service_stats=stats,
            backend_stats=(backend_stats
                           if options.backend == "compiled" else None))
        try:
            write_report(report, options.profile)
        except OSError as error:
            raise SystemExit(
                f"ppe: cannot write profile report: {error}")
    return 0


def _parse_quota(spec: str | None) -> tuple[float | None, float | None]:
    """``--quota RATE[:BURST]`` decoded."""
    if spec is None:
        return None, None
    rate_text, _, burst_text = spec.partition(":")
    try:
        rate = float(rate_text)
        burst = float(burst_text) if burst_text else None
    except ValueError:
        raise SystemExit(
            f"ppe: bad --quota {spec!r}: expected RATE[:BURST]")
    if rate <= 0 or (burst is not None and burst < 1):
        raise SystemExit(
            f"ppe: bad --quota {spec!r}: RATE must be positive and "
            f"BURST >= 1")
    return rate, burst


def _run_gateway(options: argparse.Namespace) -> int:
    """``ppe gateway``: the asyncio HTTP front door, running until
    SIGINT/SIGTERM."""
    import asyncio
    import signal

    from repro.gateway import GatewayServer

    quota_rate, quota_burst = _parse_quota(options.quota)

    async def _main(service) -> None:
        gateway = GatewayServer(
            service, host=options.host, port=options.port,
            max_queue=options.max_queue,
            quota_rate=quota_rate, quota_burst=quota_burst,
            priority_keys=tuple(options.priority_key or ()),
            default_engine=options.engine)
        await gateway.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        # Handlers go in before the banner: the banner is the
        # readiness signal, and a supervisor may SIGTERM right after
        # reading it.
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix loops: Ctrl-C still raises
        print(f"gateway listening on "
              f"http://{options.host}:{gateway.port}",
              file=sys.stderr, flush=True)
        try:
            await stop.wait()
        finally:
            gateway.sync_stats()
            await gateway.aclose()

    with _service(options) as service:
        try:
            asyncio.run(_main(service))
        except KeyboardInterrupt:
            pass
        if options.health is not None:
            _write_health(service, options.health)
    return 0


def _run_serve(options: argparse.Namespace) -> int:
    import io

    from repro.service import serve

    # Undecodable bytes on stdin must not kill the loop (the line
    # iterator would raise UnicodeDecodeError before serve ever sees
    # the line): re-wrap the stream to replace them, so the garbage
    # line is answered as bad JSON like any other malformed input.
    stream_in = sys.stdin
    buffer = getattr(stream_in, "buffer", None)
    if buffer is not None:
        stream_in = io.TextIOWrapper(buffer, encoding="utf-8",
                                     errors="replace")
    with _service(options) as service:
        code = serve(service, stream_in, sys.stdout,
                     default_engine=options.engine)
        if options.health is not None:
            _write_health(service, options.health)
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # The consumer hung up mid-stream; point fd 1 at /dev/null so
        # the interpreter's exit-time flush does not print an
        # "Exception ignored" traceback for the same dead pipe.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
