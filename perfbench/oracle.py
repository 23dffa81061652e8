"""The correctness oracle: every distinct answer against its source.

A residual is run with :mod:`repro.lang.interp` on the dynamic part of
each of the request's concrete argument tuples and must give the value
the source program gives on the whole tuple.  A degraded answer carries
the fallback residual, which keeps every parameter, so it runs on the
whole tuple.  Step counts of both runs feed ``residual_steps_ratio``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.errors import EvalError, FuelExhausted
from repro.lang.interp import run_with_stats
from repro.lang.parser import parse_program
from repro.lang.values import format_value, values_approx_equal

FUEL = 5_000_000


@dataclass
class Verdict:
    ok: bool
    #: False when the residual is not a program the parser can read.
    parses: bool = True
    source_steps: int = 0
    residual_steps: int = 0
    residual_nodes: int = 0
    detail: str = ""


_source_cache: dict[str, object] = {}


def _run(program, args):
    try:
        value, stats = run_with_stats(program, *args, fuel=FUEL)
    except (EvalError, FuelExhausted) as error:
        return ("error", type(error).__name__), 0
    return ("value", value), stats.steps


def check(source: str, residual: str, goal_params, oracle_args) \
        -> Verdict:
    """Judge one answer.  ``goal_params`` name the source parameters the
    residual kept, in order."""
    program = _source_cache.get(source)
    if program is None:
        program = _source_cache[source] = parse_program(source)
    try:
        residual_program = parse_program(residual)
    except Exception as error:  # noqa: BLE001 — a bad answer, not a crash
        return Verdict(False, parses=False,
                       detail=f"residual does not parse: {error}")
    params = program.main.params
    try:
        positions = [params.index(name) for name in goal_params]
    except ValueError:
        return Verdict(False, detail=f"goal params {goal_params} are not "
                                     f"source parameters {params}")
    verdict = Verdict(True, residual_nodes=residual_program.size())
    for args in oracle_args:
        want, want_steps = _run(program, args)
        got, got_steps = _run(residual_program,
                              [args[i] for i in positions])
        same = want[0] == got[0] and (
            want[0] == "error" or values_approx_equal(want[1], got[1]))
        if not same:
            shown = [format_value(a) if not isinstance(a, tuple) else a
                     for a in args]
            return Verdict(False, detail=f"on {shown}: source gave "
                                         f"{want}, residual gave {got}")
        verdict.source_steps += want_steps
        verdict.residual_steps += got_steps
    return verdict
