"""Pins of the four engines' call policy: residual hashes and counters.

Each run goes through :func:`repro.service.worker.execute_request` (the
path ``ppe batch`` takes) and is pinned in ``engine_pins.json`` by the
residual's SHA-256 and length, the goal parameters it kept, and
``PEStats.as_dict()`` without ``phase_seconds``; the degrade log is
pinned by its SHA-256.  The corpus drives every branch of ``APP`` on
all four engines: the three adversarial programs under a step budget
alone and with a residual-node or an unfold-depth cap, under each of
those three caps alone with ``strict_budgets`` (pinned by the
``BudgetExhausted`` text), the unfold strategies, the generalization
ladder (``max_variants``, lenient or not), a small ``unfold_fuel``,
and lambda applications for the beta rule.

Hashes rather than text: the adversarial residuals run to hundreds of
kilobytes, and their degrade logs to 64 events each.  When a change is
*intended*, regenerate with::

    PYTHONPATH=src python -m pytest tests/golden/test_engine_pins.py \\
        --update-golden

and list the entries that changed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from repro.service.worker import execute_request
from repro.workloads import ADVERSARIAL_CASES, WORKLOADS

PINS = Path(__file__).parent / "engine_pins.json"

ENGINES = ("online", "offline", "genext", "simple")

#: Applications of a lambda and of a top-level function name.
HIGHER_ORDER_SRC = """
(define (main x) (+ (apply1 (lambda (a) (* a 2)) x 3) (apply1 inc x 4)))
(define (apply1 f y k) (+ k (f y)))
(define (inc y) (+ y 1))
"""

#: The constraint-propagation programs of
#: ``benchmarks/bench_constraints.py``: a residual test refines the
#: facet values of the variables it compares in each branch.
ABS_CLASSIFY_SRC = """
(define (main x)
  (if (< x 0)
      (classify (neg x))
      (classify x)))
(define (classify y)
  (if (< y 0) -1 (if (> y 0) 1 0)))
"""

GUARDED_CHAIN_SRC = """
(define (main i)
  (if (>= i 1)
      (if (<= i 100)
          (step i)
          0)
      0))
(define (step i)
  (if (>= i 1)
      (if (<= i 100)
          (* i 2)
          -1)
      -1))
"""

#: Soft budgets for the adversarial programs.
ADVERSARIAL_BUDGETS = {
    "steps": {"max_steps": 3000},
    "steps+nodes": {"max_steps": 3000, "max_residual_nodes": 500},
    "steps+depth": {"max_steps": 3000, "max_unfold_depth": 6},
    # Each strict run is pinned by its BudgetExhausted error text.
    "strict-steps": {"max_steps": 3000, "strict_budgets": True},
    "strict-nodes": {"max_steps": None, "max_residual_nodes": 500,
                     "strict_budgets": True},
    "strict-depth": {"max_steps": None, "max_unfold_depth": 6,
                     "strict_budgets": True},
}


@dataclass(frozen=True)
class Run:
    name: str
    source: str
    specs: tuple[str, ...]
    engines: tuple[str, ...] = ENGINES
    config: dict = field(default_factory=dict)


RUNS = [
    *(Run(f"{case.name}/{budget}", case.source, ("dyn",), config=config)
      for case in ADVERSARIAL_CASES
      for budget, config in ADVERSARIAL_BUDGETS.items()),
    # Calls whose arguments differ only in sort: one `square` and one
    # `gcd` loop under `simple`.
    Run("power/dyn-10", WORKLOADS["power"].source, ("dyn", "10")),
    Run("gcd/48-dyn", WORKLOADS["gcd"].source, ("48", "dyn")),
    Run("power/never", WORKLOADS["power"].source, ("dyn", "10"),
        config={"unfold_strategy": "never"}),
    Run("inner_product/never", WORKLOADS["inner_product"].source,
        ("size=3", "size=3"), config={"unfold_strategy": "never"}),
    Run("power/variants2", WORKLOADS["power"].source, ("dyn", "10"),
        config={"unfold_strategy": "never", "max_variants": 2}),
    Run("power/variants2-lenient", WORKLOADS["power"].source,
        ("dyn", "10"), config={"unfold_strategy": "never",
                               "max_variants": 2, "lenient": True}),
    Run("power/fuel3", WORKLOADS["power"].source, ("dyn", "10"),
        config={"unfold_fuel": 3}),
    Run("inner_product/fuel3", WORKLOADS["inner_product"].source,
        ("size=5", "size=5"), config={"unfold_fuel": 3}),
    # Offline and genext refuse higher-order programs by design.
    Run("higher_order", HIGHER_ORDER_SRC, ("dyn",),
        engines=("online", "simple")),
    Run("higher_order/depth1", HIGHER_ORDER_SRC, ("dyn",),
        engines=("online", "simple"), config={"max_unfold_depth": 1}),
    Run("higher_order/nodes", HIGHER_ORDER_SRC, ("dyn",),
        engines=("online", "simple"),
        config={"max_residual_nodes": 2}),
    Run("ho_pipeline", WORKLOADS["ho_pipeline"].source,
        ("size=3", "2"), engines=("online", "simple")),
    # Constraint propagation, an online extension.  A residual test
    # refines at every comparison; a `dyn` input has no sort until a
    # comparison with an int gives it one in either branch.
    *(Run(f"{name}/{label}", source, (spec,),
          engines=("online", "simple"),
          config={"propagate_constraints": True})
      for name, source in (("abs_classify", ABS_CLASSIFY_SRC),
                           ("guarded_chain", GUARDED_CHAIN_SRC))
      for label, spec in (("dyn", "dyn"),
                          ("interval", "interval=-1000:1000"))),
]


def _pin(run: Run, engine: str) -> dict:
    outcome = execute_request({
        "source": run.source, "specs": list(run.specs),
        "engine": engine, "config": dict(run.config)})
    if outcome.get("failed"):
        return {"error": outcome["error"]}
    stats = dict(outcome["stats"])
    del stats["phase_seconds"]
    budget = stats["budget"] = dict(stats["budget"])
    budget["events"] = _sha256(json.dumps(budget["events"],
                                          sort_keys=True))
    residual = outcome["residual"]
    return {"sha256": _sha256(residual), "length": len(residual),
            "goal_params": outcome["goal_params"],
            "stats": stats}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _write(pins: dict) -> None:
    """One run per line, so a drifted pin reads as a one-line diff."""
    lines = [json.dumps(key) + ": " + json.dumps(
                 pins[key], sort_keys=True, separators=(",", ":"))
             for key in sorted(pins)]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n",
                    encoding="utf-8")


@pytest.fixture(scope="session")
def update_golden(request):
    return request.config.getoption("--update-golden")


@pytest.mark.parametrize("engine", ENGINES)
def test_engine_matches_its_pins(engine, update_golden):
    got = {f"{engine}/{run.name}": _pin(run, engine)
           for run in RUNS if engine in run.engines}
    pins = json.loads(PINS.read_text(encoding="utf-8")) \
        if PINS.exists() else {}
    if update_golden:
        pins = {key: value for key, value in pins.items()
                if not key.startswith(f"{engine}/")}
        _write({**pins, **got})
        return
    want = {key: value for key, value in pins.items()
            if key.startswith(f"{engine}/")}
    drift = sorted(key for key in got.keys() | want.keys()
                   if got.get(key) != want.get(key))
    assert not drift, \
        f"{engine}: runs drifted from engine_pins.json: {drift}"
