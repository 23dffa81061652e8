"""Seeded request families and the three workloads' manifests.

A *family* is one (program, spec shape) of the corpus in
``repro.workloads``: a function from a ``random.Random`` to the spec
strings of one request plus concrete argument tuples that match those
specs (the oracle's inputs).  Every family of the served table below
has a literal with a large value space, so a seed can draw thousands of
never-seen fingerprints for the same program and the same generalized
genext pattern.

The seed only picks literal values, request order and oracle inputs.
The mix of (program, engine, family) pairs is fixed, so two seeds give
different manifests whose work has the same shape.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.lang.values import Vector
from repro.service import SpecRequest
from repro.workloads import ADVERSARIAL_CASES, WORKLOADS

ENGINES = ("online", "offline", "genext", "simple")

#: Step budget of the adversarial requests (a step budget, not a wall
#: budget, so outcomes do not depend on machine speed).
HOSTILE_MAX_STEPS = 5000

Args = tuple
Draw = Callable[[random.Random], tuple[list[str], list[Args]]]


@dataclass(frozen=True)
class Family:
    program: str
    name: str
    draw: Draw
    engines: tuple[str, ...] = ENGINES

    @property
    def label(self) -> str:
        return f"{self.program}/{self.name}"


@dataclass(frozen=True)
class Planned:
    """One generated request with its oracle inputs."""

    request: SpecRequest
    family: str
    #: Full argument tuples of the *source* goal function.
    oracle_args: tuple[Args, ...]
    known_failure: str | None = None


# -- value helpers ---------------------------------------------------------

def _ints(rng: random.Random, n: int, lo: int = -9, hi: int = 9) -> list[int]:
    return [rng.randint(lo, hi) for _ in range(n)]


def _lit(values: Sequence[int]) -> str:
    return "#(" + " ".join(str(v) for v in values) + ")"


def _vec(values: Sequence[int]) -> Vector:
    return Vector.of(values)


def _two(make: Callable[[], Args]) -> list[Args]:
    return [make(), make()]


# -- the served (first-order) families -------------------------------------

def _inner_product(rng):
    n = rng.randint(3, 6)
    a = _ints(rng, n, -99, 99)
    return ([_lit(a), f"size={n}"],
            _two(lambda: (_vec(a), _vec(_ints(rng, n)))))


# x is never 1 or -1, so a residual with the wrong exponent (or a
# constant) gives another value on the oracle's inputs.
def _power(rng):
    n = rng.randint(2, 400)
    return (["dyn", str(n)],
            _two(lambda: (rng.choice([-3, -2, 2, 3]), n)))


def _power_sign(rng):
    n = rng.randint(2, 400)
    return (["sign=pos", str(n)], _two(lambda: (rng.choice([2, 3]), n)))


def _sign_static_x(rng):
    x = rng.randint(-500, 500)
    return ([str(x), "dyn"], _two(lambda: (x, rng.randint(10, 40))))


def _clamped_lookup(rng):
    n = rng.randint(3, 8)
    lo = rng.randint(1, 3)
    hi = rng.randint(lo, 400)
    return ([f"size={n}", "dyn", str(lo), str(hi)],
            _two(lambda: (_vec(_ints(rng, n, -99, 99)),
                          rng.randint(-3, 14), lo, hi)))


def _alternating_sum(rng):
    v = _ints(rng, rng.randint(3, 10), -99, 99)
    return ([_lit(v)], [(_vec(v),)])


def _poly_eval(rng):
    c = _ints(rng, rng.randint(3, 7), -20, 20)
    return ([_lit(c), "dyn"],
            _two(lambda: (_vec(c), float(rng.randint(-3, 3)))))


def _gcd_static(rng):
    a, b = rng.randint(10, 100_000), rng.randint(10, 100_000)
    return ([str(a), str(b)], [(a, b)])


def _gcd_half(rng):
    a = rng.randint(10, 100_000)
    return ([str(a), "dyn"], _two(lambda: (a, rng.randint(1, 999))))


def _mini_vm(rng):
    c1, c2 = rng.randint(-99, 99), rng.randint(-99, 99)
    code = [3, 1, c1, 2, c2, 4, 0]
    return ([_lit(code), "dyn"],
            _two(lambda: (_vec(code), float(rng.randint(-9, 9)))))


def _matvec(rng):
    n = rng.randint(2, 3)
    m = _ints(rng, n * n, -9, 9)
    return ([_lit(m), f"size={n}", f"size={n}"],
            _two(lambda: (_vec(m), _vec(_ints(rng, n)), _vec([0] * n))))


def _bsearch_static(rng):
    v = sorted(rng.sample(range(-500, 500), 7))
    return ([_lit(v), "dyn"],
            _two(lambda: (_vec(v), float(rng.choice(v + [1000])))))


def _ho_pipeline_static(rng):
    v = _ints(rng, rng.randint(2, 6), -99, 99)
    return ([_lit(v), "dyn"],
            _two(lambda: (_vec(v), float(rng.randint(-5, 5)))))


def _ho_select_static_x(rng):
    x = rng.randint(-10_000, 10_000)
    return ([str(x), "dyn"], _two(lambda: (x, rng.choice([True, False]))))


_HIGHER_ORDER_SERVED = ("online", "simple")

#: Every family the benchmark serves.  Higher-order programs are served
#: by online and simple; offline and genext refuse them (Figure 4's
#: analysis is first-order), so those pairs are in KNOWN_FAILING, as are
#: matvec/static_m under simple (a RecursionError after about 50 s) and
#: clamped_lookup with a static vector (an unreadable residual).
SERVED: tuple[Family, ...] = (
    Family("inner_product", "static_a", _inner_product),
    Family("power", "static_n", _power),
    Family("power", "sign_x", _power_sign),
    Family("sign_pipeline", "static_x", _sign_static_x),
    Family("clamped_lookup", "size_bounds", _clamped_lookup),
    Family("alternating_sum", "static_v", _alternating_sum),
    Family("poly_eval", "static_c", _poly_eval),
    Family("gcd", "static", _gcd_static),
    Family("gcd", "half", _gcd_half),
    Family("mini_vm", "static_code", _mini_vm),
    Family("matvec", "static_m", _matvec, ("online", "offline", "genext")),
    Family("binary_search", "static_v", _bsearch_static),
    Family("ho_pipeline", "static_v", _ho_pipeline_static,
           _HIGHER_ORDER_SERVED),
    Family("ho_select", "static_x", _ho_select_static_x,
           _HIGHER_ORDER_SERVED),
)


def served_pairs() -> list[tuple[Family, str]]:
    return [(family, engine) for family in SERVED
            for engine in family.engines]


def _request(family: Family, engine: str, specs: list[str],
             rid: str) -> SpecRequest:
    return SpecRequest.create(
        source=WORKLOADS[family.program].source, specs=specs,
        engine=engine, id=rid)


def draw_fresh(rng: random.Random, count: int, prefix: str,
               seen: set[str]) -> list[Planned]:
    """``count`` requests round-robin over every served pair, each with
    a fingerprint not in ``seen`` (which is updated)."""
    pairs = served_pairs()
    out: list[Planned] = []
    for index in range(count):
        family, engine = pairs[index % len(pairs)]
        for _ in range(1000):
            specs, args = family.draw(rng)
            request = _request(family, engine, specs,
                               f"{prefix}-{index}")
            key = request.fingerprint()
            if key not in seen:
                break
        else:  # pragma: no cover — the literal spaces are large
            raise RuntimeError(f"{family.label}: no fresh fingerprint")
        seen.add(key)
        out.append(Planned(request, family.label, tuple(args)))
    return out


# -- batch_fresh -----------------------------------------------------------

def fresh_manifests(seed: int, warm_count: int, round_count: int,
                    rounds: int) -> tuple[list[Planned], list[list[Planned]]]:
    """The warm-up manifest and the timed rounds of batch_fresh.  Every
    timed request is a never-seen fingerprint for one of the served
    pairs; each round holds whole cycles of the pairs, shuffled."""
    rng = random.Random(f"batch_fresh:{seed}")
    seen: set[str] = set()
    warm = draw_fresh(rng, warm_count, "warm", seen)
    timed = []
    for index in range(rounds):
        batch = draw_fresh(rng, round_count, f"fresh{index}", seen)
        rng.shuffle(batch)
        timed.append(batch)
    return warm, timed


# -- gateway_zipf ----------------------------------------------------------

def zipf_plan(seed: int, working_set: int, count: int,
              fresh_share: float) -> tuple[list[Planned], list[Planned]]:
    """The warm working set (one pass of it is the set-up) and the
    timed sequence: a Zipf(1) draw over the working set with
    ``fresh_share`` never-seen requests mixed in."""
    rng = random.Random(f"gateway_zipf:{seed}")
    seen: set[str] = set()
    # Rank follows the round-robin order over the served pairs, so each
    # seed's head holds the same pairs (with other literals).
    warm = draw_fresh(rng, working_set, "ws", seen)
    weights = [1.0 / (rank + 1) for rank in range(working_set)]
    fresh_total = round(count * fresh_share)
    fresh = draw_fresh(rng, fresh_total, "zf", seen)
    # Never-seen requests arrive evenly spaced, so the tail percentiles
    # do not hinge on how a seed happens to cluster them.
    spacing = count / max(fresh_total, 1)
    phase = rng.random() * spacing
    slots = {int(phase + k * spacing) for k in range(fresh_total)}
    timed: list[Planned] = []
    fresh_iter = iter(fresh)
    for index in range(count):
        if index in slots:
            timed.append(next(fresh_iter))
        else:
            timed.append(rng.choices(warm, weights=weights)[0])
    return warm, timed


# -- batch_hostile ---------------------------------------------------------

def _sign_static_scale(rng):
    scale = rng.randint(1, 9)
    return (["dyn", str(scale)],
            _two(lambda: (rng.randint(-50, 50), scale)))


def _bsearch_size(rng):
    n = rng.randint(5, 9)
    v = sorted(rng.sample(range(-500, 500), n))
    return ([f"size={n}", "dyn"],
            _two(lambda: (_vec(v), float(rng.choice(v)))))


def _ho_pipeline_size(rng):
    n = rng.randint(2, 6)
    return ([f"size={n}", "dyn"],
            _two(lambda: (_vec(_ints(rng, n)), float(rng.randint(-5, 5)))))


def _clamped_lookup_static_v(rng):
    v = _ints(rng, rng.randint(3, 8), -99, 99)
    lo = rng.randint(1, 3)
    hi = rng.randint(lo, 400)
    return ([_lit(v), "dyn", str(lo), str(hi)],
            _two(lambda: (_vec(v), rng.randint(-3, 14), lo, hi)))


def _ho_select_static_flag(rng):
    flag = rng.choice(["true", "false"])
    return (["dyn", flag],
            _two(lambda: (rng.randint(-99, 99), flag == "true")))


#: Served, but the residual keeps the vector as a ``#(...)`` constant,
#: which ``repro.lang.parser`` cannot read back, so the oracle cannot
#: run it.  Counted against ``ok_share`` without failing the run.
UNPARSEABLE = "unparseable residual"

#: The pairs the seed commit degrades on or answers unreadably, with
#: the failure it shows.
KNOWN_FAILING: tuple[tuple[str, str, str], ...] = tuple(
    [("sign_pipeline/static_scale", engine, "RecursionError")
     for engine in ENGINES]
    + [("binary_search/size", "simple", "RecursionError")]
    + [("matvec/static_m", "simple", "watchdog")]
    + [(label, engine, "PEError")
       for label in ("ho_pipeline/static_v", "ho_pipeline/size",
                     "ho_select/static_x", "ho_select/static_flag")
       for engine in ("offline", "genext")]
    + [(f"adversarial/{case.name}", "genext", "watchdog")
       for case in ADVERSARIAL_CASES]
    + [("clamped_lookup/static_v", engine, UNPARSEABLE)
       for engine in ENGINES])

_HOSTILE_FAMILIES = {
    "sign_pipeline/static_scale":
        Family("sign_pipeline", "static_scale", _sign_static_scale),
    "binary_search/size": Family("binary_search", "size", _bsearch_size),
    "matvec/static_m": Family("matvec", "static_m", _matvec),
    "clamped_lookup/static_v":
        Family("clamped_lookup", "static_v", _clamped_lookup_static_v),
    "ho_pipeline/static_v":
        Family("ho_pipeline", "static_v", _ho_pipeline_static),
    "ho_pipeline/size": Family("ho_pipeline", "size", _ho_pipeline_size),
    "ho_select/static_x":
        Family("ho_select", "static_x", _ho_select_static_x),
    "ho_select/static_flag":
        Family("ho_select", "static_flag", _ho_select_static_flag),
}


def hostile_cycle(seed: int, cycle: int = 0) -> list[Planned]:
    """One cycle of batch_hostile, in dispatch order (consecutive
    pairs form the 2-request waves).  The three adversarial cases run
    under every engine with a step budget; every known-failing pair
    follows.  The order is fixed so that wave composition — and with it
    the number of watchdog-bound waves — is the same for every seed:
    the four requests that run into the watchdog share two waves."""
    rng = random.Random(f"batch_hostile:{seed}:{cycle}")
    tag = f"c{cycle}"
    adversarial: dict[tuple[str, str], Planned] = {}
    for case in ADVERSARIAL_CASES:
        for engine in ENGINES:
            request = SpecRequest.create(
                source=case.source, specs=["dyn"], engine=engine,
                config={"max_steps": HOSTILE_MAX_STEPS},
                id=f"{tag}-adv-{case.name}-{engine}")
            failure = "watchdog" if engine == "genext" else None
            adversarial[(case.name, engine)] = Planned(
                request, f"adversarial/{case.name}",
                tuple((arg,) for arg in case.oracle_args), failure)
    failing: dict[tuple[str, str], Planned] = {}
    for label, engine, failure in KNOWN_FAILING:
        if label.startswith("adversarial/"):
            continue
        family = _HOSTILE_FAMILIES[label]
        specs, args = family.draw(rng)
        request = _request(family, engine, specs,
                           f"{tag}-{label.replace('/', '-')}-{engine}")
        failing[(label, engine)] = Planned(request, label, tuple(args),
                                           failure)
    names = [case.name for case in ADVERSARIAL_CASES]
    order: list[Planned] = [
        adversarial[(names[0], "genext")],
        adversarial[(names[1], "genext")],
        adversarial[(names[2], "genext")],
        failing[("matvec/static_m", "simple")],
        failing[("binary_search/size", "simple")],
    ]
    for engine in ("online", "offline", "simple"):
        for name in names:
            order.append(adversarial[(name, engine)])
    order.extend(failing[("sign_pipeline/static_scale", engine)]
                 for engine in ENGINES)
    order.extend(planned for key, planned in failing.items()
                 if key[0].startswith(("ho_", "clamped_lookup/")))
    return order
