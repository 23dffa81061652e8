"""Conventional (simple) partial evaluation — Figure 2 of the paper.

This is the baseline ``SPE``: partial evaluation with *only* concrete
values.  An expression reduces exactly when it is built from constants;
``SK_P`` folds a primitive only when every argument partially evaluated
to a constant.  There are no facets, no abstract values — specializing
the inner-product program with this evaluator and a dynamic vector gets
nothing, which is the paper's motivation.

Definition 7 makes constant folding the first facet of every product,
so ``SPE`` is Figure 3 over the empty facet suite:
:func:`specialize_simple` runs
:class:`~repro.online.specializer.OnlineSpecializer` over
``FacetSuite()``, with its ``APP``, trampoline and soft budgets.  A
:data:`DYN` input enters as the unknown value of unknown sort, and
constraint propagation is off (Figure 2 has none; over the empty suite
an assumed equality would still fold).  The empty suite's cache keys
give Figure 2's one-rung ``Sf`` (:mod:`repro.online.cache`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.facets.vector import FacetSuite
from repro.lang.errors import PEError
from repro.lang.program import Program
from repro.lang.values import is_value
from repro.online.config import PEConfig
from repro.online.specializer import (
    OnlineSpecializer, SpecializationResult)

#: Marker for a dynamic input position.
DYN = object()


def specialize_simple(program: Program, inputs: Sequence[object],
                      config: PEConfig | None = None,
                      suite: FacetSuite | None = None) \
        -> SpecializationResult:
    """One-shot conventional partial evaluation (Figure 2): each input
    is a concrete value or :data:`DYN`.  ``suite``, a suite without
    facets, lets a long-lived caller keep its memos warm."""
    suite = suite if suite is not None else FacetSuite()
    config = replace(config if config is not None else PEConfig(),
                     propagate_constraints=False)
    engine = OnlineSpecializer(program, suite, config)
    vectors = []
    for value in inputs:
        if value is DYN:
            vectors.append(suite.unknown(None))
        elif is_value(value):
            vectors.append(value)
        else:
            raise PEError(f"simple partial evaluation takes values or "
                          f"DYN, got {value!r}")
    return engine.specialize(vectors)
