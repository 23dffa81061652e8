"""Fixpoint iteration over finite-height lattices.

Both the facet analysis (Figure 4) and the abstract function environment
``zeta`` compute least fixpoints of monotone functionals.  Definition 2's
finite-height condition guarantees termination; for domains of infinite
height (the interval facet) the lattice's :meth:`widen` accelerates the
ascent, as the paper's footnote 1 anticipates.

The engine is :class:`WorklistSolver`, a dependency-tracking worklist
solver behind the per-call-pattern abstract function cache (a
minimal-function-graph style fixpoint), which recomputes only entries
whose inputs changed; the facet analysis runs Figure 4's ``h`` over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable

from repro.lattice.core import AbstractValue, Lattice


@dataclass
class FixpointStats:
    """Iteration counters, reported by the analysis benchmarks."""

    iterations: int = 0
    evaluations: int = 0


class WorklistSolver:
    """Demand-driven fixpoint of ``cell -> value`` equations.

    Cells are arbitrary hashable keys (here: ``(function, abstract
    arguments)`` pairs).  The equation for a cell is evaluated by a
    user-supplied function that may :meth:`ask` for other cells; asking
    records a dependency edge and returns the current approximation.
    When a cell's value grows, its dependents are re-evaluated.  All
    values live in one lattice.
    """

    def __init__(self, lattice: Lattice,
                 equation: Callable[["WorklistSolver", Hashable],
                                    AbstractValue],
                 max_updates: int = 200_000,
                 use_widening: bool = False) -> None:
        self.lattice = lattice
        self.equation = equation
        self.values: dict[Hashable, AbstractValue] = {}
        self.dependents: dict[Hashable, set[Hashable]] = {}
        self.stats = FixpointStats()
        self._max_updates = max_updates
        self._use_widening = use_widening
        self._updates = 0
        self._active: list[Hashable] = []
        self._pending: list[Hashable] = []
        self._queued: set[Hashable] = set()
        self._evaluated: set[Hashable] = set()

    def ask(self, cell: Hashable) -> AbstractValue:
        """Current approximation of ``cell``; records the dependency of
        the cell currently being evaluated."""
        if self._active:
            self.dependents.setdefault(cell, set()).add(self._active[-1])
        if cell not in self._evaluated and cell not in self._queued:
            self._queued.add(cell)
            self._pending.append(cell)
        return self.values.get(cell, self.lattice.bottom)

    def drain(self) -> int:
        """Evaluate queued cells (and everything they destabilize) to
        quiescence; returns the number of cell-value *growths*.  Must be
        called from outside any equation evaluation."""
        assert not self._active, "drain() called re-entrantly"
        growths = 0
        while self._pending:
            cell = self._pending.pop()
            self._queued.discard(cell)
            self._evaluated.add(cell)
            self._updates += 1
            if self._updates > self._max_updates:
                raise RuntimeError(
                    "worklist fixpoint exceeded its update budget")
            old = self.values.get(cell, self.lattice.bottom)
            self._active.append(cell)
            try:
                raw = self.equation(self, cell)
            finally:
                self._active.pop()
            self.stats.evaluations += 1
            new = (self.lattice.widen(old, raw) if self._use_widening
                   else self.lattice.join(old, raw))
            if not self.lattice.leq(new, old):
                growths += 1
                self.values[cell] = new
                for dependent in self.dependents.get(cell, ()):
                    if dependent not in self._queued:
                        self._queued.add(dependent)
                        self._pending.append(dependent)
        return growths

    def solve(self, root: Hashable) -> AbstractValue:
        """Solve the equation system reachable from ``root``."""
        self.ask(root)
        self.drain()
        return self.values.get(root, self.lattice.bottom)
