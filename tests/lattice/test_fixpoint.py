"""Fixpoint engine unit tests."""

import pytest

from repro.lattice.flat import ChainLattice
from repro.lattice.fixpoint import WorklistSolver


@pytest.fixture
def chain():
    return ChainLattice("c", [0, 1, 2, 3, 4])


class TestWorklistSolver:
    def test_single_cell(self, chain):
        solver = WorklistSolver(chain, lambda s, cell: 3)
        assert solver.solve("x") == 3

    def test_dependency_chain(self, chain):
        def equation(solver, cell):
            if cell == "a":
                return 2
            return solver.ask("a")

        solver = WorklistSolver(chain, equation)
        assert solver.solve("b") == 2

    def test_mutual_recursion_reaches_fixpoint(self, chain):
        # a = max(1, b), b = a: both settle at 1.
        def equation(solver, cell):
            if cell == "a":
                return max(1, solver.ask("b"))
            return solver.ask("a")

        solver = WorklistSolver(chain, equation)
        assert solver.solve("a") == 1
        assert solver.values["b"] == 1

    def test_increasing_cycle_hits_top(self, chain):
        # a = min(top, b + 1), b = a: climbs to the chain top and
        # stops.
        def equation(solver, cell):
            if cell == "a":
                return min(4, solver.ask("b") + 1)
            return solver.ask("a")

        solver = WorklistSolver(chain, equation)
        assert solver.solve("a") == 4

    def test_drain_returns_growth_count(self, chain):
        solver = WorklistSolver(chain, lambda s, cell: 1)
        solver.ask("x")
        assert solver.drain() == 1
        assert solver.drain() == 0

    def test_update_budget(self, chain):
        def equation(solver, cell):
            return solver.ask(("next", cell))

        solver = WorklistSolver(chain, equation, max_updates=10)
        with pytest.raises(RuntimeError, match="budget"):
            solver.solve("start")

    def test_reentrant_drain_rejected(self, chain):
        solver = WorklistSolver(chain, lambda s, cell: s.drain() or 0)
        with pytest.raises(AssertionError):
            solver.solve("x")
