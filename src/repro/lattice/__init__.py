"""Lattice infrastructure: ordered domains, products, fixpoints, laws."""

from repro.lattice.bt import BT, BT_LATTICE, BTLattice
from repro.lattice.core import (
    AbstractValue, FiniteLattice, Lattice, is_monotonic, pointwise_leq)
from repro.lattice.fixpoint import FixpointStats, WorklistSolver
from repro.lattice.flat import ChainLattice, FlatLattice
from repro.lattice.laws import (
    check_bounds, check_finite_height, check_join, check_lattice,
    check_meet, check_partial_order)
from repro.lattice.pevalue import PE_LATTICE, PEValue, PEValueLattice
from repro.lattice.product import SmashedProduct

__all__ = [
    "BT", "BT_LATTICE", "BTLattice",
    "AbstractValue", "FiniteLattice", "Lattice", "is_monotonic",
    "pointwise_leq",
    "FixpointStats", "WorklistSolver",
    "ChainLattice", "FlatLattice",
    "check_bounds", "check_finite_height", "check_join", "check_lattice",
    "check_meet", "check_partial_order",
    "PE_LATTICE", "PEValue", "PEValueLattice",
    "SmashedProduct",
]
