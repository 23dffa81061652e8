"""Baselines the paper compares against: Figure 2's simple PE and
conventional binding-time analysis."""

from repro.baselines.bta import BTAResult, D, Division, S, bta
from repro.baselines.simple_pe import DYN, specialize_simple

__all__ = [
    "BTAResult", "D", "Division", "S", "bta",
    "DYN", "specialize_simple",
]
