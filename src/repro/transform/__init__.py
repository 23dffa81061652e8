"""Residual-program transformations shared by both specializers."""

from repro.transform.cleanup import (
    canonical_names, drop_unreachable, rename_functions)
from repro.transform.simplify import (
    definitely_total, finish_residual, simplify_expr, simplify_program)

__all__ = [
    "canonical_names", "drop_unreachable", "rename_functions",
    "definitely_total", "finish_residual",
    "simplify_expr", "simplify_program",
]
