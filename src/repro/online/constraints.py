"""Predicate-constraint propagation — the paper's stated future work.

Section 4.4 ends: "Redfun is able to extract properties from the
predicate of a conditional expression.  Then, these properties and their
negation are propagated to the consequent and alternative branches
respectively ... We are currently investigating this issue."  This
module implements that investigation as an opt-in extension
(``PEConfig(propagate_constraints=True)``) for the *online* specializer:

* when a conditional's test stays residual and has the shape
  ``op(u, v)`` with ``u``/``v`` residual variables or constants, each
  facet is asked to *refine* the operands' abstract values under the
  assumption that the test is true (then-branch) or false (else-branch);
* an assumed-true equality against a constant goes further: the variable
  is bound to the constant itself in that branch (the strongest possible
  refinement).

Facets opt in by populating ``refine_ops``: a map from comparison
operator to a function ``(assume, left, right) -> (left', right')``
returning refined abstract values (or the inputs unchanged).  The Sign
and Interval facets implement it; refinements are *meets*, so safety is
preserved by construction: the refined value still describes every
concrete value that can reach the branch.

The offline level is untouched — propagating constraints through
Figure 4 would change the analysis the paper actually defines.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.lang.ast import Const, Expr, Prim, Var
from repro.facets.base import Facet
from repro.facets.vector import FacetSuite, FacetVector

#: Comparison operators with a meaningful negation.
_NEGATION = {"<": ">=", "<=": ">", ">": "<=", ">=": "<",
             "=": "!=", "!=": "="}

RefineFn = Callable[[bool, object, object], tuple[object, object]]


def refine_branch_bindings(suite: FacetSuite, test: Expr,
                           lookup: Mapping[str, FacetVector],
                           assume: bool) -> dict[str, FacetVector]:
    """Refined facet vectors for residual variables mentioned in a
    comparison test, under the given truth assumption.

    ``lookup`` maps *residual* variable names to their current vectors;
    the result maps the refined subset (possibly empty).  An
    assumed-true ``(= x c)`` refines ``x``'s PE component to the
    constant ``c``.
    """
    if not isinstance(test, Prim) or test.op not in _NEGATION \
            or len(test.args) != 2:
        return {}
    left, right = test.args
    left_vector = _operand_vector(suite, left, lookup)
    right_vector = _operand_vector(suite, right, lookup)
    if left_vector is None or right_vector is None:
        return {}

    refined: dict[str, FacetVector] = {}
    new_left, new_right = _refine_pair(suite, test.op, assume,
                                       left_vector, right_vector)
    if isinstance(left, Var) and new_left != left_vector:
        refined[left.name] = new_left
    if isinstance(right, Var) and new_right != right_vector:
        refined[right.name] = new_right
    return refined


def _operand_vector(suite: FacetSuite, operand: Expr,
                    lookup: Mapping[str, FacetVector]) \
        -> FacetVector | None:
    if isinstance(operand, Const):
        return suite.const_vector(operand.value)
    if isinstance(operand, Var):
        return lookup.get(operand.name)
    return None


def _refine_pair(suite: FacetSuite, op: str, assume: bool,
                 left: FacetVector, right: FacetVector) \
        -> tuple[FacetVector, FacetVector]:
    # Equality against a constant pins the PE component itself.
    if op == "=" and assume or op == "!=" and not assume:
        if right.pe.is_const and not left.pe.is_const:
            left = suite.const_vector(right.pe.constant())
        elif left.pe.is_const and not right.pe.is_const:
            right = suite.const_vector(left.pe.constant())

    if left.sort is None or right.sort is None:
        # The comparisons raise on mixed operands, so in either branch
        # a sortless operand has the sort of the overload the other
        # operand selects.
        sig = suite.resolve_sig(op, [left, right])
        if sig is not None:
            left = left if left.sort else suite.unknown(sig.arg_sorts[0])
            right = right if right.sort else suite.unknown(sig.arg_sorts[1])
    if left.sort is None or left.sort != right.sort:
        return left, right
    facets = suite.facets_for(left.sort)
    left_user = list(left.user)
    right_user = list(right.user)
    for index, facet in enumerate(facets):
        refiner = getattr(facet, "refine_ops", {}).get(op)
        if refiner is None:
            continue
        new_left, new_right = refiner(assume, left_user[index],
                                      right_user[index])
        left_user[index] = new_left
        right_user[index] = new_right
    new_left_vector = suite.make_vector(left.sort, left.pe,
                                        tuple(left_user))
    new_right_vector = suite.make_vector(right.sort, right.pe,
                                         tuple(right_user))
    # A refinement that empties a component proves the branch dead; the
    # smashed bottom signals that to the specializer.
    return (suite.smash(new_left_vector),
            suite.smash(new_right_vector))


# The per-facet refinement tables live on the facets themselves
# (``Facet.refine_ops`` with the combinators from
# :mod:`repro.facets.base`); this module hosts the generic engine only.
