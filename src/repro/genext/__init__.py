"""Fused generating extensions: the offline specializer emitted as
native Python.

``emit_genext(source, specs, suite, config)`` analyzes the program
once under a generalized division and emits a standalone Python module
whose ``specialize(inputs)`` reproduces
:class:`repro.offline.specializer.OfflineSpecializer` byte-for-byte —
budgets and degradations included — while skipping annotation
dispatch, environment dictionaries and the per-unfold AST walks.
``load_genext`` executes an emitted module (possibly read back from
the artifact store's ``genext`` kind).  See :mod:`repro.genext.emit`
and :mod:`repro.genext.runtime`.
"""

from repro.genext.emit import (
    EmittedGenext, canonical_spec, default_suite, emit_genext,
    generalized_pattern, genext_store_key, load_genext)
from repro.genext.runtime import (
    GENEXT_PROTOCOL, GenextRuntime, facet_name_of, facet_from_name,
    suite_from_names)

__all__ = [
    "EmittedGenext",
    "GENEXT_PROTOCOL",
    "GenextRuntime",
    "canonical_spec",
    "default_suite",
    "emit_genext",
    "facet_from_name",
    "facet_name_of",
    "generalized_pattern",
    "genext_store_key",
    "load_genext",
    "suite_from_names",
]
