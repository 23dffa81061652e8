"""Offline parameterized partial evaluation (Section 5)."""

from repro.offline.analysis import (
    AnalysisConfig, AnalysisResult, CallAnnotation, FacetAnalyzer, FOLD,
    IfAnnotation, PrimAnnotation, RESIDUAL, Signature, TRIGGER, analyze)
from repro.offline.higher_order import (
    TC, AbsClosure, HOAnalysisResult, HOConfig, HigherOrderAnalyzer,
    JoinFn, TopFn, analyze_higher_order)
from repro.offline.polyvariant import (
    PolyvariantAnalyzer, PolyvariantResult, Variant,
    analyze_polyvariant)
from repro.offline.report import (
    Row, analysis_rows, facet_table, signature_lines)
from repro.offline.specializer import (
    OfflineResult, OfflineSpecializer, specialize_offline)

__all__ = [
    "AnalysisConfig", "AnalysisResult", "CallAnnotation", "FacetAnalyzer",
    "FOLD", "IfAnnotation", "PrimAnnotation", "RESIDUAL", "Signature",
    "TRIGGER", "analyze",
    "TC", "AbsClosure", "HOAnalysisResult", "HOConfig",
    "HigherOrderAnalyzer", "JoinFn", "TopFn", "analyze_higher_order",
    "PolyvariantAnalyzer", "PolyvariantResult", "Variant",
    "analyze_polyvariant",
    "Row", "analysis_rows", "facet_table", "signature_lines",
    "OfflineResult", "OfflineSpecializer", "specialize_offline",
]
