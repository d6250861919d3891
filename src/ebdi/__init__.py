"""Entropy-based disciplinarity indicator (EBDI) toolkit.

Computes citation profiles, Shannon-entropy diversity, and the EBDI value
for journals and disciplines; classifies units into knowledge
importer/exporter roles; and produces deterministic tables, correlations,
and quadrant plots from CSV citation corpora.
"""

from .corpus import (
    Corpus,
    CountingMode,
    Dimension,
    Journal,
    SubjectCategory,
    is_internal,
    load_classification,
    load_corpus,
    load_edges,
)
from .errors import (
    ComputationError,
    EbdiError,
    LoadError,
    NoCitationsError,
    ValidationError,
)
from .metrics import (
    CitationProfile,
    EbdiScore,
    aggregate_sc_network,
    build_profile,
    compute_ebdi,
    compute_journal_indicators,
    ebdi_value,
    pct_of_max_entropy,
    raw_diversity,
    shannon_entropy,
)
from .report import (
    RunConfig,
    export_sc_network,
    run_correlations,
    run_indicators,
    run_roles,
)
from .stats import (
    CorrelationResult,
    MetricSeries,
    correlate,
    load_metric_series,
    p_two_tailed,
    spearman_rho,
)
from .taxonomy import (
    JournalRole,
    JournalRoleLabel,
    Level,
    TradeDirection,
    assign_levels,
    build_journal_roles,
    classify_discipline,
    classify_journal,
    median_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "CitationProfile",
    "ComputationError",
    "CorrelationResult",
    "Corpus",
    "CountingMode",
    "Dimension",
    "EbdiError",
    "EbdiScore",
    "Journal",
    "JournalRole",
    "JournalRoleLabel",
    "Level",
    "LoadError",
    "MetricSeries",
    "NoCitationsError",
    "RunConfig",
    "SubjectCategory",
    "TradeDirection",
    "ValidationError",
    "aggregate_sc_network",
    "assign_levels",
    "build_journal_roles",
    "build_profile",
    "classify_discipline",
    "classify_journal",
    "compute_ebdi",
    "compute_journal_indicators",
    "correlate",
    "ebdi_value",
    "export_sc_network",
    "is_internal",
    "load_classification",
    "load_corpus",
    "load_edges",
    "load_metric_series",
    "median_threshold",
    "p_two_tailed",
    "pct_of_max_entropy",
    "raw_diversity",
    "run_correlations",
    "run_indicators",
    "run_roles",
    "shannon_entropy",
    "spearman_rho",
]
