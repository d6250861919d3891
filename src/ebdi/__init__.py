"""Entropy-based disciplinarity indicator (EBDI) toolkit.

Computes citation profiles, Shannon-entropy diversity, and the EBDI value
for journals and disciplines; classifies units into knowledge
importer/exporter roles; and produces deterministic tables, correlations,
and quadrant plots from CSV citation corpora.

The package re-exports the library surface; everything else imports from its
own module, e.g. the CLI stages from ``ebdi.report``.
"""

from .corpus import Corpus, CountingMode, Dimension, load_corpus, load_edges
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
)
from .taxonomy import (
    JournalRole,
    JournalRoleLabel,
    Level,
    TradeDirection,
    build_journal_roles,
    classify_discipline,
)

__version__ = "0.1.0"

__all__ = [
    "CitationProfile",
    "ComputationError",
    "Corpus",
    "CountingMode",
    "Dimension",
    "EbdiError",
    "EbdiScore",
    "JournalRole",
    "JournalRoleLabel",
    "Level",
    "LoadError",
    "NoCitationsError",
    "TradeDirection",
    "ValidationError",
    "aggregate_sc_network",
    "build_journal_roles",
    "build_profile",
    "classify_discipline",
    "compute_ebdi",
    "compute_journal_indicators",
    "load_corpus",
    "load_edges",
]
