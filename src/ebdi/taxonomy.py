"""HIGH/LOW level assignment and role labels derived from indicator values.

The taxonomy has two rules. A dimension's threshold is the median of its
present values (:func:`median_threshold`), and a value at or above it is
HIGH; the tie rule keeps boundary units deterministic. Journals then get a
four-quadrant role from their cited/citing levels:

    citing HIGH + cited HIGH -> CORE                (disciplinary both ways)
    citing LOW  + cited HIGH -> KNOWLEDGE_IMPORTER  (multidisciplinary intake)
    citing HIGH + cited LOW  -> KNOWLEDGE_EXPORTER  (multidisciplinary output)
    citing LOW  + cited LOW  -> TANGENTIAL          (weak tie to the SC)

Whole disciplines are typed by the sign of (cited - citing): positive means
the discipline imports knowledge, negative means it exports.

A :class:`JournalRole` is a named tuple.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .errors import ValidationError


class Level(str, Enum):
    HIGH = "HIGH"
    LOW = "LOW"


class JournalRoleLabel(str, Enum):
    CORE = "CORE"
    KNOWLEDGE_IMPORTER = "KNOWLEDGE_IMPORTER"
    KNOWLEDGE_EXPORTER = "KNOWLEDGE_EXPORTER"
    TANGENTIAL = "TANGENTIAL"


class TradeDirection(str, Enum):
    IMPORTER = "IMPORTER"
    EXPORTER = "EXPORTER"
    BALANCED = "BALANCED"


class JournalRole(NamedTuple):
    unit_id: str
    cited_level: Level | None
    citing_level: Level | None
    role: JournalRoleLabel | None  # None when either level is missing


def median_threshold(values: Sequence[float]) -> float:
    """Median of the values: middle order statistic, or the midpoint of the
    two middle order statistics for an even count.

    The arithmetic is :func:`statistics.median`'s, (a + b) / 2 after one sort,
    so the result is the same float.
    """
    if not values:
        raise ValidationError("cannot take the median of an empty list")
    if any(math.isnan(v) for v in values):
        raise ValidationError("median input contains NaN; exclude missing values first")
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return float((ordered[middle - 1] + ordered[middle]) / 2)


def _level(value: float | None, threshold: float) -> Level | None:
    """HIGH when the value reaches the threshold, else LOW; None when it is missing."""
    if value is None:
        return None
    if math.isnan(value):
        raise ValidationError("indicator value is NaN; exclude missing values first")
    return Level.HIGH if value >= threshold else Level.LOW


def classify_journal(cited_level: Level | None, citing_level: Level | None) -> JournalRoleLabel | None:
    """Quadrant role from the two levels; None (unclassified) if either is missing."""
    if cited_level is None or citing_level is None:
        return None
    if citing_level is Level.HIGH:
        return JournalRoleLabel.CORE if cited_level is Level.HIGH else JournalRoleLabel.KNOWLEDGE_EXPORTER
    return JournalRoleLabel.KNOWLEDGE_IMPORTER if cited_level is Level.HIGH else JournalRoleLabel.TANGENTIAL


def classify_discipline(
    cited_ebdi: float | None,
    citing_ebdi: float | None,
) -> tuple[float, TradeDirection] | None:
    """Cited-minus-citing difference of a discipline and its importer/exporter type.

    A positive difference marks an importer, a negative one an exporter, an
    exact zero is BALANCED. Returns None (unclassified) when either value is
    missing.
    """
    if cited_ebdi is None or citing_ebdi is None:
        return None
    difference = cited_ebdi - citing_ebdi
    if difference > 0:
        return difference, TradeDirection.IMPORTER
    if difference < 0:
        return difference, TradeDirection.EXPORTER
    return difference, TradeDirection.BALANCED


def build_journal_roles(
    pairs: Iterable[tuple[str, float | None, float | None]], cited_threshold: float, citing_threshold: float,
) -> list[JournalRole]:
    """One role per ``(unit_id, cited, citing)`` pair, in the pairs' order.

    A value is HIGH when it reaches its dimension's threshold, normally the
    :func:`median_threshold` of that dimension's present values. A missing
    value (None) gets no level, and its unit no role; a NaN value or threshold
    raises :class:`ValidationError`.
    """
    if math.isnan(cited_threshold) or math.isnan(citing_threshold):
        raise ValidationError("threshold is NaN")
    roles = []
    for unit_id, cited, citing in pairs:
        levels = _level(cited, cited_threshold), _level(citing, citing_threshold)
        roles.append(JournalRole(unit_id, *levels, classify_journal(*levels)))
    return roles
