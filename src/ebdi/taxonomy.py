"""HIGH/LOW level assignment and role labels derived from indicator values.

Journals get a four-quadrant role from their cited/citing levels, where a
level is HIGH when the unit's indicator value reaches the median (the 50th
percentile) of its dimension's distribution within the analyzed set:

    citing HIGH + cited HIGH -> CORE                (disciplinary both ways)
    citing LOW  + cited HIGH -> KNOWLEDGE_IMPORTER  (multidisciplinary intake)
    citing HIGH + cited LOW  -> KNOWLEDGE_EXPORTER  (multidisciplinary output)
    citing LOW  + cited LOW  -> TANGENTIAL          (weak tie to the SC)

Whole disciplines are typed by the sign of (cited - citing): positive means
the discipline imports knowledge, negative means it exports.

Values exactly at the threshold are HIGH; the tie rule keeps boundary units
deterministic. A :class:`JournalRole` is a named tuple.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Mapping, NamedTuple, Sequence

from .corpus import Dimension
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


def assign_levels(scores: Mapping[str, float]) -> tuple[dict[str, Level], float]:
    """HIGH/LOW level of every scored unit of one dimension, and the threshold.

    The threshold is the median of the given values. HIGH means value >= threshold.
    """
    if len(scores) < 2:
        raise ValidationError("fewer than 2 scored units; a threshold needs at least 2")
    threshold = median_threshold(list(scores.values()))
    levels = {
        unit_id: Level.HIGH if value >= threshold else Level.LOW
        for unit_id, value in scores.items()
    }
    return levels, threshold


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
    cited_scores: dict[str, float],
    citing_scores: dict[str, float],
) -> tuple[list[JournalRole], dict[Dimension, float]]:
    """Compose level assignment and role classification for a set of units.

    Units missing a dimension are excluded from that dimension's threshold but
    still appear in the result, unclassified. Output is sorted by unit_id.
    """
    cited_levels, cited_threshold = assign_levels(cited_scores)
    citing_levels, citing_threshold = assign_levels(citing_scores)
    roles = []
    for unit_id in sorted(cited_levels.keys() | citing_levels.keys()):
        cited, citing = cited_levels.get(unit_id), citing_levels.get(unit_id)
        roles.append(JournalRole(unit_id, cited, citing, classify_journal(cited, citing)))
    return roles, {Dimension.CITED: cited_threshold, Dimension.CITING: citing_threshold}
