"""Spearman rank correlation with tie handling and two-tailed significance.

Ranks are assigned smallest-first with tied values sharing their average rank;
the correlation is the Pearson correlation of the two rank vectors, which is
the tie-correct form of Spearman's rho. Significance uses the standard t
approximation, t = rho * sqrt((n-2) / (1-rho^2)) with n-2 degrees of freedom,
recorded in ``method_note`` of every result.

Series are joined pairwise-complete: units missing from either series are
dropped for that pair only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .corpus import Source, parse_float, read_csv
from .errors import LoadError, ValidationError

METHOD_NOTE_T_APPROX = "t-approximation (df=n-2)"
METHOD_NOTE_DEGENERATE = "|rho|=1; p=0 by convention"
METRIC_FIELDS = ("journal_id", "metric_name", "value")


@dataclass(frozen=True)
class MetricSeries:
    """Named per-unit values of one metric; units without a value are absent."""

    metric_name: str
    values: Mapping[str, float]

    def __post_init__(self) -> None:
        for unit_id, value in self.values.items():
            if not math.isfinite(value):
                raise ValidationError(
                    f"non-finite value for unit {unit_id!r} in metric {self.metric_name!r}"
                )


@dataclass(frozen=True)
class CorrelationResult:
    metric_x: str
    metric_y: str
    n: int
    rho: float
    p_two_tailed: float
    method_note: str


def _pearson(x: Sequence[float], y: Sequence[float]) -> float:
    n = len(x)
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    dx = [v - mean_x for v in x]
    dy = [v - mean_y for v in y]
    cov = math.fsum(a * b for a, b in zip(dx, dy))
    var_x = math.fsum(a * a for a in dx)
    var_y = math.fsum(b * b for b in dy)
    if var_x == 0 or var_y == 0:
        raise ValidationError("constant series; correlation undefined")
    r = cov / math.sqrt(var_x * var_y)
    return max(-1.0, min(1.0, r))


def spearman_rho(x: MetricSeries, y: MetricSeries) -> tuple[float, int]:
    """Tie-corrected Spearman correlation over the units present in both series.

    Returns (rho, n) where n is the overlap size. Requires n >= 3 and both
    overlapping series non-constant.
    """
    overlap = sorted(set(x.values) & set(y.values))
    if len(overlap) < 3:
        raise ValidationError(
            f"only {len(overlap)} overlapping units between {x.metric_name!r} and "
            f"{y.metric_name!r}; need at least 3"
        )
    from scipy.stats import rankdata  # imported here so only correlate runs pay scipy's ~1 s import

    xs = [x.values[unit] for unit in overlap]
    ys = [y.values[unit] for unit in overlap]
    rho = _pearson(rankdata(xs).tolist(), rankdata(ys).tolist())
    return rho, len(overlap)


def p_two_tailed(rho: float, n: int) -> float:
    """Two-tailed significance of a rank correlation via the t approximation.

    For |rho| = 1 the statistic diverges; p is 0 by convention (callers flag
    this in the method note).
    """
    if n < 3:
        raise ValidationError("p-value needs n >= 3")
    if not -1.0 <= rho <= 1.0:
        raise ValidationError("rho must lie in [-1, 1]")
    if abs(rho) == 1.0:
        return 0.0
    from scipy.stats import t as _student_t  # imported here, as in spearman_rho

    t_stat = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * float(_student_t.sf(abs(t_stat), n - 2))
    return min(1.0, max(0.0, p))


def correlate(x: MetricSeries, y: MetricSeries) -> CorrelationResult:
    """Full correlation record for one pair of series."""
    rho, n = spearman_rho(x, y)
    degenerate = abs(rho) == 1.0
    return CorrelationResult(
        metric_x=x.metric_name,
        metric_y=y.metric_name,
        n=n,
        rho=rho,
        p_two_tailed=p_two_tailed(rho, n),
        method_note=METHOD_NOTE_DEGENERATE if degenerate else METHOD_NOTE_T_APPROX,
    )


def load_metric_series(source: Source) -> list[MetricSeries]:
    """Read long-format metric values: header ``journal_id,metric_name,value``.

    Returns one series per metric name, sorted by name. Duplicate
    (journal, metric) rows and values that are not finite decimals are load errors.
    """
    by_metric: dict[str, dict[str, float]] = {}
    for line, (journal_id, metric_name, cell) in read_csv(source, METRIC_FIELDS):
        if not journal_id or not metric_name:
            raise LoadError("journal_id and metric_name must be non-empty", path=source, line=line)
        series = by_metric.setdefault(metric_name, {})
        if journal_id in series:
            raise LoadError(
                f"duplicate value for journal {journal_id!r}, metric {metric_name!r}",
                path=source, line=line,
            )
        series[journal_id] = parse_float(cell, "value", source, line)
    return [
        MetricSeries(metric_name=name, values=dict(sorted(values.items())))
        for name, values in sorted(by_metric.items())
    ]
