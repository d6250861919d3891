"""Spearman rank correlation with tie handling and two-tailed significance.

Ranks are assigned smallest-first with tied values sharing their average rank;
the correlation is the Pearson correlation of the two rank vectors, which is
the tie-correct form of Spearman's rho. Significance uses the standard t
approximation, t = rho * sqrt((n-2) / (1-rho^2)) with df = n-2 degrees of
freedom, recorded in ``method_note`` of every result. The two-tailed p is the
Student-t tail P(|T| > |t|) = I_x(df/2, 1/2), the regularized incomplete beta
at x = df / (df + t^2), evaluated by its continued fraction in the standard
library alone.

Series are joined pairwise-complete: units missing from either series are
dropped for that pair only.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import groupby
from typing import Mapping, Sequence

from .corpus import Source, parse_float, read_csv
from .errors import ComputationError, LoadError, ValidationError

METHOD_NOTE_T_APPROX = "t-approximation (df=n-2)"
METHOD_NOTE_DEGENERATE = "|rho|=1; p=0 by convention"
METRIC_FIELDS = ("journal_id", "metric_name", "value")
# correlate adds the indicator's own two series under these names
RESERVED_METRIC_NAMES = frozenset({"cited_ebdi", "citing_ebdi"})

# Near the switch point in p_two_tailed the continued fraction needs
# about 5 * sqrt(df / 2) terms (501 at df = 20,000, 3,521 at df = 10**6), so
# this cap covers overlaps of up to about 7 million units.
_BETA_CF_MAX_TERMS = 10_000
_BETA_CF_TINY = sys.float_info.min / sys.float_info.epsilon


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


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks, smallest first; each run of equal values gets its mean position.

    A mean of consecutive integers is a whole or half number, so the ranks
    are exact floats.
    """
    ranks = [0.0] * len(values)
    done = 0
    for _, run in groupby(sorted(range(len(values)), key=values.__getitem__), key=values.__getitem__):
        run = list(run)
        rank = done + (len(run) + 1) / 2
        for index in run:
            ranks[index] = rank
        done += len(run)
    return ranks


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
    xs = [x.values[unit] for unit in overlap]
    ys = [y.values[unit] for unit in overlap]
    rho = _pearson(_average_ranks(xs), _average_ranks(ys))
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
    df = n - 2
    t_stat = rho * math.sqrt(df / (1.0 - rho * rho))
    t_sq = t_stat * t_stat
    # y is computed as itself, never as 1 - x: for small t, y lies far below
    # the spacing of floats near 1, and 1 - p grows like sqrt(y).
    x, y = df / (df + t_sq), t_sq / (df + t_sq)
    if y == 0.0:
        return 1.0
    a, b = df / 2, 0.5
    if x > (a + 1) / (a + b + 2):  # the fraction converges fast only below this point
        p = 1.0 - _regularized_beta(b, a, y, x)
    else:
        p = _regularized_beta(a, b, x, y)
    return min(1.0, max(0.0, p))


def _regularized_beta(a: float, b: float, x: float, y: float) -> float:
    """I_x(a, b), where x + y = 1, by its continued fraction (modified Lentz method).

    Both x and y are passed, so that neither is a cancelled difference.
    """

    def nonzero(v: float) -> float:
        return v if abs(v) >= _BETA_CF_TINY else _BETA_CF_TINY

    c = 1.0
    d = 1.0 / nonzero(1.0 - (a + b) * x / (a + 1))
    h = d
    for m in range(1, _BETA_CF_MAX_TERMS + 1):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        for term in (even, odd):
            d = 1.0 / nonzero(1.0 + term * d)
            c = nonzero(1.0 + term / c)
            delta = d * c
            h *= delta
        if abs(delta - 1.0) <= sys.float_info.epsilon:
            log_front = (
                math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log(y)
            )
            return math.exp(log_front) * h / a
    raise ComputationError(
        f"incomplete beta I_x({a}, {b}) at x={x} did not converge in {_BETA_CF_MAX_TERMS} terms"
    )


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
    (journal, metric) rows, values that are not finite decimals and the
    indicator's own names ``cited_ebdi`` and ``citing_ebdi`` are load errors.
    """
    by_metric: dict[str, dict[str, float]] = {}
    for line, (journal_id, metric_name, cell) in read_csv(source, METRIC_FIELDS):
        if not journal_id or not metric_name:
            raise LoadError("journal_id and metric_name must be non-empty", path=source, line=line)
        if metric_name in RESERVED_METRIC_NAMES:
            raise LoadError(
                f"metric name {metric_name!r} is reserved for the indicator's own series",
                path=source, line=line,
            )
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
