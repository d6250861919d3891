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

:class:`MetricSeries` and :class:`CorrelationResult` are named tuples; a
series's constructor rejects non-finite values.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from functools import cached_property
from itertools import accumulate, compress
from operator import add, mul, ne
from typing import Iterable, Mapping, NamedTuple

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


class _SeriesFields(NamedTuple):
    metric_name: str
    values: Mapping[str, float]


class MetricSeries(_SeriesFields):
    """Named per-unit values of one metric; units without a value are absent.

    A named tuple whose constructor (also through ``_make``, ``_replace``
    and unpickling) rejects a non-finite value. It keeps an instance dict,
    which holds only the cached :attr:`ranking`.
    """

    def __new__(cls, metric_name: str, values: Mapping[str, float]) -> "MetricSeries":
        for unit_id, value in values.items():
            if not math.isfinite(value):
                raise ValidationError(
                    f"non-finite value for unit {unit_id!r} in metric {metric_name!r}"
                )
        return tuple.__new__(cls, (metric_name, values))

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> "MetricSeries":
        return cls(*iterable)

    @cached_property
    def ranking(self) -> tuple[tuple[str, ...], bytes]:
        """(units sorted by value, run breaks), built once per series.

        :func:`spearman_rho` filters this one order to each pair's overlap, so
        a series is sorted once however many pairs it takes part in. The
        values must not change after the first pair.
        """
        return _rank_order(self.values)


class CorrelationResult(NamedTuple):
    metric_x: str
    metric_y: str
    n: int
    rho: float
    p_two_tailed: float
    method_note: str


def _rank_order(values: Mapping[str, float]) -> tuple[tuple[str, ...], bytes]:
    """Units sorted by value, and the run breaks between them.

    Byte i is 1 where unit i + 1 has a larger value than unit i, else 0. The
    running sum of the breaks numbers the runs of equal values 0, 1, ... from
    the smallest value; ``-0.0`` and ``0.0`` are equal, so they share a run.
    """
    units = tuple(sorted(values, key=values.__getitem__))
    ordered = list(map(values.__getitem__, units))
    return units, bytes(map(ne, ordered, ordered[1:]))


def _doubled_ranks(runs: Iterable[int]) -> list[int]:
    """Twice the 1-based average rank of each entry of a non-decreasing run sequence.

    A run of ``count`` equal values after ``done`` smaller ones holds
    positions done+1 .. done+count, so its doubled average rank is the
    integer done + (done + count) + 1.
    """
    runs = list(runs)
    counts = Counter(runs)
    sizes = counts.values()
    rank_of_run = dict(zip(counts, map(add, accumulate(sizes), accumulate(sizes, initial=1))))
    return list(map(rank_of_run.__getitem__, runs))


def spearman_rho(x: MetricSeries, y: MetricSeries) -> tuple[float, int]:
    """Tie-corrected Spearman correlation over the units present in both series.

    Returns (rho, n) where n is the overlap size. Requires n >= 3 and both
    overlapping series non-constant.

    Each series keeps the units of its :attr:`MetricSeries.ranking` that the
    other series also has, and gives every run of ties its doubled average
    rank R, an integer. Doubled ranks sum to n(n+1), so the centred ranks are
    (R - (n+1))/2 and the Pearson sums are exact integers over four:
    4·cov = ΣRx·Ry - n(n+1)² and 4·var = ΣR² - n(n+1)². Dividing each integer
    by 4 gives the correctly rounded float. ``math.fsum`` over the products of
    the centred float ranks gives the same float while every such product is
    exact in a double: a multiple of 1/4 below n²/4, so for n² < 2**53, that
    is n below about 9·10⁷. The steps after the sums are the same float
    operations, so rho has the same bits as the float Pearson of average
    ranks, over any order of the overlap.
    """
    units_x, breaks_x = x.ranking
    units_y, breaks_y = y.ranking
    in_y = list(map(y.values.__contains__, units_x))
    in_x = list(map(x.values.__contains__, units_y))
    kept_x = list(compress(units_x, in_y))
    n = len(kept_x)
    if n < 3:
        raise ValidationError(
            f"only {n} overlapping units between {x.metric_name!r} and "
            f"{y.metric_name!r}; need at least 3"
        )
    ranks_x = _doubled_ranks(compress(accumulate(breaks_x, initial=0), in_y))
    ranks_y = _doubled_ranks(compress(accumulate(breaks_y, initial=0), in_x))
    rank_x_of = dict(zip(kept_x, ranks_x))
    aligned_x = map(rank_x_of.__getitem__, compress(units_y, in_x))
    offset = n * (n + 1) ** 2
    cov4 = sum(map(mul, aligned_x, ranks_y)) - offset
    var_x4 = sum(map(mul, ranks_x, ranks_x)) - offset
    var_y4 = sum(map(mul, ranks_y, ranks_y)) - offset
    if var_x4 == 0 or var_y4 == 0:
        raise ValidationError("constant series; correlation undefined")
    rho = (cov4 / 4) / math.sqrt((var_x4 / 4) * (var_y4 / 4))
    return max(-1.0, min(1.0, rho)), n


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

    Returns one series per metric name, sorted by name, with its values in
    file order; each journal id is one string object across all series.
    Duplicate (journal, metric) rows, values that are not finite decimals and
    the indicator's own names ``cited_ebdi`` and ``citing_ebdi`` are load
    errors.
    """
    by_metric: dict[str, dict[str, float]] = {}
    ids: dict[str, str] = {}
    for line, (journal_id, metric_name, cell) in read_csv(source, METRIC_FIELDS):
        if not journal_id or not metric_name:
            raise LoadError("journal_id and metric_name must be non-empty", path=source, line=line)
        journal_id = ids.setdefault(journal_id, journal_id)
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
        MetricSeries(metric_name=name, values=values)
        for name, values in sorted(by_metric.items())
    ]
