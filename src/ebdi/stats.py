"""Spearman rank correlation with tie handling and two-tailed significance.

Ranks are assigned smallest-first with tied values sharing their average rank;
the correlation is the Pearson correlation of the two rank vectors, which is
the tie-correct form of Spearman's rho. Significance uses the standard t
approximation, t = rho * sqrt((n-2) / (1-rho^2)) with df = n-2 degrees of
freedom, recorded in ``method_note`` of every result. The two-tailed p is the
Student-t tail P(|T| > |t|) = I_x(df/2, 1/2), the regularized incomplete beta
at x = df / (df + t^2), evaluated by its continued fraction in the standard
library alone.

Series are columnar. A run keeps one unit index, a ``dict[str, int]`` from
unit id to position, and every :class:`MetricSeries` of the run holds that
same object. A series is its units' positions sorted by value, the ends of
its runs of equal values and its values, as arrays built once when it is
made; it holds no dict and no float object per value. :func:`spearman_rho`
joins two series pairwise-complete over their shared index, so units missing
from either series are dropped for that pair only, and refuses two series
over different indexes. Its kernel works on positions alone: a bytes mask of
the overlap in each series' order, doubled average ranks from the overlap
counts before and through each run, and exact integer sums.

:class:`MetricSeries` and :class:`CorrelationResult` are named tuples; a
series's constructor rejects a position outside its index, a repeated unit
and a non-finite value.
"""

from __future__ import annotations

import math
import sys
from array import array
from itertools import accumulate, chain, compress, repeat
from operator import add, mul, ne, sub
from typing import Iterable, Iterator, Mapping, NamedTuple

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
    index: dict[str, int]
    units: array
    values: array
    ends: bytes


class MetricSeries(_SeriesFields):
    """One metric's values over a run's shared unit index; units without a value are absent.

    ``index`` maps each unit id to its position, and every series of a run
    holds the same index object. ``units`` (``array('i')``) are the series'
    positions in that index, sorted by value; ``values`` (``array('d')``) are
    their values in the same order, and byte i of ``ends`` is 1 where entry i
    ends a run of equal values (``-0.0`` and ``0.0`` are equal). A named tuple
    without an instance dict, whose constructor (also through ``_make``,
    ``_replace`` and unpickling) takes ``units`` and ``values`` in any order,
    rejects a position outside the index, a repeated unit and a non-finite
    value, sorts both by value and derives ``ends``, replacing any ``ends``
    it is given. Build a series from (unit id, value) pairs with
    :meth:`from_pairs`; an index only grows and keeps every position.
    """

    __slots__ = ()

    def __new__(
        cls, metric_name: str, index: dict[str, int], units: Iterable[int], values: Iterable[float],
        ends: bytes = b"",
    ) -> "MetricSeries":
        units, values = array("i", units), array("d", values)
        if len(units) != len(values):
            raise ValidationError(
                f"metric {metric_name!r} has {len(units)} units but {len(values)} values"
            )
        present = bytearray(len(index))
        for position in units:
            if not 0 <= position < len(present):
                raise ValidationError(
                    f"unit position {position} is outside the index of metric {metric_name!r}"
                )
            if present[position]:
                raise ValidationError(
                    f"unit {_unit_id(index, position)!r} repeats in metric {metric_name!r}"
                )
            present[position] = 1
        if not all(map(math.isfinite, values)):
            position = next(units[i] for i, value in enumerate(values) if not math.isfinite(value))
            raise ValidationError(
                f"non-finite value for unit {_unit_id(index, position)!r} in metric {metric_name!r}"
            )
        order = sorted(range(len(values)), key=values.__getitem__)
        units = array("i", map(units.__getitem__, order))
        values = array("d", map(values.__getitem__, order))
        ends = bytes(map(ne, values, values[1:])) + b"\x01" if values else b""
        return tuple.__new__(cls, (metric_name, index, units, values, ends))

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> "MetricSeries":
        return cls(*iterable)

    @classmethod
    def from_pairs(
        cls, metric_name: str, pairs: Iterable[tuple[str, float]], index: dict[str, int],
    ) -> "MetricSeries":
        """The series of (unit id, value) pairs over ``index``, which takes each new unit at its end."""
        units, values = array("i"), array("d")
        for unit_id, value in pairs:
            units.append(index.setdefault(unit_id, len(index)))
            values.append(value)
        return cls(metric_name, index, units, values)


class CorrelationResult(NamedTuple):
    metric_x: str
    metric_y: str
    n: int
    rho: float
    p_two_tailed: float
    method_note: str


def _unit_id(index: Mapping[str, int], position: int) -> str | int:
    """The unit id at ``position``, for an error message; the position itself if none is."""
    return next((unit_id for unit_id, at in index.items() if at == position), position)


def _kept_ranks(kept: bytes, ends: bytes) -> tuple[Iterator[int], int]:
    """Doubled average ranks minus 1 of a series' kept entries, in its order, and their sum of squares.

    ``kept`` marks, in the series' value order, the entries that take part. A
    run of equal values whose kept entries follow ``before`` smaller kept ones
    and end at ``through`` holds ranks before+1 .. through, so its doubled
    average rank minus 1 is the integer before + through.
    """
    through = list(compress(accumulate(kept), ends))
    before = [0, *through[:-1]]
    ranks = list(map(add, before, through))
    counts = list(map(sub, through, before))
    squares = sum(map(mul, map(mul, ranks, ranks), counts))
    return chain.from_iterable(map(repeat, ranks, counts)), squares


def spearman_rho(x: MetricSeries, y: MetricSeries) -> tuple[float, int]:
    """Tie-corrected Spearman correlation over the units present in both series.

    Returns (rho, n) where n is the overlap size. Requires both series over
    one index object, n >= 3 and both overlapping series non-constant.

    A bytes mask marks, in each series' value order, the units the other
    series also has, and every run of ties gets its doubled average rank R,
    an integer, from the kept counts before and through the run. With a = R - 1
    (the doubled ranks minus 1 sum to n²), the centred ranks are (a - n)/2 and
    the Pearson sums are exact integers over four: 4·cov = Σax·ay - n³ and
    4·var = Σa² - n³. x's ranks go to their units' index positions, so y reads
    them in its own order. Dividing each integer by 4 gives the correctly
    rounded float. ``math.fsum`` over the products of the centred float ranks
    gives the same float while every such product is exact in a double: a
    multiple of 1/4 below n²/4, so for n² < 2**53, that is n below about 9·10⁷.
    The steps after the sums are the same float operations, so rho has the
    same bits as the float Pearson of average ranks, over any order of the
    overlap.
    """
    if x.index is not y.index:
        raise ValidationError(
            f"{x.metric_name!r} and {y.metric_name!r} are built over different unit indexes"
        )
    in_y = bytearray(len(x.index))
    for position in y.units:
        in_y[position] = 1
    kept_x = bytes([in_y[position] for position in x.units])
    n = kept_x.count(1)
    if n < 3:
        raise ValidationError(
            f"only {n} overlapping units between {x.metric_name!r} and "
            f"{y.metric_name!r}; need at least 3"
        )
    ranks_x, squares_x = _kept_ranks(kept_x, x.ends)
    rank_x_at = [0] * len(x.index)  # every kept rank is at least 1
    for position, rank in zip(compress(x.units, kept_x), ranks_x):
        rank_x_at[position] = rank
    aligned_x = [rank_x_at[position] for position in y.units]
    ranks_y, squares_y = _kept_ranks(bytes(map(bool, aligned_x)), y.ends)
    offset = n**3
    cov4 = sum(map(mul, filter(None, aligned_x), ranks_y)) - offset
    var_x4 = squares_x - offset
    var_y4 = squares_y - offset
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


def load_metric_series(source: Source, index: dict[str, int] | None = None) -> list[MetricSeries]:
    """Read long-format metric values: header ``journal_id,metric_name,value``.

    Returns one series per metric name, sorted by name, all over ``index``
    (a fresh one by default), which takes each new journal id at its end in
    file order. Duplicate (journal, metric) rows, values that are not finite
    decimals and the indicator's own names ``cited_ebdi`` and ``citing_ebdi``
    are load errors.
    """
    if index is None:
        index = {}
    columns: dict[str, tuple[array, array, bytearray]] = {}  # units, values, seen mark per position
    for line, (journal_id, metric_name, cell) in read_csv(source, METRIC_FIELDS):
        if not journal_id or not metric_name:
            raise LoadError("journal_id and metric_name must be non-empty", path=source, line=line)
        if metric_name in RESERVED_METRIC_NAMES:
            raise LoadError(
                f"metric name {metric_name!r} is reserved for the indicator's own series",
                path=source, line=line,
            )
        position = index.setdefault(journal_id, len(index))
        column = columns.get(metric_name)
        if column is None:
            column = columns[metric_name] = (array("i"), array("d"), bytearray())
        units, values, seen = column
        if position >= len(seen):
            seen.extend(bytes(len(index) - len(seen)))
        elif seen[position]:
            raise LoadError(
                f"duplicate value for journal {journal_id!r}, metric {metric_name!r}",
                path=source, line=line,
            )
        seen[position] = 1
        values.append(parse_float(cell, "value", source, line))
        units.append(position)
    series = []
    for name in sorted(columns):
        units, values, _ = columns.pop(name)  # dropped as soon as its series holds the sorted copy
        series.append(MetricSeries(name, index, units, values))
    return series
