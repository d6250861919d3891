"""Median thresholds, HIGH/LOW levels, and role classification."""

from __future__ import annotations

import random
import statistics

import pytest
from hypothesis import example, given, strategies as st

from ebdi import (
    JournalRoleLabel,
    Level,
    TradeDirection,
    ValidationError,
    build_journal_roles,
    classify_discipline,
)
from ebdi.taxonomy import classify_journal, median_threshold
from reference_data import REFERENCE_DISCIPLINE_ROWS


def levels_of(scores):
    """Each unit's level in one dimension and the threshold, as ``run_roles`` finds them.

    The threshold is the :func:`median_threshold` of the values, and
    :func:`build_journal_roles` levels each unit; both dimensions get the
    same values, so both must get the same levels.
    """
    threshold = median_threshold(list(scores.values()))
    roles = build_journal_roles([(unit, value, value) for unit, value in scores.items()], threshold, threshold)
    assert all(role.cited_level is role.citing_level for role in roles)
    return {role.unit_id: role.cited_level for role in roles}, threshold


class TestMedianThreshold:
    def test_odd_count(self):
        assert median_threshold([1, 2, 3]) == 2

    def test_even_count_midpoint(self):
        assert median_threshold([1, 2, 3, 4]) == 2.5

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            median_threshold([])

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            median_threshold([1.0, float("nan")])

    def test_against_sort_based_oracle(self):
        rng = random.Random(5)
        for _ in range(50):
            values = [rng.uniform(0, 100) for _ in range(rng.randint(1, 25))]
            ordered = sorted(values)
            m = len(ordered)
            if m % 2:
                expected = ordered[m // 2]
            else:
                expected = (ordered[m // 2 - 1] + ordered[m // 2]) / 2
            assert median_threshold(values) == pytest.approx(expected, abs=0)

    @given(st.lists(st.one_of(st.floats(allow_nan=False), st.sampled_from([-0.0, 0.0, 1.0, 2.5])),
                    min_size=1))
    @example([1.0, 2.0, 3.0])
    @example([1.0, 2.0, 3.0, 4.0])
    @example([2.5, 2.5, 1.0, 2.5])
    @example([0.0, -0.0])
    @example([-0.0, 0.0])
    @example([-0.0, 1.0, 0.0])
    def test_equals_statistics_median(self, values):
        # repr tells -0.0 from 0.0; the two middles of [inf, -inf] give nan in both
        assert repr(median_threshold(values)) == repr(float(statistics.median(values)))


class TestAssignLevels:
    def test_two_values(self):
        levels, threshold = levels_of({"a": 0.2, "b": 0.8})
        assert levels == {"a": Level.LOW, "b": Level.HIGH}
        assert threshold == 0.5

    def test_value_at_threshold_is_high(self):
        levels, threshold = levels_of({"a": 1.0, "b": 2.0, "c": 3.0})
        assert threshold == 2.0
        assert levels["b"] is Level.HIGH  # exactly the median
        assert levels["a"] is Level.LOW

    def test_high_set_size_against_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            values = {f"u{i}": rng.choice([0.1, 0.4, 0.4, 0.7, 1.3]) for i in range(20)}
            levels, threshold = levels_of(values)
            expected_high = sum(1 for v in values.values() if v >= threshold)
            assert sum(1 for level in levels.values() if level is Level.HIGH) == expected_high
            # distinct values and even count would split 10/10; ties only enlarge HIGH
            assert expected_high >= 10

    def test_distinct_even_split(self):
        values = {f"u{i}": float(i) for i in range(20)}
        levels, _ = levels_of(values)
        assert sum(1 for level in levels.values() if level is Level.HIGH) == 10


class TestClassifyJournal:
    @pytest.mark.parametrize(
        "citing,cited,expected",
        [
            (Level.HIGH, Level.HIGH, JournalRoleLabel.CORE),
            (Level.LOW, Level.HIGH, JournalRoleLabel.KNOWLEDGE_IMPORTER),
            (Level.HIGH, Level.LOW, JournalRoleLabel.KNOWLEDGE_EXPORTER),
            (Level.LOW, Level.LOW, JournalRoleLabel.TANGENTIAL),
        ],
    )
    def test_quadrant_mapping(self, citing, cited, expected):
        assert classify_journal(cited_level=cited, citing_level=citing) is expected

    def test_missing_level_is_unclassified(self):
        assert classify_journal(None, Level.HIGH) is None
        assert classify_journal(Level.HIGH, None) is None

    def test_total_over_all_combinations(self):
        seen = {
            classify_journal(cited, citing)
            for cited in Level
            for citing in Level
        }
        assert seen == set(JournalRoleLabel)


class TestClassifyDiscipline:
    def test_importer_row(self):
        difference, direction = classify_discipline(2.391, 1.823)
        assert direction is TradeDirection.IMPORTER
        assert difference == pytest.approx(0.57, abs=0.01)

    def test_exporter_row(self):
        difference, direction = classify_discipline(0.31, 0.34)
        assert direction is TradeDirection.EXPORTER
        assert difference == pytest.approx(-0.03, abs=0.01)

    def test_balanced_on_exact_equality(self):
        difference, direction = classify_discipline(0.5, 0.5)
        assert direction is TradeDirection.BALANCED
        assert difference == 0.0

    def test_missing_value_unclassified(self):
        assert classify_discipline(None, 1.0) is None
        assert classify_discipline(1.0, None) is None

    def test_all_reference_rows(self):
        for name, cited, citing, reported_diff, expected in REFERENCE_DISCIPLINE_ROWS:
            difference, direction = classify_discipline(cited, citing)
            assert direction.value == expected, name
            assert difference == pytest.approx(reported_diff, abs=0.01), name


class TestBuildJournalRoles:
    def test_join_and_missing_dimension(self):
        pairs = [("a", 1.0, 3.0), ("b", 2.0, 1.0), ("c", 3.0, None)]
        cited_threshold = median_threshold([cited for _, cited, _ in pairs if cited is not None])
        citing_threshold = median_threshold([citing for _, _, citing in pairs if citing is not None])
        roles = build_journal_roles(pairs, cited_threshold, citing_threshold)
        by_unit = {r.unit_id: r for r in roles}
        assert by_unit["c"].citing_level is None
        assert by_unit["c"].role is None
        assert by_unit["a"].role is JournalRoleLabel.KNOWLEDGE_EXPORTER
        assert by_unit["b"].role is JournalRoleLabel.KNOWLEDGE_IMPORTER
        assert cited_threshold == 2.0
        assert citing_threshold == 2.0

    def test_one_role_per_pair_in_the_pairs_order(self):
        pairs = [("z", 5.0, 1.0), ("a", None, None), ("m", 1.0, 5.0)]
        roles = build_journal_roles(iter(pairs), 3.0, 3.0)
        assert isinstance(roles, list)
        assert [role.unit_id for role in roles] == ["z", "a", "m"]
        assert roles[1] == ("a", None, None, None)  # missing both dimensions: no level, no role
        assert roles[0].role is JournalRoleLabel.KNOWLEDGE_IMPORTER
        assert roles[2].role is JournalRoleLabel.KNOWLEDGE_EXPORTER

    @pytest.mark.parametrize("pair", [("a", float("nan"), 1.0), ("a", 1.0, float("nan"))])
    def test_nan_value_rejected(self, pair):
        with pytest.raises(ValidationError, match="NaN"):
            build_journal_roles([("b", 1.0, 1.0), pair], 1.0, 1.0)

    @pytest.mark.parametrize("thresholds", [(float("nan"), 50.0), (50.0, float("nan"))])
    def test_nan_threshold_rejected(self, thresholds):
        with pytest.raises(ValidationError, match="NaN"):
            build_journal_roles([("a", 1.0, 90.0), ("b", 99.0, 2.0)], *thresholds)


# -- invariants ----------------------------------------------------------------


# values on a 0.01 grid: strictly increasing transforms stay strict in floats
score_lists = st.lists(
    st.integers(min_value=0, max_value=10_000).map(lambda v: v / 100.0),
    min_size=2,
    max_size=30,
)


@given(values=score_lists)
def test_levels_depend_only_on_rank(values):
    """Any strictly increasing rescaling of every value keeps all levels."""
    scores = {f"u{i}": v for i, v in enumerate(values)}
    transformed = {u: v**3 + 2.0 for u, v in scores.items()}  # order-preserving, nonlinear
    before, _ = levels_of(scores)
    after, _ = levels_of(transformed)
    assert before == after


@given(values=score_lists, data=st.data())
def test_raising_a_value_never_demotes_it(values, data):
    scores = {f"u{i}": v for i, v in enumerate(values)}
    index = data.draw(st.integers(min_value=0, max_value=len(scores) - 1), label="unit")
    bump = data.draw(st.integers(min_value=1, max_value=5_000).map(lambda v: v / 100.0), label="bump")
    unit = f"u{index}"
    value = scores[unit]

    baseline, threshold = levels_of(scores)
    # thresholds held fixed: a larger value still clears the recorded threshold
    if baseline[unit] is Level.HIGH:
        assert value + bump >= threshold

    recomputed, _ = levels_of({**scores, unit: value + bump})
    if baseline[unit] is Level.HIGH:
        assert recomputed[unit] is Level.HIGH
