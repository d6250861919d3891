"""Rank correlation against brute-force, library, and quadrature oracles."""

from __future__ import annotations

import gc
import io
import itertools
import math
import random
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.stats
from hypothesis import given, strategies as st

from ebdi import ComputationError, LoadError, ValidationError
from ebdi import stats as stats_module
from ebdi.report import RunConfig, run_correlations
from ebdi.stats import MetricSeries, correlate, load_metric_series, p_two_tailed, spearman_rho
from oracle import brute_rank_pearson, float_pearson, series_values

#: the unit index the series of these tests share unless a test builds its own; it only
#: grows, so a position one test takes never changes under another
UNITS: dict[str, int] = {}


def series(name, values, index=UNITS):
    return MetricSeries.from_pairs(name, ((f"u{i}", float(v)) for i, v in enumerate(values)), index)


def p_two_tailed_mpmath(rho, n):
    """Oracle: I_x(df/2, 1/2) at 40 digits, at the same float t as p_two_tailed."""
    df = n - 2
    t_stat = rho * math.sqrt(df / (1.0 - rho * rho))
    with mpmath.workdps(40):
        t_sq = mpmath.mpf(t_stat) ** 2
        return mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf(1) / 2, 0, df / (df + t_sq),
                              regularized=True)


def p_two_tailed_quadrature(rho, n):
    """Oracle: numerically integrate the t density tail (df = n-2)."""
    df = n - 2
    t_stat = abs(rho) * math.sqrt(df / (1.0 - rho * rho))
    norm = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))

    def density(u):
        return norm * (1.0 + u * u / df) ** (-(df + 1) / 2)

    tail, _ = scipy.integrate.quad(density, t_stat, np.inf)
    return 2.0 * tail


def no_tie_rho(rank_x, rank_y):
    """Classic closed form, valid only without ties."""
    n = len(rank_x)
    d2 = sum((a - b) ** 2 for a, b in zip(rank_x, rank_y))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def exact_null_rhos(n):
    """All values of rho under the tie-free permutation null, one per permutation."""
    identity = list(range(1, n + 1))
    return [
        no_tie_rho(identity, perm) for perm in itertools.permutations(identity)
    ]


def exact_permutation_midp(rho_obs, null_rhos):
    """Exact two-sided mid-p: half weight on the point mass at |rho_obs|.

    The permutation null is discrete; mid-p is the standard continuity
    correction when comparing it against a continuous approximation.
    """
    greater = sum(1 for r in null_rhos if abs(r) > abs(rho_obs) + 1e-12)
    equal = sum(1 for r in null_rhos if abs(abs(r) - abs(rho_obs)) <= 1e-12)
    return (greater + 0.5 * equal) / len(null_rhos)


class TestSpearmanRho:
    def test_perfect_monotone(self):
        rho, n = spearman_rho(series("x", [1, 2, 3, 4]), series("y", [10, 20, 30, 40]))
        assert rho == 1.0
        assert n == 4

    def test_perfect_inverse(self):
        rho, _ = spearman_rho(series("x", [1, 2, 3, 4]), series("y", [40, 30, 20, 10]))
        assert rho == -1.0

    def test_tied_values_match_rank_pearson_oracle(self):
        x, y = [1, 2, 2, 4], [3, 1, 4, 2]
        rho, _ = spearman_rho(series("x", x), series("y", y))
        assert rho == pytest.approx(brute_rank_pearson(x, y), abs=1e-12)
        assert rho == pytest.approx(-1.0 / math.sqrt(10), abs=1e-12)

    def test_pairwise_complete_overlap(self):
        x = MetricSeries.from_pairs("x", {"a": 1.0, "b": 2.0, "c": 3.0, "only_x": 9.0}.items(), UNITS)
        y = MetricSeries.from_pairs("y", {"a": 2.0, "b": 4.0, "c": 6.0, "only_y": 1.0}.items(), UNITS)
        rho, n = spearman_rho(x, y)
        assert (rho, n) == (1.0, 3)

    def test_series_over_different_indexes_rejected(self):
        x = series("x", [1, 2, 3, 4])
        y = series("y", [1, 2, 3, 4], index={})
        for function in (spearman_rho, correlate):
            with pytest.raises(ValidationError, match="'x' and 'y' are built over different unit indexes"):
                function(x, y)
        # an equal copy is still another index
        with pytest.raises(ValidationError, match="different unit indexes"):
            correlate(x, series("y", [1, 2, 3, 4], index=dict(UNITS)))

    def test_small_overlap_rejected(self):
        with pytest.raises(ValidationError, match="at least 3"):
            spearman_rho(series("x", [1, 2]), series("y", [3, 4]))

    def test_constant_series_rejected(self):
        with pytest.raises(ValidationError, match="constant"):
            spearman_rho(series("x", [5, 5, 5, 5]), series("y", [1, 2, 3, 4]))

    def test_matches_scipy_with_ties(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(4, 15)
            x = [rng.choice([1.0, 2.0, 2.5, 4.0, 7.0]) for _ in range(n)]
            y = [rng.choice([0.5, 1.5, 1.5, 3.0, 9.0]) for _ in range(n)]
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            rho, _ = spearman_rho(series("x", x), series("y", y))
            assert rho == pytest.approx(scipy.stats.spearmanr(x, y).statistic, abs=1e-12)

    def test_exact_agreement_without_ties(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(3, 8)
            x = rng.sample(range(100), n)
            y = rng.sample(range(100), n)
            rho, _ = spearman_rho(series("x", x), series("y", y))
            rank_x = [sorted(x).index(v) + 1 for v in x]
            rank_y = [sorted(y).index(v) + 1 for v in y]
            assert rho == pytest.approx(no_tie_rho(rank_x, rank_y), abs=1e-12)


class TestPTwoTailed:
    def test_zero_rho_is_one(self):
        assert p_two_tailed(0.0, 10) == 1.0

    def test_degenerate_rho_is_zero(self):
        assert p_two_tailed(1.0, 10) == 0.0
        assert p_two_tailed(-1.0, 10) == 0.0

    @pytest.mark.parametrize(
        "rho,n,expected",
        [(-0.457, 20, 0.043), (0.492, 20, 0.028)],
    )
    def test_published_significance_values(self, rho, n, expected):
        p = p_two_tailed(rho, n)
        assert p == pytest.approx(expected, abs=0.002)
        assert p == pytest.approx(p_two_tailed_quadrature(rho, n), abs=1e-9)

    def test_small_n_rejected(self):
        with pytest.raises(ValidationError):
            p_two_tailed(0.5, 2)

    @pytest.mark.parametrize("n", [3, 4, 5, 10, 100, 1000, 10000, 20000])
    def test_matches_mpmath_at_40_digits(self, n):
        # scipy is no reference here: on this grid t.sf is off by 6.4e-10 and
        # betainc given only x by 1.1e-7; p near 1 needs y = t^2 / (df + t^2),
        # not 1 - x
        for magnitude in [1e-9, 1e-5, 0.01, 0.1, 0.5, 0.9, 0.999]:
            for rho in (magnitude, -magnitude):
                p = p_two_tailed(rho, n)
                exact = p_two_tailed_mpmath(rho, n)
                with mpmath.workdps(40):
                    error = abs(p - exact)
                    assert error <= 1e-10, (rho, n, p)
                    if exact >= 1e-300:
                        assert error <= 1e-9 * exact, (rho, n, p)

    def test_unconverged_fraction_raises(self, monkeypatch):
        monkeypatch.setattr("ebdi.stats._BETA_CF_MAX_TERMS", 3)
        with pytest.raises(ComputationError, match="did not converge"):
            p_two_tailed(0.5, 20000)

    @pytest.mark.parametrize("n", [7, 8])
    def test_close_to_exact_permutation_p(self, n):
        # exhaustive over every achievable |rho| <= 0.8 for tie-free data
        null_rhos = exact_null_rhos(n)
        for rho_obs in sorted(set(round(r, 12) for r in null_rhos)):
            if abs(rho_obs) > 0.8:
                continue
            approx_p = p_two_tailed(rho_obs, n)
            exact_p = exact_permutation_midp(rho_obs, null_rhos)
            assert abs(approx_p - exact_p) <= 0.02, rho_obs


class TestCorrelate:
    def test_method_note_records_approximation(self):
        result = correlate(series("x", [1, 3, 2, 4]), series("y", [2, 1, 4, 3]))
        assert "t-approximation" in result.method_note
        assert result.n == 4

    def test_series_against_itself(self):
        values = series("x", [0.4, 1.7, 0.9, 2.2, 1.1])
        result = correlate(values, values)
        assert result.rho == 1.0
        assert result.p_two_tailed == 0.0

    def test_degenerate_flagged(self):
        result = correlate(series("x", [1, 2, 3]), series("y", [10, 20, 30]))
        assert result.rho == 1.0
        assert result.p_two_tailed == 0.0
        assert "convention" in result.method_note


def _metrics_text(rng, n_journals):
    """8 metrics over ``n_journals`` journals, 95% present, in long format."""
    lines = ["journal_id,metric_name,value"]
    lines += [
        f"J{j:05d},metric_{m},{round(rng.gauss(0, 30), 1)}"
        for m in range(8) for j in range(n_journals) if rng.random() < 0.95
    ]
    return "\n".join(lines) + "\n"


class TestLoadMetricSeries:
    def test_long_format_grouped_by_metric(self):
        text = (
            "journal_id,metric_name,value\n"
            "J1,impact,2.5\nJ2,impact,1.5\nJ1,influence,0.9\n"
        )
        loaded = load_metric_series(io.StringIO(text))
        assert [s.metric_name for s in loaded] == ["impact", "influence"]
        assert series_values(loaded[0]) == {"J1": 2.5, "J2": 1.5}
        assert list(loaded[0].values) == [1.5, 2.5]  # sorted by value

    def test_duplicate_entry_rejected(self):
        text = "journal_id,metric_name,value\nJ1,impact,2.5\nJ1,impact,2.5\n"
        with pytest.raises(ValidationError, match="duplicate"):
            load_metric_series(io.StringIO(text))

    def test_bad_value_rejected(self):
        text = "journal_id,metric_name,value\nJ1,impact,high\n"
        with pytest.raises(ValidationError, match="invalid value"):
            load_metric_series(io.StringIO(text))

    def test_every_loaded_series_shares_one_index(self):
        text = "journal_id,metric_name,value\nJ1,impact,2.5\nJ2,influence,0.9\nJ1,influence,0.4\n"
        impact, influence = load_metric_series(io.StringIO(text))
        assert impact.index is influence.index
        assert impact.index == {"J1": 0, "J2": 1}  # in file order
        given = {"J9": 0}
        assert all(s.index is given for s in load_metric_series(io.StringIO(text), given))
        assert given == {"J9": 0, "J1": 1, "J2": 2}

    def test_load_memory_per_row(self):
        """At most 40 B retained by ``load_metric_series`` per row.

        8 metrics over 2,000 journals, 95% present. The columnar series
        measure about 28 B per row here (Python 3.11): a 4-byte position, an
        8-byte value and a 1-byte run end per row, and one index entry, id
        string and position per journal. A dict of floats per series measured
        59 B, and a fresh id string on every row 114 B, so this bound fails
        for both designs.
        """
        source = io.StringIO(_metrics_text(random.Random(7), 2000))
        lines = source.getvalue().splitlines()

        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loaded = load_metric_series(source)
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

        assert sum(len(s.values) for s in loaded) == len(lines) - 1
        assert (current - base) / (len(lines) - 1) <= 40

    @pytest.mark.parametrize("name", ["cited_ebdi", "citing_ebdi"])
    def test_indicator_names_are_reserved(self, tmp_path, name):
        # correlate adds the indicator's own series under these names
        path = tmp_path / "metrics.csv"
        path.write_text(f"journal_id,metric_name,value\nJ1,impact,2.5\nJ1,{name},0.9\n")
        with pytest.raises(LoadError, match=rf"metrics\.csv:3: metric name '{name}' is reserved"):
            load_metric_series(path)


def test_correlation_run_peak_memory_per_input_row(tmp_path):
    """A whole ``run_correlations`` peaks at most 80 B per input row above its start.

    2,000 scored journals (3% miss a cited value) plus 8 metrics, 45 pairs.
    With every series over one index it measures about 61 B per row here
    (Python 3.11); a dict of floats per series, with each pair's rank dicts,
    measured 117 B.
    """
    rng = random.Random(11)
    scores = ["unit_id,cited_ebdi,citing_ebdi"] + [
        f"J{j:05d},{'' if rng.random() < 0.03 else round(rng.uniform(0, 100), 3)},"
        f"{round(rng.uniform(0, 100), 3)}"
        for j in range(2000)
    ]
    (tmp_path / "scores.csv").write_text("\n".join(scores) + "\n", encoding="utf-8")
    metrics = _metrics_text(rng, 2000)
    (tmp_path / "metrics.csv").write_text(metrics, encoding="utf-8")
    rows = len(scores) + metrics.count("\n") - 2
    config = RunConfig(scores=tmp_path / "scores.csv", metrics=tmp_path / "metrics.csv",
                       out_dir=tmp_path / "out")
    assert run_correlations(config) == 45  # a first run warms every cache the run fills

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert run_correlations(config) == 45
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    assert (peak - base) / rows <= 80


# -- invariants ----------------------------------------------------------------


paired_values = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1000),
        st.integers(min_value=0, max_value=1000),
    ),
    min_size=3,
    max_size=25,
)


tied_values = st.lists(
    st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0]), min_size=3, max_size=30
)


@given(xs=tied_values, ys=tied_values)
def test_rho_is_pearson_of_rankdata_bit_for_bit(xs, ys):
    n = min(len(xs), len(ys))
    x, y = series("x", xs[:n]), series("y", ys[:n])
    x_values, y_values = series_values(x), series_values(y)
    if len(set(x_values.values())) < 2 or len(set(y_values.values())) < 2:
        return
    in_order = sorted(x_values)  # the reference joins on sorted unit ids
    expected = float_pearson(
        scipy.stats.rankdata([x_values[u] for u in in_order]).tolist(),
        scipy.stats.rankdata([y_values[u] for u in in_order]).tolist(),
    )
    assert spearman_rho(x, y)[0] == expected


partial_series = st.dictionaries(
    st.integers(min_value=0, max_value=40).map("u{:02d}".format),
    st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0]),
    max_size=30,
)


@given(x_values=partial_series, y_values=partial_series)
def test_partial_overlap_is_pearson_of_rankdata_bit_for_bit(x_values, y_values):
    # unit sets overlap only in part, so each ranking is filtered to the overlap
    x = MetricSeries.from_pairs("x", x_values.items(), UNITS)
    y = MetricSeries.from_pairs("y", y_values.items(), UNITS)
    overlap = sorted(x_values.keys() & y_values.keys())
    xs = [x_values[u] for u in overlap]
    ys = [y_values[u] for u in overlap]
    if len(overlap) < 3:
        with pytest.raises(ValidationError, match="at least 3"):
            spearman_rho(x, y)
    elif len(set(xs)) < 2 or len(set(ys)) < 2:
        with pytest.raises(ValidationError, match="constant"):
            spearman_rho(x, y)
    else:
        expected = float_pearson(
            scipy.stats.rankdata(xs).tolist(), scipy.stats.rankdata(ys).tolist()
        )
        assert spearman_rho(x, y) == (expected, len(overlap))


def test_each_series_is_ranked_once(monkeypatch):
    """A series is sorted once, when it is built; its pairs only filter that order."""
    sorts = []

    def counting_sorted(iterable, **kwargs):
        ordered = sorted(iterable, **kwargs)
        sorts.append(len(ordered))
        return ordered

    monkeypatch.setattr(stats_module, "sorted", counting_sorted, raising=False)
    rng = random.Random(5)
    units = [f"u{i}" for i in range(60)]
    index = {}
    all_series = [
        MetricSeries.from_pairs(
            f"m{k}", [(u, float(rng.randint(0, 9))) for u in units if rng.random() < 0.8], index)
        for k in range(10)
    ]
    assert sorts == [len(s.units) for s in all_series]
    results = [correlate(x, y) for x, y in itertools.combinations(all_series, 2)]
    assert len(results) == 45
    assert len(sorts) == 10


@given(order=st.permutations(list(itertools.permutations(range(5), 2))), seed=st.integers(0, 99))
def test_reused_series_match_fresh_copies_in_any_pair_order(order, seed):
    rng = random.Random(seed)
    units = [f"u{i}" for i in range(12)]
    values = [
        {u: rng.choice([-0.0, 0.0, 1.0, 2.0, rng.random()]) for u in units if rng.random() < 0.8}
        for _ in range(5)
    ]
    index = {}
    shared = [MetricSeries.from_pairs(f"m{k}", v.items(), index) for k, v in enumerate(values)]

    def outcome(x, y):
        try:
            return spearman_rho(x, y)
        except ValidationError as exc:
            return str(exc)

    for i, j in order:
        fresh_index = {}
        fresh = outcome(MetricSeries.from_pairs(f"m{i}", dict(values[i]).items(), fresh_index),
                        MetricSeries.from_pairs(f"m{j}", dict(values[j]).items(), fresh_index))
        assert outcome(shared[i], shared[j]) == fresh


@given(pairs=paired_values)
def test_rho_invariant_under_increasing_transform(pairs):
    x = [a / 10.0 for a, _ in pairs]
    y = [b / 10.0 for _, b in pairs]
    if len(set(x)) < 2 or len(set(y)) < 2:
        return
    base, _ = spearman_rho(series("x", x), series("y", y))
    transformed, _ = spearman_rho(series("x", [v**3 + 1 for v in x]), series("y", y))
    assert transformed == base  # identical ranks, identical arithmetic


@given(pairs=paired_values)
def test_negating_a_series_negates_rho(pairs):
    x = [a / 10.0 for a, _ in pairs]
    y = [b / 10.0 for _, b in pairs]
    if len(set(x)) < 2 or len(set(y)) < 2:
        return
    rho, _ = spearman_rho(series("x", x), series("y", y))
    negated, _ = spearman_rho(series("x", x), series("y", [-v for v in y]))
    assert negated == pytest.approx(-rho, abs=1e-12)
