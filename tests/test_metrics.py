"""Profiles, entropy, and indicator arithmetic, plus their invariants."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ebdi import (
    CitationProfile,
    ComputationError,
    CountingMode,
    Dimension,
    EbdiScore,
    NoCitationsError,
    ValidationError,
    build_profile,
    compute_ebdi,
    compute_journal_indicators,
)
import ebdi.metrics as metrics
from ebdi.metrics import _entropy, ebdi_value
from conftest import make_corpus
from oracle import (
    brute_indicator_rows, pct_of_max_entropy, random_corpus_rows, reference_entropy, scaled_profile,
)


def nonzero(counts):
    """A count map's nonzero values: the entropy leaves zeros out, as ``reference_entropy`` does."""
    return [v for v in counts.values() if v != 0]


class TestShannonEntropy:
    def test_single_category_is_zero(self):
        h = _entropy([5])
        assert h == 0.0
        assert math.copysign(1.0, h) == 1.0  # plain zero, not -0.0

    def test_uniform_four_categories(self):
        assert _entropy([1, 1, 1, 1]) == pytest.approx(math.log(4), abs=1e-12)

    def test_two_one_one_distribution(self):
        # -(0.5 ln 0.5 + 2 * 0.25 ln 0.25) = 1.5 ln 2
        expected = 1.5 * math.log(2)
        assert _entropy([2, 1, 1]) == pytest.approx(expected, abs=1e-12)

    def test_empty_distribution_is_zero(self):
        assert _entropy([]) == 0.0

    def test_single_category_matches_reference_sign(self):
        for counts in ({"A": 5}, {"A": 0.25, "B": 0}, {"A": 7}):
            h, want = _entropy(nonzero(counts)), reference_entropy(counts)
            assert h == want == 0.0
            assert math.copysign(1.0, h) == math.copysign(1.0, want) == 1.0


# finite, non-negative counts, zeros included: integers as the corpus stores them,
# and floats as fractional attribution makes them
entropy_counts = st.dictionaries(
    keys=st.text(alphabet="ABCDEGHJKL", min_size=1, max_size=2),
    values=st.one_of(
        st.integers(min_value=0, max_value=10**12),
        st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False),
    ),
    max_size=12,
)


@given(counts=entropy_counts)
def test_entropy_has_the_reference_bits(counts):
    try:
        want = reference_entropy(counts)
    except ValueError:  # a subnormal count whose share underflows to 0.0 has no logarithm
        with pytest.raises(ValueError):
            _entropy(nonzero(counts))
        return
    h = _entropy(nonzero(counts))
    assert h == want
    assert math.copysign(1.0, h) == math.copysign(1.0, want)


@given(counts=entropy_counts, seed=st.integers(0, 2**32 - 1))
def test_entropy_does_not_depend_on_the_order_of_the_counts(counts, seed):
    # build_profile leaves the external map unsorted, in the order partners and their SCs are met
    items = list(counts.items())
    random.Random(seed).shuffle(items)
    try:
        want = _entropy(nonzero(counts))
    except ValueError:
        return
    assert _entropy(nonzero(dict(items))) == want


class TestPctOfMaxEntropy:
    def test_zero_entropy(self):
        assert pct_of_max_entropy(0.0, 10) == 0.0

    def test_maximum_entropy_is_100(self):
        assert pct_of_max_entropy(math.log(7), 7) == pytest.approx(100.0, abs=1e-12)

    def test_published_cited_value(self):
        # 100 * 2.03 / ln(53): the worked example's 51.06 reflects unrounded H
        assert pct_of_max_entropy(2.03, 53) == pytest.approx(51.13, abs=0.01)

    def test_small_n_rejected(self):
        with pytest.raises(ValidationError):
            pct_of_max_entropy(1.0, 1)


class TestBuildProfile:
    def test_whole_counting_hand_enumerated(self, small_corpus):
        profile = build_profile(small_corpus, "U", "F", Dimension.CITED, CountingMode.WHOLE)
        assert profile.internal_count == 6
        assert profile.external_counts == {"A": 6.0, "B": 2.0}
        assert profile.external_total == 6
        assert profile.total == 12

    def test_fractional_counting_hand_enumerated(self, small_corpus):
        profile = build_profile(small_corpus, "U", "F", Dimension.CITED, CountingMode.FRACTIONAL)
        assert profile.internal_count == 6
        assert profile.external_counts == {"A": 5.0, "B": 1.0}
        assert profile.external_total == 6
        assert profile.total == 12

    def test_all_internal_unit(self):
        corpus = make_corpus(
            sc_rows=[("F", "F", ""), ("A", "A", "")],
            journal_rows=[("U", "U", "F"), ("JS", "JS", "F")],
            citation_rows=[("U", "JS", "CITED", 9)],
        )
        profile = build_profile(corpus, "U", "F", Dimension.CITED)
        assert profile.internal_count == profile.total == 9
        assert profile.external_counts == {}

    def test_focal_sc_must_be_membership(self, small_corpus):
        with pytest.raises(ValidationError, match="not among the memberships"):
            build_profile(small_corpus, "U", "A", Dimension.CITED)

    def test_unknown_unit(self, small_corpus):
        with pytest.raises(ValidationError, match="unknown unit"):
            build_profile(small_corpus, "NOPE", "F", Dimension.CITED)

    def test_discipline_unit_aggregates_members(self, small_corpus):
        # SC unit "F" spans journals U and JS; JS has no edges of its own
        profile = build_profile(small_corpus, "F", "F", Dimension.CITED)
        assert profile.internal_count == 6
        assert profile.external_counts == {"A": 6.0, "B": 2.0}

    def test_discipline_unit_rejects_other_focal(self, small_corpus):
        with pytest.raises(ValidationError, match="profiled against itself"):
            build_profile(small_corpus, "F", "A", Dimension.CITED)

    def test_fractional_count_is_the_correctly_rounded_exact_sum(self):
        # 2/3 from J1 plus 1 from J2: the float sum 2/3 + 1 rounds to 1.6666666666666665
        corpus = make_corpus(
            sc_rows=[(sc, sc, "") for sc in "ACDE"],
            journal_rows=[("J0", "J0", "A;C"), ("J1", "J1", "C;D;E"), ("J2", "J2", "C")],
            citation_rows=[("J0", "J1", "CITING", 2), ("J0", "J2", "CITING", 1)],
        )
        profile = build_profile(corpus, "J0", "A", Dimension.CITING, CountingMode.FRACTIONAL)
        assert profile.external_counts["C"] == float(Fraction(5, 3)) == 1.6666666666666667

    def test_fractional_attribution_checked_exactly(self, small_corpus):
        """The integer shares of each external citation must sum to its count in units of 1/L."""
        small_corpus.__dict__["membership_lcm"] = 3  # no multiple of the two-SC partner's 2
        with pytest.raises(ComputationError, match="does not sum"):
            build_profile(small_corpus, "U", "F", Dimension.CITED, CountingMode.FRACTIONAL)

    def test_zero_count_edges_ignored(self):
        corpus = make_corpus(
            sc_rows=[("F", "F", ""), ("A", "A", "")],
            journal_rows=[("U", "U", "F"), ("JA", "JA", "A")],
            citation_rows=[("U", "JA", "CITED", 0)],
        )
        profile = build_profile(corpus, "U", "F", Dimension.CITED)
        assert profile.total == 0
        assert profile.external_counts == {}


class TestRawDiversity:
    def _profile(self, external):
        total = sum(external.values())
        return CitationProfile(
            unit_id="U", focal_sc="F", dimension=Dimension.CITED,
            counting_mode=CountingMode.WHOLE, internal_count=1.0,
            external_counts=external, external_total=float(total),
        )

    def test_empty(self):
        assert compute_ebdi(self._profile({}), 60).raw_diversity == 0

    def test_three_categories(self):
        assert compute_ebdi(self._profile({"A": 3, "B": 1, "C": 2}), 60).raw_diversity == 3

    def test_single_category(self):
        assert compute_ebdi(self._profile({"A": 7}), 60).raw_diversity == 1


class TestComputeEbdi:
    def test_published_worked_values(self):
        assert ebdi_value(52.58, 51.06) == pytest.approx(1.01, abs=0.005)
        assert ebdi_value(37.04, 50.05) == pytest.approx(0.73, abs=0.005)

    def test_all_internal_is_exactly_100(self):
        profile = CitationProfile(
            unit_id="U", focal_sc="F", dimension=Dimension.CITED,
            counting_mode=CountingMode.WHOLE, internal_count=37.0,
            external_counts={}, external_total=0.0,
        )
        score = compute_ebdi(profile, 10)
        assert score.pct_internal == 100.0
        assert score.ebdi == 100.0

    def test_all_external_is_exactly_zero(self):
        profile = CitationProfile(
            unit_id="U", focal_sc="F", dimension=Dimension.CITED,
            counting_mode=CountingMode.WHOLE, internal_count=0.0,
            external_counts={"A": 3.0, "B": 2.0}, external_total=5.0,
        )
        assert compute_ebdi(profile, 10).ebdi == 0.0

    def test_single_external_category_keeps_pct_internal(self):
        # one external SC has zero entropy, so the ratio collapses to pct_internal
        profile = CitationProfile(
            unit_id="U", focal_sc="F", dimension=Dimension.CITED,
            counting_mode=CountingMode.WHOLE, internal_count=3.0,
            external_counts={"A": 1.0}, external_total=1.0,
        )
        score = compute_ebdi(profile, 10)
        assert score.external_total == profile.external_total
        assert score.pct_hmax == 0.0
        assert score.ebdi == score.pct_internal == 75.0

    def test_empty_dimension_raises(self):
        profile = CitationProfile(
            unit_id="U", focal_sc="F", dimension=Dimension.CITED,
            counting_mode=CountingMode.WHOLE, internal_count=0.0,
            external_counts={}, external_total=0.0,
        )
        with pytest.raises(NoCitationsError, match="no citations in dimension"):
            compute_ebdi(profile, 10)

    @pytest.mark.parametrize("n_categories", [0, 1])
    def test_fewer_than_two_categories_rejected(self, n_categories):
        profile = CitationProfile(
            unit_id="U", focal_sc="F", dimension=Dimension.CITED,
            counting_mode=CountingMode.WHOLE, internal_count=1.0,
            external_counts={"A": 1.0}, external_total=1.0,
        )
        with pytest.raises(ValidationError, match="n_categories must be >= 2"):
            compute_ebdi(profile, n_categories)

    def test_n_categories_below_the_observed_categories_rejected(self):
        # three external SCs cannot fit a maximum entropy of ln 2: an input error, not exit 2
        profile = CitationProfile(
            unit_id="U", focal_sc="F", dimension=Dimension.CITED,
            counting_mode=CountingMode.WHOLE, internal_count=1.0,
            external_counts={"A": 1.0, "B": 1.0, "C": 1.0}, external_total=3.0,
        )
        with pytest.raises(ValidationError, match="pct_hmax"):
            compute_ebdi(profile, 2)

    @pytest.mark.parametrize("counts", [{"A": 1.0, "B": 0.0}, {"A": -1.0}, {"A": 2.0, "B": -0.0}])
    def test_non_positive_external_count_rejected(self, counts):
        with pytest.raises(ComputationError, match="strictly positive"):
            CitationProfile(
                unit_id="U", focal_sc="F", dimension=Dimension.CITED,
                counting_mode=CountingMode.WHOLE, internal_count=1.0,
                external_counts=counts, external_total=3.0,
            )

    def test_out_of_range_percentages_rejected(self):
        with pytest.raises(ValidationError):
            ebdi_value(101.0, 50.0)
        with pytest.raises(ValidationError):
            ebdi_value(50.0, -1.0)


def external_profile(n_external):
    """A profile with 10 internal citations and one citation to each of ``n_external`` SCs."""
    return CitationProfile(
        unit_id="U", focal_sc="F", dimension=Dimension.CITED, counting_mode=CountingMode.WHOLE,
        internal_count=10.0, external_counts={f"S{i}": 1.0 for i in range(n_external)},
        external_total=float(n_external),
    )


class TestEbdiScoreChecks:
    """``EbdiScore`` is a plain record; ``compute_ebdi`` checks the entropy that goes into it."""

    VALID = dict(
        unit_id="U", focal_sc="F", dimension=Dimension.CITED, pct_internal=50.0,
        entropy=math.log(2), hmax=math.log(4), pct_hmax=50.0, ebdi=50.0 / 51.0,
        raw_diversity=2, external_total=10.0,
    )

    def test_consistent_score_accepted(self):
        score = EbdiScore(**self.VALID)
        assert score.entropy == math.log(2) and score.raw_diversity == 2

    ENTROPY_FAULTS = [
        ({"raw_diversity": 1}, "<=1 category distribution must be 0"),
        ({"raw_diversity": 0, "entropy": 1e-6}, "<=1 category distribution must be 0"),
        ({"entropy": math.log(2) + 1e-6}, r"entropy outside \[0, ln\(raw_diversity\)\]"),
        # a negative entropy gets past ebdi_value's pct_hmax bound only when hmax is vast
        ({"entropy": -2e-9, "n_categories": 10**100}, r"entropy outside \[0, ln\(raw_diversity\)\]"),
    ]

    # numbered from 1, so each case keeps the id it had when EbdiScore checked itself
    @pytest.mark.parametrize("fields,message", ENTROPY_FAULTS,
                             ids=[f"fields{i}-{m}" for i, (_, m) in enumerate(ENTROPY_FAULTS, 1)])
    def test_inconsistent_score_raises_computation_error(self, fields, message, monkeypatch):
        case = {**self.VALID, "n_categories": 4, **fields}
        monkeypatch.setattr(metrics, "_entropy", lambda values: case["entropy"])
        with pytest.raises(ComputationError, match=message):
            compute_ebdi(external_profile(case["raw_diversity"]), case["n_categories"])


@pytest.mark.parametrize("n_external, entropy, n_categories, error, message", [
    (1, 0.5, 60, ComputationError, "entropy of a <=1 category distribution must be 0"),
    (3, math.log(3) + 0.01, 60, ComputationError, r"entropy outside \[0, ln\(raw_diversity\)\]"),
    # 2 nats is above both ln 3 and hmax = ln 4: ebdi_value's bound comes first
    (3, 2.0, 4, ValidationError, r"pct_hmax must lie in \[0, 100\]"),
])
def test_compute_ebdi_fault_order(n_external, entropy, n_categories, error, message, monkeypatch):
    monkeypatch.setattr(metrics, "_entropy", lambda values: entropy)
    with pytest.raises(error, match=message):
        compute_ebdi(external_profile(n_external), n_categories)


class TestComputeJournalIndicators:
    def test_worked_example_pair(self):
        from reference_data import (
            WORKED_CITING_EXTERNAL_COUNTS,
            WORKED_CITING_INTERNAL_COUNT,
            WORKED_EXTERNAL_COUNTS,
            WORKED_INTERNAL_COUNT,
            WORKED_N_CATEGORIES,
        )

        n_ext = len(WORKED_EXTERNAL_COUNTS)
        corpus = make_corpus(
            sc_rows=[("FOCAL", "Focal", "")] + [(f"X{i}", f"X{i}", "") for i in range(n_ext)],
            journal_rows=[("UNIT", "Unit", "FOCAL"), ("SAME", "Same", "FOCAL")]
            + [(f"E{i}", f"E{i}", f"X{i}") for i in range(n_ext)],
            citation_rows=[("UNIT", "SAME", "CITED", WORKED_INTERNAL_COUNT)]
            + [(f"UNIT", f"E{i}", "CITED", c) for i, c in enumerate(WORKED_EXTERNAL_COUNTS)]
            + [("UNIT", "SAME", "CITING", WORKED_CITING_INTERNAL_COUNT)]
            + [(f"UNIT", f"E{i}", "CITING", c)
               for i, c in enumerate(WORKED_CITING_EXTERNAL_COUNTS)],
            n_categories=WORKED_N_CATEGORIES,
        )
        cited, citing = compute_journal_indicators(corpus, "UNIT", "FOCAL")
        assert round(cited.ebdi, 2) == 1.01
        assert round(citing.ebdi, 2) == 0.73
        assert cited.raw_diversity == 26
        assert citing.raw_diversity == 22

    def test_single_dimension_flags_missing(self):
        corpus = make_corpus(
            sc_rows=[("F", "F", ""), ("A", "A", "")],
            journal_rows=[("U", "U", "F"), ("JA", "JA", "A")],
            citation_rows=[("U", "JA", "CITED", 5)],
        )
        cited, citing = compute_journal_indicators(corpus, "U", "F")
        assert cited is not None and cited.ebdi == 0.0
        assert citing is None

    def test_matches_brute_force_on_small_corpus(self, small_corpus):
        memberships = {
            "U": {"F"}, "JS": {"F"}, "JA": {"A"}, "JAB": {"A", "B"},
        }
        edges = [
            ("U", "JS", "CITED", 6), ("U", "JA", "CITED", 4), ("U", "JAB", "CITED", 2),
            ("U", "JS", "CITING", 3), ("U", "JA", "CITING", 1),
        ]
        expected = brute_indicator_rows(memberships, edges, n_categories=3, mode="whole")
        cited, citing = compute_journal_indicators(corpus=small_corpus, unit_id="U", focal_sc="F")
        for dim, score in (("CITED", cited), ("CITING", citing)):
            want = expected[("U", "F", dim)]
            assert score.ebdi == pytest.approx(want["ebdi"], abs=1e-12)
            assert score.pct_internal == pytest.approx(want["pct_internal"], abs=1e-12)
            assert score.pct_hmax == pytest.approx(want["pct_hmax"], abs=1e-12)


# -- invariants ----------------------------------------------------------------


# external-SC labels; the letter F is reserved for the focal SC in profiles
positive_counts = st.dictionaries(
    keys=st.text(alphabet="ABCDEGHJKL", min_size=1, max_size=2),
    values=st.integers(min_value=1, max_value=200),
    min_size=1,
    max_size=8,
)


@given(counts=positive_counts)
def test_entropy_bounds(counts):
    h = _entropy(counts.values())
    assert -1e-12 <= h <= math.log(len(counts)) + 1e-12


@pytest.mark.parametrize("k", range(1, 50))
def test_uniform_entropy_attains_log_k_and_grows_with_k(k):
    h_k = _entropy([3] * k)
    h_k1 = _entropy([3] * (k + 1))
    assert h_k == pytest.approx(math.log(k) if k > 1 else 0.0, abs=1e-12)
    assert h_k1 > h_k  # one more category at the uniform share raises entropy


@given(counts=positive_counts, data=st.data())
def test_transfer_toward_larger_count_never_raises_entropy(counts, data):
    items = sorted(counts.items())
    low = min(items, key=lambda kv: kv[1])
    high = max(items, key=lambda kv: kv[1])
    if low[1] >= high[1]:
        return  # need strictly unequal pair
    delta = data.draw(st.integers(min_value=1, max_value=low[1]), label="delta")
    before = _entropy(counts.values())
    moved = dict(counts)
    moved[low[0]] -= delta
    moved[high[0]] += delta
    if moved[low[0]] == 0:
        del moved[low[0]]
    after = _entropy(moved.values())
    assert after <= before + 1e-12
    if low[1] - delta < high[1] + delta:
        assert after < before


@given(
    counts=positive_counts,
    internal=st.integers(min_value=0, max_value=500),
    factor=st.floats(min_value=0.01, max_value=1000.0, allow_nan=False),
)
def test_scale_invariance(counts, internal, factor):
    profile = CitationProfile(
        unit_id="U", focal_sc="F", dimension=Dimension.CITED,
        counting_mode=CountingMode.WHOLE, internal_count=float(internal),
        external_counts={k: float(v) for k, v in counts.items()},
        external_total=float(sum(counts.values())),
    )
    base = compute_ebdi(profile, 60)
    scaled = compute_ebdi(scaled_profile(profile, factor), 60)
    assert scaled.pct_internal == pytest.approx(base.pct_internal, abs=1e-12)
    assert scaled.entropy == pytest.approx(base.entropy, abs=1e-12)
    assert scaled.pct_hmax == pytest.approx(base.pct_hmax, abs=1e-12)
    assert scaled.ebdi == pytest.approx(base.ebdi, abs=1e-12)


@given(counts=positive_counts)
def test_entropy_invariant_under_relabeling(counts):
    relabeled = {f"X{i}": v for i, (_, v) in enumerate(sorted(counts.items(), reverse=True))}
    assert _entropy(relabeled.values()) == pytest.approx(_entropy(counts.values()), abs=1e-12)


@given(
    counts=positive_counts,
    internal=st.integers(min_value=0, max_value=500),
    delta=st.integers(min_value=1, max_value=100),
)
def test_more_internal_citations_strictly_raise_ebdi(counts, internal, delta):
    external = {k: float(v) for k, v in counts.items()}
    total_external = float(sum(counts.values()))
    base = CitationProfile(
        unit_id="U", focal_sc="F", dimension=Dimension.CITED,
        counting_mode=CountingMode.WHOLE, internal_count=float(internal),
        external_counts=external, external_total=total_external,
    )
    bumped = CitationProfile(
        unit_id="U", focal_sc="F", dimension=Dimension.CITED,
        counting_mode=CountingMode.WHOLE, internal_count=float(internal + delta),
        external_counts=external, external_total=total_external,
    )
    assert compute_ebdi(bumped, 60).ebdi > compute_ebdi(base, 60).ebdi


@given(
    counts=positive_counts,
    internal=st.integers(min_value=0, max_value=500),
)
def test_score_fields_stay_coherent(counts, internal):
    profile = CitationProfile(
        unit_id="U", focal_sc="F", dimension=Dimension.CITED,
        counting_mode=CountingMode.WHOLE, internal_count=float(internal),
        external_counts={k: float(v) for k, v in counts.items()},
        external_total=float(sum(counts.values())),
    )
    score = compute_ebdi(profile, 60)
    assert 0.0 <= score.ebdi <= 100.0
    assert score.ebdi == pytest.approx(score.pct_internal / (score.pct_hmax + 1), abs=1e-12)


def assert_former_record_checks(score):
    """The six checks ``EbdiScore`` ran on itself before ``compute_ebdi``'s guards took them over."""
    assert score.hmax > 0
    if score.raw_diversity <= 1:
        assert abs(score.entropy) <= 1e-9
    else:
        assert 0.0 <= score.entropy <= math.log(score.raw_diversity) + 1e-9
    assert 0.0 <= score.pct_hmax <= 100.0
    assert 0.0 <= score.pct_internal <= 100.0
    assert 0.0 <= score.ebdi <= 100.0
    assert abs(score.ebdi - score.pct_internal / (score.pct_hmax + 1.0)) <= 1e-9


@given(seed=st.integers(0, 2**32 - 1), only_the_scs_in_use=st.booleans())
def test_random_corpus_scores_pass_the_former_record_checks(seed, only_the_scs_in_use):
    sc_rows, journal_rows, citation_rows, memberships = random_corpus_rows(random.Random(seed))
    in_use = sorted(set().union(*memberships.values()))
    n_categories = max(2, len(in_use)) if only_the_scs_in_use else None
    corpus = make_corpus(sc_rows, journal_rows, citation_rows, n_categories=n_categories)
    units = [(jid, sc) for jid in sorted(memberships) for sc in sorted(memberships[jid])]
    units += [(sc, sc) for sc in in_use]  # whole subject categories
    for mode in (CountingMode.WHOLE, CountingMode.FRACTIONAL):
        for unit_id, focal_sc in units:
            for score in compute_journal_indicators(corpus, unit_id, focal_sc, mode):
                if score is not None:
                    assert_former_record_checks(score)


@given(
    counts=positive_counts,
    internal=st.integers(min_value=1, max_value=500),
    shape=st.sampled_from(["all internal", "none internal", "one external SC", "mixed"]),
)
def test_boundary_profiles_pass_the_former_record_checks(counts, internal, shape):
    if shape == "all internal":
        counts = {}
    elif shape == "none internal":
        internal = 0
    elif shape == "one external SC":
        counts = dict([min(counts.items())])
    profile = CitationProfile(
        unit_id="U", focal_sc="F", dimension=Dimension.CITED,
        counting_mode=CountingMode.WHOLE, internal_count=float(internal),
        external_counts={k: float(v) for k, v in counts.items()},
        external_total=float(sum(counts.values())),
    )
    # n_categories equal to the SCs in use: the focal SC and every external one
    assert_former_record_checks(compute_ebdi(profile, max(2, len(counts) + 1)))


def test_pipeline_matches_oracle_on_random_corpora():
    rng = random.Random(20260810)
    for _ in range(20):
        sc_rows, journal_rows, citation_rows, memberships = random_corpus_rows(rng)
        corpus = make_corpus(sc_rows, journal_rows, citation_rows)
        for mode in (CountingMode.WHOLE, CountingMode.FRACTIONAL):
            expected = brute_indicator_rows(
                memberships, citation_rows, n_categories=len(sc_rows), mode=mode.value
            )
            for jid in sorted(memberships):
                for sc in sorted(memberships[jid]):
                    cited, citing = compute_journal_indicators(corpus, jid, sc, mode)
                    for dim, score in (("CITED", cited), ("CITING", citing)):
                        want = expected[(jid, sc, dim)]
                        if want is None:
                            assert score is None
                            continue
                        assert score.ebdi == pytest.approx(want["ebdi"], abs=1e-9)
                        assert score.pct_internal == pytest.approx(want["pct_internal"], abs=1e-9)
                        assert score.pct_hmax == pytest.approx(want["pct_hmax"], abs=1e-9)
                        assert score.entropy == pytest.approx(want["H"], abs=1e-9)
                        assert score.raw_diversity == want["raw_diversity"]
