"""Citation profiles and the entropy-based disciplinarity indicator (EBDI).

For one unit (a journal, or a whole subject category) in one citation
dimension, the indicator is

    ebdi = pct_internal / (pct_hmax + 1)

where ``pct_internal`` is the share (0..100) of citations whose partner
journal is classified in the focal subject category, and ``pct_hmax`` is the
Shannon entropy of the external-citation distribution over subject categories,
expressed as a percentage of the maximum entropy ln(n_categories). The "+1"
sits in percentage units, so the indicator ranges over [0, 100].

Boundary behavior is exact: a profile whose citations are all internal has an
empty external distribution, hence entropy 0 and ebdi == pct_internal == 100;
a profile with no internal citations has ebdi == 0. High values read as
disciplinary (monodisciplinary at the extreme), low values as multidisciplinary.

Entropy is computed in nats (natural logarithm) with the 0*ln(0) terms defined
as 0: zero-count categories are simply absent from the distribution.

Every quantity here is a ratio of counts, so rescaling all counts by a
common factor c leaves it unchanged. In floating point that holds bit for bit
under WHOLE counting: multiplying every count by c gives bit-identical
scores, as long as every sum stays below 2**53.

This module is the one place where citations are attributed to the partner
journals' SCs: :func:`build_profile` for one unit and
:func:`aggregate_sc_network` for the SC-to-SC network. Both sum integer
shares; the network returns them with their denominator, and a profile
divides them once, so FRACTIONAL ``external_counts`` are rounded once. The
entropy rounds again when it normalizes those values, so FRACTIONAL scores
are not bit-for-bit scale-invariant: with every count of the benchmark's
indicators-all corpus (``gen_corpus.py --seed 41``) multiplied by 7, 2,942 of
its 39,862 ``indicators.json`` rows change in their last bits (0 under
WHOLE). ROADMAP.md item 6 plans one rounding per probability.

Both records are immutable named tuples. :class:`CitationProfile`, an input,
checks its fields on every route that builds one; :class:`EbdiScore`, which
only :func:`compute_ebdi` produces, is a plain record that its producer checks.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Collection, Iterable, Mapping, NamedTuple

from .corpus import Corpus, CountingMode, Dimension
from .errors import ComputationError, NoCitationsError, ValidationError

#: Tolerance for internal consistency checks on derived quantities.
_CHECK_TOL = 1e-9
#: enum members read for every profile, bound once: an enum's class attributes are slow to look up
_DIMENSIONS = (Dimension.CITED, Dimension.CITING)  # in output order
_FRACTIONAL = CountingMode.FRACTIONAL


class _ProfileFields(NamedTuple):
    unit_id: str
    focal_sc: str
    dimension: Dimension
    counting_mode: CountingMode
    internal_count: float
    external_counts: Mapping[str, float] | None = None
    external_total: float = 0.0


class CitationProfile(_ProfileFields):
    """One unit's citation distribution in one dimension, split by focal SC.

    ``internal_count`` and ``external_total`` count raw citations (each
    citation exactly once, whatever the partner's memberships), so
    ``total == internal_count + external_total`` is the raw citation volume
    and percentages of it stay within [0, 100].

    ``external_counts`` holds the per-SC attribution of the external
    citations and feeds only the entropy. Under WHOLE counting a citation to
    a partner classified in k external SCs contributes its full count to each
    of the k SCs, so the values may sum to more than ``external_total``;
    under FRACTIONAL counting each SC receives count/k and the values sum to
    ``external_total`` up to rounding (:func:`build_profile` checks the exact
    integer sum before it divides). Each value is the exact sum of its
    shares, correctly rounded once; :func:`build_profile` gives WHOLE counts
    as ints. The map's order is unspecified: the entropy does not depend on it.
    ``None`` (the default) stands for an empty map.

    An immutable named tuple: every way to build one (the constructor,
    ``_make``, ``_replace``, unpickling) runs the checks.
    """

    __slots__ = ()

    def __new__(
        cls,
        unit_id: str,
        focal_sc: str,
        dimension: Dimension,
        counting_mode: CountingMode,
        internal_count: float,
        external_counts: Mapping[str, float] | None = None,
        external_total: float = 0.0,
    ) -> "CitationProfile":
        if external_counts is None:
            external_counts = {}
        if internal_count < 0 or external_total < 0:
            raise ComputationError("negative citation totals in profile")
        if external_counts and min(external_counts.values()) <= 0:
            raise ComputationError("external_counts must hold strictly positive values")
        if focal_sc in external_counts:
            raise ComputationError("focal SC leaked into the external distribution")
        return tuple.__new__(cls, (unit_id, focal_sc, dimension, counting_mode, internal_count,
                                   external_counts, external_total))

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> "CitationProfile":
        return cls(*iterable)  # checked; _replace builds through here too

    @property
    def total(self) -> float:
        """Raw citation volume: internal plus external, each citation counted once."""
        return self.internal_count + self.external_total


class EbdiScore(NamedTuple):
    """The indicator value for one (unit, focal SC, dimension), with its entropy summary."""

    unit_id: str
    focal_sc: str
    dimension: Dimension
    pct_internal: float
    entropy: float        # H, in nats
    hmax: float           # ln(n_categories), in nats
    pct_hmax: float       # 100 * H / Hmax
    ebdi: float
    raw_diversity: int    # distinct SCs with nonzero external count
    external_total: float  # raw external citations, copied from the profile


def _entropy(values: Collection[float]) -> float:
    """Shannon entropy, in nats, of positive counts: -sum(p_i * ln(p_i)) with p_i = x_i / sum(x)."""
    total = math.fsum(values)
    ps = list(map(total.__rtruediv__, values))  # v / total for each v
    # the +0.0 normalizes -0.0 away (single-category distributions)
    return -math.fsum(map(mul, ps, map(math.log, ps))) + 0.0


def ebdi_value(pct_internal: float, pct_hmax: float) -> float:
    """The indicator ratio itself: pct_internal / (pct_hmax + 1).

    Both arguments are percentages in [0, 100]; the +1 is in percentage units.
    A rounding-sized overshoot of the bounds is clamped rather than rejected,
    so a maximal-entropy distribution computing to 100+1e-15 still scores.
    """
    if not -_CHECK_TOL <= pct_internal <= 100 + _CHECK_TOL:
        raise ValidationError("pct_internal must lie in [0, 100]")
    if not -_CHECK_TOL <= pct_hmax <= 100 + _CHECK_TOL:
        raise ValidationError("pct_hmax must lie in [0, 100]")
    return min(max(pct_internal, 0.0), 100.0) / (min(max(pct_hmax, 0.0), 100.0) + 1.0)


def build_profile(
    corpus: Corpus,
    unit_id: str,
    focal_sc: str,
    dimension: Dimension,
    counting_mode: CountingMode = CountingMode.WHOLE,
) -> CitationProfile:
    """Classify every citation partner of a unit in one dimension as internal or external.

    The unit may be a journal (the focal SC must be one of its memberships) or
    a subject category (the focal SC must be the category itself; the profile
    then aggregates the edges of every member journal).

    Internal edges add their count to ``internal_count``. External edges add
    their count once to ``external_total`` and distribute it over the
    partner's SCs according to ``counting_mode``. SCs that would receive a
    zero count never appear in the map. FRACTIONAL shares are summed as
    integers in units of 1/L (L is :attr:`Corpus.membership_lcm`) and divided
    once at the end; WHOLE counts are summed and kept as integers.
    """
    if focal_sc not in corpus.sc_registry:
        raise ValidationError(f"unknown sc_id {focal_sc!r}")

    unit_scs = corpus.journals.get(unit_id)
    if unit_scs is not None:
        if focal_sc not in unit_scs:
            raise ValidationError(
                f"focal SC {focal_sc!r} is not among the memberships of journal {unit_id!r}"
            )
        member_journals: tuple[str, ...] = (unit_id,)
    elif unit_id in corpus.sc_registry:
        if focal_sc != unit_id:
            raise ValidationError(
                f"a subject-category unit is profiled against itself; got unit {unit_id!r} "
                f"with focal SC {focal_sc!r}"
            )
        member_journals = corpus.journals_in(unit_id)
    else:
        raise ValidationError(f"unknown unit {unit_id!r}")

    fractional = counting_mode is _FRACTIONAL
    scale = corpus.membership_lcm if fractional else 1
    internal = 0
    external_total = 0
    external: dict[str, int] = {}
    journals = corpus.journals
    for member in member_journals:
        for partner, count in corpus.citations.get((member, dimension), {}).items():
            if count == 0:
                continue
            partner_scs = journals[partner]
            # the Boolean internal rule: a partner in the focal SC is wholly internal
            if focal_sc in partner_scs:
                internal += count
                continue
            external_total += count
            share = count * (scale // len(partner_scs)) if fractional else count
            for sc_id in partner_scs:
                external[sc_id] = external.get(sc_id, 0) + share
    if fractional and sum(external.values()) != scale * external_total:
        raise ComputationError("fractional external attribution does not sum to the raw external total")

    return CitationProfile(
        unit_id, focal_sc, dimension, counting_mode, float(internal),
        # fsum does not depend on order, so the map is neither sorted nor, when whole, copied
        {sc_id: value / scale for sc_id, value in external.items()} if fractional else external,
        float(external_total),
    )


def aggregate_sc_network(
    corpus: Corpus,
    dimension: Dimension,
    counting_mode: CountingMode = CountingMode.WHOLE,
) -> tuple[dict[str, dict[str, int]], int]:
    """SC-to-SC citation shares for one dimension, as ``({source: {target: share}}, denominator)``.

    Every journal edge fans out over the focal journal's SCs (sources) and the
    partner's SCs (targets): the full count per pair under WHOLE counting, or
    count / (#focal SCs * #partner SCs) under FRACTIONAL, which preserves the
    total volume. Each share is the exact integer sum in units of
    1/denominator: 1 under WHOLE counting, L**2 under FRACTIONAL (L is
    :attr:`Corpus.membership_lcm`), so ``share / denominator`` is the weight,
    correctly rounded once. Every share is positive, and every source has one.
    """
    fractional = counting_mode is _FRACTIONAL
    scale = corpus.membership_lcm if fractional else 1
    journals = corpus.journals
    shares: dict[str, dict[str, int]] = {}
    for (focal, focal_dimension), partners in corpus.citations.items():
        if focal_dimension is not dimension:
            continue
        focal_scs = journals[focal]
        focal_share = scale // len(focal_scs) if fractional else 1
        rows = [shares.setdefault(source, {}) for source in focal_scs]
        for partner, count in partners.items():
            if count == 0:
                continue
            partner_scs = journals[partner]
            share = count * focal_share * (scale // len(partner_scs) if fractional else 1)
            for row in rows:
                for target in partner_scs:
                    row[target] = row.get(target, 0) + share
    # a journal whose every count is 0 leaves its sources' rows empty
    return {source: row for source, row in shares.items() if row}, scale * scale


def compute_ebdi(profile: CitationProfile, n_categories: int) -> EbdiScore:
    """Indicator score for one profile.

    Raises :class:`NoCitationsError` when the profile has no citations at all
    in its dimension; callers report that as a missing value, never as 0.
    It then checks, in this order, the percentages (:func:`ebdi_value`) and
    the entropy bound; the score's other bounds follow from these.
    """
    total = profile.total
    if total <= 0:
        raise NoCitationsError(
            f"no citations in dimension {profile.dimension.value} for unit "
            f"{profile.unit_id!r} (focal SC {profile.focal_sc!r})"
        )
    if n_categories < 2:
        raise ValidationError("n_categories must be >= 2 (otherwise the maximum entropy is 0)")
    hmax = math.log(n_categories)
    entropy = _entropy(profile.external_counts.values())  # its values are positive
    pct_hmax = 100.0 * entropy / hmax  # entropy as a percentage of ln(n_categories)
    pct_internal = 100.0 * (profile.internal_count / total)
    ebdi = ebdi_value(pct_internal, pct_hmax)  # checks both percentages first
    raw_diversity = len(profile.external_counts)
    if raw_diversity <= 1:
        if abs(entropy) > _CHECK_TOL:
            raise ComputationError("entropy of a <=1 category distribution must be 0")
    elif not -_CHECK_TOL <= entropy <= math.log(raw_diversity) + _CHECK_TOL:
        raise ComputationError("entropy outside [0, ln(raw_diversity)]")
    return EbdiScore(
        profile.unit_id, profile.focal_sc, profile.dimension,
        pct_internal, entropy, hmax, pct_hmax, ebdi, raw_diversity, profile.external_total,
    )


def compute_journal_indicators(
    corpus: Corpus,
    unit_id: str,
    focal_sc: str,
    counting_mode: CountingMode = CountingMode.WHOLE,
) -> tuple[EbdiScore | None, EbdiScore | None]:
    """Indicator scores for both dimensions of one unit: (cited, citing).

    A dimension with zero citations yields None (missing), not a score.
    Works for journal units and, with ``unit_id == focal_sc``, for whole
    subject categories.
    """
    scores: list[EbdiScore | None] = []
    for dimension in _DIMENSIONS:
        profile = build_profile(corpus, unit_id, focal_sc, dimension, counting_mode)
        try:
            scores.append(compute_ebdi(profile, corpus.n_categories))
        except NoCitationsError:
            scores.append(None)
    return scores[0], scores[1]
