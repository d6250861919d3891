"""The records are immutable named tuples; those that stages take as input check on every route.

``CitationProfile``, ``RunConfig`` and ``MetricSeries`` run their checks in
``__new__``, and ``_make`` calls the constructor, so a positional or keyword
call, ``_make``, ``_replace`` and unpickling all raise the same exception for
the same bad field. ``EbdiScore`` is only ever produced, by ``compute_ebdi``,
which checks it there (``test_metrics.py``), so it is a plain record that only
the valid-route and immutability tests cover. ``Corpus`` is a plain class whose
fields cannot be assigned after its constructor has checked them.
"""

from __future__ import annotations

import math
import pickle

import pytest

from ebdi import CitationProfile, ComputationError, CountingMode, Dimension, EbdiScore, ValidationError
from ebdi.report import RunConfig
from ebdi.stats import MetricSeries

PROFILE = dict(
    unit_id="U", focal_sc="F", dimension=Dimension.CITED, counting_mode=CountingMode.WHOLE,
    internal_count=1.0, external_counts={"A": 2.0, "B": 1.0}, external_total=3.0,
)
SCORE = dict(
    unit_id="U", focal_sc="F", dimension=Dimension.CITED, pct_internal=50.0,
    entropy=math.log(2), hmax=math.log(4), pct_hmax=50.0, ebdi=50.0 / 51.0,
    raw_diversity=2, external_total=10.0,
)
SERIES = dict(metric_name="m", index={"a": 0}, units=[0], values=[1.0])

#: (record, valid fields, bad fields, exception, message)
BAD_FIELDS = [
    (CitationProfile, PROFILE, {"internal_count": -1.0}, ComputationError, "negative citation totals"),
    (CitationProfile, PROFILE, {"external_counts": {"A": 0.0}}, ComputationError, "strictly positive"),
    (CitationProfile, PROFILE, {"external_counts": {"F": 1.0}}, ComputationError, "focal SC leaked"),
    (RunConfig, {}, {"fmt": "xml"}, ValidationError, "unknown output format 'xml'"),
    (RunConfig, {}, {"counting": "half"}, ValidationError, "unknown counting mode"),
    (RunConfig, {"scores": "s.csv", "counting": None}, {"focal_sc": "LIS"}, ValidationError,
     "--scores replaces the corpus; drop --focal-sc"),
    (MetricSeries, SERIES, {"values": [math.inf]}, ValidationError,
     "non-finite value for unit 'a' in metric 'm'"),
    (MetricSeries, SERIES, {"units": [1]}, ValidationError, "unit position 1 is outside the index"),
    (MetricSeries, SERIES, {"units": [0, 0], "values": [1.0, 2.0]}, ValidationError,
     "unit 'a' repeats in metric 'm'"),
]
#: the case numbers skip 3 and 4, two EbdiScore rows, so each case keeps its id
NUMBERS = (0, 1, 2, 5, 6, 7, 8, 9, 10)
IDS = [f"{case[0].__name__}-{next(iter(case[2]))}-{i}"
       for i, case in zip(NUMBERS, BAD_FIELDS, strict=True)]


def _fields(record, valid, bad):
    """Every field of ``record`` in order: ``valid`` over the defaults, then ``bad``."""
    return [{**record(**valid)._asdict(), **bad}[name] for name in record._fields]


@pytest.mark.parametrize("record, valid, bad, error, message", BAD_FIELDS, ids=IDS)
class TestEveryRouteChecks:
    def test_positional(self, record, valid, bad, error, message):
        with pytest.raises(error, match=message):
            record(*_fields(record, valid, bad))

    def test_keyword(self, record, valid, bad, error, message):
        with pytest.raises(error, match=message):
            record(**{**valid, **bad})

    def test_make(self, record, valid, bad, error, message):
        with pytest.raises(error, match=message):
            record._make(_fields(record, valid, bad))

    def test_replace(self, record, valid, bad, error, message):
        good = record(**valid)
        with pytest.raises(error, match=message):
            good._replace(**bad)

    def test_pickle_round_trip(self, record, valid, bad, error, message):
        unchecked = tuple.__new__(record, _fields(record, valid, bad))
        data = pickle.dumps(unchecked)
        with pytest.raises(error, match=message):
            pickle.loads(data)


@pytest.mark.parametrize("record, valid", [
    (CitationProfile, PROFILE), (EbdiScore, SCORE), (RunConfig, {"fmt": "json"}),
    (MetricSeries, SERIES),
])
def test_valid_records_survive_every_route(record, valid):
    good = record(**valid)
    assert record(*good) == good
    assert record._make(good) == good
    assert good._replace() == good
    restored = pickle.loads(pickle.dumps(good))
    assert type(restored) is record and restored == good
    assert good == tuple(good)  # equality is tuple equality


def test_profile_external_counts_default_to_a_fresh_empty_map():
    first = CitationProfile("U", "F", Dimension.CITED, CountingMode.WHOLE, 1.0)
    second = CitationProfile("U", "F", Dimension.CITED, CountingMode.WHOLE, 1.0)
    assert first.external_counts == {} and first.external_total == 0.0
    assert first.external_counts is not second.external_counts


def test_replace_builds_a_checked_copy():
    profile = CitationProfile(**PROFILE)
    doubled = profile._replace(internal_count=2.0)
    assert type(doubled) is CitationProfile and doubled.total == 5.0
    assert profile.internal_count == 1.0


@pytest.mark.parametrize("record", [CitationProfile(**PROFILE), EbdiScore(**SCORE)])
def test_record_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        record.unit_id = "V"
    with pytest.raises(AttributeError):
        del record.unit_id
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict either
    assert record.unit_id == "U"


def test_corpus_fields_cannot_be_assigned(small_corpus):
    for name in ("sc_registry", "journals", "citations", "n_categories", "membership_lcm"):
        with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
            setattr(small_corpus, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
            delattr(small_corpus, name)
    # the cached indexes still fill on first use
    assert small_corpus.membership_lcm >= 1
    assert "membership_lcm" in vars(small_corpus)
