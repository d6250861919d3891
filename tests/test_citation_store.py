"""The citation store: per-(journal, dimension) partner -> count maps.

Loading must not depend on row order or on how rows are split over files,
must leave the input corpus untouched, and must stay small per merged edge.
Profiles and the SC network read the maps and sum exactly: every value is
the correctly rounded exact sum of its shares.
"""

from __future__ import annotations

import copy
import gc
import io
import json
import logging
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ebdi import (Corpus, CountingMode, Dimension, LoadError, aggregate_sc_network, build_profile,
                  load_corpus, load_edges)
from ebdi.corpus import CITATION_FIELDS, load_classification
from ebdi.cli import main
from conftest import csv_text, write_corpus_files

CITATION_HEADER = "focal_journal_id,partner_journal_id,dimension,count"
DIMENSIONS = (Dimension.CITED, Dimension.CITING)


def random_inputs(rng: random.Random, n_scs: int, n_journals: int, n_rows: int):
    """SC rows, journal rows with 1-3 memberships, and citation rows with repeats and zeros."""
    scs = [f"S{i}" for i in range(n_scs)]
    sc_rows = [(sc, f"Category {sc}", "") for sc in scs]
    journals = [f"J{i:04d}" for i in range(n_journals)]
    journal_rows = [(j, f"Journal {j}", ";".join(rng.sample(scs, rng.randint(1, 3)))) for j in journals]
    citation_rows = [
        (rng.choice(journals), rng.choice(journals), rng.choice(("CITED", "citing")),
         0 if rng.random() < 0.05 else 1 + int(rng.expovariate(1 / 6)))
        for _ in range(n_rows)
    ]
    return sc_rows, journal_rows, citation_rows


def classification(sc_rows, journal_rows):
    return load_classification(
        io.StringIO(csv_text("sc_id,name,branch", sc_rows)),
        io.StringIO(csv_text("journal_id,title,sc_memberships", journal_rows)),
    )


def citations(rows) -> io.StringIO:
    return io.StringIO(csv_text(CITATION_HEADER, rows))


def corpus_flags(paths) -> list[str]:
    """The CLI flags that name the three corpus files ``write_corpus_files`` wrote."""
    return [arg for flag in ("classification", "journals", "citations") for arg in (f"--{flag}", str(paths[flag]))]


def all_profiles(corpus, mode=CountingMode.FRACTIONAL) -> dict:
    """build_profile of every (journal, membership) and every SC, both dimensions."""
    units = [(j, sc) for j, scs in corpus.journals.items() for sc in scs]
    units += [(sc, sc) for sc in corpus.sc_registry]
    return {
        (unit, sc, dimension): build_profile(corpus, unit, sc, dimension, mode)
        for unit, sc in units for dimension in DIMENSIONS
    }


def networks(corpus, mode=CountingMode.FRACTIONAL) -> dict:
    """Each dimension's ({(source, target): share}, denominator)."""
    flat = {}
    for dimension in DIMENSIONS:
        shares, denominator = aggregate_sc_network(corpus, dimension, mode)
        pairs = {(source, target): share
                 for source, targets in shares.items() for target, share in targets.items()}
        flat[dimension] = pairs, denominator
    return flat


@pytest.mark.parametrize("seed", range(4))
def test_row_order_and_file_split_do_not_matter(seed):
    rng = random.Random(seed)
    sc_rows, journal_rows, rows = random_inputs(rng, n_scs=6, n_journals=40, n_rows=600)
    partial = classification(sc_rows, journal_rows)
    one_file = load_edges(partial, citations(rows))

    shuffled_rows = rows[:]
    rng.shuffle(shuffled_rows)
    shuffled = load_edges(partial, citations(shuffled_rows))

    cut = rng.randrange(len(rows))
    split = load_edges(load_edges(partial, citations(rows[:cut])), citations(rows[cut:]))

    expected_profiles, expected_network = all_profiles(one_file), networks(one_file)
    for corpus in (shuffled, split):
        assert corpus.citations == one_file.citations
        assert corpus.edge_count == one_file.edge_count
        assert all_profiles(corpus) == expected_profiles
        assert networks(corpus) == expected_network


def test_shuffled_citation_file_gives_identical_artifacts(tmp_path):
    rng = random.Random(11)
    sc_rows, journal_rows, rows = random_inputs(rng, n_scs=5, n_journals=30, n_rows=400)
    shuffled_rows = rows[:]
    rng.shuffle(shuffled_rows)
    shuffled_journals = journal_rows[:]
    rng.shuffle(shuffled_journals)
    artifacts = []
    for name, journal_file_rows, citation_rows in (
        ("ordered", journal_rows, rows),
        ("shuffled", journal_rows, shuffled_rows),
        ("shuffled_journals", shuffled_journals, rows),
    ):
        (tmp_path / name).mkdir()
        paths = write_corpus_files(tmp_path / name, sc_rows, journal_file_rows, citation_rows)
        out = tmp_path / name / "out"
        # JSON tables print every bit of a float; each command writes into its own directory
        for counting in CountingMode:
            for fmt in ("csv", "json"):
                common = [*corpus_flags(paths), "--counting", counting.value, "--format", fmt]
                run = out / f"{counting.value}-{fmt}"
                assert main(["indicators", *common, "--out", str(run / "indicators")]) == 0
                assert main(["roles", *common, "--unit-type", "discipline", "--out", str(run / "roles")]) == 0
                assert main(["network", *common, "--dimension", "cited", "--top-k", "3",
                             "--out", str(run / "network")]) == 0
        artifacts.append({path.relative_to(out): path.read_bytes()
                          for path in sorted(out.rglob("*")) if path.is_file()})
    assert len(artifacts[0]) == 2 * 2 * (2 + 3 + 2)  # modes x formats x (table, meta and plot) files
    assert artifacts[0] == artifacts[1] == artifacts[2]


def test_whole_counting_scores_do_not_move_when_every_count_is_scaled(tmp_path):
    """Counts x 7 give the same bits in every ratio of indicators.json, and the same role files."""
    rng = random.Random(13)
    sc_rows, journal_rows, rows = random_inputs(rng, n_scs=5, n_journals=30, n_rows=400)
    focal_sc = journal_rows[0][2].split(";")[0]
    scaled_rows = [(focal, partner, dimension, count * 7) for focal, partner, dimension, count in rows]
    outputs = []
    for name, citation_rows in (("counts", rows), ("counts_x7", scaled_rows)):
        (tmp_path / name).mkdir()
        paths = write_corpus_files(tmp_path / name, sc_rows, journal_rows, citation_rows)
        common = [*corpus_flags(paths), "--counting", "whole", "--format", "json"]
        out = tmp_path / name / "out"
        assert main(["indicators", *common, "--out", str(out)]) == 0
        assert main(["roles", *common, "--focal-sc", focal_sc, "--out", str(out / "journal")]) == 0
        assert main(["roles", *common, "--unit-type", "discipline", "--out", str(out / "discipline")]) == 0
        outputs.append(out)

    [plain, scaled] = [json.loads((out / "indicators.json").read_bytes())["rows"] for out in outputs]
    ratios = ("unit_id", "focal_sc", "dimension", "pct_internal", "H", "Hmax", "pct_hmax", "ebdi",
              "raw_diversity")
    assert [[row[key] for key in ratios] for row in scaled] == [[row[key] for key in ratios] for row in plain]
    assert [row["sum_external"] for row in scaled] == [
        None if row["sum_external"] is None else 7 * row["sum_external"] for row in plain]
    assert any(row["sum_external"] for row in plain)
    for units in ("journal", "discipline"):
        for name in ("roles.json", "roles.meta.json", "scatter.svg"):
            assert (outputs[1] / units / name).read_bytes() == (outputs[0] / units / name).read_bytes()


@pytest.mark.parametrize("mode", CountingMode)
@pytest.mark.parametrize("seed", range(3))
def test_values_are_the_correctly_rounded_exact_sums(seed, mode):
    rng = random.Random(100 + seed)
    sc_rows, journal_rows, rows = random_inputs(rng, n_scs=6, n_journals=40, n_rows=600)
    corpus = load_edges(classification(sc_rows, journal_rows), citations(rows))
    memberships = {journal: scs.split(";") for journal, _, scs in journal_rows}

    def weight(scs) -> Fraction:
        return Fraction(1, len(scs)) if mode is CountingMode.FRACTIONAL else Fraction(1)

    for (unit, focal_sc, dimension), profile in all_profiles(corpus, mode).items():
        exact: dict[str, Fraction] = {}
        for focal, partner, dimension_cell, count in rows:
            in_unit = focal == unit or (unit == focal_sc and focal_sc in memberships[focal])
            partner_scs = memberships[partner]
            if in_unit and dimension_cell.upper() == dimension.value and focal_sc not in partner_scs:
                for sc in partner_scs:
                    exact[sc] = exact.get(sc, 0) + count * weight(partner_scs)
        assert profile.external_counts == {sc: float(value) for sc, value in exact.items() if value}
        if mode is CountingMode.FRACTIONAL:
            assert sum(exact.values()) == profile.external_total

    for dimension, (network, denominator) in networks(corpus, mode).items():
        exact_network: dict[tuple[str, str], Fraction] = {}
        for focal, partner, dimension_cell, count in rows:
            if dimension_cell.upper() != dimension.value:
                continue
            share = count * weight(memberships[focal]) * weight(memberships[partner])
            for source in memberships[focal]:
                for target in memberships[partner]:
                    exact_network[(source, target)] = exact_network.get((source, target), 0) + share
        assert all(type(share) is int for share in network.values())
        assert {pair: Fraction(share, denominator) for pair, share in network.items()} == {
            pair: value for pair, value in exact_network.items() if value
        }


def test_second_load_leaves_the_input_corpus_unchanged():
    rng = random.Random(3)
    sc_rows, journal_rows, rows = random_inputs(rng, n_scs=5, n_journals=30, n_rows=300)
    corpus = load_edges(classification(sc_rows, journal_rows), citations(rows[:150]))
    before_citations = copy.deepcopy(corpus.citations)
    before_profiles = all_profiles(corpus)

    merged = load_edges(corpus, citations(rows[150:]))

    assert merged.citations != before_citations
    assert corpus.citations == before_citations
    assert all_profiles(corpus) == before_profiles


def test_a_second_file_rebuilds_only_the_maps_it_touches():
    rng = random.Random(5)
    sc_rows, journal_rows, rows = random_inputs(rng, n_scs=5, n_journals=30, n_rows=60)
    corpus = load_edges(classification(sc_rows, journal_rows), citations(rows))
    before = copy.deepcopy(corpus.citations)
    touched = next(key for key in corpus.citations if key[1] is Dimension.CITED)
    new_key = next((j, Dimension.CITING) for j in corpus.journals
                   if (j, Dimension.CITING) not in corpus.citations)
    partner = "J0000"

    new_rows = [(touched[0], partner, "CITED", 4), (new_key[0], partner, "citing", 0)]
    merged = load_edges(corpus, citations(new_rows))

    assert list(merged.citations) == list(corpus.citations) + [new_key]  # key order kept
    for key, partners in corpus.citations.items():
        if key != touched:
            assert merged.citations[key] is partners
    assert merged.citations[touched] is not corpus.citations[touched]
    assert merged.citations[touched] == {**before[touched], partner: before[touched].get(partner, 0) + 4}
    assert merged.citations[new_key] == {partner: 0}
    assert corpus.citations == before


class Unreadable(dict):
    """A partner map whose every read fails the test."""

    def _refuse(self, *args, **kwargs):
        raise AssertionError("the merge read a map the file does not touch")

    __iter__ = __len__ = __getitem__ = __contains__ = get = keys = values = items = copy = _refuse


def test_a_merge_reads_no_untouched_map(caplog):
    rng = random.Random(7)
    sc_rows, journal_rows, rows = random_inputs(rng, n_scs=5, n_journals=30, n_rows=60)
    corpus = load_edges(classification(sc_rows, journal_rows), citations(rows))
    touched, *others = corpus.citations
    for key in others:
        corpus.citations[key] = Unreadable(corpus.citations[key])
    before = dict(corpus.citations[touched])

    with caplog.at_level(logging.INFO, logger="ebdi.corpus"):
        merged = load_edges(corpus, citations([(touched[0], "J0000", touched[1].value, 2)]))

    assert list(merged.citations) == [touched, *others]
    assert all(merged.citations[key] is corpus.citations[key] for key in others)
    assert merged.citations[touched] == {**before, "J0000": before.get("J0000", 0) + 2}
    assert "merged 1 citation rows into 1 (journal, dimension) maps" in caplog.text


def test_citations_hold_every_merged_count():
    corpus = load_edges(
        classification([("A", "A", "")], [("J1", "One", "A"), ("J2", "Two", "A")]),
        citations([("J2", "J1", "CITED", 2), ("J1", "J2", "CITING", 0), ("J1", "J2", "CITED", 1),
                   ("J2", "J1", "CITED", 3)]),
    )
    assert corpus.citations == {
        ("J1", Dimension.CITED): {"J2": 1},
        ("J1", Dimension.CITING): {"J2": 0},
        ("J2", Dimension.CITED): {"J1": 5},
    }
    assert corpus.edge_count == 3


def test_load_corpus_runs_the_corpus_checks_once(tmp_path, monkeypatch):
    """The classification is checked as a ``Corpus``; the citations only row by row."""
    rng = random.Random(5)
    paths = write_corpus_files(tmp_path, *random_inputs(rng, n_scs=4, n_journals=20, n_rows=200))
    checks = []
    check = Corpus.__init__

    def counted(self, *args, **kwargs):
        checks.append(args or kwargs)
        check(self, *args, **kwargs)

    monkeypatch.setattr(Corpus, "__init__", counted)
    corpus = load_corpus(paths["classification"], paths["journals"], paths["citations"])
    assert len(checks) == 1
    assert corpus.edge_count > 0


PAD = st.sampled_from(["", "", " ", "\t", "  "])
JOURNAL_CELLS = st.sampled_from(["J1", "J2", "J3", "J4", "J5"])
DIMENSION_CELLS = st.sampled_from(["CITED", "CITING", "cited", "Citing"])
COUNT_CELLS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.builds(lambda zeros, count: "0" * zeros + str(count), st.integers(1, 16), st.integers(0, 999)),
    st.sampled_from([str(10**15 - 1), str(10**15), str(2**53)]),
)
#: rows the load must refuse, one of which may join a file's valid rows
BAD_ROWS = st.sampled_from([("j1", "J1", "CITED", "1"), ("J1", "J6", "CITED", "1"),
                            ("J1", "J2", "SIDEWAYS", "1"), ("J1", "J2", "CITED", "-3"),
                            ("J1", "J2", "CITED", str(2**53 + 1))])


@st.composite
def citation_file(draw) -> str:
    """A citation file in a drawn column order: cells padded, lower-case, zero-led, up to 16 digits."""
    header = draw(st.permutations(CITATION_FIELDS))
    rows = draw(st.lists(st.tuples(JOURNAL_CELLS, JOURNAL_CELLS, DIMENSION_CELLS, COUNT_CELLS), max_size=12))
    bad = draw(st.none() | BAD_ROWS)
    if bad:
        rows.insert(draw(st.integers(0, len(rows))), bad)
    lines = [",".join(header)]
    for cells in rows:
        by_name = {name: draw(PAD) + cell + draw(PAD) for name, cell in zip(CITATION_FIELDS, cells)}
        lines.append(",".join(by_name[name] for name in header))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(files=st.lists(citation_file(), min_size=1, max_size=2))
def test_every_accepted_load_passes_the_corpus_checks(files):
    """``load_edges`` skips the ``Corpus`` checks: its row checks leave nothing for them to refuse."""
    loaded = classification(
        [("A", "A", ""), ("B", "B", ""), ("C", "C", "")],
        [("J1", "", "A"), ("J2", "", "A;B"), ("J3", "", "C"), ("J4", "", "B;C"), ("J5", "", "A;B;C")],
    )
    try:
        for text in files:  # a second file merges into the first
            loaded = load_edges(loaded, io.StringIO(text))
    except LoadError:
        return
    fields = (loaded.sc_registry, loaded.journals, loaded.citations, loaded.n_categories)
    rebuilt = Corpus(*fields)
    assert (rebuilt.sc_registry, rebuilt.journals, rebuilt.citations, rebuilt.n_categories) == fields


def test_load_edges_memory_per_merged_edge(tmp_path):
    """At most 150 B retained and 200 B at the peak of ``load_edges`` per merged edge.

    20,000 rows over 3,000 journals, about 3.4 partners per (journal,
    dimension), the density of the benchmark's indicators-all corpus. The
    partner maps measure about 88 B retained and 95 B peak per edge here
    (Python 3.11). A frozen dataclass per edge, behind a merge dict, a sort
    list and an edge tuple alive at once, measured 234 B and 388 B, so this
    bound fails for that design. The cost per edge of the maps falls as they
    fill up and rises as they empty: about 45 B at 10 partners per map, about
    180 B at 1.6.
    """
    rng = random.Random(2024)
    sc_rows = [(f"S{i}", f"S{i}", "") for i in range(20)]
    journals = [f"J{i:05d}" for i in range(3000)]
    journal_rows = [(j, j, ";".join(rng.sample([sc for sc, _, _ in sc_rows], rng.randint(1, 3))))
                    for j in journals]
    rows = [(rng.choice(journals), rng.choice(journals), rng.choice(("CITED", "CITING")),
             1 + int(rng.expovariate(1 / 6))) for _ in range(20_000)]
    paths = write_corpus_files(tmp_path, sc_rows, journal_rows, rows)
    partial = load_classification(paths["classification"], paths["journals"])

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loaded = load_edges(partial, paths["citations"])
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    edges = loaded.edge_count
    assert edges > 19_000
    assert (current - base) / edges <= 150
    assert (peak - base) / edges <= 200
    # a first load builds one key index: a second would be its own size on top at the peak
    assert peak - current < sys.getsizeof(loaded.citations)
