"""Loading, validation, and internal/external resolution."""

from __future__ import annotations

import gc
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ebdi import Corpus, Dimension, LoadError, ValidationError, load_corpus, load_edges
from ebdi.corpus import load_classification
from conftest import csv_text, make_corpus, write_corpus_files
from oracle import is_internal

SRC = Path(__file__).resolve().parent.parent / "src"


class TestLoadClassification:
    def test_minimal_corpus(self):
        corpus = make_corpus(
            sc_rows=[("LIS", "Info Science", "social"), ("GEO", "Geography", "")],
            journal_rows=[("J1", "Journal One", "LIS;GEO")],
            citation_rows=[],
        )
        assert corpus.n_categories == 2
        assert len(corpus.journals) == 1
        assert corpus.journals["J1"] == ("GEO", "LIS")
        assert corpus.sc_registry == {"GEO", "LIS"}

    def test_journal_without_sc(self):
        with pytest.raises(LoadError, match="journal without SC"):
            make_corpus(
                sc_rows=[("LIS", "Info Science", "")],
                journal_rows=[("J1", "Journal One", "")],
                citation_rows=[],
            )

    def test_unknown_membership_named_in_error(self):
        with pytest.raises(LoadError, match="'XX'"):
            make_corpus(
                sc_rows=[("LIS", "Info Science", "")],
                journal_rows=[("J1", "Journal One", "XX")],
                citation_rows=[],
            )

    def test_duplicate_sc_id(self):
        with pytest.raises(LoadError, match="duplicate sc_id"):
            make_corpus(
                sc_rows=[("LIS", "Info Science", ""), ("LIS", "Again", "")],
                journal_rows=[],
                citation_rows=[],
            )

    def test_duplicate_journal_id(self):
        with pytest.raises(LoadError, match="duplicate journal_id"):
            make_corpus(
                sc_rows=[("LIS", "Info Science", "")],
                journal_rows=[("J1", "One", "LIS"), ("J1", "Two", "LIS")],
                citation_rows=[],
            )

    def test_duplicate_membership_token(self):
        with pytest.raises(LoadError, match="duplicate SC membership"):
            make_corpus(
                sc_rows=[("LIS", "Info Science", "")],
                journal_rows=[("J1", "One", "LIS;LIS")],
                citation_rows=[],
            )

    def test_empty_sc_name_rejected(self):
        with pytest.raises(LoadError, match="non-empty"):
            make_corpus(sc_rows=[("LIS", "", "")], journal_rows=[], citation_rows=[])

    def test_header_only_sc_file_named(self, tmp_path):
        paths = write_corpus_files(tmp_path, sc_rows=[], journal_rows=[], citation_rows=[])
        with pytest.raises(LoadError) as caught:
            load_corpus(paths["classification"], paths["journals"], paths["citations"])
        assert str(caught.value) == f"{paths['classification']}: no subject categories"

    def test_header_only_journal_file_named(self, tmp_path):
        """A valid classification with no journals would score nothing and still exit 0."""
        paths = write_corpus_files(
            tmp_path, sc_rows=[("A", "A", ""), ("B", "B", "")], journal_rows=[], citation_rows=[],
        )
        with pytest.raises(LoadError) as caught:
            load_corpus(paths["classification"], paths["journals"], paths["citations"])
        assert str(caught.value) == f"{paths['journals']}: no journals"

    def test_sc_id_with_semicolon_rejected(self, tmp_path):
        """Memberships split on ';', so no journal could name such an SC, yet it would count in n."""
        paths = write_corpus_files(
            tmp_path,
            sc_rows=[("A", "A", ""), ("B;C", "B and C", "")],
            journal_rows=[("J1", "One", "A")],
            citation_rows=[],
        )
        with pytest.raises(LoadError) as caught:
            load_corpus(paths["classification"], paths["journals"], paths["citations"])
        assert str(caught.value).startswith(f"{paths['classification']}:3: ")
        assert "';'" in str(caught.value)

    def test_error_reports_line_number(self):
        with pytest.raises(LoadError, match=":3:"):
            make_corpus(
                sc_rows=[("LIS", "Info Science", "")],
                journal_rows=[("J1", "One", "LIS"), ("J2", "Two", "")],
                citation_rows=[],
            )

    def test_n_categories_override(self):
        corpus = make_corpus(
            sc_rows=[("A", "A", ""), ("B", "B", "")],
            journal_rows=[("J1", "One", "A")],
            citation_rows=[],
            n_categories=50,
        )
        assert corpus.n_categories == 50

    def test_n_categories_below_used_scs_rejected(self):
        with pytest.raises(ValidationError, match="below"):
            make_corpus(
                sc_rows=[("A", "A", ""), ("B", "B", ""), ("C", "C", "")],
                journal_rows=[("J1", "One", "A;B;C")],
                citation_rows=[],
                n_categories=2,
            )


class TestRegistryMemory:
    """Journals share their SC strings with the SC registry, and equal membership sets."""

    def test_equal_membership_sets_are_one_object(self):
        corpus = make_corpus(
            sc_rows=[("LIS", "Info Science", ""), ("GEO", "Geography", "")],
            journal_rows=[("J1", "One", "LIS;GEO"), ("J2", "Two", "GEO; LIS"), ("J3", "Three", "GEO")],
            citation_rows=[],
        )
        journals = corpus.journals
        assert journals["J1"] is journals["J2"]
        assert journals["J3"] == ("GEO",)

    def test_membership_strings_are_the_registry_keys(self):
        corpus = make_corpus(
            sc_rows=[("LIS", "Info Science", ""), ("GEO", "Geography", "")],
            journal_rows=[("J1", "One", "LIS;GEO"), ("J2", "Two", " GEO ")],
            citation_rows=[],
        )
        registry = {sc_id: sc_id for sc_id in corpus.sc_registry}
        for scs in corpus.journals.values():
            for sc_id in scs:
                assert sc_id is registry[sc_id]

    def test_load_classification_memory_per_journal(self):
        """At most 400 B retained by ``load_classification`` per journal, on two registries.

        Two registries of 5,000 journals over 250 SCs: one draws its
        memberships from 200 sets of 1-3 SCs, the other gives each journal its
        own set of 5 SCs. Shared sorted tuples of registry strings, one dict
        entry per journal, measure about 83 and 160 B per journal here
        (Python 3.11).
        A frozenset per distinct set measured 223 and 942 B, because CPython
        gives a frozenset of 5 or more elements a 728 B table, so the second
        registry fails the bound for that design; a fresh frozenset of fresh
        strings per journal, in a journal with a ``__dict__``, measured 585 B
        on the first.
        """
        rng = random.Random(2024)
        scs = [f"SC{i:03d}" for i in range(250)]
        pool = [";".join(rng.sample(scs, rng.randint(1, 3))) for _ in range(200)]
        registries = {
            "pooled 1-3": [(f"J{i:05d}", f"Journal of Topic {i}", rng.choice(pool)) for i in range(5000)],
            "own 5": [(f"J{i:05d}", f"Journal of Topic {i}", ";".join(rng.sample(scs, 5)))
                      for i in range(5000)],
        }
        for label, journal_rows in registries.items():
            sc_file = io.StringIO(csv_text("sc_id,name,branch", [(sc, f"Category {sc}", "") for sc in scs]))
            journal_file = io.StringIO(csv_text("journal_id,title,sc_memberships", journal_rows))

            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                corpus = load_classification(sc_file, journal_file)
                current = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

            assert len(corpus.journals) == 5000
            assert (current - base) / len(corpus.journals) <= 400, label
            del corpus


def corpus_of(journals, scs=frozenset({"BIO", "GEO", "LIS"})):
    return Corpus(sc_registry=scs, journals=journals, citations={}, n_categories=len(scs))


class TestMembershipOrder:
    """A journal's SCs are one sorted tuple, whatever the input order or the hash seed."""

    def test_frozenset_or_unsorted_tuple_rejected(self):
        for scs in (frozenset({"LIS", "GEO", "BIO"}), ("LIS", "BIO"), ["BIO", "GEO"]):
            with pytest.raises(ValidationError, match="SCs of journal 'J1' are not a non-empty, strictly"):
                corpus_of({"J1": scs})

    def test_sorted_tuple_is_kept_as_it_is(self):
        memberships = ("BIO", "GEO")
        assert corpus_of({"J1": memberships}).journals["J1"] is memberships

    def test_repeated_sc_rejected(self):
        with pytest.raises(ValidationError, match="SCs of journal 'J1' are not a non-empty, strictly"):
            corpus_of({"J1": ("GEO", "GEO", "LIS")})

    def test_empty_memberships_rejected(self):
        with pytest.raises(ValidationError, match="SCs of journal 'J1' are not a non-empty, strictly"):
            corpus_of({"J1": ()})

    @pytest.mark.parametrize("journals, scs, message", [
        ({"": ("GEO",)}, frozenset({"GEO"}), "empty journal_id"),
        ({"J1": ("GEO",)}, frozenset({"GEO", ""}), "empty sc_id"),
    ])
    def test_empty_ids_rejected(self, journals, scs, message):
        with pytest.raises(ValidationError, match=message):
            corpus_of(journals, scs)

    def test_order_does_not_depend_on_the_hash_seed(self, tmp_path):
        """Memberships and an external profile's SC order agree under two hash seeds."""
        scs = ["SC001", "SC027", "SC030", "SC033", "SC035"]
        paths = write_corpus_files(
            tmp_path,
            sc_rows=[(sc, f"Category {sc}", "") for sc in scs],
            journal_rows=[("F", "Focal", "SC001"), ("P", "Partner", "SC033;SC027;SC035;SC030")],
            citation_rows=[("F", "P", "CITING", 4)],
        )
        child = (
            "import json, sys\n"
            "from ebdi import Dimension, build_profile, load_corpus\n"
            "corpus = load_corpus(*sys.argv[1:])\n"
            "profile = build_profile(corpus, 'F', 'SC001', Dimension.CITING)\n"
            "print(json.dumps([list(corpus.journals['P']), list(profile.external_counts)]))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        runs = []
        for seed in ("1", "2"):
            env["PYTHONHASHSEED"] = seed
            done = subprocess.run(
                [sys.executable, "-c", child,
                 str(paths["classification"]), str(paths["journals"]), str(paths["citations"])],
                env=env, capture_output=True, text=True, check=True,
            )
            runs.append(json.loads(done.stdout))
        assert runs[0] == runs[1]
        assert runs[0][0] == ["SC027", "SC030", "SC033", "SC035"]


class TestLoadEdges:
    def test_duplicate_rows_summed(self):
        corpus = make_corpus(
            sc_rows=[("A", "A", "")],
            journal_rows=[("J1", "One", "A"), ("J2", "Two", "A")],
            citation_rows=[("J1", "J2", "CITED", 3), ("J1", "J2", "CITED", 4)],
        )
        assert corpus.citations == {("J1", Dimension.CITED): {"J2": 7}}

    def test_negative_count(self):
        with pytest.raises(LoadError, match="negative citation count"):
            make_corpus(
                sc_rows=[("A", "A", "")],
                journal_rows=[("J1", "One", "A"), ("J2", "Two", "A")],
                citation_rows=[("J1", "J2", "CITED", -1)],
            )

    def test_empty_citation_file(self):
        corpus = make_corpus(
            sc_rows=[("A", "A", "")],
            journal_rows=[("J1", "One", "A")],
            citation_rows=[],
        )
        assert corpus.citations == {}

    def test_unknown_journal_endpoint(self):
        with pytest.raises(LoadError, match="unknown journal id 'JX'"):
            make_corpus(
                sc_rows=[("A", "A", "")],
                journal_rows=[("J1", "One", "A")],
                citation_rows=[("J1", "JX", "CITED", 2)],
            )

    @pytest.mark.parametrize("partner", ["J1", "JY"])
    def test_unknown_focal_journal_named_at_its_line(self, tmp_path, partner):
        paths = write_corpus_files(
            tmp_path,
            sc_rows=[("A", "A", "")],
            journal_rows=[("J1", "One", "A")],
            citation_rows=[("J1", "J1", "CITED", 2), ("JX", partner, "CITED", 2)],
        )
        with pytest.raises(LoadError) as caught:
            load_corpus(paths["classification"], paths["journals"], paths["citations"])
        assert str(caught.value) == f"{paths['citations']}:3: unknown journal id 'JX'"

    def test_unparseable_dimension(self):
        with pytest.raises(LoadError, match="unparseable dimension"):
            make_corpus(
                sc_rows=[("A", "A", "")],
                journal_rows=[("J1", "One", "A"), ("J2", "Two", "A")],
                citation_rows=[("J1", "J2", "SIDEWAYS", 2)],
            )

    def test_dimension_case_insensitive(self):
        corpus = make_corpus(
            sc_rows=[("A", "A", "")],
            journal_rows=[("J1", "One", "A"), ("J2", "Two", "A")],
            citation_rows=[("J1", "J2", "cited", 2), ("J2", "J1", "Citing", 1)],
        )
        assert corpus.citations == {("J1", Dimension.CITED): {"J2": 2}, ("J2", Dimension.CITING): {"J1": 1}}

    def test_non_integer_count(self):
        with pytest.raises(LoadError, match="invalid count"):
            make_corpus(
                sc_rows=[("A", "A", "")],
                journal_rows=[("J1", "One", "A"), ("J2", "Two", "A")],
                citation_rows=[("J1", "J2", "CITED", "many")],
            )

    def test_incremental_loads_merge(self):
        import io

        corpus = make_corpus(
            sc_rows=[("A", "A", "")],
            journal_rows=[("J1", "One", "A"), ("J2", "Two", "A")],
            citation_rows=[("J1", "J2", "CITED", 3)],
        )
        second = io.StringIO(
            "focal_journal_id,partner_journal_id,dimension,count\nJ1,J2,CITED,4\n"
        )
        merged = load_edges(corpus, second)
        assert merged.citations == {("J1", Dimension.CITED): {"J2": 7}}

    def test_row_order_independent(self):
        rows = [
            ("J1", "J2", "CITED", 3),
            ("J2", "J1", "CITING", 5),
            ("J1", "J2", "CITED", 4),
            ("J1", "J1", "CITED", 1),
        ]
        reference = None
        rng = random.Random(7)
        for _ in range(10):
            shuffled = rows[:]
            rng.shuffle(shuffled)
            corpus = make_corpus(
                sc_rows=[("A", "A", "")],
                journal_rows=[("J1", "One", "A"), ("J2", "Two", "A")],
                citation_rows=shuffled,
            )
            if reference is None:
                reference = corpus.citations
            assert corpus.citations == reference


class TestCorpusIntegrity:
    def test_edge_to_unknown_journal_rejected(self):
        sc = frozenset({"A"})
        journals = {"J1": ("A",)}
        bad_citations = {("J1", Dimension.CITED): {"JX": 1}}
        with pytest.raises(ValidationError, match="unknown journal 'JX'"):
            Corpus(sc_registry=sc, journals=journals, citations=bad_citations, n_categories=1)

    def test_membership_to_unknown_sc_rejected(self):
        sc = frozenset({"A"})
        journals = {"J1": ("A", "Z")}
        with pytest.raises(ValidationError, match="journal 'J1' references unknown sc_id 'Z'"):
            Corpus(sc_registry=sc, journals=journals, citations={}, n_categories=2)

    def test_journal_id_that_is_an_sc_id_rejected(self):
        """A constructed corpus keeps the loader's rule: a unit id names a journal or an SC, never both.

        Without it, journal A shadows discipline A: ``compute_journal_indicators(corpus, "A", "A")``
        scores the journal (pct_internal 100.0), where the discipline has 1 internal citation of 6.
        """
        cited = Dimension.CITED
        journals = {"A": ("A",), "X": ("A", "B"), "Y": ("B",)}
        citations = {("X", cited): {"Y": 5}, ("A", cited): {"A": 1}}
        with pytest.raises(ValidationError, match="journal_id 'A' is also an sc_id"):
            Corpus(sc_registry=frozenset({"A", "B"}), journals=journals, citations=citations, n_categories=2)

    def test_negative_count_rejected(self):
        sc = frozenset({"A"})
        journals = {"J1": ("A",)}
        citations = {("J1", Dimension.CITING): {"J1": -1}}
        with pytest.raises(ValidationError, match=r"negative citation count in \(J1, CITING\)"):
            Corpus(sc_registry=sc, journals=journals, citations=citations, n_categories=1)

    def test_journals_in_sorted(self):
        corpus = make_corpus(
            sc_rows=[("A", "A", ""), ("B", "B", "")],
            journal_rows=[("J2", "Two", "A"), ("J1", "One", "A;B")],
            citation_rows=[],
        )
        assert corpus.journals_in("A") == ("J1", "J2")
        assert corpus.journals_in("B") == ("J1",)
        assert corpus.journals_in("Z") == ()


class TestIsInternal:
    @pytest.fixture
    def corpus(self):
        return make_corpus(
            sc_rows=[("LIS", "Info Science", ""), ("GEO", "Geography", "")],
            journal_rows=[
                ("JBOTH", "Both", "LIS;GEO"),
                ("JGEO", "Geo Only", "GEO"),
                ("JLIS", "LIS Only", "LIS"),
            ],
            citation_rows=[],
        )

    def test_co_classified_partner_is_internal(self, corpus):
        assert is_internal(corpus, "JBOTH", "LIS") is True

    def test_disjoint_partner_is_external(self, corpus):
        assert is_internal(corpus, "JGEO", "LIS") is False

    def test_single_membership_identity(self, corpus):
        assert is_internal(corpus, "JLIS", "LIS") is True

    def test_unknown_partner(self, corpus):
        with pytest.raises(ValidationError, match="unknown journal"):
            is_internal(corpus, "NOPE", "LIS")


@given(
    memberships=st.sets(st.sampled_from(["A", "B", "C", "D"]), min_size=1),
    focal=st.sampled_from(["A", "B", "C", "D"]),
)
def test_is_internal_is_pure_membership_test(memberships, focal):
    sc = frozenset("ABCD")
    journals = {"P": tuple(sorted(memberships))}
    corpus = Corpus(sc_registry=sc, journals=journals, citations={}, n_categories=4)
    assert is_internal(corpus, "P", focal) == (focal in memberships)
