"""Loading, validation, and internal/external resolution."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from ebdi import (
    Corpus,
    Dimension,
    Journal,
    LoadError,
    SubjectCategory,
    ValidationError,
    is_internal,
    load_edges,
)
from conftest import make_corpus


class TestLoadClassification:
    def test_minimal_corpus(self):
        corpus = make_corpus(
            sc_rows=[("LIS", "Info Science", "social"), ("GEO", "Geography", "")],
            journal_rows=[("J1", "Journal One", "LIS;GEO")],
            citation_rows=[],
        )
        assert corpus.n_categories == 2
        assert len(corpus.journals) == 1
        assert corpus.journals["J1"].sc_memberships == {"LIS", "GEO"}
        assert corpus.sc_registry["GEO"].branch is None
        assert corpus.sc_registry["LIS"].branch == "social"

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


class TestLoadEdges:
    def test_duplicate_rows_summed(self):
        corpus = make_corpus(
            sc_rows=[("A", "A", "")],
            journal_rows=[("J1", "One", "A"), ("J2", "Two", "A")],
            citation_rows=[("J1", "J2", "CITED", 3), ("J1", "J2", "CITED", 4)],
        )
        assert len(corpus.edges) == 1
        assert corpus.edges[0].count == 7

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
        assert corpus.edges == ()
        assert corpus.total_citations() == 0

    def test_unknown_journal_endpoint(self):
        with pytest.raises(LoadError, match="unknown journal id 'JX'"):
            make_corpus(
                sc_rows=[("A", "A", "")],
                journal_rows=[("J1", "One", "A")],
                citation_rows=[("J1", "JX", "CITED", 2)],
            )

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
        assert {edge.dimension for edge in corpus.edges} == {Dimension.CITED, Dimension.CITING}

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
        assert len(merged.edges) == 1
        assert merged.edges[0].count == 7

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
                reference = corpus.edges
            assert corpus.edges == reference


class TestCorpusIntegrity:
    def test_edge_to_unknown_journal_rejected(self):
        sc = {"A": SubjectCategory("A", "A")}
        journals = {"J1": Journal("J1", "One", frozenset({"A"}))}
        bad_citations = {("J1", Dimension.CITED): {"JX": 1}}
        with pytest.raises(ValidationError, match="unknown journal 'JX'"):
            Corpus(sc_registry=sc, journals=journals, citations=bad_citations, n_categories=1)

    def test_membership_to_unknown_sc_rejected(self):
        sc = {"A": SubjectCategory("A", "A")}
        journals = {"J1": Journal("J1", "One", frozenset({"A", "Z"}))}
        with pytest.raises(ValidationError, match="unknown sc_id 'Z'"):
            Corpus(sc_registry=sc, journals=journals, citations={}, n_categories=2)

    def test_negative_count_rejected(self):
        sc = {"A": SubjectCategory("A", "A")}
        journals = {"J1": Journal("J1", "One", frozenset({"A"}))}
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
    sc = {s: SubjectCategory(s, s) for s in "ABCD"}
    journals = {"P": Journal("P", "Partner", frozenset(memberships))}
    corpus = Corpus(sc_registry=sc, journals=journals, citations={}, n_categories=4)
    assert is_internal(corpus, "P", focal) == (focal in memberships)
