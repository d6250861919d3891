"""Shared fixtures: in-memory corpus construction from CSV-shaped rows."""

from __future__ import annotations

import io

import pytest
from hypothesis import settings

from ebdi import Corpus, load_edges
from ebdi.corpus import load_classification

settings.register_profile("default", deadline=None)
settings.load_profile("default")


def csv_text(header: str, rows) -> str:
    lines = [header]
    for row in rows:
        lines.append(",".join(str(cell) for cell in row))
    return "\n".join(lines) + "\n"


def make_corpus(sc_rows, journal_rows, citation_rows, n_categories=None) -> Corpus:
    """Build a corpus from row tuples without touching the filesystem.

    sc_rows: (sc_id, name, branch); journal_rows: (journal_id, title,
    "SC1;SC2"); citation_rows: (focal, partner, dimension, count).
    """
    sc_file = io.StringIO(csv_text("sc_id,name,branch", sc_rows))
    journal_file = io.StringIO(csv_text("journal_id,title,sc_memberships", journal_rows))
    citation_file = io.StringIO(
        csv_text("focal_journal_id,partner_journal_id,dimension,count", citation_rows)
    )
    partial = load_classification(sc_file, journal_file, n_categories=n_categories)
    return load_edges(partial, citation_file)


def write_corpus_files(tmp_path, sc_rows, journal_rows, citation_rows):
    """Write the three corpus CSVs under tmp_path; returns their paths."""
    paths = {
        "classification": tmp_path / "subject_categories.csv",
        "journals": tmp_path / "journals.csv",
        "citations": tmp_path / "citations.csv",
    }
    paths["classification"].write_text(csv_text("sc_id,name,branch", sc_rows), encoding="utf-8")
    paths["journals"].write_text(
        csv_text("journal_id,title,sc_memberships", journal_rows), encoding="utf-8"
    )
    paths["citations"].write_text(
        csv_text("focal_journal_id,partner_journal_id,dimension,count", citation_rows),
        encoding="utf-8",
    )
    return paths


@pytest.fixture
def small_corpus() -> Corpus:
    """Three SCs, four journals, a handful of edges in both dimensions."""
    return make_corpus(
        sc_rows=[("F", "Focal Field", ""), ("A", "Field A", ""), ("B", "Field B", "")],
        journal_rows=[
            ("U", "Unit Journal", "F"),
            ("JS", "Same Field Journal", "F"),
            ("JA", "A Journal", "A"),
            ("JAB", "AB Journal", "A;B"),
        ],
        citation_rows=[
            ("U", "JS", "CITED", 6),
            ("U", "JA", "CITED", 4),
            ("U", "JAB", "CITED", 2),
            ("U", "JS", "CITING", 3),
            ("U", "JA", "CITING", 1),
        ],
    )
