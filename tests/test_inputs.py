"""The strict input boundary shared by all five input files.

Every malformed input ends in exit 1 with a ``file:line`` message, never in a
traceback. The CLI cases run ``correlate``, which reads the three corpus files
and the metrics file, or the scores file and the metrics file.
"""

from __future__ import annotations

import io
import logging
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ebdi import Dimension, LoadError, load_corpus
from ebdi.stats import load_metric_series
from ebdi.cli import main
from conftest import make_corpus
from oracle import series_values

SAMPLE = Path(__file__).resolve().parent.parent / "sample_data"
SAMPLE_FILES = {
    "classification": "subject_categories.csv",
    "journals": "journals.csv",
    "citations": "citations.csv",
    "metrics": "metrics.csv",
}
INPUTS = (*SAMPLE_FILES, "scores")
SCORES = "unit_id,cited_ebdi,citing_ebdi\nJINF,10.5,20\nQMIS,30,\nARIS,40,50\nISJX,0,100\n"


def sample_inputs(tmp_path: Path) -> dict[str, Path]:
    """Copies of the sample corpus and metrics, plus a valid scores file."""
    paths = {}
    for flag, name in SAMPLE_FILES.items():
        paths[flag] = tmp_path / name
        shutil.copyfile(SAMPLE / name, paths[flag])
    paths["scores"] = tmp_path / "scores.csv"
    paths["scores"].write_text(SCORES, encoding="utf-8")
    return paths


def correlate_argv(paths: dict[str, Path], which: str, out: Path) -> list[str]:
    """A correlate run that reads input ``which`` and the metrics file."""
    if which == "scores":
        inputs = ["--scores", str(paths["scores"])]
    else:
        inputs = [arg for flag in ("classification", "journals", "citations")
                  for arg in (f"--{flag}", str(paths[flag]))]
        inputs += ["--focal-sc", "LIS"]
    return ["correlate", *inputs, "--metrics", str(paths["metrics"]), "--out", str(out)]


def valid_text(which: str) -> str:
    return SCORES if which == "scores" else (SAMPLE / SAMPLE_FILES[which]).read_text(encoding="utf-8")


def run_with(tmp_path, caplog, which: str, content: bytes | str) -> tuple[int, Path, str]:
    """Replace input ``which`` by ``content`` and run; (exit code, its path, error log)."""
    paths = sample_inputs(tmp_path)
    data = content.encode("utf-8") if isinstance(content, str) else content
    paths[which].write_bytes(data)
    caplog.clear()
    with caplog.at_level(logging.ERROR):
        code = main(correlate_argv(paths, which, tmp_path / "out"))
    return code, paths[which], caplog.text


def test_sample_inputs_are_valid(tmp_path):
    paths = sample_inputs(tmp_path)
    for which in INPUTS:
        assert main(correlate_argv(paths, which, tmp_path / which)) == 0


@pytest.mark.parametrize("which", INPUTS)
def test_undecodable_byte_names_its_line(tmp_path, caplog, which):
    rows = valid_text(which).encode("utf-8").splitlines(keepends=True)
    rows[2] = b"\xff" + rows[2]
    code, path, log = run_with(tmp_path, caplog, which, b"".join(rows))
    assert code == 1
    assert f"{path}:3: " in log and "UTF-8" in log


def test_undecodable_byte_past_the_first_read_block_names_its_line(tmp_path, caplog):
    header, *body = valid_text("citations").encode("utf-8").splitlines(keepends=True)
    rows = [header, *body * 100]  # repeated rows are summed, so the file stays valid
    rows[1999] = b"\xff" + rows[1999]
    code, path, log = run_with(tmp_path, caplog, "citations", b"".join(rows))
    assert code == 1
    assert f"{path}:2000: " in log


@pytest.mark.parametrize("which", INPUTS)
def test_oversized_cell_names_its_line(tmp_path, caplog, which):
    rows = valid_text(which).splitlines(keepends=True)
    rows[1] = "x" * 140_000 + rows[1]
    code, path, log = run_with(tmp_path, caplog, which, "".join(rows))
    assert code == 1
    assert f"{path}:2: " in log


@pytest.mark.parametrize("which", INPUTS)
def test_unopenable_input_exits_1(tmp_path, caplog, which):
    paths = sample_inputs(tmp_path)
    for target in (tmp_path / "absent.csv", tmp_path):
        paths[which] = target
        caplog.clear()
        with caplog.at_level(logging.ERROR):
            assert main(correlate_argv(paths, which, tmp_path / "out")) == 1
        assert f"{target}: cannot open file" in caplog.text


@pytest.mark.parametrize(
    "content, line, message",
    [
        ("unit_id,cited_ebdi,citing_ebdi\nA,1,2\nB,inf,2\n", 3, "non-finite cited_ebdi value 'inf'"),
        ("unit_id,cited_ebdi,citing_ebdi\nA,1,nan\n", 2, "non-finite citing_ebdi value 'nan'"),
        ("unit_id,cited_ebdi,citing_ebdi\nA,-3,2\n", 2, "cited_ebdi value '-3' outside [0, 100]"),
        ("unit_id,cited_ebdi,citing_ebdi\nA,1,300\n", 2, "citing_ebdi value '300' outside [0, 100]"),
        ("unit_id,cited_ebdi,citing_ebdi\nA,1_0,2\n", 2, "invalid cited_ebdi value '1_0'"),
        ("unit_id,cited_ebdi,citing_ebdi\nA,1,2,3\n", 2, "row has more cells than the header"),
        ("unit_id,cited_ebdi\nA,1\n", 1, "missing required column(s): citing_ebdi"),
        ("unit_id,cited_ebdi,citing_ebdi,cited_ebdi\nA,1,2,3\n", 1, "repeated column(s): cited_ebdi"),
        ("unit_id,cited_ebdi,citing_ebdi\nA,1,2\nA,2,1\n", 3, "duplicate unit_id 'A'"),
    ],
)
def test_bad_scores_name_file_and_line(tmp_path, caplog, content, line, message):
    code, path, log = run_with(tmp_path, caplog, "scores", content)
    assert code == 1
    assert f"{path}:{line}: {message}" in log


def test_scores_bounds_are_inclusive(tmp_path, caplog):
    code, _, _ = run_with(tmp_path, caplog, "scores", "unit_id,cited_ebdi,citing_ebdi\n"
                          "JINF,0,100\nQMIS,100,0\nARIS,0.0,1e2\n")
    assert code == 0


def test_spaced_scores_header_keeps_values(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text(" unit_id, cited_ebdi, citing_ebdi\na,1.0,2.0\nb,2.0,1.0\nc,0.5,0.7\n",
                      encoding="utf-8")
    assert main(["roles", "--scores", str(scores), "--out", str(tmp_path / "out")]) == 0
    assert "UNCLASSIFIED" not in (tmp_path / "out" / "roles.csv").read_text()


@pytest.mark.parametrize(
    "count, expected",
    [("0", 0), ("007", 7), (str(2**53), 2**53),
     pytest.param("0" * 5000 + "3", 3, id="5000-leading-zeros")],
)
def test_count_accepted(count, expected):
    corpus = make_corpus(
        sc_rows=[("A", "A", "")],
        journal_rows=[("J1", "One", "A"), ("J2", "Two", "A")],
        citation_rows=[("J1", "J2", "CITED", count)],
    )
    assert corpus.citations == {("J1", Dimension.CITED): {"J2": expected}}


@pytest.mark.parametrize(
    "count, message",
    [
        ("1_0", "invalid count '1_0'"),
        ("١٢", "invalid count '١٢'"),
        ("+5", "invalid count '+5'"),
        ("2.0", "invalid count '2.0'"),
        ("", "invalid count ''"),
        (str(2**53 + 1), "count exceeds 2**53"),
        pytest.param("1" + "0" * 400, "count exceeds 2**53", id="10**400"),
    ],
)
def test_count_rejected(count, message):
    with pytest.raises(LoadError, match=re.escape(f"<stream>:2: {message}")):
        make_corpus(
            sc_rows=[("A", "A", "")],
            journal_rows=[("J1", "One", "A"), ("J2", "Two", "A")],
            citation_rows=[("J1", "J2", "CITED", count)],
        )


def test_huge_count_exits_1(tmp_path, caplog):
    text = valid_text("citations").replace(",120\n", "," + "1" + "0" * 400 + "\n", 1)
    code, path, log = run_with(tmp_path, caplog, "citations", text)
    assert code == 1
    assert f"{path}:2: count exceeds 2**53" in log


def test_row_fast_path_agrees_with_the_strict_parsers(tmp_path):
    """Cells the per-row fast path takes and cells it hands to the strict parsers load alike."""
    header = "focal_journal_id,partner_journal_id,dimension,count\n"
    messy = tmp_path / "messy.csv"
    messy.write_text(header + "".join(f"{row}\n" for row in (
        " JINF , QMIS ,CITED, 007",
        "JINF,QMIS,cited,0000000000000042",
        "QMIS,JINF, Citing ,999999999999999",
        "ARIS,JINF,CITING,1000000000000000",
        f"ARIS,QMIS,CITED,{2**53}",
        "ISJX,ARIS,citing,0",
    )), encoding="utf-8")
    clean = tmp_path / "clean.csv"
    clean.write_text(header + "".join(f"{row}\n" for row in (
        "JINF,QMIS,CITED,49",
        f"QMIS,JINF,CITING,{10**15 - 1}",
        f"ARIS,JINF,CITING,{10**15}",
        f"ARIS,QMIS,CITED,{2**53}",
        "ISJX,ARIS,CITING,0",
    )), encoding="utf-8")
    registry = [SAMPLE / "subject_categories.csv", SAMPLE / "journals.csv"]
    assert load_corpus(*registry, messy).citations == load_corpus(*registry, clean).citations

    messy.write_text(header + "JINF,QMIS,CITED,7\nJINF,QMIS,CITED,9999999999999999\n", encoding="utf-8")
    with pytest.raises(LoadError, match=re.escape(f"{messy}:3: count exceeds 2**53")):
        load_corpus(*registry, messy)


CITATION_HEADER = ("focal_journal_id", "partner_journal_id", "dimension", "count")
#: valid rows: some the raw-row load takes as they are, some it hands to the strict parsers
GOOD_CITATIONS = [
    ("JINF", "QMIS", "CITED", "120"),
    ("JINF", "ARIS", "cited", "007"),
    ("QMIS", "JINF", "CITING", "0"),
    ("ARIS", "JINF", "CITING", "1000000000000000"),
    ("ISJX", "ARIS", "CITED", str(2**53)),
    ("JINF", "QMIS", "CITED", "3"),
]
#: one bad row each, and the start of the message it gets
BAD_CITATIONS = [
    (("NOPE", "QMIS", "CITED", "1"), "unknown journal id 'NOPE'"),
    (("JINF", "NOPE", "CITED", "1"), "unknown journal id 'NOPE'"),
    (("JINF", "QMIS", "SIDEWAYS", "1"), "unparseable dimension 'SIDEWAYS'"),
    (("JINF", "QMIS", "cıted", "1"), "unparseable dimension 'cıted'"),  # U+0131 upper-cases to I
    (("JINF", "QMIS", "CITED", "-3"), "negative citation count"),
    (("JINF", "QMIS", "CITED", "1 2"), "invalid count '1 2'"),
    (("JINF", "QMIS", "CITED", str(2**53 + 1)), "count exceeds 2**53"),
    (("JINF", "QMIS", "CITED", ""), "invalid count ''"),
    (("JINF", "QMIS", "", ""), "unparseable dimension ''"),
]


def citation_text(lines, newline="\n") -> str:
    return "".join(",".join(cells) + newline for cells in lines)


#: the citation file (header line first) in each layout the loader must read like the clean one
CITATION_LAYOUTS = {
    "trailing empty cell": lambda lines: citation_text([lines[0], *((*row, "") for row in lines[1:])]),
    "short row": lambda lines: "".join(",".join(row).rstrip(",") + "\n" for row in lines),
    "quoted cells": lambda lines: citation_text([[f'"{cell}"' for cell in row] for row in lines]),
    "padded cells": lambda lines: citation_text([[f" {cell}\t" for cell in row] for row in lines]),
    "permuted header": lambda lines: citation_text([row[::-1] for row in lines]),
    "extra column": lambda lines: citation_text([(*lines[0], "note"), *((*row, '"x, y"') for row in lines[1:])]),
    "BOM": lambda lines: "\ufeff" + citation_text(lines),
    "CRLF": lambda lines: citation_text(lines, "\r\n"),
}


@pytest.mark.parametrize("layout", CITATION_LAYOUTS)
def test_raw_row_load_reads_every_layout_like_a_clean_twin(tmp_path, layout):
    """Rows the raw-row load takes and rows it strips load alike, and fail alike."""
    registry = [SAMPLE / "subject_categories.csv", SAMPLE / "journals.csv"]
    path = tmp_path / "citations.csv"

    def load(text):
        path.write_text(text, encoding="utf-8", newline="")
        return load_corpus(*registry, path)

    lines = [CITATION_HEADER, *GOOD_CITATIONS]
    clean, twin = load(citation_text(lines)), load(CITATION_LAYOUTS[layout](lines))
    assert clean.citations == twin.citations
    assert [(key, list(partners)) for key, partners in clean.citations.items()] == [
        (key, list(partners)) for key, partners in twin.citations.items()
    ]
    for bad, message in BAD_CITATIONS:
        lines = [CITATION_HEADER, *GOOD_CITATIONS[:3], bad, *GOOD_CITATIONS[3:]]
        errors = []
        for text in (citation_text(lines), CITATION_LAYOUTS[layout](lines)):
            with pytest.raises(LoadError) as caught:
                load(text)
            errors.append(str(caught.value))
        assert errors[0].startswith(f"{path}:5: {message}")
        assert errors[1] == errors[0]


@pytest.mark.parametrize("value", ["1_0", "١٢", "nan", "-inf", "1e999", "0x10"])
def test_metric_value_must_be_a_finite_decimal(value):
    text = f"journal_id,metric_name,value\nJ1,impact,{value}\n"
    with pytest.raises(LoadError, match=r"<stream>:2: (invalid|non-finite) value"):
        load_metric_series(io.StringIO(text))


def test_spaced_metric_header_reads_rows():
    text = " journal_id, metric_name, value\nJ1,impact,2.5\n"
    [series] = load_metric_series(io.StringIO(text))
    assert series_values(series) == {"J1": 2.5}


def test_bom_and_blank_lines_are_ignored():
    text = "\ufeffjournal_id,metric_name,value\n\nJ1,impact,2.5\n\n"
    [series] = load_metric_series(io.StringIO(text))
    assert series_values(series) == {"J1": 2.5}


@pytest.mark.parametrize("membership", ["MGMT", "LIS"])
def test_journal_id_that_is_an_sc_id_exits_1(tmp_path, caplog, membership):
    """A unit id names a journal or a discipline, never both.

    Before this was rejected, a journal ``MGMT`` shadowed the discipline MGMT:
    with membership MGMT, ``roles --unit-type discipline`` reported that one
    journal's profile as the discipline's; with membership LIS, the run
    failed on "focal SC 'MGMT' is not among the memberships of journal 'MGMT'".
    """
    paths = sample_inputs(tmp_path)
    with paths["journals"].open("a", encoding="utf-8") as handle:
        handle.write(f"MGMT,Shadow of a discipline,{membership}\n")
    with paths["citations"].open("a", encoding="utf-8") as handle:
        handle.write("MGMT,JINF,CITED,5\n")
    argv = ["roles", "--unit-type", "discipline", "--out", str(tmp_path / "out"),
            *(arg for flag in ("classification", "journals", "citations")
              for arg in (f"--{flag}", str(paths[flag])))]
    with caplog.at_level(logging.ERROR):
        assert main(argv) == 1
    assert f"{paths['journals']}:10: journal_id 'MGMT' is also an sc_id" in caplog.text


def test_out_naming_a_file_exits_1(tmp_path, caplog):
    paths = sample_inputs(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    with caplog.at_level(logging.ERROR):
        assert main(correlate_argv(paths, "metrics", taken)) == 1
    assert str(taken) in caplog.text


@st.composite
def damaged(draw, valid: bytes) -> bytes:
    """``valid`` with one short slice replaced by arbitrary bytes."""
    start = draw(st.integers(0, len(valid)))
    end = draw(st.integers(start, min(len(valid), start + 40)))
    return valid[:start] + draw(st.binary(max_size=40)) + valid[end:]


@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_bytes_in_any_input_exit_0_or_1(tmp_path, data):
    which = data.draw(st.sampled_from(INPUTS), label="input")
    paths = sample_inputs(tmp_path)
    valid = paths[which].read_bytes()
    paths[which].write_bytes(data.draw(st.one_of(st.binary(max_size=200), damaged(valid)),
                                       label="content"))
    assert main(correlate_argv(paths, which, tmp_path / "out")) in (0, 1)
