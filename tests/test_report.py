"""Artifact generation: tables, roles, correlations, network, scatter plot."""

from __future__ import annotations

import csv
import html
import io
import json
import logging
import random
import statistics
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from ebdi import (
    ComputationError, CountingMode, Dimension, ValidationError,
    compute_journal_indicators, load_corpus,
)
import ebdi.metrics as metrics_module
import ebdi.report as report_module
from ebdi.report import (
    CORRELATION_COLUMNS, INDICATOR_COLUMNS, NETWORK_COLUMNS, ROLES_DISCIPLINE_COLUMNS,
    ROLES_JOURNAL_COLUMNS, RunConfig, export_sc_network, run_correlations, run_indicators, run_roles,
)
from ebdi.stats import CorrelationResult
import ebdi.svg as svg_module
from ebdi.svg import _escape, scatter_svg
from conftest import write_corpus_files
from oracle import (
    brute_indicator_rows,
    brute_rank_pearson,
    brute_sc_network,
    exact_sc_network,
    random_corpus_rows,
)
from reference_data import (
    REFERENCE_DISCIPLINE_ROWS,
    WORKED_CITING_EXTERNAL_COUNTS,
    WORKED_CITING_INTERNAL_COUNT,
    WORKED_EXTERNAL_COUNTS,
    WORKED_INTERNAL_COUNT,
    WORKED_N_CATEGORIES,
)

SAMPLE = Path(__file__).resolve().parents[1] / "sample_data"
SAMPLE_PATHS = {
    "classification": SAMPLE / "subject_categories.csv",
    "journals": SAMPLE / "journals.csv",
    "citations": SAMPLE / "citations.csv",
}


def worked_example_files(tmp_path):
    """Corpus whose focal journal reproduces the published two-dimension rows."""
    sc_rows = [("FOCAL", "Focal Field", "")]
    sc_rows += [(f"EXT{i:02d}", f"External {i}", "") for i in range(len(WORKED_EXTERNAL_COUNTS))]
    journal_rows = [("UNIT", "Unit Journal", "FOCAL"), ("SAME", "Same Field", "FOCAL")]
    journal_rows += [
        (f"E{i:02d}", f"External Journal {i}", f"EXT{i:02d}")
        for i in range(len(WORKED_EXTERNAL_COUNTS))
    ]
    citation_rows = [("UNIT", "SAME", "CITED", WORKED_INTERNAL_COUNT)]
    citation_rows += [
        ("UNIT", f"E{i:02d}", "CITED", count) for i, count in enumerate(WORKED_EXTERNAL_COUNTS)
    ]
    citation_rows += [("UNIT", "SAME", "CITING", WORKED_CITING_INTERNAL_COUNT)]
    citation_rows += [
        ("UNIT", f"E{i:02d}", "CITING", count)
        for i, count in enumerate(WORKED_CITING_EXTERNAL_COUNTS)
    ]
    return write_corpus_files(tmp_path, sc_rows, journal_rows, citation_rows)


def read_csv(path):
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def read_json_rows(out_dir, stem="indicators"):
    """The full-precision rows of a JSON table artifact."""
    return json.loads((out_dir / f"{stem}.json").read_text(encoding="utf-8"))["rows"]


def stage_rows(stage, config, stem):
    """Run a stage on a JSON ``config``: the full-precision rows of its table, as many as it returns."""
    count = stage(config)
    rows = read_json_rows(config.out_dir, stem)
    assert count == len(rows)
    return rows


def read_meta(out_dir, stem="t"):
    return json.loads((out_dir / f"{stem}.meta.json").read_text(encoding="utf-8"))


def written_files(out_dir):
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def write_scores(tmp_path, rows, name="scores.csv"):
    path = tmp_path / name
    lines = ["unit_id,cited_ebdi,citing_ebdi"]
    for unit, cited, citing in rows:
        cell = lambda v: "" if v is None else repr(float(v))
        lines.append(f"{unit},{cell(cited)},{cell(citing)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestRunIndicators:
    def test_worked_example_rows_at_two_decimals(self, tmp_path):
        paths = worked_example_files(tmp_path)
        config = RunConfig(
            **paths, focal_sc="FOCAL", n_categories=WORKED_N_CATEGORIES,
            out_dir=tmp_path / "out", fmt="csv",
        )
        run_indicators(config)
        rows = read_csv(tmp_path / "out" / "indicators.csv")
        cited = next(r for r in rows if r["unit_id"] == "UNIT" and r["dimension"] == "CITED")
        assert cited["pct_internal"] == "52.58"
        assert cited["sum_external"] == "1984"
        assert cited["H"] == "2.03"
        assert cited["Hmax"] == "3.97"
        assert cited["ebdi"] == "1.01"
        assert cited["raw_diversity"] == "26"
        citing = next(r for r in rows if r["unit_id"] == "UNIT" and r["dimension"] == "CITING")
        assert citing["pct_internal"] == "37.04"
        assert citing["sum_external"] == "1438"
        assert citing["H"] == "1.99"
        assert citing["ebdi"] == "0.73"
        assert citing["raw_diversity"] == "22"

    def test_missing_dimension_emits_empty_cells(self, tmp_path, caplog):
        # the SAME journal has no edge rows of its own in either dimension
        paths = worked_example_files(tmp_path)
        config = RunConfig(**paths, focal_sc="FOCAL", n_categories=53, out_dir=tmp_path / "out")
        with caplog.at_level(logging.WARNING):
            run_indicators(config)
        json_config = RunConfig(
            **paths, focal_sc="FOCAL", n_categories=53, out_dir=tmp_path / "json", fmt="json"
        )
        run_indicators(json_config)
        citing = next(
            r for r in read_json_rows(tmp_path / "json")
            if r["unit_id"] == "SAME" and r["dimension"] == "CITING"
        )
        assert tuple(citing) == INDICATOR_COLUMNS
        assert all(citing[column] is None for column in INDICATOR_COLUMNS[3:])
        csv_rows = read_csv(tmp_path / "out" / "indicators.csv")
        citing_csv = next(
            r for r in csv_rows if r["unit_id"] == "SAME" and r["dimension"] == "CITING"
        )
        assert citing_csv["ebdi"] == ""
        assert "missing" in caplog.text
        json_text = (tmp_path / "json" / "indicators.json").read_text(encoding="utf-8")
        citing_json = next(
            r for r in json.loads(json_text)["rows"]
            if r["unit_id"] == "SAME" and r["dimension"] == "CITING"
        )
        assert list(citing_json) == list(INDICATOR_COLUMNS)
        assert all(citing_json[column] is None for column in INDICATOR_COLUMNS[3:])
        assert '"ebdi": null' in json_text

    def test_rows_match_brute_force(self, tmp_path):
        rng = random.Random(42)
        sc_rows, journal_rows, citation_rows, memberships = random_corpus_rows(rng)
        paths = write_corpus_files(tmp_path, sc_rows, journal_rows, citation_rows)
        for mode in (CountingMode.WHOLE, CountingMode.FRACTIONAL):
            out = tmp_path / f"out_{mode.value}"
            count = run_indicators(RunConfig(**paths, counting=mode, out_dir=out, fmt="json"))
            rows = read_json_rows(out)
            assert count == len(rows)
            expected = brute_indicator_rows(
                memberships, citation_rows, n_categories=len(sc_rows), mode=mode.value
            )
            assert len(rows) == sum(len(m) for m in memberships.values()) * 2
            for row in rows:
                want = expected[(row["unit_id"], row["focal_sc"], row["dimension"])]
                if want is None:
                    assert row["ebdi"] is None
                    continue
                for field in ("pct_internal", "sum_external", "H", "Hmax", "pct_hmax", "ebdi"):
                    assert row[field] == pytest.approx(want[field], abs=1e-9), field
                assert row["raw_diversity"] == want["raw_diversity"]

    def test_json_round_trip_is_exact(self, tmp_path):
        rng = random.Random(1)
        sc_rows, journal_rows, citation_rows, _ = random_corpus_rows(rng)
        paths = write_corpus_files(tmp_path, sc_rows, journal_rows, citation_rows)
        config = RunConfig(**paths, out_dir=tmp_path / "out", fmt="json")
        count = run_indicators(config)
        with (tmp_path / "out" / "indicators.json").open(encoding="utf-8") as handle:
            payload = json.load(handle)
        assert len(payload["rows"]) == count
        # every parsed float has the bits the library computes
        corpus = load_corpus(*paths.values())
        fields = {
            "pct_internal": "pct_internal", "sum_external": "external_total", "H": "entropy",
            "Hmax": "hmax", "pct_hmax": "pct_hmax", "ebdi": "ebdi", "raw_diversity": "raw_diversity",
        }
        for row in payload["rows"]:
            scores = compute_journal_indicators(corpus, row["unit_id"], row["focal_sc"])
            score = dict(zip(("CITED", "CITING"), scores))[row["dimension"]]
            for column, attribute in fields.items():
                assert row[column] == (getattr(score, attribute) if score else None), column
        assert payload["meta"]["n_categories"] == len(sc_rows)

    def test_csv_round_trip_at_rounding(self, tmp_path):
        rng = random.Random(2)
        sc_rows, journal_rows, citation_rows, _ = random_corpus_rows(rng)
        paths = write_corpus_files(tmp_path, sc_rows, journal_rows, citation_rows)
        config = RunConfig(**paths, out_dir=tmp_path / "out", fmt="csv", decimals=3)
        run_indicators(config)
        run_indicators(RunConfig(**paths, out_dir=tmp_path / "json", fmt="json", decimals=3))
        rows = read_json_rows(tmp_path / "json")
        csv_rows = read_csv(tmp_path / "out" / "indicators.csv")
        assert len(rows) == len(csv_rows)
        for row, csv_row in zip(rows, csv_rows):
            if row["ebdi"] is None:
                assert csv_row["ebdi"] == ""
                continue
            assert float(csv_row["ebdi"]) == pytest.approx(row["ebdi"], abs=5e-4)
            assert float(csv_row["ebdi"]) == round(float(f"{row['ebdi']:.3f}"), 3)

    def test_identical_runs_identical_bytes(self, tmp_path):
        paths = worked_example_files(tmp_path)
        blobs = []
        for name in ("a", "b"):
            config = RunConfig(
                **paths, focal_sc="FOCAL", n_categories=53, out_dir=tmp_path / name
            )
            run_indicators(config)
            blobs.append((tmp_path / name / "indicators.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_unknown_focal_sc(self, tmp_path):
        paths = worked_example_files(tmp_path)
        config = RunConfig(**paths, focal_sc="NOPE", out_dir=tmp_path / "out")
        with pytest.raises(ValidationError, match="unknown sc_id"):
            run_indicators(config)


def memberships_corpus_rows(n_journals):
    """A corpus of ``n_journals`` journals in 1-3 of 20 SCs, each citing 4 partners per dimension."""
    sc_ids = [f"S{i:02d}" for i in range(20)]
    journal_rows = [
        (f"J{i:05d}", f"Journal {i}", ";".join(sc_ids[(i + k) % 20] for k in range(1 + i % 3)))
        for i in range(n_journals)
    ]
    citation_rows = [
        (f"J{i:05d}", f"J{(i * 7 + k * 13 + 1) % n_journals:05d}", dim, 1 + (i + k) % 9)
        for i in range(n_journals) for k in range(4) for dim in ("CITED", "CITING")
    ]
    return [(sc, f"Category {sc}", "") for sc in sc_ids], journal_rows, citation_rows


class TestStreamedIndicators:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_above_the_corpus_stays_flat(self, tmp_path, monkeypatch, fmt):
        """The rows go to the file as they are scored, so the memory above the
        loaded corpus does not grow with the number of journals.

        Measured with tracemalloc from the end of the corpus load to the end of
        the run, 100 → 400 journals (398 → 1,598 rows): under 10 kB apart when
        the rows stream, and about 0.5 MB apart in both formats when every row
        is kept until the table is written.
        """
        loaded = []
        original = report_module.load_corpus

        def traced(*args, **kwargs):
            corpus = original(*args, **kwargs)
            loaded.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return corpus

        monkeypatch.setattr(report_module, "load_corpus", traced)
        peaks = []
        for n_journals in (100, 400):
            paths = write_corpus_files(tmp_path, *memberships_corpus_rows(n_journals))
            tracemalloc.start()
            try:
                run_indicators(RunConfig(**paths, out_dir=tmp_path / f"out{n_journals}", fmt=fmt))
                peaks.append(tracemalloc.get_traced_memory()[1] - loaded[-1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 100_000


@st.composite
def scalar_tables(draw):
    """Any column names and rows of scalar cells, one cell per column."""
    columns = draw(st.lists(st.text(max_size=6), unique=True, max_size=5))
    cell = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8))
    return tuple(columns), draw(st.lists(st.tuples(*[cell] * len(columns)), max_size=4))


class TestWriteTable:
    """``_write_table`` takes each row as a sequence of cells in column order."""

    COLUMNS = ("unit_id", "H", "n", "note")
    ONE = ("J1", 0.25, 3, "x")
    NON_ASCII = ("Zeitschrift für Ökologie «Ω»", 1.0, 1, 'say "hi"')
    NONE_CELLS = ("J3", None, None, None)
    SEVENTEEN_DIGITS = ("J4", 1.1 * 1.1, 0, "line\nbreak")  # 1.2100000000000002

    @pytest.mark.parametrize("rows", [
        [], [ONE], [NON_ASCII], [NONE_CELLS], [SEVENTEEN_DIGITS],
        [ONE, NON_ASCII, NONE_CELLS, SEVENTEEN_DIGITS],
    ])
    def test_streamed_json_equals_one_dump(self, tmp_path, rows):
        config = RunConfig(out_dir=tmp_path, fmt="json")
        count = report_module._write_table(
            config, "t", self.COLUMNS, iter(rows), "cmd", None, note="ä"
        )
        assert count == len(rows)
        meta = read_meta(tmp_path)
        assert meta == {"command": "cmd", "counting_mode": "whole", "n_categories": None, "focal_sc": None,
                        "format": "json", "decimals": 2, "note": "ä"}
        dump = lambda value: json.dumps(value, indent=2, ensure_ascii=False) + "\n"
        text = (tmp_path / "t.json").read_text(encoding="utf-8")
        dicts = [dict(zip(self.COLUMNS, row)) for row in rows]
        assert text == dump({"meta": meta, "rows": dicts})
        assert json.loads(text)["rows"] == dicts
        assert (tmp_path / "t.meta.json").read_text(encoding="utf-8") == dump(meta)

    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=scalar_tables())
    def test_streamed_json_equals_one_dump_for_any_scalar_cells(self, tmp_path, table):
        columns, rows = table
        count = report_module._write_table(
            RunConfig(out_dir=tmp_path, fmt="json"), "t", columns, iter(rows), "cmd", None
        )
        assert count == len(rows)
        meta = read_meta(tmp_path)
        dicts = [dict(zip(columns, row)) for row in rows]
        expected = json.dumps({"meta": meta, "rows": dicts}, indent=2, ensure_ascii=False) + "\n"
        assert (tmp_path / "t.json").read_text(encoding="utf-8") == expected

    def test_streamed_csv_equals_csv_writer(self, tmp_path):
        rows = [self.ONE, self.NON_ASCII, self.NONE_CELLS, self.SEVENTEEN_DIGITS]
        count = report_module._write_table(
            RunConfig(out_dir=tmp_path, decimals=3), "t", self.COLUMNS, iter(rows), "cmd", None
        )
        assert count == len(rows)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerows([
            self.COLUMNS, ["J1", "0.250", "3", "x"], [self.NON_ASCII[0], "1.000", "1", 'say "hi"'],
            ["J3", "", "", ""], ["J4", "1.210", "0", "line\nbreak"],
        ])
        assert (tmp_path / "t.csv").read_bytes().decode("utf-8") == expected.getvalue()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failure_mid_stream_leaves_no_table(self, tmp_path, fmt):
        def rows():
            yield self.ONE
            raise ComputationError("synthetic failure")

        with pytest.raises(ComputationError):
            report_module._write_table(
                RunConfig(out_dir=tmp_path, fmt=fmt), "t", self.COLUMNS, rows(), "cmd", None
            )
        assert list(tmp_path.iterdir()) == []


def reference_csv_cell(column, value, decimals):
    """One CSV cell by the rules the table writer once applied to every cell in turn."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if column in {"weight"}:
        if float(value).is_integer():
            return str(int(value))
        return repr(float(value))
    if column in {"sum_external", "raw_diversity", "n"} or isinstance(value, int):
        return str(int(round(float(value))))
    return f"{float(value):.{decimals}f}"


#: ids that need CSV quoting, and any other text
TEXT_CELLS = st.one_of(
    st.sampled_from(["J,1", 'say "hi"', '"quoted"', "a,\"b\",c", "line\nbreak", " padded ", ""]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
)
#: the numeric cells of every table, as the stages hold them; any other column holds text
NUMBER_CELLS = {
    **dict.fromkeys(
        ["pct_internal", "H", "Hmax", "pct_hmax", "ebdi", "cited_ebdi", "citing_ebdi",
         "cited_threshold", "citing_threshold", "difference", "rho", "p_two_tailed"],
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    # raw citation totals, and totals on a rounding tie
    "sum_external": st.one_of(
        st.integers(0, 2**53).map(float), st.integers(0, 2**40).map(lambda k: k + 0.5),
    ),
    "raw_diversity": st.integers(0, 300),
    "n": st.integers(3, 10**6),
    "weight": st.one_of(
        st.floats(min_value=0.0, allow_infinity=False), st.integers(0, 2**53).map(float),
    ),
}
TABLES = {
    "indicators": INDICATOR_COLUMNS,
    "roles-journal": ROLES_JOURNAL_COLUMNS,
    "roles-discipline": ROLES_DISCIPLINE_COLUMNS,
    "correlations": CORRELATION_COLUMNS,
    "sc_network": NETWORK_COLUMNS,
}


@pytest.mark.parametrize("decimals", [0, 2, 20])
@pytest.mark.parametrize("columns", TABLES.values(), ids=TABLES.keys())
@settings(max_examples=30, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_table_cells_follow_the_per_cell_rules(tmp_path, columns, decimals, data):
    """Each column's one formatter writes what the per-cell rules wrote; JSON keeps every bit."""
    row = st.tuples(*(st.none() | NUMBER_CELLS.get(column, TEXT_CELLS) for column in columns))
    # a missing dimension: every number None
    missing = st.tuples(*(st.none() if column in NUMBER_CELLS else TEXT_CELLS for column in columns))
    rows = data.draw(st.lists(row | missing, max_size=6))
    for fmt in ("csv", "json"):
        config = RunConfig(out_dir=tmp_path, fmt=fmt, decimals=decimals)
        count = report_module._write_table(config, "t", columns, iter(rows), "cmd", None)
        assert count == len(rows)
        meta = read_meta(tmp_path)
        if fmt == "csv":
            expected = io.StringIO()
            csv.writer(expected, lineterminator="\n").writerows([columns, *(
                [reference_csv_cell(column, cell, decimals) for column, cell in zip(columns, row)]
                for row in rows
            )])
            expected = expected.getvalue()
        else:
            dicts = [dict(zip(columns, row)) for row in rows]
            expected = json.dumps({"meta": meta, "rows": dicts}, indent=2, ensure_ascii=False) + "\n"
        assert (tmp_path / f"t.{fmt}").read_bytes().decode("utf-8") == expected


BLOCK = report_module._CSV_BLOCK_ROWS


class TestCsvBlocks:
    """The CSV writer formats rows a block at a time; no block boundary shows in the bytes."""

    @staticmethod
    def indicator_rows(n, missing_blocks=()):
        """``n`` indicator rows; every third row of a block in ``missing_blocks`` has no score."""
        rng = random.Random(n)
        rows = []
        for i in range(n):
            head = (f"J,{i}", "SC1", "CITED" if i % 2 else "CITING")
            if i // BLOCK in missing_blocks and i % 3 == 0:
                rows.append(head + (None,) * 7)
            else:
                rows.append(head + (
                    rng.uniform(0, 100), rng.randrange(10**6) + rng.choice((0.0, 0.5)), rng.uniform(0, 3),
                    rng.uniform(0, 3), rng.uniform(0, 100), rng.uniform(0, 100), rng.randrange(300),
                ))
        return rows

    @staticmethod
    def write(tmp_path, rows):
        return report_module._write_table(RunConfig(out_dir=tmp_path), "t", INDICATOR_COLUMNS, rows, "cmd", None)

    @pytest.mark.parametrize("missing_blocks", [(), (0,), (1,), (0, 2)])
    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    def test_bytes_and_count_at_every_block_boundary(self, tmp_path, n, missing_blocks):
        rows = self.indicator_rows(n, missing_blocks)
        assert self.write(tmp_path, iter(rows)) == n
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows([INDICATOR_COLUMNS, *(
            [reference_csv_cell(column, cell, 2) for column, cell in zip(INDICATOR_COLUMNS, row)]
            for row in rows
        )])
        assert (tmp_path / "t.csv").read_bytes().decode("utf-8") == expected.getvalue()

    def test_a_list_of_rows_is_written_once(self, tmp_path):
        rows = self.indicator_rows(BLOCK + 1, (1,))
        assert self.write(tmp_path, rows) == len(rows)
        assert len((tmp_path / "t.csv").read_bytes().splitlines()) == len(rows) + 1

    def test_failure_inside_the_second_block_leaves_no_table(self, tmp_path):
        def rows():
            yield from self.indicator_rows(BLOCK + BLOCK // 2, (1,))
            raise ComputationError("synthetic failure")

        with pytest.raises(ComputationError):
            self.write(tmp_path, rows())
        assert list(tmp_path.iterdir()) == []

    def test_a_row_of_another_width_is_refused(self, tmp_path):
        """A row narrower or wider than the header, among full rows or not, would misplace cells."""
        full = self.indicator_rows(3)
        for rows in (
            [full[0], full[1][:-1], full[2]], [full[0], full[1] + ("x",), full[2]],
            [row[:-1] for row in full], [row + ("x",) for row in full],
        ):
            with pytest.raises(ValueError):
                self.write(tmp_path, rows)
            assert list(tmp_path.iterdir()) == []


class TestOneProfilePerUnitDimension:
    """Every stage profiles each (unit, SC, dimension) it scores exactly once."""

    @pytest.fixture
    def profile_calls(self, monkeypatch):
        calls = []
        original = metrics_module.build_profile

        def counted(corpus, unit_id, focal_sc, dimension, *args, **kwargs):
            calls.append((unit_id, focal_sc, dimension))
            return original(corpus, unit_id, focal_sc, dimension, *args, **kwargs)

        monkeypatch.setattr(metrics_module, "build_profile", counted)
        monkeypatch.setattr(report_module, "build_profile", counted)
        return calls

    @staticmethod
    def expected(pairs):
        return sorted((unit, sc, dim) for unit, sc in pairs for dim in Dimension)

    def test_indicators_every_membership(self, tmp_path, profile_calls):
        corpus = load_corpus(*SAMPLE_PATHS.values())
        run_indicators(RunConfig(**SAMPLE_PATHS, out_dir=tmp_path))
        pairs = [(jid, sc) for jid, scs in corpus.journals.items() for sc in scs]
        assert sorted(profile_calls) == self.expected(pairs)

    def test_indicators_one_focal_sc(self, tmp_path, profile_calls):
        corpus = load_corpus(*SAMPLE_PATHS.values())
        run_indicators(RunConfig(**SAMPLE_PATHS, focal_sc="LIS", out_dir=tmp_path))
        assert sorted(profile_calls) == self.expected((jid, "LIS") for jid in corpus.journals_in("LIS"))

    def test_journal_roles(self, tmp_path, profile_calls):
        corpus = load_corpus(*SAMPLE_PATHS.values())
        run_roles(RunConfig(**SAMPLE_PATHS, focal_sc="LIS", out_dir=tmp_path))
        assert sorted(profile_calls) == self.expected((jid, "LIS") for jid in corpus.journals_in("LIS"))

    def test_discipline_roles(self, tmp_path, profile_calls):
        corpus = load_corpus(*SAMPLE_PATHS.values())
        run_roles(RunConfig(**SAMPLE_PATHS, unit_type="discipline", out_dir=tmp_path))
        scs = [sc for sc in corpus.sc_registry if corpus.journals_in(sc)]
        assert sorted(profile_calls) == self.expected((sc, sc) for sc in scs)


class TestRunRoles:
    def test_quadrants_partition_twenty_units(self, tmp_path):
        rng = random.Random(8)
        values = [(f"u{i:02d}", rng.uniform(0, 4), rng.uniform(0, 4)) for i in range(20)]
        scores = write_scores(tmp_path, values)
        config = RunConfig(scores=scores, out_dir=tmp_path / "out", fmt="json")
        counts = {}
        for row in stage_rows(run_roles, config, "roles"):
            counts[row["role"]] = counts.get(row["role"], 0) + 1
        assert sum(counts.values()) == 20
        assert set(counts) <= {
            "CORE", "KNOWLEDGE_IMPORTER", "KNOWLEDGE_EXPORTER", "TANGENTIAL",
        }

    def test_unit_at_both_thresholds_is_core(self, tmp_path):
        scores = write_scores(
            tmp_path, [("a", 1.0, 3.0), ("b", 2.0, 2.0), ("c", 3.0, 1.0)]
        )
        config = RunConfig(scores=scores, out_dir=tmp_path / "out", fmt="json")
        by_unit = {row["unit_id"]: row for row in stage_rows(run_roles, config, "roles")}
        assert by_unit["b"]["cited_threshold"] == 2.0
        assert by_unit["b"]["citing_threshold"] == 2.0
        assert by_unit["b"]["role"] == "CORE"
        assert by_unit["a"]["role"] == "KNOWLEDGE_EXPORTER"
        assert by_unit["c"]["role"] == "KNOWLEDGE_IMPORTER"

    def test_discipline_replay_matches_reference_rows(self, tmp_path):
        scores = write_scores(
            tmp_path,
            [(name, cited, citing) for name, cited, citing, _, _ in REFERENCE_DISCIPLINE_ROWS],
        )
        config = RunConfig(scores=scores, unit_type="discipline", out_dir=tmp_path / "out", fmt="json")
        by_unit = {row["unit_id"]: row for row in stage_rows(run_roles, config, "roles")}
        assert len(by_unit) == 12
        for name, _, _, reported_diff, expected in REFERENCE_DISCIPLINE_ROWS:
            assert by_unit[name]["type"] == expected, name
            assert by_unit[name]["difference"] == pytest.approx(reported_diff, abs=0.01)

    def test_corpus_journal_run_requires_focal_sc(self, tmp_path):
        paths = worked_example_files(tmp_path)
        config = RunConfig(**paths, out_dir=tmp_path / "out")
        with pytest.raises(ValidationError, match="focal-sc"):
            run_roles(config)

    def test_corpus_discipline_run(self, tmp_path):
        sc_rows = [("A", "A", ""), ("B", "B", "")]
        journal_rows = [("J1", "One", "A"), ("J2", "Two", "B")]
        citation_rows = [
            ("J1", "J1", "CITED", 4), ("J1", "J2", "CITED", 2),
            ("J1", "J2", "CITING", 6),
            ("J2", "J2", "CITED", 5), ("J2", "J1", "CITED", 1),
            ("J2", "J1", "CITING", 2), ("J2", "J2", "CITING", 2),
        ]
        paths = write_corpus_files(tmp_path, sc_rows, journal_rows, citation_rows)
        config = RunConfig(**paths, unit_type="discipline", out_dir=tmp_path / "out", fmt="json")
        by_unit = {row["unit_id"]: row for row in stage_rows(run_roles, config, "roles")}
        assert set(by_unit) == {"A", "B"}
        assert by_unit["A"]["type"] in {"IMPORTER", "EXPORTER", "BALANCED"}

    def test_fewer_than_two_classified_units_rejected(self, tmp_path):
        scores = write_scores(tmp_path, [("a", 1.0, 2.0), ("b", None, 2.0)])
        config = RunConfig(scores=scores, out_dir=tmp_path / "out")
        with pytest.raises(ValidationError, match="at least 2"):
            run_roles(config)

    def test_unclassified_unit_reported(self, tmp_path):
        scores = write_scores(
            tmp_path, [("a", 1.0, 2.0), ("b", 2.0, 1.0), ("c", 3.0, None)]
        )
        config = RunConfig(scores=scores, out_dir=tmp_path / "out", fmt="json")
        by_unit = {row["unit_id"]: row for row in stage_rows(run_roles, config, "roles")}
        assert by_unit["c"]["role"] == "UNCLASSIFIED"
        assert by_unit["c"]["citing_level"] is None

    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        unit_type=st.sampled_from(["journal", "discipline"]),
        cells=st.lists(
            st.tuples(*[st.none() | st.floats(0, 100) | st.sampled_from([0.0, 2.5, 100.0])] * 2),
            min_size=2, max_size=25,
        ),
    )
    def test_rows_follow_the_median_and_sign_rules(self, tmp_path, unit_type, cells):
        assume(sum(1 for cited, citing in cells if cited is not None and citing is not None) >= 2)
        values = [(f"u{i:02d}", cited, citing) for i, (cited, citing) in enumerate(cells)]
        config = RunConfig(scores=write_scores(tmp_path, values), unit_type=unit_type,
                           out_dir=tmp_path / "out", fmt="json")
        rows = stage_rows(run_roles, config, "roles")
        assert [row["unit_id"] for row in rows] == [unit for unit, _, _ in values]

        # one threshold rule for both unit types: each dimension's median, in the meta
        cited_threshold = statistics.median(c for _, c, _ in values if c is not None)
        citing_threshold = statistics.median(c for _, _, c in values if c is not None)
        meta = read_meta(tmp_path / "out", "roles")
        assert (meta["cited_threshold"], meta["citing_threshold"]) == (cited_threshold, citing_threshold)

        if unit_type == "discipline":
            for row, (_, cited, citing) in zip(rows, values):
                if cited is None or citing is None:
                    assert (row["difference"], row["type"]) == (None, "UNCLASSIFIED")
                    continue
                assert row["difference"] == cited - citing
                sign = (cited > citing) - (cited < citing)
                assert row["type"] == {1: "IMPORTER", -1: "EXPORTER", 0: "BALANCED"}[sign]
            return

        level = lambda value, threshold: (
            None if value is None else "HIGH" if value >= threshold else "LOW"
        )
        quadrant = {
            ("HIGH", "HIGH"): "CORE", ("HIGH", "LOW"): "KNOWLEDGE_IMPORTER",
            ("LOW", "HIGH"): "KNOWLEDGE_EXPORTER", ("LOW", "LOW"): "TANGENTIAL",
        }
        for row, (_, cited, citing) in zip(rows, values):
            levels = (level(cited, cited_threshold), level(citing, citing_threshold))
            assert (row["cited_level"], row["citing_level"]) == levels
            assert row["role"] == quadrant.get(levels, "UNCLASSIFIED")
            assert row["cited_threshold"] == cited_threshold
            assert row["citing_threshold"] == citing_threshold


def is_xml_char(c):
    """True iff XML 1.0's ``Char`` production admits the code point."""
    cp = ord(c)
    return cp in (0x9, 0xA, 0xD) or 0x20 <= cp <= 0xD7FF or 0xE000 <= cp <= 0xFFFD or cp >= 0x10000


# any character, and every kind that XML 1.0 forbids, surrogates included
LABEL_CHARS = st.one_of(
    st.characters(), st.sampled_from("\x00\x01\x0b\x0c\x1f\ud800\udfff\ufffe\uffff\t\n\r"),
)

#: the plot's fixed title, x axis label and y axis label, in document order
PLOT_TEXT = ("Disciplinarity by dimension", "EBDI (cited)", "EBDI (citing)")


class TestScatterPlot:
    def _roles_run(self, tmp_path, rows):
        tmp_path.mkdir(parents=True, exist_ok=True)
        scores = write_scores(tmp_path, rows)
        config = RunConfig(scores=scores, out_dir=tmp_path / "out")
        run_roles(config)
        return (tmp_path / "out" / "scatter.svg").read_text(encoding="utf-8")

    def test_one_point_per_classified_unit_and_two_thresholds(self, tmp_path):
        rows = [(f"u{i}", float(i), float(10 - i)) for i in range(10)]
        rows.append(("missing", 5.0, None))  # unclassified: no point for it
        svg_text = self._roles_run(tmp_path, rows)
        root = ET.fromstring(svg_text)
        circles = [el for el in root.iter() if el.tag.endswith("circle")]
        points = [el for el in circles if el.get("class") == "point"]
        thresholds = [
            el for el in root.iter()
            if el.tag.endswith("line") and el.get("class") == "threshold"
        ]
        labels = [
            el for el in root.iter()
            if el.tag.endswith("text") and el.get("class") == "point-label"
        ]
        assert len(points) == 10
        assert len(thresholds) == 2
        assert {el.text for el in labels} == {f"u{i}" for i in range(10)}

    def test_byte_identical_across_runs(self, tmp_path):
        rows = [(f"u{i}", float(i), float(i * i % 7)) for i in range(8)]
        first = self._roles_run(tmp_path / "r1", rows)
        second = self._roles_run(tmp_path / "r2", rows)
        assert first == second

    def test_text_is_escaped_for_xml(self):
        raw = "&<>\"'"
        svg_text = "".join(scatter_svg(
            [(f"u{raw}", 1.0, 2.0), ("v", 3.0, 4.0)], 2.0, 3.0, quadrant_labels={"top_left": f"q{raw}"},
        ))
        escaped = "&amp;&lt;&gt;\"'"
        for text in (f"q{escaped}", f"u{escaped}"):
            assert f">{text}</text>" in svg_text
        labels = {el.text for el in ET.fromstring(svg_text).iter() if el.tag.endswith("text")}
        assert {*PLOT_TEXT, f"q{raw}", f"u{raw}"} <= labels

    @given(st.text(alphabet=st.one_of(st.sampled_from("&<>\"';#x"), LABEL_CHARS)))
    def test_escape_equals_html_escape(self, text):
        """``html.escape``, once every code point XML 1.0 forbids has become U+FFFD, with CR as ``&#13;``."""
        xml_text = "".join(c if is_xml_char(c) else "\ufffd" for c in text)
        assert _escape(text) == html.escape(xml_text, quote=False).replace("\r", "&#13;")

    @given(labels=st.lists(st.text(alphabet=LABEL_CHARS), min_size=1, max_size=4))
    def test_every_plot_parses_and_clean_labels_keep_their_bytes(self, labels):
        def plot():
            points = [(label, float(i), float(-i)) for i, label in enumerate(labels)]
            return "".join(scatter_svg(points, 0.0, 0.0, quadrant_labels={"top_left": labels[-1]}))

        svg_text = plot()
        root = ET.fromstring(svg_text.encode("utf-8"))  # the bytes the file gets
        # every label reads back as written, each code point XML forbids as U+FFFD; a CR stays a CR
        clean = ["".join(c if is_xml_char(c) else "\ufffd" for c in label) for label in labels]
        read = {}
        for element in root.iter("{http://www.w3.org/2000/svg}text"):
            read.setdefault(element.get("class"), []).append(element.text or "")
        assert read["title"] + read["axis-label"] == list(PLOT_TEXT)
        assert read.get("quadrant-label", [""]) == [clean[-1]]
        assert sorted(read["point-label"]) == sorted(clean)
        if all(map(is_xml_char, "".join(labels))):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(svg_module, "_escape",
                              lambda text: html.escape(text, quote=False).replace("\r", "&#13;"))
                assert plot() == svg_text

    def test_large_plot_is_streamed_to_its_file(self, tmp_path, monkeypatch):
        """Writing 9,600 points allocates far less than the 1.7 MB file.

        Measured with tracemalloc from the plot call to the end of the run:
        0.24 MB when the lines stream to the file, 6.5 MB when the whole
        text is built first.
        """
        rng = random.Random(7)
        rows = [(f"J{i:05d}", rng.uniform(0, 100), rng.uniform(0, 100)) for i in range(9600)]
        entry = []

        def traced(*args, **kwargs):
            entry.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return scatter_svg(*args, **kwargs)

        monkeypatch.setattr(report_module, "scatter_svg", traced)
        tracemalloc.start()
        try:
            run_roles(RunConfig(scores=write_scores(tmp_path, rows), out_dir=tmp_path / "out"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "out" / "scatter.svg").read_text(encoding="utf-8").count("<circle") == 9600
        assert peak - entry[0] < 1_000_000


class TestRunCorrelations:
    def _metrics_file(self, tmp_path, metric_rows):
        path = tmp_path / "metrics.csv"
        lines = ["journal_id,metric_name,value"]
        lines += [f"{j},{m},{v}" for j, m, v in metric_rows]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_requires_metrics_file(self, tmp_path):
        scores = write_scores(tmp_path, [("a", 1.0, 2.0), ("b", 2.0, 1.0)])
        config = RunConfig(scores=scores, out_dir=tmp_path / "out")
        with pytest.raises(ValidationError, match="metrics"):
            run_correlations(config)

    def test_pairs_against_stats_oracle(self, tmp_path):
        rng = random.Random(77)
        units = [f"u{i}" for i in range(20)]
        cited = {u: rng.uniform(0, 3) for u in units}
        citing = {u: rng.uniform(0, 3) for u in units}
        impact = {u: rng.uniform(0, 10) for u in units}
        scores = write_scores(tmp_path, [(u, cited[u], citing[u]) for u in units])
        metrics = self._metrics_file(
            tmp_path, [(u, "impact", repr(impact[u])) for u in units]
        )
        config = RunConfig(scores=scores, metrics=metrics, out_dir=tmp_path / "out", fmt="json")
        rows = stage_rows(run_correlations, config, "correlations")
        # each CorrelationResult is written as its row, so its fields are the columns, in order
        assert CorrelationResult._fields == CORRELATION_COLUMNS
        assert all(tuple(row) == CORRELATION_COLUMNS for row in rows)
        assert [(r["metric_x"], r["metric_y"]) for r in rows] == [
            ("cited_ebdi", "citing_ebdi"),
            ("cited_ebdi", "impact"),
            ("citing_ebdi", "impact"),
        ]
        ordered = sorted(units)
        expected = brute_rank_pearson(
            [cited[u] for u in ordered], [citing[u] for u in ordered]
        )
        first = rows[0]
        assert first["n"] == 20
        assert first["rho"] == pytest.approx(expected, abs=1e-12)
        # independent random series: weak association expected
        assert abs(first["rho"]) < 0.6
        assert first["p_two_tailed"] > 0.005

    def test_shuffled_input_rows_give_identical_tables(self, tmp_path):
        # partial overlaps, ties and -0.0 beside 0.0; each series is ranked in
        # value order, not by unit id, so pin that row order does not matter
        rng = random.Random(23)
        units = [f"u{i:03d}" for i in range(120)]
        levels = [-0.0, 0.0, 0.5, 1.0, 2.5, 4.0, 7.5]

        def value():
            return None if rng.random() < 0.15 else rng.choice(levels + [rng.uniform(0, 9)])

        score_rows = [(u, value(), value()) for u in units]
        metric_rows = [
            (u, name, repr(v))
            for name in ("impact", "influence", "reach")
            for u in units
            if (v := value()) is not None
        ]
        tables = []
        for name in ("ordered", "shuffled"):
            if name == "shuffled":
                rng.shuffle(score_rows)
                rng.shuffle(metric_rows)
            (tmp_path / name).mkdir()
            scores = write_scores(tmp_path / name, score_rows)
            metrics = self._metrics_file(tmp_path / name, metric_rows)
            for fmt in ("csv", "json"):
                out = tmp_path / name / fmt
                config = RunConfig(scores=scores, metrics=metrics, out_dir=out, fmt=fmt, decimals=17)
                assert run_correlations(config) == 10
            tables.append([
                (tmp_path / name / "csv" / "correlations.csv").read_bytes(),
                json.loads((tmp_path / name / "json" / "correlations.json").read_text())["rows"],
            ])
        assert tables[0] == tables[1]

    def test_constant_series_skipped_with_warning(self, tmp_path, caplog):
        scores = write_scores(
            tmp_path, [("a", 1.0, 2.0), ("b", 2.0, 1.0), ("c", 3.0, 1.5)]
        )
        metrics = self._metrics_file(
            tmp_path, [(u, "flat", "7.0") for u in ("a", "b", "c")]
        )
        config = RunConfig(scores=scores, metrics=metrics, out_dir=tmp_path / "out", fmt="json")
        with caplog.at_level(logging.WARNING):
            rows = stage_rows(run_correlations, config, "correlations")
        assert [(r["metric_x"], r["metric_y"]) for r in rows] == [("cited_ebdi", "citing_ebdi")]
        assert "constant" in caplog.text

    def test_corpus_driven_run(self, tmp_path):
        sc_rows = [("F", "Focal", ""), ("X", "Other", "")]
        journal_rows = [(f"J{i}", f"Journal {i}", "F") for i in range(4)]
        journal_rows.append(("JX", "External", "X"))
        citation_rows = []
        rng = random.Random(4)
        for i in range(4):
            citation_rows.append((f"J{i}", f"J{(i + 1) % 4}", "CITED", rng.randint(1, 9)))
            citation_rows.append((f"J{i}", "JX", "CITED", rng.randint(1, 9)))
            citation_rows.append((f"J{i}", f"J{(i + 2) % 4}", "CITING", rng.randint(1, 9)))
            citation_rows.append((f"J{i}", "JX", "CITING", rng.randint(1, 9)))
        paths = write_corpus_files(tmp_path, sc_rows, journal_rows, citation_rows)
        metrics = self._metrics_file(
            tmp_path, [(f"J{i}", "impact", str(1.0 + i)) for i in range(4)]
        )
        config = RunConfig(
            **paths, focal_sc="F", metrics=metrics, out_dir=tmp_path / "out", fmt="json"
        )
        rows = stage_rows(run_correlations, config, "correlations")
        assert {(r["metric_x"], r["metric_y"]) for r in rows} == {
            ("cited_ebdi", "citing_ebdi"),
            ("cited_ebdi", "impact"),
            ("citing_ebdi", "impact"),
        }
        for row in rows:
            assert -1.0 <= row["rho"] <= 1.0
            assert 0.0 <= row["p_two_tailed"] <= 1.0
            assert row["method_note"]


class TestExportScNetwork:
    def _corpus_paths(self, tmp_path):
        sc_rows = [("A", "A", ""), ("B", "B", ""), ("C", "C", "")]
        journal_rows = [
            ("JA", "A Journal", "A"),
            ("JB", "B Journal", "B"),
            ("JAB", "AB Journal", "A;B"),
            ("JC", "C Journal", "C"),
        ]
        citation_rows = [
            ("JA", "JB", "CITED", 10),
            ("JA", "JAB", "CITED", 4),
            ("JB", "JC", "CITED", 2),
            ("JA", "JB", "CITING", 7),
        ]
        return write_corpus_files(tmp_path, sc_rows, journal_rows, citation_rows), citation_rows

    def test_top_k_larger_than_available_warns_and_emits_all(self, tmp_path, caplog):
        paths, citation_rows = self._corpus_paths(tmp_path)
        config = RunConfig(
            **paths, dimension=Dimension.CITED, top_k=10, out_dir=tmp_path / "out", fmt="json"
        )
        with caplog.at_level(logging.WARNING):
            rows = stage_rows(export_sc_network, config, "sc_network")
        assert "emitting all" in caplog.text
        memberships = {"JA": {"A"}, "JB": {"B"}, "JAB": {"A", "B"}, "JC": {"C"}}
        expected = brute_sc_network(memberships, citation_rows, "CITED", "whole")
        got = {(r["source_sc"], r["target_sc"]): r["weight"] for r in rows}
        assert got == expected

    def test_top_k_one_keeps_only_edges_incident_to_top_sc(self, tmp_path):
        paths, citation_rows = self._corpus_paths(tmp_path)
        config = RunConfig(
            **paths, dimension=Dimension.CITED, top_k=1, out_dir=tmp_path / "out", fmt="json"
        )
        rows = stage_rows(export_sc_network, config, "sc_network")
        # volumes (whole counting): A->B 14, A->A 4, B->C 2: A has 18, B 16, C 2
        assert rows  # at least the top SC's edges survive
        for row in rows:
            assert "A" in (row["source_sc"], row["target_sc"])
        dropped = ("B", "C")
        assert all((r["source_sc"], r["target_sc"]) != dropped for r in rows)

    def test_fractional_weights_match_oracle(self, tmp_path):
        paths, citation_rows = self._corpus_paths(tmp_path)
        config = RunConfig(
            **paths, dimension=Dimension.CITED, top_k=10,
            counting=CountingMode.FRACTIONAL, out_dir=tmp_path / "out", fmt="json",
        )
        rows = stage_rows(export_sc_network, config, "sc_network")
        memberships = {"JA": {"A"}, "JB": {"B"}, "JAB": {"A", "B"}, "JC": {"C"}}
        expected = brute_sc_network(memberships, citation_rows, "CITED", "fractional")
        got = {(r["source_sc"], r["target_sc"]): r["weight"] for r in rows}
        for key, weight in expected.items():
            assert got[key] == pytest.approx(weight, abs=1e-12)

    def test_fractional_weights_are_exact_and_ties_ordered_by_name(self, tmp_path):
        memberships = {"J0": ("A", "B", "C"), "J1": ("A", "D")}
        citation_rows = [("J0", "J0", "CITED", 3), ("J1", "J0", "CITED", 5), ("J0", "J1", "CITED", 3)]
        paths = write_corpus_files(
            tmp_path, [(sc, sc, "") for sc in "ABCD"],
            [(j, j, ";".join(scs)) for j, scs in memberships.items()], citation_rows,
        )
        exact: dict[tuple[str, str], Fraction] = {}
        for focal, partner, _, count in citation_rows:
            share = Fraction(count, len(memberships[focal]) * len(memberships[partner]))
            for source in memberships[focal]:
                for target in memberships[partner]:
                    exact[(source, target)] = exact.get((source, target), 0) + share
        config = RunConfig(
            **paths, dimension=Dimension.CITED, top_k=4,
            counting=CountingMode.FRACTIONAL, out_dir=tmp_path / "out",
        )
        export_sc_network(config)
        got = [(r["source_sc"], r["target_sc"], float(r["weight"]))
               for r in read_csv(tmp_path / "out" / "sc_network.csv")]
        ranked = sorted(exact.items(), key=lambda item: (-item[1], item[0]))
        assert got == [(source, target, float(weight)) for (source, target), weight in ranked]
        assert got[0] == ("A", "A", 1.6666666666666667)
        # the five weights of exactly 5/6, ordered by source then target
        assert [(s, t) for s, t, w in got if w == float(Fraction(5, 6))] == [
            ("B", "A"), ("C", "A"), ("D", "A"), ("D", "B"), ("D", "C"),
        ]

    def test_random_corpora_match_the_exact_oracle(self, tmp_path, caplog):
        # counts of at most 3 make equal volumes common, so the name tie-break at the cut runs
        ties_at_cut = self_loops = 0
        for seed in range(20):
            sc_rows, journal_rows, citation_rows, memberships = random_corpus_rows(
                random.Random(seed), max_count=3,
            )
            paths = write_corpus_files(tmp_path, sc_rows, journal_rows, citation_rows)
            for dimension in ("CITED", "CITING"):
                for mode in ("whole", "fractional"):
                    exact = exact_sc_network(memberships, citation_rows, dimension, mode)
                    approx = brute_sc_network(memberships, citation_rows, dimension, mode)
                    volume: dict[str, Fraction] = {}
                    for (source, target), weight in exact.items():
                        volume[source] = volume.get(source, 0) + weight
                        if target != source:  # a self-loop counts once
                            volume[target] = volume.get(target, 0) + weight
                    ranked = sorted(volume, key=lambda sc: (-volume[sc], sc))
                    self_loops += any(source == target for source, target in exact)
                    for top_k in range(1, len(sc_rows) + 2):
                        retained = set(ranked[:top_k])
                        ties_at_cut += top_k < len(ranked) and volume[ranked[top_k - 1]] == volume[ranked[top_k]]
                        expected = sorted(
                            ((s, t, w) for (s, t), w in exact.items() if s in retained or t in retained),
                            key=lambda row: (-row[2], row[0], row[1]),
                        )
                        caplog.clear()
                        with caplog.at_level(logging.WARNING):
                            rows = stage_rows(export_sc_network, RunConfig(
                                **paths, dimension=dimension, counting=mode, top_k=top_k,
                                out_dir=tmp_path / "out", fmt="json",
                            ), "sc_network")
                        got = [(r["source_sc"], r["target_sc"], r["weight"]) for r in rows]
                        assert got == [(s, t, float(w)) for s, t, w in expected]
                        for source, target, weight in got:
                            assert weight == pytest.approx(approx[(source, target)], rel=1e-12)
                        assert ("emitting all" in caplog.text) == (top_k > len(ranked))
        assert ties_at_cut and self_loops

    def test_rows_sorted_by_weight_descending(self, tmp_path):
        paths, _ = self._corpus_paths(tmp_path)
        config = RunConfig(
            **paths, dimension=Dimension.CITED, top_k=3, out_dir=tmp_path / "out", fmt="json"
        )
        rows = stage_rows(export_sc_network, config, "sc_network")
        weights = [row["weight"] for row in rows]
        assert weights == sorted(weights, reverse=True)
        assert export_sc_network(RunConfig(
            **paths, dimension=Dimension.CITED, top_k=3, out_dir=tmp_path / "out"
        )) == len(rows)
        csv_rows = read_csv(tmp_path / "out" / "sc_network.csv")
        assert [r["source_sc"] for r in csv_rows] == [r["source_sc"] for r in rows]

    def test_dimension_required(self, tmp_path):
        paths, _ = self._corpus_paths(tmp_path)
        config = RunConfig(**paths, top_k=3, out_dir=tmp_path / "out")
        with pytest.raises(ValidationError, match="dimension"):
            export_sc_network(config)


class TestRunConfigValidation:
    def test_small_n_categories_override_rejected(self):
        with pytest.raises(ValidationError, match=">= 2"):
            RunConfig(n_categories=1)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError, match="format"):
            RunConfig(fmt="xml")

    @pytest.mark.parametrize("decimals", [-1, 21, 3_000_000_000])
    def test_out_of_range_decimals_rejected(self, decimals):
        with pytest.raises(ValidationError, match="decimals"):
            RunConfig(decimals=decimals)

    def test_unknown_unit_type_rejected(self):
        with pytest.raises(ValidationError, match="unit type"):
            RunConfig(unit_type="author")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_string_counting_writes_what_the_enum_writes(self, tmp_path, fmt):
        outs = [tmp_path / "enum", tmp_path / "string"]
        for counting, out in zip((CountingMode.FRACTIONAL, "fractional"), outs):
            run_indicators(RunConfig(**SAMPLE_PATHS, counting=counting, out_dir=out, fmt=fmt))
        assert written_files(outs[0]) == written_files(outs[1])
        meta = json.loads((outs[1] / "indicators.meta.json").read_text(encoding="utf-8"))
        assert meta["counting_mode"] == "fractional"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_string_dimension_writes_what_the_enum_writes(self, tmp_path, fmt):
        outs = [tmp_path / "enum", tmp_path / "string"]
        inputs = [(Dimension.CITED, CountingMode.FRACTIONAL), ("cited", "fractional")]
        for (dimension, counting), out in zip(inputs, outs):
            rows = export_sc_network(RunConfig(
                **SAMPLE_PATHS, dimension=dimension, counting=counting, top_k=3,
                out_dir=out, fmt=fmt,
            ))
            assert rows
        assert written_files(outs[0]) == written_files(outs[1])

    def test_config_holds_the_enums(self):
        config = RunConfig(counting=" Fractional", dimension="citing")
        assert config.counting is CountingMode.FRACTIONAL
        assert config.dimension is Dimension.CITING
        assert RunConfig().counting is CountingMode.WHOLE and RunConfig().dimension is None

    def test_unknown_counting_rejected(self):
        with pytest.raises(ValidationError, match="counting mode"):
            RunConfig(counting="half")

    def test_unknown_dimension_rejected(self):
        with pytest.raises(ValidationError, match="dimension"):
            RunConfig(dimension="sideways")
        with pytest.raises(ValidationError, match="unparseable dimension"):
            RunConfig(dimension="cıted")  # U+0131, which str.upper folds onto ASCII I

    @pytest.mark.parametrize("field, value, flag", [
        ("focal_sc", "LIS", "--focal-sc"),
        ("n_categories", 5, "--n-categories"),
        ("classification", SAMPLE_PATHS["classification"], "--classification"),
        ("journals", SAMPLE_PATHS["journals"], "--journals"),
        ("citations", SAMPLE_PATHS["citations"], "--citations"),
        ("counting", "whole", "--counting"),
    ])
    def test_scores_reject_corpus_inputs(self, tmp_path, field, value, flag):
        scores = write_scores(tmp_path, [("a", 1.0, 2.0), ("b", 2.0, 1.0)])
        with pytest.raises(ValidationError, match=flag):
            RunConfig(scores=scores, **{field: value})
