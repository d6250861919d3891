"""End-to-end command-line behavior and exit codes."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import ebdi.cli as cli_module
from ebdi import ComputationError
from ebdi.cli import main
from conftest import write_corpus_files

SAMPLE = Path(__file__).resolve().parents[1] / "sample_data"


@pytest.fixture
def corpus_paths(tmp_path):
    sc_rows = [("F", "Focal", ""), ("A", "Other A", ""), ("B", "Other B", "")]
    journal_rows = [
        ("J1", "One", "F"),
        ("J2", "Two", "F"),
        ("J3", "Three", "F"),
        ("JA", "A Journal", "A"),
        ("JB", "B Journal", "A;B"),
    ]
    citation_rows = [
        ("J1", "J2", "CITED", 8), ("J1", "JA", "CITED", 2), ("J1", "JB", "CITED", 1),
        ("J1", "J3", "CITING", 5), ("J1", "JA", "CITING", 4),
        ("J2", "J1", "CITED", 3), ("J2", "JB", "CITED", 6),
        ("J2", "JA", "CITING", 1), ("J2", "J3", "CITING", 1),
        ("J3", "J1", "CITED", 2), ("J3", "JA", "CITED", 2),
        ("J3", "J2", "CITING", 7), ("J3", "JB", "CITING", 2),
    ]
    return write_corpus_files(tmp_path, sc_rows, journal_rows, citation_rows)


def corpus_args(paths):
    return [
        "--classification", str(paths["classification"]),
        "--journals", str(paths["journals"]),
        "--citations", str(paths["citations"]),
    ]


def test_indicators_end_to_end(tmp_path, corpus_paths, capsys):
    out = tmp_path / "out"
    code = main(["indicators", *corpus_args(corpus_paths), "--focal-sc", "F",
                 "--out", str(out)])
    assert code == 0
    assert (out / "indicators.csv").exists()
    assert (out / "indicators.meta.json").exists()
    meta = json.loads((out / "indicators.meta.json").read_text())
    assert meta["n_categories"] == 3
    assert "indicators" in capsys.readouterr().out


def test_roles_end_to_end(tmp_path, corpus_paths):
    out = tmp_path / "out"
    code = main(["roles", *corpus_args(corpus_paths), "--focal-sc", "F",
                 "--out", str(out), "--format", "json"])
    assert code == 0
    assert (out / "roles.json").exists()
    assert (out / "scatter.svg").exists()
    payload = json.loads((out / "roles.json").read_text())
    assert len(payload["rows"]) == 3
    assert payload["meta"]["cited_threshold"] is not None


def test_stages_sharing_an_output_directory_keep_their_own_meta(tmp_path, corpus_paths):
    out = tmp_path / "out"
    assert main(["indicators", *corpus_args(corpus_paths), "--out", str(out)]) == 0
    assert main(["roles", *corpus_args(corpus_paths), "--focal-sc", "F", "--out", str(out)]) == 0
    indicators = json.loads((out / "indicators.meta.json").read_text())
    roles = json.loads((out / "roles.meta.json").read_text())
    assert indicators["command"] == "indicators"
    assert roles["command"] == "roles"
    assert "cited_threshold" in roles and "cited_threshold" not in indicators


def test_roles_from_scores_file(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "unit_id,cited_ebdi,citing_ebdi\na,1.0,2.0\nb,2.0,1.0\nc,0.5,0.7\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = main(["roles", "--scores", str(scores), "--out", str(out)])
    assert code == 0
    assert (out / "roles.csv").exists()


def test_correlate_end_to_end(tmp_path, corpus_paths):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(
        "journal_id,metric_name,value\n"
        "J1,impact,3.2\nJ2,impact,1.1\nJ3,impact,2.4\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = main(["correlate", *corpus_args(corpus_paths), "--focal-sc", "F",
                 "--metrics", str(metrics), "--out", str(out)])
    assert code == 0
    assert (out / "correlations.csv").exists()


def test_correlate_rejects_a_metric_named_like_the_indicator(tmp_path, caplog):
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "unit_id,cited_ebdi,citing_ebdi\nA,1.0,2.0\nB,2.0,1.0\nC,0.5,0.7\nD,3.0,0.2\n",
        encoding="utf-8",
    )
    metrics = tmp_path / "metrics.csv"
    metrics.write_text(
        "journal_id,metric_name,value\nA,cited_ebdi,4\nB,cited_ebdi,3\nC,cited_ebdi,2\nD,cited_ebdi,1\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    code = main(["correlate", "--scores", str(scores), "--metrics", str(metrics), "--out", str(out)])
    assert code == 1
    assert f"{metrics}:2: metric name 'cited_ebdi' is reserved" in caplog.text
    assert not (out / "correlations.csv").exists()


def test_network_end_to_end(tmp_path, corpus_paths):
    out = tmp_path / "out"
    code = main(["network", *corpus_args(corpus_paths), "--dimension", "cited",
                 "--top-k", "2", "--out", str(out)])
    assert code == 0
    lines = (out / "sc_network.csv").read_text().splitlines()
    assert lines[0] == "source_sc,target_sc,weight"
    assert len(lines) > 1


def test_network_json_format(tmp_path, corpus_paths):
    csv_out, json_out = tmp_path / "csv", tmp_path / "json"
    args = ["network", *corpus_args(corpus_paths), "--dimension", "cited",
            "--top-k", "2", "--counting", "fractional"]
    assert main([*args, "--out", str(csv_out)]) == 0
    assert main([*args, "--out", str(json_out), "--format", "json"]) == 0
    assert not (json_out / "sc_network.csv").exists()
    payload = json.loads((json_out / "sc_network.json").read_text())
    assert payload["meta"]["format"] == "json"
    assert payload["meta"] == json.loads((json_out / "sc_network.meta.json").read_text())
    json_rows = [(r["source_sc"], r["target_sc"], r["weight"]) for r in payload["rows"]]
    csv_lines = (csv_out / "sc_network.csv").read_text().splitlines()[1:]
    assert json_rows == [(s, t, float(w)) for s, t, w in (line.split(",") for line in csv_lines)]
    assert any(not float(weight).is_integer() for _, _, weight in json_rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_network_ranks_scs_on_exact_volumes(tmp_path, fmt):
    # SCA's volume is 2**53 and SCB's 2**53 + 1, which rounds to 2**53 as a float: a float
    # ranking ties them and keeps SCA by name, dropping SCB's self-loop
    paths = write_corpus_files(
        tmp_path, [("SCA", "A", ""), ("SCB", "B", ""), ("SCC", "C", "")],
        [("JA", "A Journal", "SCA"), ("JB", "B Journal", "SCB"), ("JC", "C Journal", "SCC")],
        [("JA", "JC", "CITING", 2**53), ("JB", "JC", "CITING", 2**53), ("JB", "JB", "CITING", 1)],
    )
    out = tmp_path / "out"
    code = main(["network", *corpus_args(paths), "--dimension", "citing", "--top-k", "2",
                 "--format", fmt, "--out", str(out)])
    assert code == 0
    expected = [("SCA", "SCC", 2**53), ("SCB", "SCC", 2**53), ("SCB", "SCB", 1)]
    if fmt == "csv":
        lines = (out / "sc_network.csv").read_text().splitlines()
        assert lines == ["source_sc,target_sc,weight", *(f"{s},{t},{w}" for s, t, w in expected)]
    else:
        rows = json.loads((out / "sc_network.json").read_text())["rows"]
        assert [(r["source_sc"], r["target_sc"], r["weight"]) for r in rows] == expected
        assert all(isinstance(r["weight"], float) for r in rows)


@pytest.mark.parametrize("command, stage, summary", [
    (["indicators"], "run_indicators", "indicators: 20 rows"),
    (["roles", "--focal-sc", "LIS"], "run_roles", "roles: 4 units"),
    (["correlate", "--focal-sc", "LIS", "--metrics", str(SAMPLE / "metrics.csv")],
     "run_correlations", "correlations: 6 pairs"),
    (["network", "--dimension", "cited"], "export_sc_network", "network: 11 edges"),
])
def test_each_stage_is_called_through_its_module_attribute(tmp_path, monkeypatch, capsys,
                                                           command, stage, summary):
    """A stage replaced on ``ebdi.cli`` after import (the benchmark tracer's wrappers) is the one run."""
    calls = []
    original = getattr(cli_module, stage)

    def counted(config):
        calls.append(config.out_dir)
        return original(config)

    monkeypatch.setattr(cli_module, stage, counted)
    sample = {"classification": SAMPLE / "subject_categories.csv",
              "journals": SAMPLE / "journals.csv", "citations": SAMPLE / "citations.csv"}
    out = tmp_path / "out"
    assert main([*command, *corpus_args(sample), "--out", str(out)]) == 0
    assert calls == [out]
    assert capsys.readouterr().out == f"{summary} -> {out}\n"


def test_missing_input_file_exits_1(tmp_path, corpus_paths):
    code = main(["indicators",
                 "--classification", str(tmp_path / "nope.csv"),
                 "--journals", str(corpus_paths["journals"]),
                 "--citations", str(corpus_paths["citations"]),
                 "--out", str(tmp_path / "out")])
    assert code == 1


@pytest.mark.parametrize("command", [
    ["indicators"], ["network", "--dimension", "cited"], ["roles", "--unit-type", "discipline"],
])
def test_header_only_journal_file_exits_1(tmp_path, caplog, command):
    paths = write_corpus_files(tmp_path, sc_rows=[("A", "A", ""), ("B", "B", "")],
                               journal_rows=[], citation_rows=[])
    out = tmp_path / "out"
    assert main([*command, *corpus_args(paths), "--out", str(out)]) == 1
    assert f"{paths['journals']}: no journals" in caplog.text
    assert not out.exists()


def test_focal_sc_in_discipline_roles_exits_1(tmp_path, caplog):
    # a discipline run scores every SC against itself, so a focal SC would be recorded but ignored
    sample = {"classification": SAMPLE / "subject_categories.csv",
              "journals": SAMPLE / "journals.csv", "citations": SAMPLE / "citations.csv"}
    code = main(["roles", *corpus_args(sample), "--unit-type", "discipline",
                 "--focal-sc", "LIS", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "--focal-sc" in caplog.text
    assert not (tmp_path / "out" / "roles.meta.json").exists()


@pytest.mark.parametrize("command, message", [
    (["roles"], "need --focal-sc"),
    (["correlate", "--metrics", str(SAMPLE / "metrics.csv")], "need --focal-sc"),
    # a discipline run refuses any focal SC, so it never needs the registry to refuse an unknown one
    (["roles", "--unit-type", "discipline", "--focal-sc", "LIS"], "--focal-sc does not apply"),
    (["roles", "--unit-type", "discipline", "--focal-sc", "NOPE"], "--focal-sc does not apply"),
], ids=["journal-roles", "correlate", "discipline-known-sc", "discipline-unknown-sc"])
def test_flag_errors_are_reported_before_any_input_is_read(tmp_path, caplog, command, message):
    """A run whose flags cannot succeed names the flag, not an input: none is opened."""
    sample = {"classification": SAMPLE / "subject_categories.csv",
              "journals": SAMPLE / "journals.csv", "citations": tmp_path / "missing.csv"}
    out = tmp_path / "out"
    assert main([*command, *corpus_args(sample), "--out", str(out)]) == 1
    assert message in caplog.text
    assert "missing.csv" not in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_meta_that_cannot_be_written_keeps_the_previous_table(tmp_path, corpus_paths, caplog, fmt):
    """The table and its meta are renamed into place after the last row, the meta first."""
    out = tmp_path / "out"
    argv = ["roles", *corpus_args(corpus_paths), "--focal-sc", "F", "--format", fmt, "--out", str(out)]
    assert main(argv) == 0
    table = (out / f"roles.{fmt}").read_bytes()
    (out / "roles.meta.json").unlink()
    (out / "roles.meta.json").mkdir()
    assert main([*argv, "--decimals", "5"]) == 1  # a run that would write another table
    assert "cannot write output" in caplog.text
    assert (out / f"roles.{fmt}").read_bytes() == table
    assert (out / "roles.meta.json").is_dir()
    assert not list(out.glob("*.partial"))


def test_malformed_row_exits_1(tmp_path, corpus_paths):
    bad = tmp_path / "bad_citations.csv"
    bad.write_text(
        "focal_journal_id,partner_journal_id,dimension,count\nJ1,J2,CITED,-3\n",
        encoding="utf-8",
    )
    code = main(["indicators",
                 "--classification", str(corpus_paths["classification"]),
                 "--journals", str(corpus_paths["journals"]),
                 "--citations", str(bad),
                 "--out", str(tmp_path / "out")])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["indicators", "--format", "xml"],
    ["indicators", "--decimals", "abc"],
    ["correlate"],  # without --metrics
    [],  # no subcommand
])
def test_usage_error_exits_1(argv, capsys):
    # 2 is the exit code of an internal arithmetic error; a usage error is an input error
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ebdi") and "error: " in err
    assert "Traceback" not in err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: ebdi")


def test_oversized_decimals_exits_1_without_traceback(tmp_path, corpus_paths, capsys):
    code = main(["indicators", *corpus_args(corpus_paths), "--decimals", "3000000000",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "out" / "indicators.csv").exists()


def test_warning_still_exits_0(tmp_path):
    # J2 never cites anything: its CITING rows are missing values, not errors
    paths = write_corpus_files(
        tmp_path,
        sc_rows=[("F", "Focal", ""), ("A", "Other", "")],
        journal_rows=[("J1", "One", "F"), ("J2", "Two", "F")],
        citation_rows=[("J1", "J2", "CITED", 3)],
    )
    code = main(["indicators", *corpus_args(paths), "--out", str(tmp_path / "out")])
    assert code == 0


def test_internal_error_exits_2(tmp_path, corpus_paths, monkeypatch):
    import ebdi.cli as cli_module

    def boom(config):
        raise ComputationError("synthetic failure")

    monkeypatch.setattr(cli_module, "run_indicators", boom)
    code = main(["indicators", *corpus_args(corpus_paths), "--out", str(tmp_path / "out")])
    assert code == 2


@pytest.fixture
def three_external_scs(tmp_path):
    """Z9 (SC F) cites journals of three other SCs, and each of them cites Z9 back."""
    return write_corpus_files(
        tmp_path,
        sc_rows=[("F", "Focal", ""), ("A", "A", ""), ("B", "B", ""), ("C", "C", "")],
        journal_rows=[("Z9", "Last", "F"), ("JA", "A J", "A"), ("JB", "B J", "B"), ("JC", "C J", "C")],
        citation_rows=[
            ("Z9", "JA", "CITED", 3), ("Z9", "JB", "CITED", 2), ("Z9", "JC", "CITED", 1),
            ("JA", "Z9", "CITING", 4), ("JB", "Z9", "CITING", 4), ("JC", "Z9", "CITING", 4),
        ],
    )


def test_pct_hmax_above_100_exits_1(tmp_path, three_external_scs, caplog, monkeypatch):
    import ebdi.metrics as metrics_module

    out = tmp_path / "out"
    argv = ["indicators", *corpus_args(three_external_scs), "--n-categories", "2", "--out", str(out)]
    # the load refuses an n_categories below the SCs in use, so H <= ln(n - 1) for real input
    assert main(argv) == 1
    assert "n_categories=2 is below the 4 distinct SCs" in caplog.text
    # a kernel that gives Z9's three external SCs more than ln(4) nats reaches ebdi_value's bound
    entropy = metrics_module._entropy
    monkeypatch.setattr(metrics_module, "_entropy",
                        lambda values: 2.0 if len(values) == 3 else entropy(values))
    caplog.clear()
    assert main(argv[:-4] + ["--out", str(out)]) == 1
    assert "pct_hmax must lie in [0, 100]" in caplog.text
    assert not list(out.iterdir())


def test_out_of_range_entropy_exits_2_and_leaves_no_table(tmp_path, three_external_scs, caplog,
                                                          monkeypatch):
    import ebdi.metrics as metrics_module

    # JA, JB and JC score first; Z9's three external SCs get 0.01 nats above ln(3)
    entropy = metrics_module._entropy
    monkeypatch.setattr(metrics_module, "_entropy",
                        lambda values: math.log(3) + 0.01 if len(values) == 3 else entropy(values))
    out = tmp_path / "out"
    for fmt in ("csv", "json"):
        caplog.clear()
        code = main(["indicators", *corpus_args(three_external_scs), "--format", fmt,
                     "--out", str(out)])
        assert code == 2
        assert "entropy outside [0, ln(raw_diversity)]" in caplog.text
        assert not list(out.iterdir())


def test_n_categories_override_recorded(tmp_path, corpus_paths):
    out = tmp_path / "out"
    code = main(["indicators", *corpus_args(corpus_paths), "--n-categories", "53",
                 "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "indicators.meta.json").read_text())
    assert meta["n_categories"] == 53


def test_fractional_counting_flag(tmp_path, corpus_paths):
    out = tmp_path / "out"
    code = main(["indicators", *corpus_args(corpus_paths), "--counting", "fractional",
                 "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "indicators.meta.json").read_text())
    assert meta["counting_mode"] == "fractional"


def sample_scores(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "unit_id,cited_ebdi,citing_ebdi\nJINF,1.0,2.0\nQMIS,2.0,1.0\nARIS,0.5,0.7\n",
        encoding="utf-8",
    )
    return scores


@pytest.mark.parametrize("command, flags", [
    ("roles", ["--focal-sc", "X"]),
    ("correlate", ["--n-categories", "5"]),
    ("roles", ["--citations", str(SAMPLE / "citations.csv")]),
    ("correlate", ["--classification", str(SAMPLE / "subject_categories.csv"),
                   "--journals", str(SAMPLE / "journals.csv")]),
    ("roles", ["--counting", "whole"]),
    ("correlate", ["--counting", "fractional"]),
])
def test_corpus_flag_beside_scores_exits_1(tmp_path, caplog, command, flags):
    # precomputed scores replace the corpus, so its flags would be recorded but ignored
    extra = ["--metrics", str(SAMPLE / "metrics.csv")] if command == "correlate" else []
    out = tmp_path / "out"
    code = main([command, "--scores", str(sample_scores(tmp_path)), *extra, *flags,
                 "--out", str(out)])
    assert code == 1
    for flag in flags[::2]:
        assert flag in caplog.text
    assert not out.exists()


SAMPLE_CORPUS = [
    "--classification", str(SAMPLE / "subject_categories.csv"),
    "--journals", str(SAMPLE / "journals.csv"),
    "--citations", str(SAMPLE / "citations.csv"),
]
#: every shared flag at a value other than its default, and what the meta records for it
SHARED_FLAGS = ["--n-categories", "40", "--counting", "fractional", "--format", "json",
                "--decimals", "5"]
SHARED_META = {"n_categories": 40, "counting_mode": "fractional", "format": "json", "decimals": 5}


@pytest.mark.parametrize("command, stem, flags, recorded", [
    ("indicators", "indicators", [*SAMPLE_CORPUS, *SHARED_FLAGS, "--focal-sc", "LIS"],
     {**SHARED_META, "focal_sc": "LIS"}),
    ("roles", "roles", [*SAMPLE_CORPUS, *SHARED_FLAGS, "--focal-sc", "LIS"],
     {**SHARED_META, "focal_sc": "LIS", "unit_type": "journal"}),
    ("roles", "roles", [*SAMPLE_CORPUS, *SHARED_FLAGS, "--unit-type", "discipline"],
     {**SHARED_META, "focal_sc": None, "unit_type": "discipline"}),
    ("roles", "roles", ["--scores", "SCORES", "--unit-type", "discipline", "--format", "json",
                        "--decimals", "5"],
     {"n_categories": None, "counting_mode": None, "format": "json", "decimals": 5,
      "focal_sc": None, "unit_type": "discipline"}),
    ("correlate", "correlations",
     [*SAMPLE_CORPUS, *SHARED_FLAGS, "--focal-sc", "LIS", "--metrics", "METRICS"],
     {**SHARED_META, "focal_sc": "LIS", "metrics_file": "METRICS"}),
    ("correlate", "correlations",
     ["--scores", "SCORES", "--metrics", "METRICS", "--format", "json", "--decimals", "5"],
     {"n_categories": None, "counting_mode": None, "format": "json", "decimals": 5,
      "metrics_file": "METRICS"}),
    ("network", "sc_network",
     [*SAMPLE_CORPUS, *SHARED_FLAGS, "--dimension", "citing", "--top-k", "2"],
     {**SHARED_META, "focal_sc": None, "dimension": "CITING", "top_k": 2}),
])
def test_every_flag_reaches_the_run(tmp_path, command, stem, flags, recorded):
    # each flag's dest is the name of its RunConfig field; a drifted dest leaves the field
    # at its default, which this run either needs (exit 1) or records in the meta
    files = {"SCORES": str(sample_scores(tmp_path)), "METRICS": str(SAMPLE / "metrics.csv")}
    flags = [files.get(flag, flag) for flag in flags]
    recorded = {key: files.get(value, value) for key, value in recorded.items()}
    out = tmp_path / "out"
    assert main([command, *flags, "--out", str(out)]) == 0
    meta = json.loads((out / f"{stem}.meta.json").read_text(encoding="utf-8"))
    assert {key: meta[key] for key in recorded} == recorded
    assert meta["command"] == command
    assert (out / f"{stem}.json").exists()
