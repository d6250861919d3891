"""Tests of the benchmark itself: generator, artifact checks and tracer.

    PYTHONPATH=src python -m pytest -q benchmarks

They run each workload at a tiny scale in this process; no timing is asserted.
"""

from __future__ import annotations

import csv
import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ebdi.cli  # noqa: E402
from gen_corpus import CorpusParams, generate  # noqa: E402
from tracing import layer_metrics, run_iterations, self_times  # noqa: E402
from workloads import WORKLOADS, artifact_digests  # noqa: E402

TINY = {"n_scs": 12, "n_journals": 60}


def tiny(workload):
    rows = min(workload.params.citation_rows, 600)
    return dataclasses.replace(workload.params, citation_rows=rows, **TINY)


def run_tiny(name: str, tmp_path: Path, seed: int = 3):
    workload = WORKLOADS[name]
    corpus = generate(tiny(workload), seed, tmp_path / "inputs")
    out = tmp_path / "out"
    codes = [ebdi.cli.main(argv) for argv in workload.invocations(tmp_path / "inputs", out)]
    return workload, corpus, out, codes


def test_generator_is_deterministic_for_a_seed(tmp_path):
    params = CorpusParams(n_scs=12, n_journals=60, citation_rows=500, rows_per_edge=5, max_scs_per_journal=5)
    first = generate(params, 7, tmp_path / "a")
    second = generate(params, 7, tmp_path / "b")
    other = generate(params, 8, tmp_path / "c")
    for name in [*first.manifest["files"], "manifest.json"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    assert first.manifest == second.manifest
    assert first.manifest["files"]["citations.csv"] != other.manifest["files"]["citations.csv"]
    assert first.manifest["files"]["citations.csv"]["rows"] == 500


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_verification(name, tmp_path):
    workload, corpus, out, codes = run_tiny(name, tmp_path)
    assert codes == [0] * len(codes)
    assert workload.verify(corpus, out, 3) == []


@pytest.mark.parametrize("name, path", [
    ("indicators-all", "indicators/indicators.csv"),
    ("sc-views", "network/sc_network.csv"),
    ("scores-correlate", "correlate/correlations.csv"),
])
def test_verification_rejects_a_changed_value(name, path, tmp_path):
    workload, corpus, out, _ = run_tiny(name, tmp_path)
    target = out / path
    with target.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    column = {"indicators-all": "ebdi", "sc-views": "weight", "scores-correlate": "rho"}[name]
    index = rows[0].index(column)
    row = next(r for r in rows[1:] if r[index])
    row[index] = str(float(row[index]) + 0.5)
    with target.open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    assert workload.verify(corpus, out, 3)


def test_artifacts_are_byte_identical_across_iterations(tmp_path):
    workload = WORKLOADS["sc-views"]
    generate(tiny(workload), 3, tmp_path / "inputs")
    digests = []
    for i in range(2):
        out = tmp_path / f"out{i}"
        assert [ebdi.cli.main(argv) for argv in workload.invocations(tmp_path / "inputs", out)] == [0, 0]
        digests.append(artifact_digests(out))
    assert digests[0] == digests[1] and len(digests[0]) == 5


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_self_times_sum_to_the_traced_total(name, tmp_path):
    workload = WORKLOADS[name]
    corpus = generate(tiny(workload), 3, tmp_path / "inputs")
    iterations, tracer = run_iterations(
        lambda out: workload.invocations(tmp_path / "inputs", out), tmp_path / "out", 0.0)
    assert [it["mode"] for it in iterations] == ["warmup", "untraced", "traced"]
    assert iterations[1]["spans"][0] == iterations[1]["spans"][1]  # untraced records nothing
    for it in (iterations[0], iterations[2]):
        spans = tracer.spans[it["spans"][0]:it["spans"][1]]
        roots = [s for s in spans if s[1] is None]
        assert [s[3] for s in roots] == ["main"] * len(workload.steps(tmp_path))
        own = self_times(spans)
        assert all(value >= 0 for value in own.values())
        assert sum(own.values()) == pytest.approx(sum(s[5] - s[4] for s in roots), rel=1e-9, abs=1e-9)
        assert sum(s[5] - s[4] for s in roots) <= it["total_s"]

    metrics = layer_metrics(tracer.spans, iterations, tracer.rss_after_first_load_kb, corpus, 1)
    corpus_calls = metrics["corpus.load_calls"][0]
    profile_calls = metrics["metrics.build_profile_calls"][0]
    if name == "scores-correlate":
        assert corpus_calls == profile_calls == metrics["metrics.compute_ebdi_calls"][0] == 0
        assert metrics["stats.correlate_calls"][0] == 45
    else:
        assert corpus_calls == len(workload.steps(tmp_path)) and profile_calls > 0
        assert metrics["metrics.edge_visits_per_edge"][0] >= 1.0


def test_check_fails_only_the_iteration_that_failed(tmp_path):
    from run import check

    workload = WORKLOADS["scores-correlate"]
    corpus = generate(tiny(workload), 3, tmp_path / "inputs")
    outs = [tmp_path / f"out{i}" for i in range(3)]
    codes = [[ebdi.cli.main(argv) for argv in workload.invocations(tmp_path / "inputs", out)] for out in outs]
    codes[2] = [0, 1]  # as if the last invocation of the last iteration had failed
    passed, problems = check(workload, corpus, 3, {"codes": codes, "outs": outs}, tmp_path / "inputs")
    assert passed == [True, True, False]
    assert problems == ["iteration 2: exit codes [0, 1]"]

    (outs[1] / "roles" / "roles.csv").write_text("unit_id,role\n")
    passed, problems = check(workload, corpus, 3, {"codes": codes, "outs": outs}, tmp_path / "inputs")
    assert passed == [True, False, False]
    assert "artifacts differ between iterations" in problems


def test_end_to_end_metrics_time_only_passing_iterations():
    from run import end_to_end_metrics

    run = {"setups": [1.0, 1.2, 1.1], "walls": [9.0, 2.0, 4.0], "rss": [10240, 1024, 2048],
           "codes": [[1, 0], [0, 0], [0, 0]]}
    metrics = end_to_end_metrics(run, [False, True, True], 600)
    assert metrics["wall_s"][0] == 3.0 and metrics["rows_per_s"][0] == 200.0
    assert metrics["peak_rss_mb"][0] == 2.0 and metrics["setup_s"][0] == 1.1
    assert list(end_to_end_metrics(run, [False] * 3, 600)) == ["setup_s"]


def test_cli_import_time_covers_the_whole_import():
    import subprocess

    from run import _child_env, parse_importtime

    nested = ("import time: self [us] | cumulative | imported package\n"
              "import time:       400 |     1000400 |       ebdi.stats\n"
              "import time:       300 |     1000700 |   ebdi\n"
              "import time:       200 |     1000900 | ebdi.cli\n")
    top_level = ("import time:       400 |     1000400 |     ebdi.stats\n"
                 "import time:       300 |     1000700 | ebdi\n"
                 "import time:       200 |         200 | ebdi.cli\n")
    assert parse_importtime(nested) == pytest.approx((1.0009, 1.0004))
    assert parse_importtime(top_level) == pytest.approx((1.0009, 1.0004))
    assert parse_importtime("import time:       200 |         200 | ebdi.cli\n") == (0.0002, 0.0)

    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ebdi.cli"],
                          env=_child_env(), capture_output=True, text=True, check=True)
    cli, stats = parse_importtime(done.stderr)
    assert cli >= stats > 0
