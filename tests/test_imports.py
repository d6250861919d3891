"""Start-up cost guard: no subcommand needs scipy or numpy, and the CLI's
import loads no standard-library subtree that no run uses.

scipy.stats takes about a second and 80 MB to import, which would dominate
every subcommand on a small corpus; the rank correlation and its p-value use
the standard library alone. Each case runs the CLI in a fresh interpreter,
because this test process has long since imported scipy itself: the tests
keep it as an oracle.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SAMPLE = REPO / "sample_data"
CORPUS_ARGS = [
    "--classification", str(SAMPLE / "subject_categories.csv"),
    "--journals", str(SAMPLE / "journals.csv"),
    "--citations", str(SAMPLE / "citations.csv"),
]
HEAVY_MODULES = ("scipy", "xml.sax")
#: dataclasses (which imports inspect, ast and dis), statistics (fractions,
#: decimal) and html (html.entities): 7 ms and 2 MB at start-up, for no run
UNUSED_STDLIB = ("dataclasses", "inspect", "statistics", "html")

CHILD = """
import json, sys

class Blocker:
    blocked = set(json.loads(sys.argv[2]))

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in self.blocked:
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, Blocker())
import ebdi, ebdi.cli
codes = [ebdi.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def run_fresh(runs: list[list[str]], blocked: tuple[str, ...] = ()) -> dict[str, list]:
    """Run ``ebdi.cli.main`` on each argv in one new interpreter.

    Importing any of the ``blocked`` packages raises ``ImportError`` there.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(runs), json.dumps(blocked)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_only_correlate_needs_scipy(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("unit_id,cited_ebdi,citing_ebdi\nA,10,20\nB,30,5\nC,15,15\n", encoding="utf-8")
    out = str(tmp_path / "out")
    result = run_fresh([
        ["indicators", *CORPUS_ARGS, "--out", out],
        ["roles", *CORPUS_ARGS, "--unit-type", "discipline", "--out", out],
        ["roles", "--scores", str(scores), "--out", out],
        ["network", *CORPUS_ARGS, "--dimension", "citing", "--top-k", "3", "--out", out],
    ])
    assert result["codes"] == [0, 0, 0, 0]
    loaded = [
        m for m in result["modules"]
        if any(m == heavy or m.startswith(heavy + ".") for heavy in HEAVY_MODULES)
    ]
    assert loaded == [], f"heavy modules loaded at start-up: {loaded[:5]}"


def test_cli_import_loads_no_unused_stdlib():
    """``-I`` keeps the environment and the user's site directory out of the child."""
    child = "import sys; sys.path.insert(0, sys.argv[1]); import ebdi.cli; print(*sorted(sys.modules))"
    done = subprocess.run(
        [sys.executable, "-I", "-c", child, str(REPO / "src")], capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    modules = done.stdout.split()
    assert "ebdi.cli" in modules
    assert [m for m in modules if m.partition(".")[0] in UNUSED_STDLIB] == []


def test_every_subcommand_runs_without_scipy_or_numpy(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "unit_id,cited_ebdi,citing_ebdi\nJINF,10,20\nQMIS,30,5\nARIS,15,15\nISJX,12,9\n",
        encoding="utf-8",
    )
    out = str(tmp_path / "out")
    metrics = ["--metrics", str(SAMPLE / "metrics.csv")]
    result = run_fresh([
        ["indicators", *CORPUS_ARGS, "--out", out],
        ["roles", *CORPUS_ARGS, "--focal-sc", "LIS", "--out", out],
        ["roles", *CORPUS_ARGS, "--unit-type", "discipline", "--out", out],
        ["roles", "--scores", str(scores), "--out", out],
        ["network", *CORPUS_ARGS, "--dimension", "cited", "--top-k", "3", "--out", out],
        ["correlate", *CORPUS_ARGS, "--focal-sc", "LIS", *metrics, "--out", out],
        ["correlate", "--scores", str(scores), *metrics, "--out", out],
    ], blocked=("scipy", "numpy"))
    assert result["codes"] == [0] * 7
    assert len((tmp_path / "out" / "correlations.csv").read_text().splitlines()) == 1 + 6
    loaded = [m for m in result["modules"] if m.partition(".")[0] in ("scipy", "numpy")]
    assert loaded == []


#: the documented library surface: load a corpus, profile and score a unit, classify
PUBLIC_NAMES = {
    "Corpus", "CountingMode", "Dimension", "load_corpus", "load_edges",
    "ComputationError", "EbdiError", "LoadError", "NoCitationsError", "ValidationError",
    "CitationProfile", "EbdiScore", "build_profile", "compute_ebdi",
    "compute_journal_indicators", "aggregate_sc_network",
    "JournalRole", "JournalRoleLabel", "Level", "TradeDirection",
    "classify_discipline", "build_journal_roles",
}
#: names the package no longer re-exports, by the module that defines them
MODULE_NAMES = {
    "ebdi.corpus": ("load_classification",),
    "ebdi.metrics": ("ebdi_value",),
    "ebdi.report": ("RunConfig", "export_sc_network", "run_correlations", "run_indicators", "run_roles"),
    "ebdi.stats": ("CorrelationResult", "MetricSeries", "correlate", "load_metric_series",
                   "p_two_tailed", "spearman_rho"),
    "ebdi.taxonomy": ("classify_journal", "median_threshold"),
}


def test_all_lists_exactly_the_public_names():
    """``__all__`` names every public non-module binding of the package, and only those."""
    import types

    import ebdi

    public = {
        name for name, value in vars(ebdi).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    # equality with the bound names also means every listed name resolves
    assert set(ebdi.__all__) == public
    assert len(ebdi.__all__) == len(public)
    assert set(ebdi.__all__) == PUBLIC_NAMES


def test_names_outside_the_surface_import_from_their_module():
    import importlib

    import ebdi

    for module_name, names in MODULE_NAMES.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert getattr(module, name, None) is not None, (module_name, name)
            assert name not in ebdi.__all__


def test_oracle_imports_without_the_package():
    """``tests/oracle.py`` imports with no ``ebdi`` reachable, as ``benchmarks/run.py`` imports it.

    ``-S`` and an emptied ``PYTHONPATH`` keep both ``src/`` and an editable
    install off the child's path.
    """
    child = "import sys; sys.path.insert(0, sys.argv[1]); import oracle; print('ebdi' in sys.modules)"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-S", "-c", child, str(REPO / "tests")],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
