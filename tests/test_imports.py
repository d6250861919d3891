"""Start-up cost guard: only ``correlate`` may load scipy.

scipy.stats takes about a second to import, which would dominate every
subcommand on a small corpus. Each case runs the CLI in a fresh interpreter,
because this test process has long since imported scipy itself.
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

CHILD = """
import json, sys
import ebdi, ebdi.cli
codes = [ebdi.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "modules": sorted(sys.modules)}))
"""


def run_fresh(runs: list[list[str]]) -> dict[str, list]:
    """Run ``ebdi.cli.main`` on each argv in one new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(runs)],
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


def test_correlate_loads_scipy_stats(tmp_path):
    result = run_fresh([[
        "correlate", *CORPUS_ARGS, "--focal-sc", "LIS",
        "--metrics", str(SAMPLE / "metrics.csv"), "--out", str(tmp_path / "out"),
    ]])
    assert result["codes"] == [0]
    assert "scipy.stats" in result["modules"]
