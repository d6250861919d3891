"""The benchmark's workloads and the checks on their artifacts.

A workload is a generated corpus (``gen_corpus.CorpusParams``) plus a fixed
sequence of ``ebdi`` CLI invocations, each writing into its own output
directory so that no invocation overwrites another's ``run_meta.json``.

Every artifact is checked against ``tests/oracle.py``, the test suite's
brute-force reference, which consumes raw rows and shares no code with the
package. The oracle is quadratic, so it only sees the sampled units' edges.
"""

from __future__ import annotations

import csv
import hashlib
import math
import random
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from gen_corpus import CorpusParams, GeneratedCorpus

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
import oracle  # noqa: E402  (tests/oracle.py)

#: CSV decimals the CLI writes by default; rounded cells are compared at this precision
DECIMALS = 2
#: correlations are written with more decimals, so that the average-rank tie rule shows
CORRELATION_DECIMALS = 6
#: journals (indicators-all) and SCs (sc-views) whose rows go through the oracle
SAMPLE_UNITS = 25
NETWORK_TOP_K = 10


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: CorpusParams
    #: (step name, CLI arguments without --out); each step writes into out/<step name>
    steps: Callable[[Path], list[tuple[str, list[str]]]]
    #: data rows of the input files the workload reads
    input_files: tuple[str, ...]
    verify: Callable[[GeneratedCorpus, Path, int], list[str]]

    def invocations(self, inputs: Path, out_root: Path) -> list[list[str]]:
        return [args + ["--out", str(out_root / step)] for step, args in self.steps(inputs)]

    def input_rows(self, corpus: GeneratedCorpus) -> int:
        return sum(corpus.manifest["files"][name]["rows"] for name in self.input_files)


def _corpus_args(inputs: Path) -> list[str]:
    return [
        "--classification", str(inputs / "subject_categories.csv"),
        "--journals", str(inputs / "journals.csv"),
        "--citations", str(inputs / "citations.csv"),
    ]


def artifact_digests(out_root: Path) -> dict[str, str]:
    """sha256 of every file an iteration wrote, keyed by its relative path."""
    return {
        str(path.relative_to(out_root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_root.rglob("*")) if path.is_file()
    }


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _close(cell: str, value: float | None, decimals: int = DECIMALS) -> bool:
    if value is None:
        return cell == ""
    return cell != "" and abs(float(cell) - value) <= 0.5 * 10 ** -decimals + 1e-9


# -- indicators-all -------------------------------------------------------------

_INDICATOR_FLOATS = ("pct_internal", "H", "Hmax", "pct_hmax", "ebdi")


def verify_indicators(corpus: GeneratedCorpus, out_root: Path, seed: int) -> list[str]:
    rows = _read_csv(out_root / "indicators" / "indicators.csv")
    expected_keys = [
        (jid, sc, dim)
        for jid in sorted(corpus.memberships)
        for sc in corpus.memberships[jid]
        for dim in ("CITED", "CITING")
    ]
    keys = [(row["unit_id"], row["focal_sc"], row["dimension"]) for row in rows]
    if keys != expected_keys:
        return [f"indicators.csv rows: {len(keys)} keys, expected {len(expected_keys)} in order"]

    sample = set(random.Random(seed).sample(sorted(corpus.memberships), SAMPLE_UNITS))
    edges = [row for row in corpus.citation_rows if row[0] in sample]
    involved = sample | {partner for _, partner, _, _ in edges}
    memberships = {jid: set(corpus.memberships[jid]) for jid in involved}
    n_categories = len({sc for scs in corpus.memberships.values() for sc in scs})
    truth = oracle.brute_indicator_rows(memberships, edges, n_categories, "whole")

    problems = []
    for row in rows:
        key = (row["unit_id"], row["focal_sc"], row["dimension"])
        if key[0] not in sample:
            continue
        want = truth[key]
        if want is None:
            ok = all(row[column] == "" for column in _INDICATOR_FLOATS + ("sum_external", "raw_diversity"))
        else:
            ok = (all(_close(row[column], want[column]) for column in _INDICATOR_FLOATS)
                  and row["sum_external"] == str(int(want["sum_external"]))
                  and row["raw_diversity"] == str(want["raw_diversity"]))
        if not ok:
            problems.append(f"indicators.csv row {key} disagrees with the oracle: {row} vs {want}")
    return problems


# -- sc-views -------------------------------------------------------------------


def _discipline_truth(corpus: GeneratedCorpus, sc: str, n_categories: int) -> dict:
    """Oracle values of a whole SC: its members' edges on one pseudo-journal."""
    members = {jid for jid, scs in corpus.memberships.items() if sc in scs}
    unit = "~" + sc
    edges = [(unit, partner, dim, count)
             for focal, partner, dim, count in corpus.citation_rows if focal in members]
    memberships = {partner: set(corpus.memberships[partner]) for _, partner, _, _ in edges}
    memberships[unit] = {sc}
    truth = oracle.brute_indicator_rows(memberships, edges, n_categories, "fractional")
    return {dim: truth[(unit, sc, dim)] for dim in ("CITED", "CITING")}


def verify_sc_views(corpus: GeneratedCorpus, out_root: Path, seed: int) -> list[str]:
    problems = []
    sc_ids = sorted({sc for scs in corpus.memberships.values() for sc in scs})
    roles = _read_csv(out_root / "roles" / "roles.csv")
    if [row["unit_id"] for row in roles] != sc_ids:
        problems.append(f"roles.csv lists {len(roles)} SCs, expected {len(sc_ids)}")
        return problems
    by_sc = {row["unit_id"]: row for row in roles}
    for sc in random.Random(seed).sample(sc_ids, min(SAMPLE_UNITS, len(sc_ids))):
        truth = _discipline_truth(corpus, sc, len(sc_ids))
        row = by_sc[sc]
        cited = truth["CITED"]["ebdi"] if truth["CITED"] else None
        citing = truth["CITING"]["ebdi"] if truth["CITING"] else None
        if not (_close(row["cited_ebdi"], cited) and _close(row["citing_ebdi"], citing)):
            problems.append(f"roles.csv {sc}: {row} vs oracle cited={cited} citing={citing}")
            continue
        if cited is None or citing is None:
            expected_type = "UNCLASSIFIED"
        else:
            difference = cited - citing
            expected_type = "IMPORTER" if difference > 0 else "EXPORTER" if difference < 0 else "BALANCED"
            if not _close(row["difference"], difference):
                problems.append(f"roles.csv {sc}: difference {row['difference']} vs {difference}")
        if row["type"] != expected_type:
            problems.append(f"roles.csv {sc}: type {row['type']} vs {expected_type}")

    weights = oracle.brute_sc_network(
        {jid: set(scs) for jid, scs in corpus.memberships.items()},
        corpus.citation_rows, "CITING", "fractional",
    )
    volume: dict[str, float] = {}
    for (source, target), weight in weights.items():
        volume[source] = volume.get(source, 0.0) + weight
        if target != source:
            volume[target] = volume.get(target, 0.0) + weight
    retained = set(sorted(volume, key=lambda sc: (-volume[sc], sc))[:NETWORK_TOP_K])
    expected = {pair: w for pair, w in weights.items() if pair[0] in retained or pair[1] in retained}
    network = _read_csv(out_root / "network" / "sc_network.csv")
    got = {(row["source_sc"], row["target_sc"]): float(row["weight"]) for row in network}
    if set(got) != set(expected) or len(network) != len(expected):
        problems.append(f"sc_network.csv has {len(network)} edges, the oracle keeps {len(expected)}")
        return problems
    for pair, weight in got.items():
        if not math.isclose(weight, expected[pair], rel_tol=1e-9):
            problems.append(f"sc_network.csv {pair}: weight {weight} vs oracle {expected[pair]}")
    ordered = [float(row["weight"]) for row in network]
    if ordered != sorted(ordered, reverse=True):
        problems.append("sc_network.csv is not sorted by weight descending")
    return problems


# -- scores-correlate -----------------------------------------------------------


def _expected_roles(scores) -> dict[str, str]:
    cited = [c for _, c, _ in scores if c is not None]
    citing = [c for _, _, c in scores if c is not None]
    cited_t, citing_t = statistics.median(cited), statistics.median(citing)
    quadrant = {(True, True): "CORE", (True, False): "KNOWLEDGE_IMPORTER",
                (False, True): "KNOWLEDGE_EXPORTER", (False, False): "TANGENTIAL"}
    return {
        unit: "UNCLASSIFIED" if c is None or d is None else quadrant[(c >= cited_t, d >= citing_t)]
        for unit, c, d in scores
    }


def verify_scores_correlate(corpus: GeneratedCorpus, out_root: Path, seed: int) -> list[str]:
    problems = []
    roles = _read_csv(out_root / "roles" / "roles.csv")
    expected_roles = _expected_roles(corpus.scores)
    got_roles = {row["unit_id"]: row["role"] for row in roles}
    if got_roles != expected_roles or len(roles) != len(expected_roles):
        wrong = sum(1 for unit, role in expected_roles.items() if got_roles.get(unit) != role)
        problems.append(f"roles.csv: {wrong} of {len(expected_roles)} roles disagree with the medians")
    classified = sum(1 for role in expected_roles.values() if role != "UNCLASSIFIED")
    points = (out_root / "roles" / "scatter.svg").read_text(encoding="utf-8").count("<circle")
    if points != classified:
        problems.append(f"scatter.svg has {points} points, expected {classified}")

    series = [
        ("cited_ebdi", {u: c for u, c, _ in corpus.scores if c is not None}),
        ("citing_ebdi", {u: c for u, _, c in corpus.scores if c is not None}),
    ] + sorted(corpus.metrics.items())
    expected = []
    for i in range(len(series)):
        for j in range(i + 1, len(series)):
            (name_x, x), (name_y, y) = series[i], series[j]
            overlap = sorted(set(x) & set(y))
            rho = oracle.brute_rank_pearson([x[u] for u in overlap], [y[u] for u in overlap])
            expected.append((name_x, name_y, len(overlap), rho))
    rows = _read_csv(out_root / "correlate" / "correlations.csv")
    if len(rows) != len(expected):
        return problems + [f"correlations.csv has {len(rows)} pairs, expected {len(expected)}"]
    for row, (name_x, name_y, n, rho) in zip(rows, expected):
        same_pair = (row["metric_x"], row["metric_y"], row["n"]) == (name_x, name_y, str(n))
        if not (same_pair and _close(row["rho"], rho, CORRELATION_DECIMALS)):
            problems.append(f"correlations.csv {row} vs oracle ({name_x}, {name_y}, n={n}, rho={rho})")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="indicators-all",
            why="the paper's main table over every journal membership on a pre-merged export: "
                "parse, 40k small profiles and CSV emission",
            params=CorpusParams(citation_rows=60_000, max_scs_per_journal=3, rows_per_edge=1),
            steps=lambda inputs: [("indicators", ["indicators", *_corpus_args(inputs)])],
            input_files=("citations.csv",),
            verify=verify_indicators,
        ),
        Workload(
            name="sc-views",
            why="discipline roles then the SC network, fractional, on a per-year export: "
                "row merging, 500 large profiles, SC aggregation, two parses",
            params=CorpusParams(citation_rows=60_000, max_scs_per_journal=5, rows_per_edge=5),
            steps=lambda inputs: [
                ("roles", ["roles", *_corpus_args(inputs), "--counting", "fractional",
                           "--unit-type", "discipline"]),
                ("network", ["network", *_corpus_args(inputs), "--counting", "fractional",
                             "--dimension", "citing", "--top-k", str(NETWORK_TOP_K)]),
            ],
            input_files=("citations.csv",),
            verify=verify_sc_views,
        ),
        Workload(
            name="scores-correlate",
            why="roles and 45 rank correlations from precomputed scores: "
                "bypasses corpus and metrics, so corpus or kernel changes must not move it",
            params=CorpusParams(citation_rows=0),
            steps=lambda inputs: [
                ("roles", ["roles", "--scores", str(inputs / "scores.csv")]),
                ("correlate", ["correlate", "--scores", str(inputs / "scores.csv"),
                               "--metrics", str(inputs / "metrics.csv"),
                               "--decimals", str(CORRELATION_DECIMALS)]),
            ],
            input_files=("scores.csv", "metrics.csv"),
            verify=verify_scores_correlate,
        ),
    )
}
