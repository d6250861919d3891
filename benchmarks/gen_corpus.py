"""Seeded synthetic inputs for the ebdi benchmark (pure standard library).

One call writes all five input files the ``ebdi`` CLI reads:

- ``subject_categories.csv``  ``sc_id,name,branch``
- ``journals.csv``            ``journal_id,title,sc_memberships``
- ``citations.csv``           ``focal_journal_id,partner_journal_id,dimension,count``
- ``metrics.csv``             ``journal_id,metric_name,value`` (long format)
- ``scores.csv``              ``unit_id,cited_ebdi,citing_ebdi``

plus ``manifest.json`` with the parameters, the seed and the sha256 and row
count of every file. The same (parameters, seed) always gives byte-identical
files.

Structure: journal ``i`` has a home SC ``i * n_scs // n_journals`` and up to
``max_scs_per_journal - 1`` further SCs drawn from the SCs next to it, so
journals with nearby ids share SCs. A citation partner is a near neighbour
(a journal id within one SC block of the focal one, hence often internal) with
probability ``near_share`` and a uniformly random journal otherwise. Each
merged (focal, partner, dimension) edge is written as ``rows_per_edge`` rows,
as in a per-year export that the loader has to sum.

Run ``python3 benchmarks/gen_corpus.py --seed 1 --out DIR`` to write the
indicators-all scale corpus; see ``--help`` for the other parameters.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import random
from dataclasses import asdict, dataclass
from pathlib import Path

N_METRICS = 8  # with cited_ebdi and citing_ebdi, 10 series give 45 correlation pairs


@dataclass(frozen=True)
class CorpusParams:
    n_scs: int = 250
    n_journals: int = 10_000
    citation_rows: int = 60_000
    max_scs_per_journal: int = 3
    rows_per_edge: int = 1
    near_share: float = 0.4  # the rest (60%) of partners are uniformly random

    def __post_init__(self) -> None:
        if self.n_scs < 2 or self.n_journals < 2:
            raise ValueError("need at least 2 SCs and 2 journals")
        if not 1 <= self.max_scs_per_journal <= self.n_scs:
            raise ValueError("max_scs_per_journal must lie in [1, n_scs]")
        if self.rows_per_edge < 1 or self.citation_rows < 0:
            raise ValueError("rows_per_edge must be >= 1 and citation_rows >= 0")
        if not 0.0 <= self.near_share <= 1.0:
            raise ValueError("near_share must lie in [0, 1]")


@dataclass
class GeneratedCorpus:
    """The generated data, kept in memory for the benchmark's verification."""

    memberships: dict[str, list[str]]          # journal_id -> sorted sc_ids
    citation_rows: list[tuple[str, str, str, int]]
    scores: list[tuple[str, float | None, float | None]]
    metrics: dict[str, dict[str, float]]       # metric_name -> journal_id -> value
    manifest: dict


def _journal_ids(n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"J{i:0{width}d}" for i in range(n)]


def _memberships(rng: random.Random, p: CorpusParams, journal_ids: list[str]) -> dict[str, list[str]]:
    width = len(str(p.n_scs - 1))
    sc_ids = [f"SC{i:0{width}d}" for i in range(p.n_scs)]
    memberships = {}
    for i, jid in enumerate(journal_ids):
        home = i * p.n_scs // p.n_journals
        span = range(home - p.max_scs_per_journal, home + p.max_scs_per_journal + 1)
        nearby = [s for s in dict.fromkeys(s % p.n_scs for s in span) if s != home]
        k = rng.randint(1, p.max_scs_per_journal)
        chosen = [home] + rng.sample(nearby, k - 1)
        memberships[jid] = sorted(sc_ids[s] for s in chosen)
    return memberships


def _citation_rows(rng: random.Random, p: CorpusParams,
                   journal_ids: list[str]) -> list[tuple[str, str, str, int]]:
    n = len(journal_ids)
    block = max(1, n // p.n_scs)
    edges = []
    for _ in range(p.citation_rows // p.rows_per_edge):
        focal = rng.randrange(n)
        if rng.random() < p.near_share:
            partner = (focal + rng.randint(-block, block)) % n
        else:
            partner = rng.randrange(n)
        dimension = "CITED" if rng.random() < 0.5 else "CITING"
        edges.append((journal_ids[focal], journal_ids[partner], dimension))
    rows = []
    for _year in range(p.rows_per_edge):
        for focal, partner, dimension in edges:
            rows.append((focal, partner, dimension, 1 + int(rng.expovariate(1 / 6))))
    return rows


def _scores(rng: random.Random, journal_ids: list[str]) -> list[tuple[str, float | None, float | None]]:
    def value() -> float | None:
        return None if rng.random() < 0.02 else round(rng.uniform(0.0, 100.0), 4)

    return [(jid, value(), value()) for jid in journal_ids]


def _metrics(rng: random.Random, scores) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for m in range(1, N_METRICS + 1):
        weight_cited, weight_citing = rng.uniform(-1, 1), rng.uniform(-1, 1)
        series = {}
        for jid, cited, citing in scores:
            if rng.random() < 0.05:
                continue  # absent: correlations join pairwise-complete
            signal = weight_cited * (cited or 50.0) + weight_citing * (citing or 50.0)
            # one decimal on a coarse scale leaves many ties for the average-rank path
            series[jid] = round(signal + rng.gauss(0.0, 30.0), 1)
        out[f"metric_{m}"] = series
    return out


def _csv_bytes(header: tuple[str, ...], rows) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def _cell(value: float | None) -> str:
    return "" if value is None else repr(value)


def render(params: CorpusParams, seed: int) -> tuple[GeneratedCorpus, dict[str, bytes]]:
    """The generated data and the bytes of the five files, without writing them."""
    rng = random.Random(seed)
    journal_ids = _journal_ids(params.n_journals)
    memberships = _memberships(rng, params, journal_ids)
    citation_rows = _citation_rows(rng, params, journal_ids)
    scores = _scores(rng, journal_ids)
    metrics = _metrics(rng, scores)

    sc_ids = sorted({sc for scs in memberships.values() for sc in scs})
    files = {
        "subject_categories.csv": _csv_bytes(
            ("sc_id", "name", "branch"),
            ((sc, f"Category {sc}", f"Branch {i % 7}") for i, sc in enumerate(sc_ids))),
        "journals.csv": _csv_bytes(
            ("journal_id", "title", "sc_memberships"),
            ((jid, f"Journal {jid}", ";".join(scs)) for jid, scs in memberships.items())),
        "citations.csv": _csv_bytes(
            ("focal_journal_id", "partner_journal_id", "dimension", "count"), citation_rows),
        "metrics.csv": _csv_bytes(
            ("journal_id", "metric_name", "value"),
            ((jid, name, repr(v)) for name, series in metrics.items() for jid, v in series.items())),
        "scores.csv": _csv_bytes(
            ("unit_id", "cited_ebdi", "citing_ebdi"),
            ((jid, _cell(cited), _cell(citing)) for jid, cited, citing in scores)),
    }
    manifest = {
        "seed": seed,
        "params": asdict(params),
        "files": {name: {"sha256": hashlib.sha256(data).hexdigest(), "rows": data.count(b"\n") - 1}
                  for name, data in files.items()},
    }
    return GeneratedCorpus(memberships, citation_rows, scores, metrics, manifest), files


def generate(params: CorpusParams, seed: int, out_dir: Path) -> GeneratedCorpus:
    """Write the five input files and ``manifest.json`` into ``out_dir``."""
    corpus, files = render(params, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (out_dir / name).write_bytes(data)
    (out_dir / "manifest.json").write_text(json.dumps(corpus.manifest, indent=2, sort_keys=True) + "\n")
    return corpus


def params_to_args(params: CorpusParams) -> list[str]:
    """Command-line flags of this script that reproduce ``params``."""
    return [arg for name, value in asdict(params).items()
            for arg in ("--" + name.replace("_", "-"), str(value))]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    defaults = CorpusParams()
    for name, value in asdict(defaults).items():
        parser.add_argument("--" + name.replace("_", "-"), type=type(value), default=value)
    args = parser.parse_args(argv)
    params = CorpusParams(**{name: getattr(args, name) for name in asdict(defaults)})
    corpus = generate(params, args.seed, args.out)
    print(json.dumps(corpus.manifest["files"], indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
