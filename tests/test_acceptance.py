"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest -s``). Tolerances are pinned here and
nowhere else."""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from contextlib import contextmanager

import pytest

from ebdi import (
    CitationProfile,
    CountingMode,
    Dimension,
    build_profile,
    classify_discipline,
    compute_ebdi,
)
from ebdi.cli import main as cli_main
from ebdi.metrics import _entropy, ebdi_value
from ebdi.report import RunConfig, run_indicators
from ebdi.stats import MetricSeries, p_two_tailed, spearman_rho
from conftest import make_corpus, write_corpus_files
from oracle import brute_indicator_rows, pct_of_max_entropy, random_corpus_rows, scaled_profile
from reference_data import (
    REFERENCE_DISCIPLINE_ROWS,
    WORKED_EBDI_CITED,
    WORKED_EBDI_CITING,
    WORKED_ENTROPY_CITED,
    WORKED_PCT_HMAX_CITED,
    WORKED_PCT_HMAX_CITING,
    WORKED_PCT_INTERNAL_CITED,
    WORKED_PCT_INTERNAL_CITING,
)
from test_stats import no_tie_rho, p_two_tailed_quadrature


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {name}")
        raise
    print(f"[PASS] criterion {number}: {name}")


def random_profile(rng: random.Random, min_external_scs=0) -> CitationProfile:
    k = rng.randint(min_external_scs, 6)
    external = {f"S{i}": float(rng.randint(1, 100)) for i in range(k)}
    internal = float(rng.randint(0, 500))
    if internal == 0 and not external:
        internal = 1.0
    return CitationProfile(
        unit_id="U", focal_sc="F", dimension=Dimension.CITED,
        counting_mode=CountingMode.WHOLE, internal_count=internal,
        external_counts=external, external_total=float(sum(external.values())),
    )


def test_criterion_1_worked_indicator_arithmetic():
    with criterion(1, "indicator value from published percentage pairs"):
        cited = ebdi_value(WORKED_PCT_INTERNAL_CITED, WORKED_PCT_HMAX_CITED)
        citing = ebdi_value(WORKED_PCT_INTERNAL_CITING, WORKED_PCT_HMAX_CITING)
        assert cited == pytest.approx(WORKED_EBDI_CITED, abs=0.005)
        assert citing == pytest.approx(WORKED_EBDI_CITING, abs=0.005)


def test_criterion_2_pct_of_max_entropy_consistency():
    with criterion(2, "entropy percentage matches the published row"):
        # the published Hmax of 3.98 pins n between 53 and 54; both must agree
        for n in (53, 54):
            assert pct_of_max_entropy(WORKED_ENTROPY_CITED, n) == pytest.approx(51.0, abs=0.3)


def test_criterion_3_boundary_semantics():
    with criterion(3, "all-internal scores exactly 100, all-external exactly 0"):
        corpus = make_corpus(
            sc_rows=[("F", "Focal", ""), ("A", "Other", "")],
            journal_rows=[("U", "Unit", "F"), ("JS", "Same", "F"), ("JA", "Ext", "A")],
            citation_rows=[("U", "JS", "CITED", 7), ("U", "JA", "CITING", 5)],
        )
        all_internal = compute_ebdi(build_profile(corpus, "U", "F", Dimension.CITED), 2)
        assert all_internal.pct_internal == 100.0
        assert all_internal.ebdi == 100.0
        all_external = compute_ebdi(build_profile(corpus, "U", "F", Dimension.CITING), 2)
        assert all_external.pct_internal == 0.0
        assert all_external.ebdi == 0.0


def test_criterion_4_discipline_taxonomy_replay():
    with criterion(4, "12/12 published discipline rows classified identically"):
        for name, cited, citing, reported_diff, expected in REFERENCE_DISCIPLINE_ROWS:
            difference, direction = classify_discipline(cited, citing)
            assert direction.value == expected, name
            assert difference == pytest.approx(reported_diff, abs=0.01), name


def test_criterion_5_entropy_property_suite():
    with criterion(5, "entropy bounds, transfer monotonicity, scale invariance"):
        start = time.perf_counter()
        for k in range(2, 51):
            uniform = {f"S{i}": 3.0 for i in range(k)}
            assert abs(_entropy(uniform.values()) - math.log(k)) <= 1e-12

        rng = random.Random(101)
        transfers = 0
        while transfers < 1000:
            k = rng.randint(2, 8)
            counts = {f"S{i}": float(rng.randint(1, 100)) for i in range(k)}
            items = sorted(counts.items(), key=lambda kv: kv[1])
            low, high = items[0], items[-1]
            if low[1] == high[1]:
                continue  # perfectly uniform draw: no unequal pair to transfer between
            delta = float(rng.randint(1, int(low[1])))
            before = _entropy(counts.values())
            counts[low[0]] -= delta
            counts[high[0]] += delta
            if counts[low[0]] == 0:
                del counts[low[0]]
            assert _entropy(counts.values()) <= before + 1e-12
            transfers += 1

        for _ in range(1000):
            profile = random_profile(rng)
            factor = math.exp(rng.uniform(math.log(0.01), math.log(1000)))
            base = compute_ebdi(profile, 60)
            scaled = compute_ebdi(scaled_profile(profile, factor), 60)
            assert abs(scaled.pct_internal - base.pct_internal) <= 1e-12
            assert abs(scaled.entropy - base.entropy) <= 1e-12
            assert abs(scaled.pct_hmax - base.pct_hmax) <= 1e-12
            assert abs(scaled.ebdi - base.ebdi) <= 1e-12
            assert scaled.raw_diversity == base.raw_diversity
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"entropy suite took {elapsed:.2f}s"


def test_criterion_6_consistency_monotonicity_suite():
    with criterion(6, "more internal citations never hurt value or rank"):
        start = time.perf_counter()
        rng = random.Random(202)
        profiles = [random_profile(rng, min_external_scs=1) for _ in range(1000)]
        scores = [compute_ebdi(p, 60).ebdi for p in profiles]
        for index, profile in enumerate(profiles):
            delta = float(rng.randint(1, 50))
            bumped = CitationProfile(
                unit_id=profile.unit_id, focal_sc=profile.focal_sc,
                dimension=profile.dimension, counting_mode=profile.counting_mode,
                internal_count=profile.internal_count + delta,
                external_counts=profile.external_counts,
                external_total=profile.external_total,
            )
            new_score = compute_ebdi(bumped, 60).ebdi
            old_score = scores[index]
            assert new_score > old_score
            # position in a descending ranking: 1 + number of strictly better peers
            before = 1 + sum(1 for j, s in enumerate(scores) if j != index and s > old_score)
            after = 1 + sum(1 for j, s in enumerate(scores) if j != index and s > new_score)
            assert after <= before
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"monotonicity suite took {elapsed:.2f}s"


def test_criterion_7_oracle_equivalence(tmp_path):
    with criterion(7, "pipeline equals brute-force recomputation on 200 random corpora"):
        start = time.perf_counter()
        rng = random.Random(303)
        for case in range(200):
            sc_rows, journal_rows, citation_rows, memberships = random_corpus_rows(rng)
            paths = write_corpus_files(tmp_path, sc_rows, journal_rows, citation_rows)
            for mode in (CountingMode.WHOLE, CountingMode.FRACTIONAL):
                config = RunConfig(**paths, counting=mode, out_dir=tmp_path / "out", fmt="json")
                count = run_indicators(config)
                table = (tmp_path / "out" / "indicators.json").read_text(encoding="utf-8")
                rows = json.loads(table)["rows"]
                assert count == len(rows)
                expected = brute_indicator_rows(
                    memberships, citation_rows, n_categories=len(sc_rows), mode=mode.value
                )
                for row in rows:
                    want = expected[(row["unit_id"], row["focal_sc"], row["dimension"])]
                    if want is None:
                        assert row["ebdi"] is None, (case, row)
                        continue
                    for field in (
                        "pct_internal", "sum_external", "H", "Hmax", "pct_hmax", "ebdi",
                    ):
                        assert row[field] == pytest.approx(want[field], abs=1e-9), (case, field)
                    assert row["raw_diversity"] == want["raw_diversity"]
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"oracle equivalence took {elapsed:.2f}s"


def test_criterion_8_spearman_suite():
    with criterion(8, "rank correlation exactness and reference p-values"):
        rng = random.Random(404)
        for _ in range(100):
            n = rng.randint(3, 8)
            x = rng.sample(range(1000), n)
            y = rng.sample(range(1000), n)
            index = {}
            rho, _ = spearman_rho(
                MetricSeries.from_pairs("x", ((f"u{i}", float(v)) for i, v in enumerate(x)), index),
                MetricSeries.from_pairs("y", ((f"u{i}", float(v)) for i, v in enumerate(y)), index),
            )
            rank_x = [sorted(x).index(v) + 1 for v in x]
            rank_y = [sorted(y).index(v) + 1 for v in y]
            assert rho == pytest.approx(no_tie_rho(rank_x, rank_y), abs=1e-12)

        for rho_obs, n, expected in ((-0.457, 20, 0.043), (0.492, 20, 0.028)):
            p = p_two_tailed(rho_obs, n)
            assert p == pytest.approx(expected, abs=0.002)
            assert p == pytest.approx(p_two_tailed_quadrature(rho_obs, n), abs=1e-9)


def test_criterion_9_byte_identical_runs(tmp_path):
    with criterion(9, "two identical runs produce byte-identical outputs"):
        rng = random.Random(505)
        sc_rows, journal_rows, citation_rows, _ = random_corpus_rows(
            rng, max_journals=10, max_scs=5
        )
        paths = write_corpus_files(tmp_path, sc_rows, journal_rows, citation_rows)
        metrics = tmp_path / "metrics.csv"
        metrics.write_text(
            "journal_id,metric_name,value\n"
            + "".join(f"u{i},impact,{1.0 + 0.37 * i}\n" for i in range(12)),
            encoding="utf-8",
        )
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "unit_id,cited_ebdi,citing_ebdi\n"
            + "".join(f"u{i},{0.1 * i},{3.0 - 0.2 * i}\n" for i in range(12)),
            encoding="utf-8",
        )

        def run_all(out_dir):
            base = [
                "--classification", str(paths["classification"]),
                "--journals", str(paths["journals"]),
                "--citations", str(paths["citations"]),
            ]
            assert cli_main(["indicators", *base, "--out", str(out_dir / "ind")]) == 0
            assert cli_main(["indicators", *base, "--format", "json",
                             "--out", str(out_dir / "indj")]) == 0
            assert cli_main(["roles", "--scores", str(scores),
                             "--out", str(out_dir / "roles")]) == 0
            assert cli_main(["correlate", "--scores", str(scores),
                             "--metrics", str(metrics),
                             "--out", str(out_dir / "corr")]) == 0
            assert cli_main(["network", *base, "--dimension", "cited", "--top-k", "3",
                             "--out", str(out_dir / "net")]) == 0
            hashes = {}
            for path in sorted(out_dir.rglob("*")):
                if path.is_file():
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                    hashes[str(path.relative_to(out_dir))] = digest
            return hashes

        first = run_all(tmp_path / "run_a")
        second = run_all(tmp_path / "run_b")
        assert first.keys() == second.keys()
        assert first == second
