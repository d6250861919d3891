"""Straight-line brute-force recomputation of every indicator quantity.

Deliberately independent of the package: it consumes raw row data (not Corpus
objects), merges duplicates itself, and evaluates every formula with plain
loops and ``math.log``. Used to cross-check the pipeline on random corpora.
It also keeps the small helpers that only tests call, such as
:func:`is_internal` and :func:`pct_of_max_entropy`. ``benchmarks/workloads.py``
imports this module without the package on its path, so the two import
:class:`~ebdi.errors.ValidationError` only when called.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction


def brute_indicator_rows(journal_memberships, edge_rows, n_categories, mode):
    """Recompute all indicator fields for every (journal, SC, dimension).

    journal_memberships: dict[journal_id, set[sc_id]]
    edge_rows: list of (focal, partner, dimension_str, count); duplicates allowed
    mode: "whole" or "fractional"
    Returns dict[(journal_id, sc_id, dimension_str)] -> field dict, or None for
    a dimension without citations.
    """
    merged = {}
    for focal, partner, dim, count in edge_rows:
        key = (focal, partner, dim.upper())
        merged[key] = merged.get(key, 0) + count

    out = {}
    for jid in journal_memberships:
        for sc in journal_memberships[jid]:
            for dim in ("CITED", "CITING"):
                internal = 0
                external_raw = 0
                external = {}
                for (focal, partner, edge_dim), count in merged.items():
                    if focal != jid or edge_dim != dim or count == 0:
                        continue
                    partner_scs = journal_memberships[partner]
                    if sc in partner_scs:
                        internal += count
                    else:
                        external_raw += count
                        for partner_sc in partner_scs:
                            if mode == "whole":
                                add = float(count)
                            else:
                                add = count / len(partner_scs)
                            external[partner_sc] = external.get(partner_sc, 0.0) + add
                total = internal + external_raw
                if total == 0:
                    out[(jid, sc, dim)] = None
                    continue
                entropy = 0.0
                if external:
                    attributed_total = sum(external.values())
                    for value in external.values():
                        p = value / attributed_total
                        entropy -= p * math.log(p)
                hmax = math.log(n_categories)
                pct_hmax = 100.0 * entropy / hmax
                pct_internal = 100.0 * internal / total
                out[(jid, sc, dim)] = {
                    "pct_internal": pct_internal,
                    "sum_external": float(external_raw),
                    "H": entropy,
                    "Hmax": hmax,
                    "pct_hmax": pct_hmax,
                    "ebdi": pct_internal / (pct_hmax + 1.0),
                    "raw_diversity": len(external),
                }
    return out


def brute_discipline_rows(journal_memberships, edge_rows, n_categories, mode):
    """Recompute all indicator fields for every SC that has journals, in both dimensions.

    A discipline is scored as one pseudo-journal in that SC alone, holding
    every edge of its member journals; a partner is internal when it is a
    member. Arguments as for :func:`brute_indicator_rows`. Returns
    dict[(sc_id, dimension_str)] -> field dict, or None for a dimension
    without citations.
    """
    out = {}
    for sc in sorted(set().union(*journal_memberships.values())):
        unit = ("discipline", sc)  # equal to no journal id
        members = {jid for jid, scs in journal_memberships.items() if sc in scs}
        edges = [(unit, partner, dim, count) for focal, partner, dim, count in edge_rows if focal in members]
        memberships = {partner: journal_memberships[partner] for _, partner, _, _ in edges}
        memberships[unit] = {sc}
        rows = brute_indicator_rows(memberships, edges, n_categories, mode)
        out.update({(sc, dim): rows[(unit, sc, dim)] for dim in ("CITED", "CITING")})
    return out


def reference_entropy(counts):
    """The reference definition of the entropy: ``metrics._entropy`` must equal it bit for bit.

    Zero counts are dropped (``_entropy`` never sees one), negative ones
    rejected, and the +0.0 turns the single-category -0.0 into a plain zero.
    """
    values = [v for v in counts.values() if v != 0]
    if any(v < 0 for v in values):
        raise ValueError("entropy requires non-negative counts")
    if not values:
        return 0.0
    total = math.fsum(values)
    return -math.fsum(v / total * math.log(v / total) for v in values) + 0.0


def is_internal(corpus, partner_journal, focal_sc):
    """True iff the partner journal is classified in the focal SC.

    A pure membership test: it never consults counts or direction, and a
    partner holding the focal SC among several memberships is still internal.
    """
    from ebdi.errors import ValidationError

    scs = corpus.journals.get(partner_journal)
    if scs is None:
        raise ValidationError(f"unknown journal {partner_journal!r}")
    return focal_sc in scs


def pct_of_max_entropy(entropy_nats, n_categories):
    """Entropy as a percentage of the maximum entropy ln(n_categories).

    ``n_categories`` is the number of possible SCs in the whole classification
    system, not the number observed in one distribution.
    """
    from ebdi.errors import ValidationError

    if n_categories < 2:
        raise ValidationError("n_categories must be >= 2 (otherwise the maximum entropy is 0)")
    if entropy_nats < 0:
        raise ValidationError("entropy must be non-negative")
    return 100.0 * entropy_nats / math.log(n_categories)


def scaled_profile(profile, factor):
    """The citation profile with every count multiplied by ``factor`` (> 0)."""
    assert factor > 0, "scale factor must be positive"
    return profile._replace(
        internal_count=profile.internal_count * factor,
        external_counts={sc: value * factor for sc, value in profile.external_counts.items()},
        external_total=profile.external_total * factor,
    )


def brute_rank_pearson(x, y):
    """Oracle: explicit average ranks, then plain Pearson over the rank vectors."""

    def ranks(values):
        out = [0.0] * len(values)
        ordered = sorted(range(len(values)), key=lambda i: values[i])
        i = 0
        while i < len(ordered):
            j = i
            while j + 1 < len(ordered) and values[ordered[j + 1]] == values[ordered[i]]:
                j += 1
            for k in range(i, j + 1):
                out[ordered[k]] = (i + j) / 2 + 1
            i = j + 1
        return out

    rx, ry = ranks(x), ranks(y)
    mean_x = sum(rx) / len(rx)
    mean_y = sum(ry) / len(ry)
    dx = [r - mean_x for r in rx]
    dy = [r - mean_y for r in ry]
    cov = sum(a * b for a, b in zip(dx, dy))
    return cov / math.sqrt(sum(a * a for a in dx) * sum(b * b for b in dy))


def float_pearson(x, y):
    """Reference: Pearson over float vectors, every sum correctly rounded by ``math.fsum``.

    ``ebdi.stats.spearman_rho`` must give these bits over average ranks.
    """
    n = len(x)
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    dx = [v - mean_x for v in x]
    dy = [v - mean_y for v in y]
    cov = math.fsum(a * b for a, b in zip(dx, dy))
    var_x = math.fsum(a * a for a in dx)
    var_y = math.fsum(b * b for b in dy)
    if var_x == 0 or var_y == 0:
        raise ValueError("constant series; correlation undefined")
    r = cov / math.sqrt(var_x * var_y)
    return max(-1.0, min(1.0, r))


def series_values(series):
    """A ``MetricSeries``'s values by unit id, read back through its index."""
    unit_ids = {position: unit_id for unit_id, position in series.index.items()}
    return {unit_ids[position]: value for position, value in zip(series.units, series.values)}


def brute_sc_network(journal_memberships, edge_rows, dimension, mode):
    """Hand-aggregated SC-to-SC weights for one dimension."""
    merged = {}
    for focal, partner, dim, count in edge_rows:
        key = (focal, partner, dim.upper())
        merged[key] = merged.get(key, 0) + count
    weights = {}
    for (focal, partner, dim), count in merged.items():
        if dim != dimension.upper() or count == 0:
            continue
        focal_scs = sorted(journal_memberships[focal])
        partner_scs = sorted(journal_memberships[partner])
        for source in focal_scs:
            for target in partner_scs:
                if mode == "whole":
                    add = float(count)
                else:
                    add = count / (len(focal_scs) * len(partner_scs))
                weights[(source, target)] = weights.get((source, target), 0.0) + add
    return weights


def exact_sc_network(journal_memberships, edge_rows, dimension, mode):
    """brute_sc_network in exact Fractions: {(source, target): weight}, every weight positive."""
    weights = {}
    for focal, partner, dim, count in edge_rows:
        if dim.upper() != dimension.upper() or count == 0:
            continue
        focal_scs, partner_scs = journal_memberships[focal], journal_memberships[partner]
        share = Fraction(count)
        if mode == "fractional":
            share /= len(focal_scs) * len(partner_scs)
        for source in focal_scs:
            for target in partner_scs:
                weights[(source, target)] = weights.get((source, target), 0) + share
    return weights


def random_corpus_rows(rng: random.Random, max_journals=10, max_scs=5, max_count=20):
    """Random small corpus as raw row tuples: (sc_rows, journal_rows, citation_rows)."""
    n_scs = rng.randint(2, max_scs)
    sc_ids = [f"S{i}" for i in range(n_scs)]
    sc_rows = [(sc, f"Category {sc}", "") for sc in sc_ids]

    n_journals = rng.randint(2, max_journals)
    journal_rows = []
    memberships = {}
    for i in range(n_journals):
        jid = f"J{i}"
        k = rng.randint(1, min(3, n_scs))
        scs = sorted(rng.sample(sc_ids, k))
        memberships[jid] = set(scs)
        journal_rows.append((jid, f"Journal {jid}", ";".join(scs)))

    citation_rows = []
    jids = sorted(memberships)
    for _ in range(rng.randint(0, 30)):
        focal = rng.choice(jids)
        partner = rng.choice(jids)
        dim = rng.choice(["CITED", "CITING"])
        count = rng.randint(0, max_count)
        citation_rows.append((focal, partner, dim, count))
    return sc_rows, journal_rows, citation_rows, memberships
