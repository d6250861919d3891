"""Pipeline orchestration and artifact emission: a thin view over :mod:`ebdi.metrics`.

Each stage (``run_*`` and :func:`export_sc_network`) loads what it needs,
builds its table's rows as tuples of cells in column order, hands them to the
one streaming writer, :func:`_write_table`, and returns the number of rows
written. The units a corpus stage scores come from one list, :func:`_units`,
which also rejects an unknown focal SC; every unit is scored by
:func:`~ebdi.metrics.compute_journal_indicators`. Outputs are deterministic:
row order is fixed (unit, SC, dimension), numbers are
full-precision in JSON and rounded to the configured decimals in CSV, and no
timestamps or environment details leak into any file. Each table ``<stem>``
also gets its own ``<stem>.meta.json`` recording the parameters that shaped
its numbers, in particular the n_categories actually used for the maximum
entropy.

Missing values (a unit with no citations in a dimension) are emitted as empty
CSV cells / JSON nulls, never as zeros.

A stage's one argument, :class:`RunConfig`, is an immutable named tuple
whose constructor types and checks the run's inputs.
"""

from __future__ import annotations

import csv
import json
import logging
from itertools import combinations, islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .corpus import Corpus, CountingMode, Dimension, Source, load_corpus, parse_float, read_csv
from .errors import LoadError, ValidationError
from .metrics import aggregate_sc_network, compute_journal_indicators
from .metrics import build_profile, compute_ebdi  # noqa: F401 -- benchmarks/tracing.py wraps them here
from .stats import MetricSeries, correlate, load_metric_series
from .svg import scatter_svg
from .taxonomy import build_journal_roles, classify_discipline, median_threshold

log = logging.getLogger(__name__)

UNCLASSIFIED = "UNCLASSIFIED"

INDICATOR_COLUMNS = (
    "unit_id", "focal_sc", "dimension",
    "pct_internal", "sum_external", "H", "Hmax", "pct_hmax", "ebdi", "raw_diversity",
)
ROLES_JOURNAL_COLUMNS = (
    "unit_id", "cited_ebdi", "citing_ebdi",
    "cited_level", "citing_level", "role", "cited_threshold", "citing_threshold",
)
ROLES_DISCIPLINE_COLUMNS = ("unit_id", "cited_ebdi", "citing_ebdi", "difference", "type")
CORRELATION_COLUMNS = ("metric_x", "metric_y", "n", "rho", "p_two_tailed", "method_note")
NETWORK_COLUMNS = ("source_sc", "target_sc", "weight")
SCORES_COLUMNS = ("unit_id", "cited_ebdi", "citing_ebdi")

#: CSV column kinds; a column in none of these sets holds text.
#: float columns, rounded to the configured decimals
_DECIMAL_COLUMNS = {
    "pct_internal", "H", "Hmax", "pct_hmax", "ebdi", "cited_ebdi", "citing_ebdi",
    "cited_threshold", "citing_threshold", "difference", "rho", "p_two_tailed",
}
#: integer-valued columns, emitted without decimals
_INT_COLUMNS = {"sum_external", "raw_diversity", "n"}
#: data-export columns kept at full precision even in CSV
_RAW_COLUMNS = {"weight"}
#: the inputs of a corpus run, which a run from precomputed scores neither reads nor records
_CORPUS_INPUTS = ("classification", "journals", "citations", "focal_sc", "n_categories", "counting")


class _RunFields(NamedTuple):
    classification: Path | None = None
    journals: Path | None = None
    citations: Path | None = None
    metrics: Path | None = None
    scores: Path | None = None
    focal_sc: str | None = None
    unit_type: str = "journal"  # "journal" or "discipline"
    n_categories: int | None = None
    counting: CountingMode | None = None
    dimension: Dimension | None = None
    top_k: int | None = None
    out_dir: Path = Path(".")
    fmt: str = "csv"  # "csv" or "json"
    decimals: int = 2


class RunConfig(_RunFields):
    """Everything a pipeline stage needs to know; the CLI builds it from its flags.

    An immutable named tuple whose construction types and checks the inputs:
    ``counting`` and ``dimension`` take the enum or the CLI's string, and a
    scores run takes no corpus input. ``counting`` is WHOLE for a corpus run
    that does not set it, and stays None for a scores run, whose precomputed
    values have no counting mode. ``_replace`` builds a checked copy.
    """

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> "RunConfig":
        config = _RunFields.__new__(cls, *args, **kwargs)  # unchecked, the defaults filled in
        counting, dimension = config.counting, config.dimension
        if counting is not None:
            counting = CountingMode.parse(counting)
        if dimension is not None:
            dimension = Dimension.parse(dimension)
        if config.scores is not None:
            given = [f"--{name.replace('_', '-')}" for name in _CORPUS_INPUTS
                     if getattr(config, name) is not None]
            if given:
                raise ValidationError(f"--scores replaces the corpus; drop {', '.join(given)}")
        elif counting is None:
            counting = CountingMode.WHOLE
        if config.fmt not in ("csv", "json"):
            raise ValidationError(f"unknown output format {config.fmt!r}")
        if not 0 <= config.decimals <= 20:  # a double has 17 significant digits; JSON keeps all
            raise ValidationError("decimals must lie in [0, 20]")
        if config.n_categories is not None and config.n_categories < 2:
            raise ValidationError("n_categories override must be >= 2")
        if config.unit_type not in ("journal", "discipline"):
            raise ValidationError(f"unknown unit type {config.unit_type!r}")
        return tuple.__new__(cls, {**config._asdict(), "counting": counting, "dimension": dimension}.values())

    @classmethod
    def _make(cls, iterable: Iterable[object]) -> "RunConfig":
        return cls(*iterable)


# -- shared plumbing --------------------------------------------------------------


def _load_corpus(config: RunConfig) -> Corpus:
    paths = {"classification": config.classification, "journals": config.journals,
             "citations": config.citations}
    missing = [name for name, path in paths.items() if path is None]
    if missing:
        raise ValidationError(f"missing corpus input file(s): {', '.join(missing)}")
    return load_corpus(*paths.values(), n_categories=config.n_categories)


def _whole_number(value: float) -> str:
    return str(round(float(value)))


def _full_precision(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def _csv_formats(columns: Sequence[str], decimals: int) -> list[Callable[[object], str] | None]:
    """The CSV formatter of each column, from its kind: None for text, which is written as it is."""
    kinds = {
        **dict.fromkeys(_DECIMAL_COLUMNS, f"{{:.{decimals}f}}".format),
        **dict.fromkeys(_INT_COLUMNS, _whole_number),
        **dict.fromkeys(_RAW_COLUMNS, _full_precision),
    }
    return [kinds.get(column) for column in columns]


def _json_text(value: object, indent: int) -> str:
    """``json.dumps(value, indent=2)``, every line after the first shifted right by ``indent``.

    JSON escapes newlines inside strings, so each raw newline is layout.
    """
    return json.dumps(value, indent=2, ensure_ascii=False).replace("\n", "\n" + " " * indent)


#: rows the CSV writer formats at a time; a block's cells are held at once: 4,096-row blocks
#: took the benchmark's indicators table (40k rows) from a 6.7 to an 11.3 MB heap peak
_CSV_BLOCK_ROWS = 256

#: a flat row as ``json.dumps(row, indent=2)`` writes it, less its braces' line breaks
#: and indentation; unindented, it runs in the C encoder
_json_row = json.JSONEncoder(ensure_ascii=False, separators=(",\n      ", ": ")).encode


def _write_table(
    config: RunConfig, stem: str, columns: Sequence[str], rows: Iterable[Sequence[object]],
    command: str, corpus: Corpus | None, **extra: object,
) -> int:
    """Stream ``rows``, each a sequence of cells in ``columns`` order, to ``<stem>.csv|json``.

    Also writes ``<stem>.meta.json`` and logs both; returns the number of rows
    written. CSV rows are formatted column by column, in blocks of at most
    :data:`_CSV_BLOCK_ROWS` rows: each column's one formatter
    (:func:`_csv_formats`) is mapped over the block's cells, a None cell is
    left empty, and the block goes to the C writer; every row must hold one
    cell per column. JSON cells keep full precision.
    The meta does not depend on the rows, so a JSON table opens with it and
    then takes each row as it comes; the bytes equal
    ``json.dump({"meta": meta, "rows": [dict(zip(columns, row)), ...]}, indent=2)``
    as long as every cell is a scalar, as in every table here. The table is
    written to ``<name>.partial`` and renamed once complete, so an error while
    the rows are computed leaves no truncated table behind.
    """
    meta: dict[str, object] = {
        "command": command,
        "counting_mode": None if config.counting is None else config.counting.value,
        "n_categories": corpus.n_categories if corpus is not None else None,
        "focal_sc": config.focal_sc,
        "format": config.fmt,
        "decimals": config.decimals,
        **extra,
    }
    config.out_dir.mkdir(parents=True, exist_ok=True)
    path = config.out_dir / f"{stem}.{config.fmt}"
    partial = path.with_name(path.name + ".partial")
    count = 0
    try:
        with partial.open("w", encoding="utf-8", newline="") as handle:
            if config.fmt == "csv":
                formats = _csv_formats(columns, config.decimals)
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(columns)
                rows = iter(rows)
                for block in iter(lambda: list(islice(rows, _CSV_BLOCK_ROWS)), []):
                    count += len(block)
                    # strict: without it, zip would cut a block's rows to its shortest row or to the header
                    cells = [
                        column if form is None
                        else [cell if cell is None else form(cell) for cell in column] if None in column
                        else map(form, column)
                        for form, column in zip(formats, zip(*block, strict=True), strict=True)
                    ]
                    writer.writerows(zip(*cells))
            else:
                handle.write('{\n  "meta": ' + _json_text(meta, 2) + ',\n  "rows": [')
                for row in rows:
                    # a row's cells are scalars, so its only line breaks are the item separators
                    body = "{\n      " + _json_row(dict(zip(columns, row)))[1:-1] + "\n    }" if row else "{}"
                    handle.write((",\n    " if count else "\n    ") + body)
                    count += 1
                handle.write("\n  ]\n}\n" if count else "]\n}\n")
        partial.replace(path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    meta_path = config.out_dir / f"{stem}.meta.json"
    meta_path.write_text(_json_text(meta, 0) + "\n", encoding="utf-8", newline="")
    log.info("wrote %s (%d rows)", path, count)
    return count


def _units(
    config: RunConfig, corpus: Corpus, every_membership: bool = False,
) -> Iterable[tuple[str, str]]:
    """The (unit, focal SC) pairs a corpus stage scores, in output order.

    Discipline runs score each SC that has journals against itself, so they
    take no focal SC; journal runs score the focal SC's journals, or, for the
    indicators table (``every_membership``) without a focal SC, every
    (journal, membership), yielded lazily. The checks run before the first pair.
    """
    if config.focal_sc is not None and config.focal_sc not in corpus.sc_registry:
        raise ValidationError(f"unknown sc_id {config.focal_sc!r}")
    if config.unit_type == "discipline" and not every_membership:
        if config.focal_sc is not None:
            raise ValidationError(
                "discipline runs score every SC against itself; --focal-sc does not apply"
            )
        return [(sc_id, sc_id) for sc_id in sorted(corpus.sc_registry) if corpus.journals_in(sc_id)]
    if config.focal_sc is not None:
        return [(jid, config.focal_sc) for jid in corpus.journals_in(config.focal_sc)]
    if not every_membership:
        raise ValidationError(
            "role and correlation runs over a corpus need --focal-sc "
            "(journals are analyzed relative to one subject category)"
        )
    journals = corpus.journals
    return ((jid, sc_id) for jid in sorted(journals) for sc_id in journals[jid])


# -- score collection (shared by roles and correlations) ---------------------------


def _read_scores_csv(source: Source) -> list[tuple[str, float | None, float | None]]:
    """Precomputed indicator pairs: header ``unit_id,cited_ebdi,citing_ebdi``.

    Empty cells mean the dimension is missing for that unit; any other cell
    must be an indicator value in [0, 100].
    """
    seen: set[str] = set()
    rows: list[tuple[str, float | None, float | None]] = []
    for line, (unit_id, *cells) in read_csv(source, SCORES_COLUMNS):
        if not unit_id:
            raise LoadError("unit_id must be non-empty", path=source, line=line)
        if unit_id in seen:
            raise LoadError(f"duplicate unit_id {unit_id!r}", path=source, line=line)
        seen.add(unit_id)
        cited, citing = (
            parse_float(cell, f"{column} value", source, line, 0.0, 100.0) if cell else None
            for column, cell in zip(SCORES_COLUMNS[1:], cells)
        )
        rows.append((unit_id, cited, citing))
    return sorted(rows)


def _collect_score_pairs(
    config: RunConfig,
) -> tuple[list[tuple[str, float | None, float | None]], Corpus | None]:
    """Per-unit (cited, citing) indicator values, from a corpus or a scores file."""
    if config.scores is not None:
        return _read_scores_csv(config.scores), None

    corpus = _load_corpus(config)
    pairs = []
    for unit, focal_sc in _units(config, corpus):
        cited, citing = compute_journal_indicators(corpus, unit, focal_sc, config.counting)
        pairs.append((unit, cited.ebdi if cited else None, citing.ebdi if citing else None))
    return pairs, corpus


# -- pipeline stages ----------------------------------------------------------------


def run_indicators(config: RunConfig) -> int:
    """One row per (journal, focal SC, dimension) with the full indicator breakdown.

    Each unit's two rows go to the file as soon as they are scored, so no
    list of rows is kept; returns the number of rows written.
    """
    corpus = _load_corpus(config)
    units = _units(config, corpus, every_membership=True)
    missing = 0
    no_score = (None,) * (len(INDICATOR_COLUMNS) - 3)  # a missing dimension keeps None cells
    dimensions = (Dimension.CITED.value, Dimension.CITING.value)

    def rows() -> Iterator[tuple[object, ...]]:
        nonlocal missing
        for unit, sc_id in units:
            scores = compute_journal_indicators(corpus, unit, sc_id, config.counting)
            for dimension, score in zip(dimensions, scores):
                if score is None:
                    missing += 1
                    yield (unit, sc_id, dimension) + no_score
                else:
                    yield (unit, sc_id, dimension, score.pct_internal, score.external_total,
                           score.entropy, score.hmax, score.pct_hmax, score.ebdi, score.raw_diversity)

    count = _write_table(config, "indicators", INDICATOR_COLUMNS, rows(), "indicators", corpus)
    if missing:
        log.warning("%d (unit, SC, dimension) rows have no citations; emitted as missing", missing)
    return count


def run_roles(config: RunConfig) -> int:
    """Role report plus the quadrant scatter plot; returns the number of units reported.

    Journal units get HIGH/LOW levels against each dimension's median and the
    four-quadrant role; discipline units get the importer/exporter type from
    the sign of (cited - citing). Units missing a dimension are reported
    unclassified. The scatter carries one point per classified unit and one
    median threshold line per dimension, cited on the horizontal axis.
    """
    pairs, corpus = _collect_score_pairs(config)
    classified = [pair for pair in pairs if None not in pair[1:]]  # the pairs' own tuples, not copies
    if len(classified) < 2:
        raise ValidationError(
            f"only {len(classified)} units have indicator values in both dimensions; need at least 2"
        )

    # one threshold rule for both unit types: the median of each dimension's present values
    cited_threshold = median_threshold([cited for _, cited, _ in pairs if cited is not None])
    citing_threshold = median_threshold([citing for _, _, citing in pairs if citing is not None])
    rows: Iterable[tuple[object, ...]]
    if config.unit_type == "journal":
        roles = build_journal_roles(pairs, cited_threshold, citing_threshold)
        rows = (
            (unit, cited, citing, cited_level.value if cited_level else None,
             citing_level.value if citing_level else None, role.value if role else UNCLASSIFIED,
             cited_threshold, citing_threshold)
            for (_, cited, citing), (unit, cited_level, citing_level, role) in zip(pairs, roles)
        )
        columns = ROLES_JOURNAL_COLUMNS
        quadrants = {"top_right": "CORE", "bottom_right": "KNOWLEDGE_IMPORTER",
                     "top_left": "KNOWLEDGE_EXPORTER", "bottom_left": "TANGENTIAL"}
    else:
        types = (classify_discipline(cited, citing) or (None, None) for _, cited, citing in pairs)
        rows = (
            (unit, cited, citing, difference, direction.value if direction else UNCLASSIFIED)
            for (unit, cited, citing), (difference, direction) in zip(pairs, types)
        )
        columns = ROLES_DISCIPLINE_COLUMNS
        quadrants = None

    if len(pairs) > len(classified):
        log.warning("%d units lack a dimension and are reported unclassified", len(pairs) - len(classified))

    count = _write_table(
        config, "roles", columns, rows, "roles", corpus,
        unit_type=config.unit_type, cited_threshold=cited_threshold, citing_threshold=citing_threshold,
    )

    svg_lines = scatter_svg(points=classified, x_threshold=cited_threshold, y_threshold=citing_threshold,
                            quadrant_labels=quadrants)
    svg_path = config.out_dir / "scatter.svg"
    with svg_path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(svg_lines)
    log.info("wrote %s (%d points)", svg_path, len(classified))
    return count


def run_correlations(config: RunConfig) -> int:
    """Pairwise rank correlations among the indicator series and supplied metrics."""
    if config.metrics is None:
        raise ValidationError("correlation runs need a metrics file (--metrics)")
    pairs, corpus = _collect_score_pairs(config)
    index: dict[str, int] = {}  # every series of the run is over this one unit index
    series = [
        MetricSeries.from_pairs("cited_ebdi", ((u, c) for u, c, _ in pairs if c is not None), index),
        MetricSeries.from_pairs("citing_ebdi", ((u, c) for u, _, c in pairs if c is not None), index),
    ]
    del pairs  # the series hold every value they need
    series.extend(load_metric_series(config.metrics, index))

    def rows() -> Iterator[tuple[object, ...]]:  # a CorrelationResult's fields are CORRELATION_COLUMNS
        for x, y in combinations(series, 2):
            try:
                result = correlate(x, y)
            except ValidationError as exc:
                log.warning("skipping pair (%s, %s): %s", x.metric_name, y.metric_name, exc)
                continue
            yield result

    return _write_table(config, "correlations", CORRELATION_COLUMNS, rows(), "correlate", corpus,
                        metrics_file=str(config.metrics))


def export_sc_network(config: RunConfig) -> int:
    """Edge list of the SC-level citation network, trimmed to the top-k SCs.

    SCs are ranked by their exact total incident citation volume (the sum of
    their row and column, a self-loop counted once), ties by name; an edge is
    kept when either endpoint is among the retained SCs. Rows are sorted by
    exact share, so by weight, descending (ties by source then target).
    """
    if config.dimension is None:
        raise ValidationError("network export needs a dimension (--dimension cited|citing)")
    if config.top_k is None or config.top_k < 1:
        raise ValidationError("network export needs --top-k >= 1")
    corpus = _load_corpus(config)
    shares, denominator = aggregate_sc_network(corpus, config.dimension, config.counting)

    # integer shares in units of 1/denominator: the volumes, and so the ranking, are exact
    volume = {source: sum(targets.values()) for source, targets in shares.items()}
    for source, targets in shares.items():
        for target, share in targets.items():
            if target != source:
                volume[target] = volume.get(target, 0) + share
    ranked = sorted(volume, key=lambda sc: (-volume[sc], sc))
    if config.top_k > len(ranked):
        log.warning(
            "top-k %d exceeds the %d SCs with citation volume; emitting all",
            config.top_k, len(ranked),
        )
    retained = set(ranked[: config.top_k])
    log.info("kept %d SCs by citation volume", len(retained))

    edges = sorted(
        (-share, source, target)
        for source, targets in shares.items()
        for target, share in targets.items()
        if source in retained or target in retained
    )
    return _write_table(
        config, "sc_network", NETWORK_COLUMNS,
        ((source, target, -negated / denominator) for negated, source, target in edges), "network", corpus,
        dimension=config.dimension.value, top_k=config.top_k,
    )
