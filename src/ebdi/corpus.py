"""Classification registries and citation count storage.

This module owns the input side of the toolkit: the subject-category (SC)
ids, each journal's SCs and the directed citation counts between journals,
parsed from CSV exports (schemas in the README) into an immutable
:class:`Corpus` that downstream modules treat as a read-only database.
Titles, SC names and branches are checked, not kept: no indicator reads them.

``corpus.journals[j]`` is the journal's SCs as one sorted tuple of SC ids,
shared by every journal with the same set. Readers only test, count and
iterate it: a citation partner is internal to a focal SC exactly when that
SC is in the partner's tuple (a Boolean "or", applied by
:func:`ebdi.metrics.build_profile`), and a journal's SCs come in the same
order in every layer, whatever the hash seed.
"""

from __future__ import annotations

import codecs
import csv
import logging
import math
from contextlib import contextmanager
from enum import Enum
from functools import cached_property
from operator import lt
from pathlib import Path
from typing import IO, Iterator

from .errors import LoadError, ValidationError

log = logging.getLogger(__name__)


class Dimension(str, Enum):
    """Direction of a citation flow relative to the analyzed unit."""

    CITED = "CITED"    # citations received by the unit
    CITING = "CITING"  # citations made by the unit

    @classmethod
    def parse(cls, token: str) -> "Dimension":
        stripped = token.strip()
        try:
            # only ASCII is upper-cased: str.upper folds some other letters onto ASCII (ı to I)
            return cls(stripped.upper() if stripped.isascii() else stripped)
        except ValueError:
            raise ValidationError(
                f"unparseable dimension {token!r} (expected CITED or CITING)"
            ) from None


class CountingMode(str, Enum):
    """How a citation to/from a multi-SC partner spreads over the partner's SCs.

    WHOLE credits the full citation count to every SC of an external partner;
    FRACTIONAL splits the count evenly across the partner's SCs. Internal
    classification is unaffected: it is Boolean, never fractional.
    """

    WHOLE = "whole"
    FRACTIONAL = "fractional"

    @classmethod
    def parse(cls, token: str) -> "CountingMode":
        try:
            return cls(token.strip().lower())
        except ValueError:
            raise ValidationError(
                f"unknown counting mode {token!r} (expected whole or fractional)"
            ) from None


class Corpus:
    """Immutable registry of SCs, journals, and citation counts.

    ``sc_registry`` holds the SC ids. ``journals`` maps a journal id to its
    SCs: a non-empty, strictly increasing tuple of registry ids, which
    journals with the same set share. ``citations``, the one stored form of
    the edges, maps (focal journal, dimension) to {partner journal: summed
    count, 0 kept}.

    ``n_categories`` is the number of possible subject categories in the
    system, used downstream as the n of the maximum entropy ln(n). It defaults
    to the number of SCs in the classification file and may be overridden,
    but never below the number of distinct SCs actually used by journals.

    The constructor checks all of this; :func:`load_edges` adds row-checked
    citations without it. Its four fields cannot be assigned or deleted
    afterwards; the derived indexes are cached on first use.
    """

    sc_registry: frozenset[str]
    journals: dict[str, tuple[str, ...]]
    citations: dict[tuple[str, Dimension], dict[str, int]]
    n_categories: int

    def __init__(
        self,
        sc_registry: frozenset[str],
        journals: dict[str, tuple[str, ...]],
        citations: dict[tuple[str, Dimension], dict[str, int]],
        n_categories: int,
    ) -> None:
        if "" in sc_registry:
            raise ValidationError("subject category with empty sc_id")
        used_scs: set[str] = set()
        for journal_id, scs in journals.items():
            if not journal_id:
                raise ValidationError("journal with empty journal_id")
            if not (type(scs) is tuple and scs and all(map(lt, scs, scs[1:]))):
                raise ValidationError(
                    f"SCs of journal {journal_id!r} are not a non-empty, strictly increasing tuple"
                )
            for sc_id in scs:
                if sc_id not in sc_registry:
                    raise ValidationError(f"journal {journal_id!r} references unknown sc_id {sc_id!r}")
            used_scs.update(scs)
        journal_ids = journals.keys()
        for (focal, dimension), partners in citations.items():
            if focal not in journal_ids or not partners.keys() <= journal_ids:
                unknown = [j for j in (focal, *partners) if j not in journal_ids]
                raise ValidationError(f"edge references unknown journal {unknown[0]!r}")
            if min(partners.values(), default=0) < 0:
                raise ValidationError(f"negative citation count in ({focal}, {dimension.value})")
        if n_categories < 1:
            raise ValidationError("n_categories must be >= 1")
        if n_categories < len(used_scs):
            raise ValidationError(
                f"n_categories={n_categories} is below the {len(used_scs)} "
                "distinct SCs used by journal memberships"
            )
        # the instance dict, written directly: __setattr__ refuses every assignment
        vars(self).update(sc_registry=sc_registry, journals=journals, citations=citations,
                          n_categories=n_categories)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    # -- read-only conveniences -------------------------------------------------

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.citations.values()))

    @cached_property
    def _journals_by_sc(self) -> dict[str, tuple[str, ...]]:
        index: dict[str, list[str]] = {}
        for journal_id in sorted(self.journals):
            for sc_id in self.journals[journal_id]:
                index.setdefault(sc_id, []).append(journal_id)
        return {sc_id: tuple(ids) for sc_id, ids in index.items()}

    @cached_property
    def membership_lcm(self) -> int:
        """L, the lcm of the journals' membership counts (1 without journals).

        Every journal's count k divides L, so a fractional share count/k is
        the integer count * (L // k) in units of 1/L.
        """
        return math.lcm(*{len(scs) for scs in self.journals.values()})

    def journals_in(self, sc_id: str) -> tuple[str, ...]:
        """Journal ids classified in ``sc_id``, sorted for determinism."""
        return self._journals_by_sc.get(sc_id, ())


# -- CSV loading ----------------------------------------------------------------

SC_FIELDS = ("sc_id", "name", "branch")
JOURNAL_FIELDS = ("journal_id", "title", "sc_memberships")
CITATION_FIELDS = ("focal_journal_id", "partner_journal_id", "dimension", "count")

#: largest citation count accepted: every count up to it converts to float exactly
MAX_COUNT = 2**53

Source = str | Path | IO[str]


@contextmanager
def _open_table(
    source: Source, required: tuple[str, ...],
) -> Iterator[tuple[Iterator[list[str]], list[int], int]]:
    """Open a CSV path or text stream and check its header: ``(reader, columns, width)``.

    ``columns`` are the header positions of the ``required`` names and
    ``width`` is the header's number of cells. Header names are compared
    without surrounding whitespace or a BOM; each required column must appear
    once. A file that cannot be opened, decoded as UTF-8 or parsed as CSV,
    also while the body reads the rows, raises :class:`LoadError` naming the
    file and, where known, the line.
    """
    if hasattr(source, "read"):
        handle = source
    else:
        try:
            handle = Path(source).open("r", encoding="utf-8-sig", newline="")
        except OSError as exc:
            raise LoadError(f"cannot open file: {exc.strerror or exc}", path=source) from exc
    reader = csv.reader(handle)
    try:
        header = [name.lstrip("\ufeff").strip() for name in next(reader, [])]
        missing = [name for name in required if name not in header]
        if missing:
            raise LoadError(f"missing required column(s): {', '.join(missing)}", path=source, line=1)
        repeated = [name for name in required if header.count(name) > 1]
        if repeated:
            raise LoadError(f"repeated column(s): {', '.join(repeated)}", path=source, line=1)
        yield reader, [header.index(name) for name in required], len(header)
    except (OSError, csv.Error) as exc:
        raise LoadError(str(exc), path=source, line=reader.line_num or None) from exc
    except UnicodeDecodeError as exc:
        raise LoadError(f"not UTF-8 ({exc.reason})", path=source, line=_undecodable_line(source)) from exc
    finally:
        if handle is not source:
            handle.close()


def _row_cells(
    row: list[str], columns: list[int], width: int, source: Source, line: int,
) -> list[str] | None:
    """The ``columns`` of one parsed row, whitespace-stripped; None for a blank line.

    Missing trailing cells read as empty, and a non-empty cell beyond the
    header's ``width`` is an error.
    """
    if len(row) > width and any(row[width:]):
        raise LoadError("row has more cells than the header", path=source, line=line)
    return [row[i].strip() if i < len(row) else "" for i in columns] if row else None


def read_csv(source: Source, required: tuple[str, ...]) -> Iterator[tuple[int, list[str]]]:
    """Yield ``(line, cells)`` for every data row of a CSV path or text stream.

    ``cells`` holds the ``required`` columns in that order, whitespace-stripped
    (:func:`_row_cells`); other columns are ignored and blank lines skipped.
    The header and every error are those of :func:`_open_table`.
    """
    with _open_table(source, required) as (reader, columns, width):
        for row in reader:
            if len(row) == width:
                yield reader.line_num, [row[i].strip() for i in columns]
            else:
                cells = _row_cells(row, columns, width, source, reader.line_num)
                if cells is not None:
                    yield reader.line_num, cells


def _undecodable_line(source: Source) -> int | None:
    """Line number of the first byte sequence of a file that is not UTF-8.

    A decoding stream reads ahead in blocks, so the line its error stops at is
    not the faulty one. Only a path can be read again; a stream gives None.
    """
    if hasattr(source, "read"):
        return None
    decoder = codecs.getincrementaldecoder("utf-8")()
    number = 0
    with Path(source).open("rb") as handle:
        for number, raw in enumerate(handle, 1):
            try:
                decoder.decode(raw)
            except UnicodeDecodeError:
                return number
    return number  # a multi-byte sequence cut off by the end of the file


def parse_count(cell: str, path: Source, line: int) -> int:
    """A citation count: ASCII digits only, at most :data:`MAX_COUNT`."""
    if not (cell.isascii() and cell.isdigit()):
        digits = cell.removeprefix("-")
        if digits != cell and digits.isascii() and digits.isdigit():
            raise LoadError("negative citation count", path=path, line=line)
        raise LoadError(f"invalid count {cell!r}", path=path, line=line)
    significant = cell.lstrip("0") or "0"
    # MAX_COUNT has 16 digits; int() would refuse a string of more than 4300
    count = int(significant) if len(significant) <= 16 else MAX_COUNT + 1
    if count > MAX_COUNT:
        raise LoadError("count exceeds 2**53", path=path, line=line)
    return count


def parse_float(
    cell: str, label: str, path: Source, line: int,
    low: float = -math.inf, high: float = math.inf,
) -> float:
    """A finite decimal in ``[low, high]``, written in ASCII without digit separators.

    ``label`` names the cell in error messages.
    """
    try:
        value = float(cell)
    except ValueError:
        value = None
    if value is None or not cell.isascii() or "_" in cell:
        raise LoadError(f"invalid {label} {cell!r}", path=path, line=line)
    if not math.isfinite(value):
        raise LoadError(f"non-finite {label} {cell!r}", path=path, line=line)
    if not low <= value <= high:
        raise LoadError(f"{label} {cell!r} outside [{low:g}, {high:g}]", path=path, line=line)
    return value


def load_classification(
    sc_file: Source,
    journal_file: Source,
    *,
    n_categories: int | None = None,
) -> Corpus:
    """Load the SC and journal registries; returns a corpus with no citations yet.

    ``n_categories`` defaults to the number of distinct SCs in ``sc_file``.
    Every row is checked, but only SC ids and memberships are kept: each
    journal's SCs are a sorted tuple of the registry's own id strings, and
    journals with equal memberships share one tuple.
    """
    sc_registry: dict[str, str] = {}  # each SC id to itself, the one string every tuple holds
    for line, (sc_id, name, _branch) in read_csv(sc_file, SC_FIELDS):
        if not sc_id or not name:
            raise LoadError("sc_id and name must be non-empty", path=sc_file, line=line)
        if ";" in sc_id:
            raise LoadError(f"sc_id {sc_id!r} contains the separator ';'", path=sc_file, line=line)
        if sc_id in sc_registry:
            raise LoadError(f"duplicate sc_id {sc_id!r}", path=sc_file, line=line)
        sc_registry[sc_id] = sc_id
    if not sc_registry:
        raise LoadError("no subject categories", path=sc_file)

    journals: dict[str, tuple[str, ...]] = {}
    # one tuple per distinct membership set, shared by every journal that has it
    shared: dict[tuple[str, ...], tuple[str, ...]] = {}
    for line, (journal_id, _title, memberships) in read_csv(journal_file, JOURNAL_FIELDS):
        if not journal_id:
            raise LoadError("journal_id must be non-empty", path=journal_file, line=line)
        if journal_id in journals:
            raise LoadError(f"duplicate journal_id {journal_id!r}", path=journal_file, line=line)
        if journal_id in sc_registry:
            raise LoadError(f"journal_id {journal_id!r} is also an sc_id", path=journal_file, line=line)
        tokens = [token.strip() for token in memberships.split(";") if token.strip()]
        if not tokens:
            raise LoadError(f"journal without SC: {journal_id!r}", path=journal_file, line=line)
        if len(tokens) != len(set(tokens)):
            raise LoadError(
                f"duplicate SC membership for journal {journal_id!r}", path=journal_file, line=line
            )
        for sc_id in tokens:
            if sc_id not in sc_registry:
                raise LoadError(
                    f"journal {journal_id!r} references unknown sc_id {sc_id!r}",
                    path=journal_file, line=line,
                )
        scs = tuple(sorted(sc_registry[sc_id] for sc_id in tokens))
        journals[journal_id] = shared.setdefault(scs, scs)
    if not journals:
        raise LoadError("no journals", path=journal_file)

    n = len(sc_registry) if n_categories is None else n_categories
    return Corpus(sc_registry=frozenset(sc_registry), journals=journals, citations={}, n_categories=n)


def _citation(
    cells: list[str], known: dict[str, str], path: Source, line: int,
) -> tuple[str, str, Dimension, int]:
    """One citation row's stripped cells by the strict rules: (focal, partner, dimension, count)."""
    focal, partner, dimension_cell, count_cell = cells
    for journal_id in (focal, partner):
        if journal_id not in known:
            raise LoadError(f"unknown journal id {journal_id!r}", path=path, line=line)
    try:
        dimension = Dimension.parse(dimension_cell)
    except ValidationError as exc:
        raise LoadError(str(exc), path=path, line=line) from None
    return known[focal], known[partner], dimension, parse_count(count_cell, path, line)


def load_edges(corpus: Corpus, citation_file: Source) -> Corpus:
    """Attach citation counts to an already-classified corpus.

    Duplicate (focal, partner, dimension) rows are summed. Repeated calls merge,
    so per-year export files can be loaded one after another: the file's rows
    add into a copy of the input's map for each (journal, dimension) key they
    touch, and every other key keeps the input's map object, unread, so a
    merge costs the file's rows and the maps they touch plus one C-level copy
    of the key index. The input corpus is left unchanged. Keys keep the
    input's order, new keys following in the order they first appear; so do a
    map's partners, an order no reader depends on. Ids are stored as the
    journal registry's own strings, one object per journal.

    Every row is checked, with a ``file:line`` error. A row of four cells under
    a header that is exactly :data:`CITATION_FIELDS` is read as the CSV parser
    gives it, any other row as :func:`_row_cells` strips it. Known ids,
    ``CITED`` or ``CITING`` and a count of at most 15 ASCII digits are taken as
    they are; any other cell sends the stripped row to :meth:`Dimension.parse`
    and :func:`parse_count`, so both paths load the same counts and errors.
    ``corpus`` was checked when built, so the :class:`Corpus` checks do not run
    again; dicts mutated after that are outside this contract.
    """
    known = {journal_id: journal_id for journal_id in corpus.journals}
    dimensions = {dimension.value: dimension for dimension in Dimension}
    touched: dict[tuple[str, Dimension], dict[str, int]] = {}  # the file's own copy of each map it adds to
    merged = 0
    with _open_table(citation_file, CITATION_FIELDS) as (reader, columns, width):
        raw = columns == list(range(width))  # the header is CITATION_FIELDS, in order
        for row in reader:
            if raw and len(row) == width:
                cells = row
            else:
                cells = _row_cells(row, columns, width, citation_file, reader.line_num)
                if cells is None:
                    continue
            focal, partner, dimension_cell, count_cell = cells
            focal_id = known.get(focal)
            partner_id = known.get(partner)
            dimension = dimensions.get(dimension_cell)
            # up to 15 digits stay below MAX_COUNT
            if (focal_id is None or partner_id is None or dimension is None
                    or not (count_cell.isdigit() and count_cell.isascii() and len(count_cell) <= 15)):
                focal_id, partner_id, dimension, count = _citation(
                    [cell.strip() for cell in cells], known, citation_file, reader.line_num)
            else:
                count = int(count_cell)
            key = (focal_id, dimension)
            partners = touched.get(key)
            if partners is None:
                partners = touched[key] = dict(corpus.citations.get(key, ()))
            partners[partner_id] = partners.get(partner_id, 0) + count
            merged += 1
    # the input's keys in place, each still the input's map, then the new keys; a first load keeps
    # its one index, which a copy would double at the load's peak
    citations = {**corpus.citations, **touched} if corpus.citations else touched

    loaded = object.__new__(Corpus)  # the same journals, so any cached index stays valid
    vars(loaded).update(vars(corpus), citations=citations)
    log.info("merged %d citation rows into %d (journal, dimension) maps", merged, len(touched))
    return loaded


def load_corpus(
    sc_file: Source,
    journal_file: Source,
    citation_file: Source,
    *,
    n_categories: int | None = None,
) -> Corpus:
    """Convenience wrapper: classification plus edges in one call."""
    partial = load_classification(sc_file, journal_file, n_categories=n_categories)
    return load_edges(partial, citation_file)

