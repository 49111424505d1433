"""Shared domain types and bit-exact readers/writers for ranking data.

Covers the 6-column TREC run format, the 4-column qrels format, and the
line-delimited distillation dataset format used by the rest of the toolkit.
`ScoredList` and `Qrels` are values, fixed once built.
"""

from __future__ import annotations

import json
import logging
import math
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)

QueryId = str
DocId = str
# One query's ranking as `write_run` takes it: the query id, its doc ids and
# their scores, in canonical order.
RankedRow = tuple[QueryId, Sequence[DocId], Sequence[float]]


class ParseError(ValueError):
    """Malformed ranking-data input. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateEntryError(ParseError):
    """A (query, doc) pair appeared more than once in a run."""


def validate_id(value: str, kind: str = "identifier") -> str:
    """Check that an id is a non-empty string without whitespace.

    Whitespace is the field separator in the TREC text formats, so it can
    never appear inside an identifier.
    """
    if not isinstance(value, str) or not value:
        raise ValueError(f"{kind} must be a non-empty string, got {value!r}")
    if value.split() != [value]:  # str.split and str.isspace agree on whitespace
        raise ValueError(f"{kind} {value!r} contains whitespace")
    return value


def ascii_number(text: str) -> str:
    """`text`, unless it holds a non-ASCII character or an underscore
    (ValueError). Past this test `int` and `float` read only ASCII digits, a
    sign, a point and an exponent, not the digit-group underscores and
    non-ASCII digits that TREC tools refuse. Callers refuse inf and nan."""
    if text.isascii() and "_" not in text:
        return text
    raise ValueError(f"{text!r} is not an ASCII number")


def canonical_order(
    entries: Iterable[tuple[DocId, float]],
) -> tuple[tuple[DocId, float], ...]:
    """Sort (doc, score) pairs by descending score, ties by ascending doc id."""
    return tuple(sorted(entries, key=lambda e: (-e[1], e[0])))


def _ids_valid(docs: Sequence) -> bool:
    """One pass over all ids that accepts only what the per-id checks accept.

    Exact str ids that survive a whitespace split unchanged are non-empty and
    free of whitespace (str.split and str.isspace agree on whitespace).
    False means "not shown valid", not "invalid".
    """
    return (
        set(map(type, docs)) <= {str}
        and " ".join(docs).split() == list(docs)
        and len(set(docs)) == len(docs)
    )


@dataclass(frozen=True)
class ScoredList:
    """A query's candidate documents with relevance scores.

    The entry order is the ranking, canonical order: descending score, ties
    by ascending doc id. The constructor checks the entries and sorts them
    into that order.
    """

    query: QueryId
    entries: tuple[tuple[DocId, float], ...]

    def __post_init__(self):
        validate_id(self.query, "query id")
        entries = tuple(map(tuple, self.entries))
        seen: set[str] = set()
        for doc, score in entries:
            validate_id(doc, "doc id")
            if doc in seen:
                raise ValueError(f"duplicate doc id {doc!r} in list for query {self.query!r}")
            seen.add(doc)
            if not np.isfinite(score):
                raise ValueError(f"non-finite score for doc {doc!r} in query {self.query!r}")
        object.__setattr__(self, "entries", canonical_order(entries))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def docs(self) -> tuple[DocId, ...]:
        return next(zip(*self.entries), ())


# The largest grade judgments may hold. nDCG sums gains 2^grade - 1, and at
# 512 the sum of any list stays finite (2^1024 overflows a float).
MAX_GRADE = 512


class Qrels:
    """Relevance judgments: (query, doc) -> integer grade in [0, MAX_GRADE].

    Absent pairs are grade 0. Treat instances as immutable.
    """

    __slots__ = ("_grades",)

    def __init__(self, grades: Mapping[QueryId, Mapping[DocId, int]] | None = None):
        data: dict[str, dict[str, int]] = {}
        for qid, docs in (grades or {}).items():
            validate_id(qid, "query id")
            per_q: dict[str, int] = {}
            for doc, grade in docs.items():
                validate_id(doc, "doc id")
                if not isinstance(grade, (int, np.integer)) or isinstance(grade, bool):
                    raise ValueError(f"grade for ({qid!r}, {doc!r}) must be an integer")
                if grade < 0:
                    raise ValueError(f"negative grade {grade} for ({qid!r}, {doc!r})")
                if grade > MAX_GRADE:
                    raise ValueError(f"grade {grade} for ({qid!r}, {doc!r}) exceeds {MAX_GRADE}")
                per_q[doc] = int(grade)
            data[qid] = per_q
        self._grades = data

    def grade(self, query: QueryId, doc: DocId) -> int:
        return self._grades.get(query, {}).get(doc, 0)

    def judged(self, query: QueryId) -> dict[DocId, int]:
        """All judged docs for a query with their grades (copy)."""
        return dict(self._grades.get(query, {}))

    def positives(self, query: QueryId) -> tuple[DocId, ...]:
        """Docs with grade > 0, sorted by descending grade then ascending id."""
        judged = self._grades.get(query, {})
        pos = [(doc, g) for doc, g in judged.items() if g > 0]
        pos.sort(key=lambda e: (-e[1], e[0]))
        return tuple(doc for doc, _ in pos)

    def query_ids(self) -> tuple[QueryId, ...]:
        return tuple(sorted(self._grades))

    def items(self) -> Iterator[tuple[QueryId, DocId, int]]:
        for qid in sorted(self._grades):
            for doc in sorted(self._grades[qid]):
                yield qid, doc, self._grades[qid][doc]

    def __len__(self) -> int:
        return sum(len(docs) for docs in self._grades.values())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Qrels) and self._grades == other._grades

    def __repr__(self) -> str:
        return f"Qrels({len(self._grades)} queries, {len(self)} judgments)"


# ---------------------------------------------------------------------------
# TREC run format: "qid Q0 docid rank score tag", whitespace separated
# ---------------------------------------------------------------------------


# Characters of a str source that `_text_lines` splits at a time, about.
_LINE_BLOCK = 2**16


def _text_lines(text: str) -> Iterator[str]:
    r"""The lines of `text.splitlines()`, split one block of about
    `_LINE_BLOCK` characters at a time, so that no list of every line is
    held beside the text. Each block but the last ends just after a "\n",
    which ends a line in every convention of line breaks, so a "\r\n" is
    never cut in two."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _LINE_BLOCK) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def _numbered_lines(source: str | IO[str]) -> Iterator[tuple[int, str]]:
    lines = _text_lines(source) if isinstance(source, str) else source
    for lineno, line in enumerate(lines, start=1):
        yield lineno, line.rstrip("\n")


class ParsedRun(Mapping[QueryId, ScoredList]):
    """A parsed TREC run held as flat columns.

    `queries` are in order of first appearance in the source. Query i's
    entries are `docs[offsets[i]:offsets[i + 1]]` with the same slice of
    `scores`, in canonical order. A run parsed to a depth holds only the
    first `depth` entries of each query's canonical order. Read as a
    mapping, a key builds that one query's ScoredList.
    """

    def __init__(
        self,
        queries: tuple[QueryId, ...],
        offsets: np.ndarray,
        docs: list[DocId],
        scores: np.ndarray,
    ):
        self.queries = queries
        self.offsets = offsets  # (Q + 1,)
        self.docs = docs
        self.scores = scores  # float64, one per doc
        self._index = {qid: i for i, qid in enumerate(queries)}

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[QueryId]:
        return iter(self.queries)

    def __getitem__(self, query: QueryId) -> ScoredList:
        i = self._index[query]
        lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
        entries = tuple(zip(self.docs[lo:hi], self.scores[lo:hi].tolist()))
        return ScoredList(query, entries)


def parse_run(source: str | Iterable[str], depth: int | None = None) -> ParsedRun:
    """Parse a TREC run into per-query scored lists.

    `source` is the run text or an iterable of its lines, such as an open
    file, which is read once. Ranks in the file are ignored and recomputed:
    entries come out sorted by descending score with ties broken by
    ascending doc id. With a `depth`, each query keeps only the first
    `depth` entries of that order: the full parse cut to `depth`. Every
    line is read and checked either way. Blank lines are skipped; anything
    else malformed raises ParseError with its line number. The first bad
    line wins, a duplicate (query, doc) pair included.
    """
    if depth is not None and depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    lines = _text_lines(source) if isinstance(source, str) else source
    index: dict[QueryId, int] = {}
    # `docs` holds the ids of the query group being read. An ended group
    # keeps its ids as one "\n"-joined text, so their str objects die with it.
    docs, texts, scores = [], [], array("d")
    # Entries starts[g] up to the next start belong to query groups[g]; a
    # run's lines are mostly grouped by query, so there are few groups.
    starts, groups, blanks = array("q"), array("q"), []

    def duplicate() -> DuplicateEntryError | None:
        """The error for the first repeated pair read so far, in file order."""
        read = [*chain.from_iterable(text.split("\n") for text in texts), *docs]
        return _first_duplicate(tuple(index), starts, groups, read, blanks)

    def fail(message: str) -> ParseError:
        """The error for the line just read, unless an earlier line repeats a pair."""
        return duplicate() or ParseError(message, len(scores) + len(blanks) + 1)

    def end_group() -> None:
        if len(set(docs)) != len(docs):
            raise duplicate()
        texts.append("\n".join(docs))
        docs.clear()

    isfinite, last = math.isfinite, None
    for line in lines:
        fields = line.split()
        try:
            qid, literal, doc, rank, score_text, _tag = fields
        except ValueError:
            if fields:
                raise fail(f"expected 6 fields, got {len(fields)}") from None
            blanks.append(len(scores) + len(blanks) + 1)
            continue
        if literal != "Q0":
            raise fail(f"second field must be 'Q0', got {literal!r}")
        # `ascii_number`'s test without a call per field: in an ASCII line a
        # number field only needs to be free of underscores.
        plain = line.isascii()
        try:
            int(rank if plain and "_" not in rank else ascii_number(rank))
        except ValueError:
            raise fail(f"rank field {rank!r} is not an integer") from None
        try:
            score = float(score_text if plain and "_" not in score_text else ascii_number(score_text))
        except ValueError:
            raise fail(f"score field {score_text!r} is not a number") from None
        if not isfinite(score):
            raise fail(f"non-finite score {score_text!r}")
        if qid != last:
            if docs:
                end_group()
            last = qid
            starts.append(len(scores))
            groups.append(index.setdefault(qid, len(index)))
        docs.append(doc)
        scores.append(score)
    if docs:
        end_group()
    if depth is not None and depth >= len(scores):  # cuts nothing, and may not fit an int64
        depth = None
    queries = tuple(index)
    scores_a = np.frombuffer(scores)
    offsets = np.append(np.frombuffer(starts, dtype=np.int64), len(scores))
    if len(starts) == len(queries) and not _neighbours(np.greater, scores_a, offsets).any():
        # Each query's lines together and its scores never rising, as in every
        # run ltrlab writes: the file order is the ranking, up to the order of
        # tied docs, which rounding scores to 6 decimals can reverse. Group i
        # is query i, and its ids were shown distinct when it ended. Only the
        # entries up to the cut are built, with the run of ties that crosses
        # it, which the tie pass below must see whole.
        tied = _neighbours(np.equal, scores_a, offsets)
        lengths = np.diff(offsets)
        end = offsets[:-1] - 1 + (lengths if depth is None else np.minimum(lengths, depth))
        while (more := tied[end]).any():
            end += more
        del tied
        offsets, kept = _heads(offsets, end - offsets[:-1] + 1)
        ranked_scores, ranked_docs = scores_a[kept], []
        for i, n in enumerate(np.diff(offsets).tolist()):
            ranked_docs += texts[i].split("\n", n)[:n]
            texts[i] = ""  # each group's text is freed once read
    else:
        docs = [*chain.from_iterable(text.split("\n") for text in texts)]
        texts.clear()
        entry_q = _entry_queries(starts, groups, len(docs))
        order = np.lexsort((-scores_a, entry_q))
        ranked_q = entry_q[order]
        del entry_q
        offsets = np.searchsorted(ranked_q, np.arange(len(queries) + 1))
        del ranked_q
        ranked_scores = scores_a[order]
        ranked_docs = np.array(docs, dtype=object)[order].tolist()
        del order
        # A query split over groups may repeat a doc across them. This check
        # runs before the tie pass, while `docs` is in file order, which the
        # error's line number needs.
        bounds = offsets.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            if len(set(ranked_docs[lo:hi])) != hi - lo:
                raise _first_duplicate(queries, starts, groups, docs, blanks)
    del scores_a, scores
    # Ids from str.split are non-empty and free of whitespace, every score is
    # finite and no doc repeats: the columns hold every ScoredList invariant.
    _sort_ties(ranked_docs, ranked_scores, _neighbours(np.equal, ranked_scores, offsets))
    if depth is not None:
        offsets, kept = _heads(offsets, np.minimum(np.diff(offsets), depth))
        ranked_docs, ranked_scores = [ranked_docs[i] for i in kept.tolist()], ranked_scores[kept]
    return ParsedRun(queries, offsets, ranked_docs, ranked_scores)


def _heads(offsets: np.ndarray, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first keep[i] entries of each query's `offsets` slice: their
    offsets, and the index of each of them in the uncut columns."""
    cut = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(keep, out=cut[1:])
    return cut, np.repeat(offsets[:-1] - cut[:-1], keep) + np.arange(cut[-1])


def _neighbours(compare, scores: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """`compare(scores[i + 1], scores[i])` for each entry i, as a bool per
    entry: False where entry i ends its query's `offsets` slice."""
    out = np.zeros(len(scores), dtype=bool)
    compare(scores[1:], scores[:-1], out=out[:-1])
    out[offsets[1:] - 1] = False
    return out


def _sort_ties(docs: list[DocId], scores: np.ndarray, tied: np.ndarray) -> None:
    """Sort each run of entries that tie (`tied[i]`: entry i ties entry i + 1)
    by doc id, in place, moving their scores along: -0.0 ties 0.0."""
    runs = np.flatnonzero(np.diff(tied, prepend=False, append=False)).reshape(-1, 2)
    for lo, hi in runs.tolist():
        order = sorted(range(lo, hi + 1), key=docs.__getitem__)
        docs[lo : hi + 1] = [docs[i] for i in order]
        scores[lo : hi + 1] = scores[order]


def _entry_queries(starts: array, groups: array, n: int) -> np.ndarray:
    """The query index of each of the n entries, from where each group starts."""
    starts_a = np.frombuffer(starts, dtype=np.int64)
    return np.repeat(np.frombuffer(groups, dtype=np.int64), np.diff(starts_a, append=n))


def _first_duplicate(
    queries: Sequence[QueryId],
    starts: array,
    groups: array,
    docs: Sequence[DocId],
    blanks: Sequence[int],
) -> DuplicateEntryError | None:
    """The error for the first entry, in file order, that repeats an earlier
    (query, doc) pair. Entry i is `docs[i]` of the query that `_entry_queries`
    gives it, on the (i + 1)-th line that is not blank; `blanks` holds the
    numbers of the blank lines."""
    seen: set[tuple[int, str]] = set()
    for i, (q, doc) in enumerate(zip(_entry_queries(starts, groups, len(docs)).tolist(), docs)):
        if (q, doc) in seen:
            lineno = i + 1
            for blank in blanks:  # ascending: each blank at or before the line shifts it
                if blank > lineno:
                    break
                lineno += 1
            return DuplicateEntryError(
                f"duplicate entry for query {queries[q]!r} doc {doc!r}", lineno
            )
        seen.add((q, doc))
    return None


def write_run(lists: Iterable[RankedRow], tag: str) -> Iterator[str]:
    """Serialize ranked rows as TREC run text, one chunk of lines per row.

    Rows are written in the order given, each row's entries in its own
    (canonical) order, scores with exactly 6 decimal places. parse_run of
    the text gives back each row's query, docs and scores to 6 decimals. A
    row whose docs and scores differ in length, or with an empty id or one
    holding whitespace, which parse_run would refuse, raises ValueError.
    """
    validate_id(tag, "run tag")
    tag = tag.replace("%", "%%")
    for qid, docs, scores in lists:
        n = len(docs)
        if len(scores) != n:
            raise ValueError(f"row for query {qid!r} has {n} docs but {len(scores)} scores")
        # One check per row: the ids joined hold whitespace iff one id does.
        joined = qid + "".join(docs)
        if not (qid and all(docs)) or joined.split(None, 1) != [joined]:
            bad = next(i for i in (qid, *docs) if i.split() != [i])
            raise ValueError(f"row for query {qid!r}: id {bad!r} is empty or holds whitespace")
        # One % call formats the row: a line template per entry, filled in order.
        line = f"{qid.replace('%', '%%')} Q0 %s %d %.6f {tag}\n"
        yield line * n % tuple(chain.from_iterable(zip(docs, range(1, n + 1), scores)))


# ---------------------------------------------------------------------------
# Qrels format: "qid 0 docid grade"
# ---------------------------------------------------------------------------


def parse_qrels(source: str | IO[str]) -> Qrels:
    """Parse TREC-style qrels. Later duplicate lines override earlier ones."""
    grades: dict[str, dict[str, int]] = {}
    for lineno, line in _numbered_lines(source):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 4:
            raise ParseError(f"expected 4 fields, got {len(fields)}", lineno)
        qid, literal, doc, grade_text = fields
        if literal != "0":
            raise ParseError(f"second field must be '0', got {literal!r}", lineno)
        try:
            grade = int(ascii_number(grade_text))
        except ValueError:
            raise ParseError(f"grade field {grade_text!r} is not an integer", lineno) from None
        if grade < 0:
            raise ParseError(f"negative grade {grade}", lineno)
        if grade > MAX_GRADE:
            raise ParseError(f"grade {grade} exceeds {MAX_GRADE}", lineno)
        if doc in grades.get(qid, {}):
            logger.warning(
                "qrels line %d overrides earlier judgment for query %r doc %r", lineno, qid, doc
            )
        grades.setdefault(qid, {})[doc] = grade
    return Qrels(grades)


def write_qrels(qrels: Qrels) -> str:
    """Serialize qrels; write_qrels then parse_qrels is the identity."""
    out = [f"{qid} 0 {doc} {grade}" for qid, doc, grade in qrels.items()]
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# Distillation dataset: one JSON record per line
# ---------------------------------------------------------------------------
#
# Record schema (key order fixed):
#   {"query_id": ..., "world_sha256": ..., "source_depth": ...,
#    "passages": [{"doc_id": ..., "first_stage_rank": ..., "teacher_rank": ...}, ...]}
# Passages appear in teacher order, so teacher_rank is always 1..n in order.
# The file holds ids and ranks only: a doc's features live in the world that
# made the file, and every record names that world by the sha256 of its
# canonical config text (`WorldConfig.fingerprint`), one value per file.


@dataclass(frozen=True, eq=False)
class DistillRecord:
    """One list of a DistillDataset, best first, as unchecked views of its columns."""

    query: QueryId
    docs: list[DocId]
    first_stage_ranks: np.ndarray
    source_depth: int

    def __len__(self) -> int:
        return len(self.docs)


@dataclass(eq=False, repr=False)
class DistillDataset:
    """Teacher-ranked lists of doc ids with their first-stage ranks.

    List i belongs to query `queries[i]`: it is rows `offsets[i]:offsets[i + 1]`
    of `docs` and `first_stage_ranks`, in teacher order, best first.
    `first_stage_ranks[j]` is the 1-based first-stage rank of `docs[j]`, and
    `source_depths[i]` is the run depth that list i was taken from. `world`
    is the fingerprint of the world config that made the lists (None for a
    parsed file without lists). Iterating yields each list as a DistillRecord.
    """

    world: str | None
    queries: tuple[QueryId, ...]
    offsets: np.ndarray  # (L + 1,)
    docs: list[DocId]
    first_stage_ranks: np.ndarray  # (N,) int64
    source_depths: np.ndarray  # (L,) int64

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[DistillRecord]:
        bounds, depths = self.offsets.tolist(), self.source_depths.tolist()
        for query, lo, hi, depth in zip(self.queries, bounds, bounds[1:], depths):
            yield DistillRecord(query, self.docs[lo:hi], self.first_stage_ranks[lo:hi], depth)


def write_distill_dataset(dataset: DistillDataset) -> Iterator[str]:
    """Serialize a distillation dataset as JSON lines, one chunk per list."""
    for rec in dataset:
        passages = [
            {"doc_id": doc, "first_stage_rank": rank, "teacher_rank": i}
            for i, (doc, rank) in enumerate(zip(rec.docs, rec.first_stage_ranks.tolist()), start=1)
        ]
        obj = {"query_id": rec.query, "world_sha256": dataset.world}
        obj.update(source_depth=rec.source_depth, passages=passages)
        yield json.dumps(obj, separators=(",", ":")) + "\n"


def _integer(obj: Mapping, key: str) -> int:
    value = obj[key]
    if type(value) is not int or not -(2**63) <= value < 2**63:
        raise TypeError(f"{key} must be a 64-bit integer, got {value!r}")
    return value


def _check_record(query: str, docs: list, ranks: list, depth: int) -> None:
    """Raise ValueError for the first invariant of a dataset list that fails."""
    validate_id(query, "query id")
    if not docs:
        raise ValueError(f"record for query {query!r} has no docs")
    if not _ids_valid(docs):
        for doc in docs:
            validate_id(doc, "doc_id")
        raise ValueError(f"record for query {query!r} has duplicate docs")
    if min(ranks) < 1 or max(ranks) > depth:
        rank = next(r for r in ranks if r < 1 or r > depth)
        raise ValueError(f"first-stage rank {rank} outside 1..{depth} for query {query!r}")
    if len(set(ranks)) != len(docs):
        raise ValueError(f"record for query {query!r} has duplicate first-stage ranks")


def parse_distill_dataset(source: str | IO[str]) -> DistillDataset:
    """Parse JSON-lines distillation records into one DistillDataset.

    This is where lists from outside are checked: the first bad record
    raises ParseError with its line number. Every record must name the
    world of the first one.
    """
    queries, docs = [], []
    offsets, ranks, depths = array("q", [0]), array("q"), array("q")
    world = None
    for lineno, line in _numbered_lines(source):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", lineno) from None
        try:
            query, fingerprint = obj["query_id"], obj["world_sha256"]
            if type(fingerprint) is not str:
                raise TypeError(f"world_sha256 must be a string, got {fingerprint!r}")
            source_depth = _integer(obj, "source_depth")
            passages = obj["passages"]
            rec_docs = [p["doc_id"] for p in passages]
            rec_ranks = [_integer(p, "first_stage_rank") for p in passages]
            teacher_ranks = [_integer(p, "teacher_rank") for p in passages]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad record structure: {exc}", lineno) from None
        if teacher_ranks != list(range(1, len(passages) + 1)):
            raise ParseError("passages are not in teacher order (teacher_rank must be 1..n)", lineno)
        try:
            _check_record(query, rec_docs, rec_ranks, source_depth)
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from None
        if world not in (None, fingerprint):
            message = f"record for query {query!r} is from world {fingerprint}"
            raise ParseError(f"{message}, the first record from world {world}", lineno)
        world = fingerprint
        queries.append(query)
        docs += rec_docs
        ranks.extend(rec_ranks)
        depths.append(source_depth)
        offsets.append(len(docs))
    offsets_a, ranks_a, depths_a = (np.frombuffer(a, np.int64) for a in (offsets, ranks, depths))
    return DistillDataset(world, tuple(queries), offsets_a, docs, ranks_a, depths_a)
