"""Shared domain types and bit-exact readers/writers for ranking data.

Covers the 6-column TREC run format, the 4-column qrels format, and the
line-delimited distillation dataset format used by the rest of the toolkit.
`ScoredList` and `Qrels` are values, fixed once built; a `ListBlock` holds
its columns as plain, writable arrays and lists, and no code changes them
once the block is filled.
"""

from __future__ import annotations

import json
import logging
import math
from array import array
from dataclasses import dataclass
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


@dataclass(eq=False, repr=False)
class ListBlock:
    """Candidate lists of many queries, held as flat columns.

    List i belongs to query `queries[i]`: it is rows `offsets[i]:offsets[i + 1]`
    of the doc ids `docs` and of the contiguous (N, F) float64 `features`.
    Producers fill a block from data they have checked, so it is not
    checked again.
    """

    queries: tuple[QueryId, ...]
    offsets: np.ndarray  # (L + 1,)
    docs: list[DocId]
    features: np.ndarray

    def __len__(self) -> int:
        return len(self.queries)

    def lists(self) -> list[np.ndarray]:
        """Each list's (n, F) features, as views of the block."""
        bounds = self.offsets.tolist()
        return [self.features[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class Qrels:
    """Relevance judgments: (query, doc) -> integer grade >= 0.

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


def _numbered_lines(source: str | IO[str]) -> Iterator[tuple[int, str]]:
    lines = source.splitlines() if isinstance(source, str) else source
    for lineno, line in enumerate(lines, start=1):
        yield lineno, line.rstrip("\n")


class ParsedRun(Mapping[QueryId, ScoredList]):
    """A parsed TREC run held as flat columns.

    `queries` are in order of first appearance in the source. Query i's
    entries are `docs[offsets[i]:offsets[i + 1]]` with the same slice of
    `scores`, in canonical order. Read as a mapping, a key builds that one
    query's ScoredList.
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


def parse_run(source: str | Iterable[str]) -> ParsedRun:
    """Parse a TREC run into per-query scored lists.

    `source` is the run text or an iterable of its lines, such as an open
    file, which is read once. Ranks in the file are ignored and recomputed:
    entries come out sorted by descending score with ties broken by
    ascending doc id. Blank lines are skipped; anything else malformed
    raises ParseError with its line number. The first bad line wins, a
    duplicate (query, doc) pair included.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    index: dict[QueryId, int] = {}
    qidx, docs, scores, linenos = array("q"), [], array("d"), array("q")

    def fail(message: str, lineno: int) -> ParseError:
        """The error for bad line `lineno`, unless an earlier line repeats a pair."""
        return _first_duplicate(tuple(index), qidx, docs, linenos) or ParseError(message, lineno)

    isfinite, last = math.isfinite, None
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 6:
            raise fail(f"expected 6 fields, got {len(fields)}", lineno)
        qid, literal, doc, rank, score_text, _tag = fields
        if literal != "Q0":
            raise fail(f"second field must be 'Q0', got {literal!r}", lineno)
        try:
            int(rank)
        except ValueError:
            raise fail(f"rank field {rank!r} is not an integer", lineno) from None
        try:
            score = float(score_text)
        except ValueError:
            raise fail(f"score field {score_text!r} is not a number", lineno) from None
        if not isfinite(score):
            raise fail(f"non-finite score {score_text!r}", lineno)
        if qid != last:  # a run's lines are mostly grouped by query
            last, q = qid, index.setdefault(qid, len(index))
        qidx.append(q)
        docs.append(doc)
        scores.append(score)
        linenos.append(lineno)
    queries = tuple(index)
    qidx_a, scores_a = np.frombuffer(qidx, dtype=np.int64), np.frombuffer(scores)
    order = np.lexsort((-scores_a, qidx_a))
    ranked_q, ranked_scores = qidx_a[order], scores_a[order]
    # Positions i and i + 1 tie when they hold equal scores of one query. The
    # stable sort left each run of ties lo..hi in file order: sort it by doc id.
    tied = (ranked_scores[1:] == ranked_scores[:-1]) & (ranked_q[1:] == ranked_q[:-1])
    runs = np.flatnonzero(np.diff(tied, prepend=False, append=False)).reshape(-1, 2)
    for lo, hi in runs.tolist():
        order[lo : hi + 1] = sorted(order[lo : hi + 1].tolist(), key=docs.__getitem__)
    offsets = np.searchsorted(ranked_q, np.arange(len(queries) + 1))
    ranked_docs = [docs[i] for i in order.tolist()]
    # Ids from str.split are non-empty and free of whitespace, and every score
    # is finite: only a repeated doc can still break a ScoredList invariant.
    bounds = offsets.tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        if len(set(ranked_docs[lo:hi])) != hi - lo:
            raise _first_duplicate(queries, qidx, docs, linenos)
    return ParsedRun(queries, offsets, ranked_docs, scores_a[order])


def _first_duplicate(
    queries: Sequence[QueryId], qidx: Sequence[int], docs: Sequence[DocId], linenos: Sequence[int]
) -> DuplicateEntryError | None:
    """The error for the first entry, in file order, that repeats an earlier
    (query, doc) pair; entry i is `queries[qidx[i]]`, `docs[i]` on line `linenos[i]`."""
    seen: set[tuple[int, str]] = set()
    for q, doc, lineno in zip(qidx, docs, linenos):
        if (q, doc) in seen:
            return DuplicateEntryError(
                f"duplicate entry for query {queries[q]!r} doc {doc!r}", lineno
            )
        seen.add((q, doc))
    return None


def write_run(lists: Iterable[RankedRow], tag: str) -> Iterator[str]:
    """Serialize ranked rows as TREC run text, one chunk of lines per row.

    Rows are written in the order given, each row's entries in its own
    (canonical) order, scores with exactly 6 decimal places. parse_run of
    the text gives back each row's query, docs and scores to 6 decimals.
    """
    validate_id(tag, "run tag")
    for qid, docs, scores in lists:
        yield "".join(
            [
                f"{qid} Q0 {doc} {rank} {score:.6f} {tag}\n"
                for rank, (doc, score) in enumerate(zip(docs, scores), start=1)
            ]
        )


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
            grade = int(grade_text)
        except ValueError:
            raise ParseError(f"grade field {grade_text!r} is not an integer", lineno) from None
        if grade < 0:
            raise ParseError(f"negative grade {grade}", lineno)
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
