"""Training-data construction and the synthetic retrieval world.

Builds the two kinds of training data the trainer consumes:

* hard-negative groups sampled from a first-stage run against sparse
  relevance judgments, and
* teacher-ranked distillation lists built by re-ranking the top of a
  first-stage run with a (near-)oracle teacher, plus depth subsampling.

The synthetic world replaces real corpora, retrievers, and LLM teachers: a
hidden relevance rel(q, d) = dot(q_vec, d_vec) drives noise-parameterized
first-stage retrievers and a noise-parameterized teacher. All randomness for
query i derives from (seed, i), so the world of any range of queries has the
bits of the same rows of the whole world and can be generated on its own.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import logging
import math
import struct
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .core import DistillDataset, DocId, ListBlock, Qrels, QueryId, RankedRow

logger = logging.getLogger(__name__)

T = TypeVar("T")

FEATURE_MAP_PRODUCT = "product"
FEATURE_MAP_SATURATED = "saturated"

# Queries per world slice in `map_ranges`: about 6.5 MB of features at
# 200 docs x 16 features.
_QUERIES_PER_RANGE = 256


@dataclass(frozen=True)
class SamplingConfig:
    """How hard negatives are drawn from a first-stage run."""

    pool_depth: int = 200
    num_negatives: int = 7
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.num_negatives < 1:
            raise ValueError("num_negatives must be >= 1")
        if self.pool_depth < self.num_negatives + 1:
            raise ValueError("pool_depth must be >= num_negatives + 1")


def _check_noise(key: str, sigma: float) -> None:
    if not (math.isfinite(sigma) and sigma >= 0):
        raise ValueError(f"{key} must be a finite number >= 0, got {sigma!r}")


@dataclass(frozen=True)
class WorldConfig:
    """Shape and noise levels of the synthetic retrieval world.

    Each named first-stage retriever ranks a query's document pool by
    rel + N(0, sigma); a smaller sigma is a strictly better retriever in
    expectation. The teacher ranks any candidate list by rel + N(0, sigma_t),
    optionally with noise growing linearly in the candidate's first-stage
    position (`teacher_noise_rank_growth`), which models teachers that
    degrade on deep, low-quality pools.

    `feature_map` controls what the scorer sees per (query, doc) pair:
    "product" exposes q * d elementwise (a linear scorer can represent rel
    exactly); "saturated" exposes tanh(q * d), so rel is a nonlinear function
    of the features and any scorer's fit quality depends on where its
    training data lives.
    """

    num_queries: int = 10_000
    docs_per_query: int = 200
    feature_dim: int = 16
    first_stage_noise: Mapping[str, float] = field(
        default_factory=lambda: {"strong": 0.5, "weak": 4.0}
    )
    teacher_noise: float = 0.0
    teacher_noise_rank_growth: float = 0.0
    feature_map: str = FEATURE_MAP_PRODUCT
    feature_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.num_queries < 1 or self.docs_per_query < 1 or self.feature_dim < 1:
            raise ValueError("world dimensions must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.first_stage_noise:
            raise ValueError("at least one first-stage retriever is required")
        object.__setattr__(self, "first_stage_noise", dict(self.first_stage_noise))
        for name, sigma in self.first_stage_noise.items():
            if not name or any(c.isspace() for c in name):
                raise ValueError(f"bad retriever name {name!r}")
            _check_noise(f"first_stage_noise[{name!r}]", sigma)
        for key in ("teacher_noise", "teacher_noise_rank_growth", "feature_noise"):
            _check_noise(key, getattr(self, key))
        if self.feature_map not in (FEATURE_MAP_PRODUCT, FEATURE_MAP_SATURATED):
            raise ValueError(f"unknown feature_map {self.feature_map!r}")

    def canonical_text(self) -> str:
        """The config as the JSON text of `world_config.json`."""
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"

    def fingerprint(self) -> str:
        """The sha256 of `canonical_text`: the world a distillation dataset names."""
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()


def query_ids(config: WorldConfig, queries: range) -> tuple[QueryId, ...]:
    """The ids of a range of the config's query indices, at the width of the whole config."""
    width = len(str(config.num_queries - 1))
    return tuple(f"q{i:0{width}d}" for i in queries)


class SyntheticWorld:
    """A generated retrieval world: corpus, qrels, runs, teacher, features.

    Construct via generate_world. It holds the rows of one range of the
    config's queries. Per-query state is stored in arrays indexed by (query
    index within the range, doc index); doc ids encode their pool index.
    """

    def __init__(
        self,
        config: WorldConfig,
        queries: range,
        relevance: np.ndarray,
        features: np.ndarray,
        teacher_unit_noise: np.ndarray,
        first_stage_scores: dict[str, np.ndarray],
    ):
        self.config = config
        self._rel = relevance  # (Q, P)
        self._features = features  # (Q, P, F)
        self._teacher_u = teacher_unit_noise  # (Q, P)
        self._fs_scores = first_stage_scores  # name -> (Q, P)
        width = len(str(config.docs_per_query - 1))
        self._suffixes = [f"_p{j:0{width}d}" for j in range(config.docs_per_query)]
        self._suffix_index = {suffix: j for j, suffix in enumerate(self._suffixes)}
        self.query_ids = query_ids(config, queries)
        self._qrels: Qrels | None = None
        # Orders, not runs: a run refers to its world, and a cycle delays freeing it.
        self._orders: dict[str, np.ndarray] = {}

    def _doc_ids(self, qi: int, idx: Iterable[int]) -> list[str]:
        """Ids of query qi's docs at pool indices idx."""
        qid, suffixes = self.query_ids[qi], self._suffixes
        return [qid + suffixes[j] for j in idx]

    def pool_index(self, qi: int, docs: Sequence[DocId]) -> list[int]:
        """Pool index of each of query qi's docs, by their exact ids; ValueError
        names the first doc that is not one of its pool."""
        qid, suffix, n = self.query_ids[qi], self._suffix_index, len(self.query_ids[qi])
        index = [suffix.get(doc[n:], -1) if doc.startswith(qid) else -1 for doc in docs]
        if -1 in index:
            doc, pool = docs[index.index(-1)], self.config.docs_per_query
            raise ValueError(f"doc {doc!r} is not one of the {pool} docs of query {qid!r}")
        return index

    def qrels(self) -> Qrels:
        """Sparse judgments: grade 1 for each query's truly best pool doc."""
        if self._qrels is None:
            grades = {}
            for qi, qid in enumerate(self.query_ids):
                best = int(np.argmax(self._rel[qi]))
                grades[qid] = {self._doc_ids(qi, [best])[0]: 1}
            self._qrels = Qrels(grades)
        return self._qrels

    def first_stage_run(self, retriever: str) -> WorldRun:
        """Full-pool ranking by rel + retriever noise, canonically ordered."""
        if retriever not in self._fs_scores:
            have = tuple(sorted(self._fs_scores))
            raise KeyError(f"unknown retriever {retriever!r}; have {have}")
        scores = self._fs_scores[retriever]
        if retriever not in self._orders:
            # Zero-padded ids sort like their pool index, so the index is the
            # tie-break key of canonical order.
            doc_index = np.broadcast_to(np.arange(scores.shape[1]), scores.shape)
            order = np.lexsort((doc_index, -scores), axis=-1)
            if not np.isfinite(scores).all():
                # The first non-finite score in run order, as ScoredList names it.
                bad = ~np.isfinite(np.take_along_axis(scores, order, axis=1))
                qi, pos = np.argwhere(bad)[0]
                raise ValueError(
                    f"non-finite score for doc {self._doc_ids(qi, [order[qi, pos]])[0]!r} "
                    f"in query {self.query_ids[qi]!r}"
                )
            self._orders[retriever] = order
        return WorldRun(self, scores, np.arange(len(scores)), self._orders[retriever])


class WorldRun:
    """A first-stage run over a world's pools, held as pool indices.

    Row r is query `queries[r]`, world query index `qindex[r]`, and
    `order[r]` holds its pool indices by descending score, ties by ascending
    pool index, which is doc-id order. Rows are in query-id order.
    """

    def __init__(
        self, world: SyntheticWorld, scores: np.ndarray, qindex: np.ndarray, order: np.ndarray
    ):
        self.world = world
        self.qindex = qindex  # (R,)
        self.order = order  # (R, P)
        self._scores = scores  # the world's (Q, P) scores of this retriever
        self.queries = tuple(world.query_ids[qi] for qi in qindex.tolist())
        self._row = {qid: r for r, qid in enumerate(self.queries)}

    def top(self, queries: Sequence[QueryId], depth: int) -> tuple[list, np.ndarray, np.ndarray]:
        """The top-`depth` doc ids of each query, their (len(queries), n) pool
        indices and their (len(queries), n, F) features; KeyError names a
        query that is not in the run."""
        rows = np.array([self._row[q] for q in queries], dtype=np.intp)
        qindex, top = self.qindex[rows], self.order[rows, : depth if len(rows) else 0]
        docs = [self.world._doc_ids(qi, idx) for qi, idx in zip(qindex.tolist(), top.tolist())]
        return docs, top, self.world._features[qindex[:, None], top]

    def features(self, index: np.ndarray) -> np.ndarray:
        """The (R, n, F) features of pool indices `index[r]` of each row r."""
        return self.world._features[self.qindex[:, None], index]

    def __len__(self) -> int:
        return len(self.queries)

    def ranked(self) -> Iterator[RankedRow]:
        """Each row's query, doc ids and scores in canonical order, one row at a time."""
        for query, qi, idx in zip(self.queries, self.qindex.tolist(), self.order):
            yield query, self.world._doc_ids(qi, idx.tolist()), self._scores[qi, idx].tolist()


def generate_world(config: WorldConfig, queries: range | None = None) -> SyntheticWorld:
    """Generate the world's rows of a range of query indices, by default all.

    Each row is drawn from (seed, query index) alone, so it has the same bits
    in every range that holds it, and query ids keep the width of the whole
    config.
    """
    if queries is None:
        queries = range(config.num_queries)
    if not (queries.step == 1 and 0 <= queries.start < queries.stop <= config.num_queries):
        raise ValueError(f"{queries} is not a non-empty range of the {config.num_queries} queries")
    nq, pool, fdim = len(queries), config.docs_per_query, config.feature_dim
    rel = np.empty((nq, pool))
    feats = np.empty((nq, pool, fdim))
    teacher_u = np.empty((nq, pool))
    fs_scores = {name: np.empty((nq, pool)) for name in config.first_stage_noise}
    for row, qi in enumerate(queries):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(qi,)))
        q_vec = rng.normal(size=fdim)
        d_vecs = rng.normal(size=(pool, fdim))
        rel[row] = d_vecs @ q_vec
        raw = q_vec[None, :] * d_vecs
        mapped = np.tanh(raw) if config.feature_map == FEATURE_MAP_SATURATED else raw
        if config.feature_noise > 0:
            mapped = mapped + config.feature_noise * rng.normal(size=(pool, fdim))
        feats[row] = mapped
        teacher_u[row] = rng.normal(size=pool)
        for name in sorted(config.first_stage_noise):
            sigma = config.first_stage_noise[name]
            fs_scores[name][row] = rel[row] + sigma * rng.normal(size=pool)
    return SyntheticWorld(config, queries, rel, feats, teacher_u, fs_scores)


def map_ranges(
    fn: Callable[[SyntheticWorld], T], config: WorldConfig, queries: range
) -> Iterator[T]:
    """`fn` of the world of each consecutive slice of at most
    `_QUERIES_PER_RANGE` of `queries`, lazily and in order.

    Each world is dropped once `fn` returns, before the next is generated,
    so one slice is alive at a time as long as no result refers to its world.
    """
    step = _QUERIES_PER_RANGE
    for lo in range(queries.start, queries.stop, step):
        yield fn(generate_world(config, range(lo, min(lo + step, queries.stop))))


def _query_rng(seed: int, query: QueryId) -> np.random.Generator:
    """Generator keyed on (seed, query id); stable across platforms and runs."""
    digest = hashlib.sha256(query.encode("utf-8")).digest()
    words = struct.unpack("<4I", digest[:16])
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=words))


def log_sampling(counts: Counter) -> None:
    """Log one summary of hard-negative sampling, if any query was skipped."""
    skipped = [counts["no positive"], counts["shallow run"], counts["small pool"]]
    if sum(skipped):
        logger.info(
            "hard-negative sampling: %d groups, %d queries skipped "
            "(%d no positive, %d shallow run, %d small pool)",
            counts["groups"],
            sum(skipped),
            *skipped,
        )


def build_hard_negative_groups(
    run: WorldRun, qrels: Qrels, cfg: SamplingConfig, counts: Counter | None = None
) -> ListBlock:
    """Sample hard-negative training groups from the top of a first-stage run.

    Per query that has at least one judged-positive doc: the positive is the
    highest-graded judged doc, and num_negatives negatives are drawn
    uniformly without replacement from the top pool_depth of the run with
    every judged-positive doc excluded. Queries are skipped (and counted)
    when they have no positive, when the run is shallower than pool_depth,
    or when the eligible pool is smaller than num_negatives. Each group is
    one list of the block, positive first; a positive that is not a doc of
    its query's pool raises ValueError.

    The group and skip counts are added to `counts` when it is given, so
    that a caller that samples many runs logs them once with `log_sampling`;
    without it they are logged here.
    """
    world = run.world
    run_depth = run.order.shape[1]
    rows, members = [], []
    tally: Counter = Counter()
    for r, (qid, qi, row) in enumerate(zip(run.queries, run.qindex.tolist(), run.order)):
        positives = qrels.positives(qid)
        if not positives:
            tally["no positive"] += 1
            continue
        if run_depth < cfg.pool_depth:
            logger.warning(
                "query %r has run depth %d < pool_depth %d; skipped",
                qid,
                run_depth,
                cfg.pool_depth,
            )
            tally["shallow run"] += 1
            continue
        pool = row[: cfg.pool_depth]
        for doc in positives:
            try:
                pool = pool[pool != world.pool_index(qi, [doc])[0]]
            except ValueError:  # a judged doc that is not in this query's pool
                pass
        if len(pool) < cfg.num_negatives:
            logger.warning(
                "query %r has only %d eligible negatives (< %d); skipped",
                qid,
                len(pool),
                cfg.num_negatives,
            )
            tally["small pool"] += 1
            continue
        rng = _query_rng(cfg.seed, qid)
        chosen = rng.choice(len(pool), size=cfg.num_negatives, replace=False)
        rows.append(r)
        members.append([*world.pool_index(qi, positives[:1]), *pool[chosen].tolist()])
    tally["groups"] = len(rows)
    if counts is None:
        log_sampling(tally)
    else:
        counts.update(tally)
    size, qindex = cfg.num_negatives + 1, run.qindex[rows]
    index = np.array(members, dtype=np.intp).reshape(len(rows), size)
    return ListBlock(
        tuple(run.queries[r] for r in rows),
        np.arange(len(rows) + 1) * size,
        list(itertools.chain.from_iterable(map(world._doc_ids, qindex.tolist(), members))),
        world._features[qindex[:, None], index].reshape(-1, world.config.feature_dim),
    )


def teacher_ranking(run: WorldRun, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Re-rank each query's first-stage top `depth` with the world's teacher.

    The teacher ranks the candidates best-first by noisy true relevance
    rel + sigma_p * u, ties by ascending doc id. The unit noise u per
    (query, doc) is fixed at world generation, so the teacher is
    deterministic; sigma_p = teacher_noise + teacher_noise_rank_growth * p
    for the candidate at 0-based first-stage position p. Returns the run
    rows' (R, depth) pool indices in teacher order and their first-stage ranks.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    world, cfg = run.world, run.world.config
    if len(run) and run.order.shape[1] < depth:
        raise ValueError(
            f"query {run.queries[0]!r} has run depth {run.order.shape[1]} "
            f"< requested depth {depth}"
        )
    qindex = run.qindex[:, None]
    top = run.order[:, :depth]
    sigma = cfg.teacher_noise + cfg.teacher_noise_rank_growth * np.arange(top.shape[1])
    key = -(world._rel[qindex, top] + sigma * world._teacher_u[qindex, top])
    # Pool-index order is doc-id order, so `top` breaks the teacher's ties.
    teacher = np.lexsort((top, key), axis=-1)
    return np.take_along_axis(top, teacher, axis=1), teacher + 1


def first_stage_top(ranks: np.ndarray, depth: int) -> np.ndarray:
    """Which docs of teacher-ranked lists lie in the first-stage top `depth`."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return ranks <= depth


def build_teacher_dataset(run: WorldRun, depth: int = 100) -> DistillDataset:
    """The `teacher_ranking` of `run` at `depth` as doc ids and first-stage
    ranks, which are valid and distinct: nothing needs checking."""
    ranked, ranks = teacher_ranking(run, depth)
    world, offsets, depths = run.world, np.arange(len(run) + 1) * depth, np.full(len(run), depth)
    docs = itertools.chain.from_iterable(map(world._doc_ids, run.qindex.tolist(), ranked.tolist()))
    fingerprint = world.config.fingerprint()
    return DistillDataset(fingerprint, run.queries, offsets, list(docs), ranks.ravel(), depths)


def gather_lists(world: SyntheticWorld, lists: dict[QueryId, list]) -> list[tuple[int, np.ndarray]]:
    """Take the lists of `world`'s queries out of `lists`, which holds each
    query's (list number, space-separated doc ids) pairs, and return the
    number and (n, F) features of each, gathered by pool index.
    ValueError names the first doc that is not one of its query's pool."""
    taken = [(qi, *pair) for qi, q in enumerate(world.query_ids) for pair in lists.pop(q, ())]
    rows, index, ends = [], [], []
    for qi, _, docs in taken:
        index += world.pool_index(qi, docs.split(" "))
        rows += [qi] * (len(index) - len(rows))
        ends.append(len(index))
    return list(zip([i for _, i, _ in taken], np.split(world._features[rows, index], ends[:-1])))


def subsample_depth(dataset: DistillDataset, depth: int) -> DistillDataset:
    """Keep only docs within the first-stage top `depth`, preserving teacher order.

    The filter is on first-stage rank; the surviving docs keep their relative
    teacher order. Composition holds: subsampling to 50 and then 25 equals
    subsampling to 25 directly. The first list that is not deeper than
    `depth`, or that would keep no doc, raises ValueError.
    """
    keep = first_stage_top(dataset.first_stage_ranks, depth)
    offsets = np.concatenate(([0], np.cumsum(keep)))[dataset.offsets]
    bad = (dataset.source_depths <= depth) | (offsets[1:] == offsets[:-1])
    if bad.any():
        i = int(np.argmax(bad))
        query, source_depth = dataset.queries[i], int(dataset.source_depths[i])
        if source_depth <= depth:
            raise ValueError(
                f"subsample depth {depth} must be smaller than source depth "
                f"{source_depth} (query {query!r})"
            )
        raise ValueError(f"record for query {query!r} has no docs")
    # A subset of a list's docs keeps every invariant of the list.
    docs, ranks = itertools.compress(dataset.docs, keep.tolist()), dataset.first_stage_ranks[keep]
    depths = np.full(len(dataset), depth)
    return DistillDataset(dataset.world, dataset.queries, offsets, list(docs), ranks, depths)
