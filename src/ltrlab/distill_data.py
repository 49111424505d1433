"""Training-data construction and the synthetic retrieval world.

Builds the two kinds of training data the trainer consumes:

* hard-negative groups sampled from a first-stage run around the doc the
  world judges relevant, and
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
import functools
import hashlib
import itertools
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .core import DistillDataset, DocId, Qrels, QueryId, RankedRow

T = TypeVar("T")

FEATURE_MAP_PRODUCT = "product"
FEATURE_MAP_SATURATED = "saturated"

# Bytes of features per world slice in `map_ranges`: 81 queries at 200 docs
# x 16 features, 54 at 300 x 16, and at least one query. Not 1 MiB: glibc
# sets its heap trim threshold to twice the largest block freed so far, and
# a threshold below the ~3.5 MB of a training step's temporaries at n = 100
# gives them back to the system and faults them in again on every step.
_SLICE_BYTES = 2**21
# Full slices that each part of `part_ranges` holds at least. A worker
# process costs about a slice's work of its own: its fork, the copy-on-write
# faults of both processes' heaps and its exit.
_PART_SLICES = 2


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


@functools.cache
def _suffixes(pool: int) -> tuple[tuple[str, ...], dict[str, int]]:
    """The doc-id suffix of each pool index of a pool of `pool` docs, and the
    index of each suffix. Cached per pool size and shared, so read-only."""
    width = len(str(pool - 1))
    suffixes = tuple(f"_p{j:0{width}d}" for j in range(pool))
    return suffixes, {suffix: j for j, suffix in enumerate(suffixes)}


def doc_ids(query: QueryId, pool: int, index: Iterable[int]) -> list[DocId]:
    """The world ids of the docs at pool indices `index` of `query`'s pool of
    `pool` docs. They are zero-padded, so they sort like their pool indices."""
    suffixes = _suffixes(pool)[0]
    return [query + suffixes[j] for j in index]


def pool_index(config: WorldConfig, query: QueryId, docs: Sequence[DocId]) -> list[int]:
    """Pool index of each doc of `query`, one of the config's query ids, by
    the docs' exact ids, the inverse of `doc_ids`; ValueError names the first
    doc that is not one of its pool."""
    suffix, n = _suffixes(config.docs_per_query)[1], len(query)
    index = [suffix.get(doc[n:], -1) if doc.startswith(query) else -1 for doc in docs]
    if -1 in index:
        doc, pool = docs[index.index(-1)], config.docs_per_query
        raise ValueError(f"doc {doc!r} is not one of the {pool} docs of query {query!r}")
    return index


class SyntheticWorld:
    """A generated retrieval world: corpus, qrels, runs, teacher, features.

    Construct via generate_world. It holds the rows of the range `queries`
    of the config's queries. Per-query state is stored in arrays indexed by
    (query index within the range, pool index); `doc_ids` names a pool index.
    The world judges each query's truly best pool doc, `best`, at grade 1.
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
        self.queries = queries
        self.query_ids = query_ids(config, queries)
        self.best = np.argmax(relevance, axis=1)  # (Q,)
        # Orders, not runs: a run refers to its world, and a cycle delays freeing it.
        self._orders: dict[str, np.ndarray] = {}

    def _doc_ids(self, qi: int, idx: Iterable[int]) -> list[str]:
        """Ids of query qi's docs at pool indices idx."""
        return doc_ids(self.query_ids[qi], self.config.docs_per_query, idx)

    def qrels(self) -> Qrels:
        """Sparse judgments: grade 1 for each query's truly best pool doc."""
        pool, best = self.config.docs_per_query, zip(self.query_ids, self.best.tolist())
        return Qrels({qid: {doc_ids(qid, pool, [j])[0]: 1} for qid, j in best})

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


def ideal_grades(queries: int) -> np.ndarray:
    """The (queries, 1) int64 ideal grades of that many queries: the world
    judges one doc of each, its `best`, at grade 1."""
    return np.ones((queries, 1), np.int64)


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

    def top(
        self, queries: Sequence[QueryId], depth: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The (len(queries), n) pool indices of each query's top `depth` docs,
        their (len(queries), n, F) features, their (len(queries), n) int64
        grades by the world's qrels and each query's (len(queries), 1) ideal
        grades, its one judged doc's; KeyError names a query not in the run."""
        rows = np.array([self._row[q] for q in queries], dtype=np.intp)
        qindex, top = self.qindex[rows], self.order[rows, : depth if len(rows) else 0]
        grades = (top == self.world.best[qindex, None]).astype(np.int64)
        return top, self.world._features[qindex[:, None], top], grades, ideal_grades(len(rows))

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


def _slice_queries(config: WorldConfig) -> int:
    """How many queries a world slice of `map_ranges` holds: as many as fit
    `_SLICE_BYTES` of features, and at least one."""
    return max(1, _SLICE_BYTES // (config.docs_per_query * config.feature_dim * 8))


def map_ranges(
    fn: Callable[[SyntheticWorld], T], config: WorldConfig, queries: range
) -> Iterator[T]:
    """`fn` of the world of each consecutive slice of `queries`, lazily and
    in order. A slice holds `_slice_queries(config)` queries.

    Each world is dropped once `fn` returns, before the next is generated,
    so one slice is alive at a time as long as no result refers to its world.
    """
    step = _slice_queries(config)
    for lo in range(queries.start, queries.stop, step):
        yield fn(generate_world(config, range(lo, min(lo + step, queries.stop))))


def part_ranges(config: WorldConfig, queries: range, parts: int) -> list[range]:
    """`queries` cut into `parts` consecutive ranges of whole `map_ranges`
    slices, as even in slices as they can be, but into fewer where a range
    would hold less than `_PART_SLICES` full slices, and never fewer than
    one: `map_ranges` over the ranges makes the slices that it makes over
    `queries`."""
    step = _slice_queries(config)
    slices = -(-len(queries) // step)
    parts = max(1, min(parts, len(queries) // (step * _PART_SLICES)))
    starts = (queries.start + slices * i // parts * step for i in range(parts + 1))
    bounds = [min(start, queries.stop) for start in starts]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _query_rng(seed: int, query: QueryId) -> np.random.Generator:
    """Generator keyed on (seed, query id); stable across platforms and runs."""
    digest = hashlib.sha256(query.encode("utf-8")).digest()
    words = struct.unpack("<4I", digest[:16])
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=words))


def build_hard_negative_groups(run: WorldRun, cfg: SamplingConfig) -> np.ndarray:
    """Sample one hard-negative training group per row of a first-stage run.

    Each query's positive is the doc the world judges, `best`, and
    num_negatives negatives are drawn uniformly without replacement from
    the top pool_depth of the run with the positive excluded. Returns the
    groups' (R, num_negatives + 1, F) float64 features, in run order, each
    positive first. A run shallower than pool_depth raises ValueError.
    """
    depth = run.order.shape[1]
    if depth < cfg.pool_depth:
        raise ValueError(f"run depth {depth} < pool_depth {cfg.pool_depth}")
    positives = run.world.best[run.qindex]
    index = np.empty((len(run), cfg.num_negatives + 1), dtype=np.intp)
    index[:, 0] = positives
    for r, (qid, row, positive) in enumerate(zip(run.queries, run.order, positives)):
        pool = row[: cfg.pool_depth]
        pool = pool[pool != positive]
        rng = _query_rng(cfg.seed, qid)
        index[r, 1:] = pool[rng.choice(len(pool), size=cfg.num_negatives, replace=False)]
    return run.features(index)


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
