"""Training-data construction and the synthetic retrieval world.

Builds the two kinds of training data the trainer consumes:

* hard-negative groups sampled from a first-stage run against sparse
  relevance judgments, and
* teacher-ranked distillation lists built by re-ranking the top of a
  first-stage run with a (near-)oracle teacher, plus depth subsampling.

The synthetic world replaces real corpora, retrievers, and LLM teachers: a
hidden relevance rel(q, d) = dot(q_vec, d_vec) drives noise-parameterized
first-stage retrievers and a noise-parameterized teacher. All randomness for
query i derives from (seed, i), so parallel and serial generation agree.
"""

from __future__ import annotations

import hashlib
import logging
import math
import struct
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (
    DistillRecord,
    DocId,
    Qrels,
    QueryId,
    ScoredList,
    TrainingGroup,
    doc_keys,
)

logger = logging.getLogger(__name__)

DistillDataset = list[DistillRecord]

# teacher(query, docs_in_first_stage_order) -> docs permuted best-first
TeacherFn = Callable[[QueryId, Sequence[DocId]], Sequence[DocId]]
# features_for(query, docs) -> (len(docs), F) feature matrix
FeaturesFn = Callable[[QueryId, Sequence[DocId]], np.ndarray]

FEATURE_MAP_PRODUCT = "product"
FEATURE_MAP_SATURATED = "saturated"


@dataclass(frozen=True)
class SamplingConfig:
    """How hard negatives are drawn from a first-stage run."""

    pool_depth: int = 200
    num_negatives: int = 7
    seed: int = 0

    def __post_init__(self):
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


class SyntheticWorld:
    """A generated retrieval world: corpus, qrels, runs, teacher, features.

    Construct via generate_world. Per-query state is stored in arrays
    indexed by (query index, doc index); doc ids encode their pool index.
    """

    def __init__(
        self,
        config: WorldConfig,
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
        self._doc_width = len(str(config.docs_per_query - 1))
        self.query_ids: tuple[str, ...] = tuple(
            f"q{i:0{len(str(config.num_queries - 1))}d}" for i in range(config.num_queries)
        )
        self._query_index = {qid: i for i, qid in enumerate(self.query_ids)}
        prefix_len = len(self._doc_id(0, 0)) - self._doc_width
        self._offset_limits = np.array([0] * prefix_len + [9] * self._doc_width, dtype=np.uint8)
        self._place_values = np.array(
            [0] * prefix_len + [10**e for e in reversed(range(self._doc_width))], dtype=np.intp
        )
        self._qrels: Qrels | None = None
        self._runs: dict[str, dict[str, ScoredList]] = {}

    @property
    def retriever_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._fs_scores))

    def doc_ids(self, query: QueryId) -> tuple[str, ...]:
        qi = self._qindex(query)
        return tuple(self._doc_id(qi, j) for j in range(self.config.docs_per_query))

    def _doc_id(self, qi: int, j: int) -> str:
        return f"{self.query_ids[qi]}_p{j:0{self._doc_width}d}"

    def _qindex(self, query: QueryId) -> int:
        try:
            return self._query_index[query]
        except KeyError:
            raise KeyError(f"unknown query {query!r}") from None

    def _dindex(self, qi: int, doc: DocId) -> int:
        prefix = f"{self.query_ids[qi]}_p"
        if not doc.startswith(prefix):
            raise KeyError(f"doc {doc!r} does not belong to query {self.query_ids[qi]!r}")
        try:
            j = int(doc[len(prefix):])
        except ValueError:
            raise KeyError(f"malformed doc id {doc!r}") from None
        if not 0 <= j < self.config.docs_per_query:
            raise KeyError(f"doc {doc!r} outside the pool for {self.query_ids[qi]!r}")
        return j

    def true_relevance(self, query: QueryId, doc: DocId) -> float:
        qi = self._qindex(query)
        return float(self._rel[qi, self._dindex(qi, doc)])

    def _generated_indices(self, qi: int, docs: Sequence[DocId]) -> np.ndarray | None:
        """Pool indices of docs if every id has the generated form, else None.

        A query's generated ids share one prefix and end in a zero-padded
        index, so all of them are checked and decoded in one pass over their
        code points. Their string order is their index order.
        """
        template = _code_points(self._doc_id(qi, 0))
        try:
            if set(map(len, docs)) != {len(template)}:
                return None
            codes = _code_points("".join(docs)).reshape(len(docs), len(template))
        except (TypeError, ValueError):
            return None
        # Prefix columns must match exactly and digit columns hold 0-9; the
        # unsigned difference wraps anything below the template to a large value.
        offsets = codes - template
        if (offsets > self._offset_limits).any():
            return None
        idx = offsets @ self._place_values
        return idx if idx.max() < self.config.docs_per_query else None

    def features_for(self, query: QueryId, docs: Sequence[DocId]) -> np.ndarray:
        """Feature matrix (len(docs), F) for one query's documents."""
        qi = self._qindex(query)
        idx = self._generated_indices(qi, docs)
        if idx is None:
            idx = [self._dindex(qi, d) for d in docs]
        return self._features[qi, idx]

    def qrels(self) -> Qrels:
        """Sparse judgments: grade 1 for each query's truly best pool doc."""
        if self._qrels is None:
            grades = {}
            for qi, qid in enumerate(self.query_ids):
                best = int(np.argmax(self._rel[qi]))
                grades[qid] = {self._doc_id(qi, best): 1}
            self._qrels = Qrels(grades)
        return self._qrels

    def first_stage_run(self, retriever: str) -> dict[str, ScoredList]:
        """Full-pool ranking by rel + retriever noise, canonically ordered."""
        if retriever not in self._fs_scores:
            raise KeyError(f"unknown retriever {retriever!r}; have {self.retriever_names}")
        if retriever not in self._runs:
            scores = self._fs_scores[retriever]
            # Zero-padded ids sort like their pool index, so the index is the
            # tie-break key of canonical order.
            doc_index = np.broadcast_to(np.arange(scores.shape[1]), scores.shape)
            order = np.lexsort((doc_index, -scores), axis=-1)
            suffixes = [f"_p{j:0{self._doc_width}d}" for j in range(scores.shape[1])]
            # Generated ids are valid and distinct, so only the scores need
            # a check: a non-finite one goes to the checking constructor.
            make = ScoredList._trusted if np.isfinite(scores).all() else ScoredList
            run = {}
            for qid, row, idx in zip(self.query_ids, scores, order):
                docs = [qid + suffixes[j] for j in idx.tolist()]
                run[qid] = make(qid, tuple(zip(docs, row[idx].tolist())))
            self._runs[retriever] = run
        return self._runs[retriever]

    def teacher(self, query: QueryId, docs: Sequence[DocId]) -> tuple[str, ...]:
        """Rank the given candidates best-first by noisy true relevance.

        Candidates are expected in first-stage order; when
        teacher_noise_rank_growth > 0 the noise scale for the candidate at
        0-based input position p is teacher_noise + growth * p. The unit
        noise per (query, doc) is fixed at world generation, so the teacher
        is deterministic.
        """
        qi = self._qindex(query)
        if len(set(docs)) != len(docs):
            raise ValueError(f"teacher got duplicate candidates for query {query!r}")
        j = tie_key = self._generated_indices(qi, docs)
        if j is None:
            j = [self._dindex(qi, d) for d in docs]
            tie_key = doc_keys(docs)
        cfg = self.config
        sigma = cfg.teacher_noise + cfg.teacher_noise_rank_growth * np.arange(len(docs))
        key = -(self._rel[qi, j] + sigma * self._teacher_u[qi, j])
        return tuple([docs[i] for i in np.lexsort((tie_key, key)).tolist()])


def _code_points(text: str) -> np.ndarray:
    """Latin-1 code points of text; ValueError for anything beyond Latin-1."""
    return np.frombuffer(text.encode("latin-1"), dtype=np.uint8)


def generate_world(config: WorldConfig) -> SyntheticWorld:
    """Generate the full world deterministically from its config."""
    nq, pool, fdim = config.num_queries, config.docs_per_query, config.feature_dim
    rel = np.empty((nq, pool))
    feats = np.empty((nq, pool, fdim))
    teacher_u = np.empty((nq, pool))
    fs_scores = {name: np.empty((nq, pool)) for name in config.first_stage_noise}
    for qi in range(nq):
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(qi,)))
        q_vec = rng.normal(size=fdim)
        d_vecs = rng.normal(size=(pool, fdim))
        rel[qi] = d_vecs @ q_vec
        raw = q_vec[None, :] * d_vecs
        mapped = np.tanh(raw) if config.feature_map == FEATURE_MAP_SATURATED else raw
        if config.feature_noise > 0:
            mapped = mapped + config.feature_noise * rng.normal(size=(pool, fdim))
        feats[qi] = mapped
        teacher_u[qi] = rng.normal(size=pool)
        for name in sorted(config.first_stage_noise):
            sigma = config.first_stage_noise[name]
            fs_scores[name][qi] = rel[qi] + sigma * rng.normal(size=pool)
    return SyntheticWorld(config, rel, feats, teacher_u, fs_scores)


def _query_rng(seed: int, query: QueryId) -> np.random.Generator:
    """Generator keyed on (seed, query id); stable across platforms and runs."""
    digest = hashlib.sha256(query.encode("utf-8")).digest()
    words = struct.unpack("<4I", digest[:16])
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=words))


def build_hard_negative_groups(
    run: Mapping[QueryId, ScoredList], qrels: Qrels, cfg: SamplingConfig
) -> list[TrainingGroup]:
    """Sample hard-negative training groups from the top of a first-stage run.

    Per query that has at least one judged-positive doc: the positive is the
    highest-graded judged doc, and num_negatives negatives are drawn
    uniformly without replacement from the top pool_depth of the run with
    every judged-positive doc excluded. Queries are skipped (and counted)
    when they have no positive, when the run is shallower than pool_depth,
    or when the eligible pool is smaller than num_negatives.
    """
    groups: list[TrainingGroup] = []
    skipped_no_positive = 0
    skipped_shallow = 0
    skipped_small_pool = 0
    for qid in sorted(run):
        ranking = run[qid]
        positives = qrels.positives(qid)
        if not positives:
            skipped_no_positive += 1
            continue
        if len(ranking) < cfg.pool_depth:
            logger.warning(
                "query %r has run depth %d < pool_depth %d; skipped",
                qid,
                len(ranking),
                cfg.pool_depth,
            )
            skipped_shallow += 1
            continue
        positive = positives[0]
        exclude = set(positives)
        pool = [doc for doc, _ in ranking.entries[: cfg.pool_depth] if doc not in exclude]
        if len(pool) < cfg.num_negatives:
            logger.warning(
                "query %r has only %d eligible negatives (< %d); skipped",
                qid,
                len(pool),
                cfg.num_negatives,
            )
            skipped_small_pool += 1
            continue
        rng = _query_rng(cfg.seed, qid)
        chosen = rng.choice(len(pool), size=cfg.num_negatives, replace=False)
        groups.append(TrainingGroup(qid, positive, tuple(pool[i] for i in chosen)))
    skipped = skipped_no_positive + skipped_shallow + skipped_small_pool
    if skipped:
        logger.info(
            "hard-negative sampling: %d groups, %d queries skipped "
            "(%d no positive, %d shallow run, %d small pool)",
            len(groups),
            skipped,
            skipped_no_positive,
            skipped_shallow,
            skipped_small_pool,
        )
    return groups


def build_teacher_dataset(
    run: Mapping[QueryId, ScoredList],
    teacher: TeacherFn,
    features_for: FeaturesFn,
    depth: int = 100,
) -> DistillDataset:
    """Re-rank each query's first-stage top `depth` with the teacher.

    The teacher must return a permutation of exactly the candidates it was
    given; anything else is a hard error naming the query. First-stage ranks
    (1-based positions in the run) are recorded alongside the teacher order.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    dataset: DistillDataset = []
    for qid in sorted(run):
        ranking = run[qid]
        if len(ranking) < depth:
            raise ValueError(
                f"query {qid!r} has run depth {len(ranking)} < requested depth {depth}"
            )
        top_docs = ranking.docs[:depth]
        ranked = tuple(teacher(qid, top_docs))
        fs_rank = dict(zip(top_docs, range(1, depth + 1)))
        if len(ranked) != depth or set(ranked) != fs_rank.keys():
            raise ValueError(f"teacher returned a non-permutation for query {qid!r}")
        dataset.append(
            DistillRecord(
                query=qid,
                docs=ranked,
                features=features_for(qid, ranked),
                first_stage_ranks=tuple(map(fs_rank.__getitem__, ranked)),
                source_depth=depth,
            )
        )
    return dataset


def subsample_depth(dataset: DistillDataset, depth: int) -> DistillDataset:
    """Keep only docs within the first-stage top `depth`, preserving teacher order.

    The filter is on first-stage rank; the surviving docs keep their relative
    teacher order. Composition holds: subsampling to 50 and then 25 equals
    subsampling to 25 directly.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    out: DistillDataset = []
    for rec in dataset:
        if depth >= rec.source_depth:
            raise ValueError(
                f"subsample depth {depth} must be smaller than source depth "
                f"{rec.source_depth} (query {rec.query!r})"
            )
        keep = [i for i, r in enumerate(rec.first_stage_ranks) if r <= depth]
        out.append(
            DistillRecord(
                query=rec.query,
                docs=tuple(rec.docs[i] for i in keep),
                features=rec.features[keep],
                first_stage_ranks=tuple(rec.first_stage_ranks[i] for i in keep),
                source_depth=depth,
            )
        )
    return out
