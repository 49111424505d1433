"""Pipeline plumbing shared by the CLI and experiment harnesses.

Splits queries into train/validation/test ranges, builds re-ranking pools
(from a world, or from a query range one world slice at a time), evaluates
checkpoints, and runs the depth x query-count ablation grid over
distillation lists.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import distill_data, scorer, trainer
from .core import QueryId, RankedRow
from .distill_data import SyntheticWorld, WorldConfig, WorldRun, doc_ids, map_ranges, query_ids
from .trainer import PoolBlock, TrainConfig

logger = logging.getLogger(__name__)


def query_ranges(num_queries: int, fractions: Mapping[str, float]) -> dict[str, range]:
    """Deterministic contiguous split of query indices into named fractions.

    Fractions must be positive and sum to at most 1 (within rounding).
    Queries are independent draws in the synthetic world, so contiguous
    ranges are already unbiased.
    """
    total = sum(fractions.values())
    if total > 1.0 + 1e-9:
        raise ValueError(f"split fractions sum to {total} > 1")
    if any(f <= 0 for f in fractions.values()):
        raise ValueError("split fractions must be positive")
    out: dict[str, range] = {}
    start = 0
    for name, frac in fractions.items():
        count = int(round(frac * num_queries))
        out[name] = range(min(start, num_queries), min(start + count, num_queries))
        start += count
    return out


def split_query_ids(
    query_ids: Sequence[QueryId], fractions: Mapping[str, float]
) -> dict[str, tuple[QueryId, ...]]:
    """The queries of each range of `query_ranges`."""
    ranges = query_ranges(len(query_ids), fractions)
    return {name: tuple(query_ids[r.start : r.stop]) for name, r in ranges.items()}


def build_rerank_pools(
    world: SyntheticWorld, run: WorldRun, queries: Sequence[QueryId], depth: int
) -> PoolBlock:
    """Top-`depth` candidates of each query's run of `world`, with their
    features, judged by the world's qrels."""
    if run.world is not world:
        raise ValueError("the run is not a run of this world")
    return PoolBlock(tuple(queries), world.config.docs_per_query, *run.top(queries, depth))


def range_pools(
    config: WorldConfig, retriever: str, queries: range, depth: int
) -> PoolBlock:
    """The top-`depth` pools of `queries` in a retriever's run, judged, written
    into one block a world slice at a time."""
    n = min(depth, config.docs_per_query) if len(queries) else 0  # as `WorldRun.top` cuts
    index = np.empty((len(queries), n), np.intp)
    features = np.empty((len(queries), n, config.feature_dim))
    grades = np.empty((len(queries), n), np.int64)

    def fill(world: SyntheticWorld) -> None:
        rows = slice(world.queries.start - queries.start, world.queries.stop - queries.start)
        run = world.first_stage_run(retriever)
        index[rows], features[rows], grades[rows], _ = run.top(world.query_ids, depth)

    for _ in map_ranges(fill, config, queries):
        pass
    ideal = distill_data.ideal_grades(len(queries))
    return PoolBlock(
        query_ids(config, queries), config.docs_per_query, index, features, grades, ideal
    )


def evaluate_model(
    model: scorer.ScorerModel, pools: PoolBlock, k: int = 10
) -> tuple[dict[QueryId, float], list[RankedRow]]:
    """Per-query nDCG@k of the model re-ranking each pool, and the re-ranked
    rows for `core.write_run` in the pools' order, both from one ranking of
    the block."""
    scores, order = pools.rank(model)
    ndcg = pools.ndcg_of(order, k)
    ranked = np.take_along_axis(pools.index, order, axis=1).tolist()
    run = [
        (query, doc_ids(query, pools.pool, index), row[columns].tolist())
        for query, index, row, columns in zip(pools.queries, ranked, scores, order)
    ]
    return dict(zip(pools.queries, ndcg.tolist())), run


@dataclass(frozen=True)
class AblationCell:
    """One grid point of the data ablation."""

    depth: int
    query_fraction: float
    num_queries: int
    mean_ndcg10: float
    steps_executed: int


def subsample_queries(lists: Sequence[np.ndarray], fraction: float) -> list[np.ndarray]:
    """Uniform subsample of a fraction in (0, 1] of the training lists, one
    per query, seeded by their count."""
    if fraction == 1.0:
        return list(lists)
    count = max(1, int(round(fraction * len(lists))))
    rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(len(lists),)))
    chosen = sorted(rng.choice(len(lists), size=count, replace=False))
    return [lists[i] for i in chosen]


def ablation_grid(
    lists_by_depth: Mapping[int, Sequence[np.ndarray]],
    fractions: Sequence[float],
    base_model: scorer.ScorerModel,
    validation: PoolBlock,
    cfg: TrainConfig,
) -> list[AblationCell]:
    """Train one model per (depth, fraction) cell and record validation nDCG@10.

    `lists_by_depth` holds the training lists, each an (n, F) feature array,
    of every depth. Every cell starts from the same initial model and
    training config, so cells differ only in their training data.
    """
    cells: list[AblationCell] = []
    for depth in sorted(lists_by_depth):
        lists = lists_by_depth[depth]
        for fraction in fractions:
            data = subsample_queries(lists, fraction)
            model, report = trainer.train_distill(base_model, data, validation, cfg)
            cells.append(
                AblationCell(
                    depth=depth,
                    query_fraction=fraction,
                    num_queries=len(data),
                    mean_ndcg10=float(report.best_validation_ndcg10),
                    steps_executed=report.steps_executed,
                )
            )
            logger.info(
                "ablation depth=%d fraction=%.2f queries=%d ndcg@10=%.4f",
                depth,
                fraction,
                len(data),
                cells[-1].mean_ndcg10,
            )
    return cells
