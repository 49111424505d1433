"""Pipeline plumbing shared by the CLI and experiment harnesses.

Splits worlds into train/validation/test query sets, builds re-ranking
pools, evaluates checkpoints, and runs the depth x query-count ablation
grid over distillation datasets.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import scorer, trainer
from .core import ListBlock, Qrels, QueryId, ScoredList
from .distill_data import SyntheticWorld, WorldRun
from .trainer import PoolBlock, TrainConfig, ValidationSet

logger = logging.getLogger(__name__)


def split_query_ids(
    query_ids: Sequence[QueryId], fractions: Mapping[str, float]
) -> dict[str, tuple[QueryId, ...]]:
    """Deterministic contiguous split of queries into named fractions.

    Fractions must be positive and sum to at most 1 (within rounding).
    Queries are independent draws in the synthetic world, so contiguous
    slices are already unbiased.
    """
    total = sum(fractions.values())
    if total > 1.0 + 1e-9:
        raise ValueError(f"split fractions sum to {total} > 1")
    if any(f <= 0 for f in fractions.values()):
        raise ValueError("split fractions must be positive")
    out: dict[str, tuple[QueryId, ...]] = {}
    start = 0
    for name, frac in fractions.items():
        count = int(round(frac * len(query_ids)))
        out[name] = tuple(query_ids[start : start + count])
        start += count
    return out


def build_rerank_pools(
    world: SyntheticWorld, run: WorldRun, queries: Sequence[QueryId], depth: int
) -> PoolBlock:
    """Top-`depth` candidates of each query's run of `world`, with their features."""
    if run.world is not world:
        raise ValueError("the run is not a run of this world")
    return PoolBlock(tuple(queries), *run.top(queries, depth))


def make_validation(
    world: SyntheticWorld, retriever: str, queries: Sequence[QueryId], depth: int
) -> ValidationSet:
    run = world.first_stage_run(retriever)
    pools = build_rerank_pools(world, run, queries, depth)
    return ValidationSet(pools, world.qrels().restrict(queries))


def evaluate_model(
    model: scorer.ScorerModel, pools: PoolBlock, qrels: Qrels, k: int = 10
) -> tuple[dict[QueryId, float], dict[QueryId, ScoredList]]:
    """Per-query nDCG@k of the model re-ranking each pool, and the re-ranked
    run in canonical order, both from one ranking of the block."""
    if not len(pools):
        return {}, {}
    scores, order = pools.rank(model)
    ndcg = ValidationSet(pools, qrels).ndcg_of(order, k)
    # World ids are valid and `rank` checked the scores: the lists are trusted.
    run = {}
    for query, docs, row, ranked in zip(pools.queries, pools.docs, scores, order):
        ranked = ranked.tolist()
        entries = tuple(zip([docs[j] for j in ranked], row[ranked].tolist()))
        run[query] = ScoredList._trusted(query, entries)
    return dict(zip(pools.queries, ndcg.tolist())), run


@dataclass(frozen=True)
class AblationCell:
    """One grid point of the data ablation."""

    depth: int
    query_fraction: float
    num_queries: int
    mean_ndcg10: float
    steps_executed: int


def subsample_queries(lists: Sequence[np.ndarray], fraction: float, seed: int) -> list[np.ndarray]:
    """Seeded uniform subsample of a fraction of the training lists, one per query."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"query fraction must lie in (0, 1], got {fraction}")
    if fraction == 1.0:
        return list(lists)
    count = max(1, int(round(fraction * len(lists))))
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(len(lists),)))
    chosen = sorted(rng.choice(len(lists), size=count, replace=False))
    return [lists[i] for i in chosen]


def ablation_grid(
    datasets_by_depth: Mapping[int, ListBlock],
    fractions: Sequence[float],
    base_model: scorer.ScorerModel,
    validation: ValidationSet,
    cfg: TrainConfig,
    subsample_seed: int = 0,
) -> list[AblationCell]:
    """Train one model per (depth, fraction) cell and record validation nDCG@10.

    Every cell starts from the same initial model and training config, so
    cells differ only in their training data.
    """
    cells: list[AblationCell] = []
    for depth in sorted(datasets_by_depth):
        lists = datasets_by_depth[depth].lists()
        for fraction in fractions:
            data = subsample_queries(lists, fraction, subsample_seed)
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
