"""Pipeline plumbing shared by the CLI and experiment harnesses.

Splits queries into train/validation/test ranges, runs independent parts
in forked worker processes that write into shared blocks, builds re-ranking
pools (from a world, or from a query range one world slice at a time),
evaluates checkpoints, and runs the depth x query-count ablation grid over
distillation lists.
"""

from __future__ import annotations

import logging
import math
import mmap
import os
import sys
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, TypeVar

import numpy as np

from . import distill_data, scorer, trainer
from .core import QueryId, RankedRow
from .distill_data import SyntheticWorld, WorldConfig, WorldRun, doc_ids, map_ranges, part_ranges
from .distill_data import query_ids
from .trainer import PoolBlock, TrainConfig

T = TypeVar("T")
R = TypeVar("R")

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


def cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_context():
    """`multiprocessing`'s fork context, or None where processes cannot fork
    safely: nowhere without fork, nor on macOS, whose system libraries may
    hold threads that a forked child lacks."""
    import multiprocessing

    if sys.platform == "darwin" or "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def _run_items(fn: Callable[[T], R], items: Sequence[T], results) -> None:
    """A worker's body: `fn` of each item in order until one raises, then
    the results so far and that exception, or None, sent over `results`."""
    done, error = [], None
    try:
        for item in items:
            done.append(fn(item))
    except BaseException as exc:  # the parent raises it
        error = exc
    results.send((done, error))


def map_processes(fn: Callable[[T], R], items: Sequence[T], here: bool = True) -> list[R]:
    """`fn` of each item, in item order, on every CPU this process may use.

    The items are cut into one consecutive run per CPU, never more runs than
    items. A forked worker process runs each run but the first, and the
    first too unless `here`. With `here` this process runs the first run, so
    its allocator sees the work as if it ran alone (`distill_data._SLICE_BYTES`);
    without, it only waits, and its peak holds no run's memory. A worker
    starts with this process's memory, so `fn` may be a closure and may write
    into `shared_empty` blocks made before the call; its results and its
    exception must pickle. On one CPU, for one item, or where processes
    cannot fork, every item runs here. Every worker is joined before this
    returns or raises; the first failing item's exception is raised, with
    its type and message.
    """
    runs = min(len(items), cpu_count())
    context = _fork_context() if runs > 1 else None
    if context is None:
        return [fn(item) for item in items]
    bounds = [len(items) * i // runs for i in range(runs + 1)]
    first = 1 if here else 0  # the first run that a worker takes
    children = []
    try:
        for lo, hi in zip(bounds[first:], bounds[first + 1 :]):
            receive, send = context.Pipe(duplex=False)
            child = context.Process(target=_run_items, args=(fn, items[lo:hi], send), daemon=True)
            child.start()
            send.close()  # so that a worker that dies ends its pipe
            children.append((child, receive))
        results = [fn(item) for item in items[: bounds[first]]]
        for child, receive in children:  # in item order: the first error is the first item's
            try:
                done, error = receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"worker process {child.pid} ended with exit code {child.exitcode}"
                ) from None
            results += done
            if error is not None:
                raise error
        return results
    except BaseException:  # the later workers' items are not needed
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, receive in children:
            child.join()
            receive.close()


def shared_empty(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A zero-filled array in an anonymous shared mapping: the rows that a
    worker forked after it is made writes are seen by this process."""
    count = math.prod(shape)
    buffer = mmap.mmap(-1, max(1, count * np.dtype(dtype).itemsize))  # no mapping is empty
    return np.frombuffer(buffer, dtype, count).reshape(shape)


def fill_ranges(
    fill: Callable[[SyntheticWorld, slice], None], config: WorldConfig, queries: range
) -> None:
    """`fill(world, rows)` of the world of each `map_ranges` slice of
    `queries`, with the rows of its queries in `queries`: the slices are cut
    into one part per CPU (`part_ranges`) and the parts run by
    `map_processes`, so `fill` writes its rows into `shared_empty` blocks."""

    def run(part: range) -> None:
        def fill_slice(world: SyntheticWorld) -> None:
            start = world.queries.start - queries.start
            fill(world, slice(start, start + len(world.queries)))

        for _ in map_ranges(fill_slice, config, part):
            pass

    map_processes(run, part_ranges(config, queries, cpu_count()))


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
    into one shared block a world slice at a time (`fill_ranges`)."""
    n = min(depth, config.docs_per_query) if len(queries) else 0  # as `WorldRun.top` cuts
    index = shared_empty((len(queries), n), np.intp)
    features = shared_empty((len(queries), n, config.feature_dim))
    grades = shared_empty((len(queries), n), np.int64)

    def fill(world: SyntheticWorld, rows: slice) -> None:
        run = world.first_stage_run(retriever)
        index[rows], features[rows], grades[rows], _ = run.top(world.query_ids, depth)

    fill_ranges(fill, config, queries)
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
