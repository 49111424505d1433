"""Single-stage and two-stage fine-tuning of the feature-vector scorer.

Stage 1 trains with InfoNCE on hard-negative groups for a fixed number of
steps. Distillation training (stage 2, or single-stage) minimizes RankNet or
the discounted rank MSE on teacher-ranked lists and early-stops on mean
validation nDCG@10, returning the best checkpoint seen rather than the last.
All shuffling derives from (seed, epoch), so runs are bit-reproducible.
"""

from __future__ import annotations

import itertools
import json
import logging
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import distill_data, losses, scorer
from .core import QueryId
from .evaluation import ndcg_rows

logger = logging.getLogger(__name__)

LOSS_INFONCE = "infonce"
LOSS_RANKNET = "ranknet"
LOSS_ADR_MSE = "adr-mse"
DISTILL_LOSSES = (LOSS_RANKNET, LOSS_ADR_MSE)

STOP_MAX_STEPS = "max_steps"
STOP_EARLY = "early_stopped"

IMPROVEMENT_TOLERANCE = 1e-9


class TrainingError(RuntimeError):
    """Training aborted (for example, a non-finite loss)."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training stage.

    The default learning rate of 1e-2 is sized for the tiny feature-vector
    scorer; large-model setups typically run orders of magnitude lower, so
    treat it as a per-scorer knob, not a universal constant.
    """

    loss: str
    max_steps: int
    batch_size: int = 32
    learning_rate: float = 1e-2
    weight_decay: float = 0.01
    alpha: float = 1.0
    patience_steps: int = 100
    validation_every: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.loss not in (LOSS_INFONCE,) + DISTILL_LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.patience_steps < 1:
            raise ValueError("patience_steps must be >= 1")
        if self.validation_every < 1:
            raise ValueError("validation_every must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        scorer.AdamWState.create(0, self.learning_rate, weight_decay=self.weight_decay)
        losses.ApproxConfig(alpha=self.alpha)


@dataclass
class TrainReport:
    """What happened during one training stage."""

    steps_executed: int
    stop_reason: str
    loss_curve: list[tuple[int, float]]
    best_validation_ndcg10: float | None = None
    step_of_best: int | None = None
    validation_curve: list[tuple[int, float]] = field(default_factory=list)

    def metrics_lines(self) -> list[str]:
        """Line-delimited metrics: one JSON object per step or validation point."""
        by_step: dict[int, dict] = {}
        for step, value in self.loss_curve:
            by_step.setdefault(step, {"step": step})["loss"] = value
        for step, value in self.validation_curve:
            by_step.setdefault(step, {"step": step})["validation_ndcg10"] = value
        return [json.dumps(by_step[s], separators=(",", ":")) for s in sorted(by_step)]


class RerankPool(NamedTuple):
    """One row of a PoolBlock: a query and its candidates' features."""

    query: QueryId
    features: np.ndarray


@dataclass(eq=False, repr=False)
class PoolBlock:
    """The top of many queries' pools in a world run, as one (Q, n, F) block,
    with its grades.

    Row i is query `queries[i]`, whose world pool holds `pool` docs: column j
    is the doc at pool index `index[i, j]`, `features[i, j]` its features and
    `grades[i, j]` its grade (0 when unjudged); `ideal[i]` holds all of query
    i's judged grades, best first, as `evaluation.ndcg_rows` takes them.
    Doc ids are made, by `distill_data.doc_ids`, only where a message or a
    run names a doc. They sort like pool indices, so `index` breaks score
    ties as canonical order does by doc id. Iterating yields each row as a
    RerankPool.
    """

    queries: tuple[QueryId, ...]
    pool: int
    index: np.ndarray  # (Q, n)
    features: np.ndarray  # (Q, n, F)
    grades: np.ndarray  # (Q, n)
    ideal: np.ndarray  # (Q, m)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        for query, features in zip(self.queries, self.features):
            yield RerankPool(query, features)

    def rank(self, model: scorer.ScorerModel) -> tuple[np.ndarray, np.ndarray]:
        """Every row's scores and canonical order, from one scoring of the block.

        Returns the (Q, n) scores and, per row, the column indices by
        descending score with ties by ascending doc id: row i of the order
        is `core.canonical_order` of row i's (doc, score) pairs. Row i's
        scores have the bits of `scorer.score_batch` of row i alone (see its
        docstring). One argsort orders every row; only rows that hold a tie
        are sorted again, by score and then pool index.
        """
        scores = scorer.score_batch(model, self.features)
        bad = ~np.isfinite(scores)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            doc = distill_data.doc_ids(self.queries[i], self.pool, [self.index[i, j]])[0]
            raise ValueError(f"non-finite score for doc {doc!r} in query {self.queries[i]!r}")
        order = np.argsort(-scores, axis=-1)
        ranked = np.take_along_axis(scores, order, axis=-1)
        tied = (ranked[:, 1:] == ranked[:, :-1]).any(axis=-1)
        if tied.any():
            order[tied] = np.lexsort((self.index[tied], -scores[tied]), axis=-1)
        return scores, order

    def ndcg(self, model: scorer.ScorerModel, k: int = 10) -> np.ndarray:
        """Per-pool nDCG@k of the model's ranking; entry i equals `ndcg_at_k`
        of row i in canonical order, bit for bit."""
        return self.ndcg_of(self.rank(model)[1], k)

    def ndcg_of(self, order: np.ndarray, k: int = 10) -> np.ndarray:
        """Per-pool nDCG@k of the block ranked by `order`, as `rank` gives it."""
        return ndcg_rows(np.take_along_axis(self.grades, order[:, :k], axis=1), self.ideal, k)


def mean_validation_ndcg(model: scorer.ScorerModel, validation: PoolBlock, k: int = 10) -> float:
    return float(np.mean(validation.ndcg(model, k)))


def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(epoch,)))
    return rng.permutation(n)


def _batches(seed: int, n: int, batch_size: int):
    """Yield index batches forever: shuffled epochs of consecutive chunks."""
    epoch = 0
    while True:
        order = _epoch_order(seed, epoch, n)
        for start in range(0, n, batch_size):
            yield order[start : start + batch_size]
        epoch += 1


# A chunk of lists of length n holds at most max(1, _CHUNK_PAIRS // (n * n))
# of them, which bounds each (B, n, n) pair temporary of the losses at 1 MiB
# of float64, under a 2 MiB per-core L2: 32 lists at n = 50, 13 at n = 100.
_CHUNK_PAIRS = 1 << 17


def _chunks(lengths: Sequence[int], batch: np.ndarray):
    """Split a batch into runs of consecutive equal-length lists, in batch order."""
    for n, run in itertools.groupby(batch, key=lengths.__getitem__):
        run = list(run)
        cap = max(1, _CHUNK_PAIRS // (n * n))
        for start in range(0, len(run), cap):
            yield run[start : start + cap]


def _check_lists(what: str, model: scorer.ScorerModel, lists: Sequence[np.ndarray]) -> None:
    """Each list is a finite (n, F) array, n >= 1 and F the model's width: the
    one check of training lists, which the step loop and its kernels trust."""
    if not len(lists):
        raise ValueError(f"{what} requires at least one training list")
    for i, features in enumerate(lists):
        x = np.asarray(features)
        if x.ndim != 2 or not len(x) or x.shape[1] != model.feature_dim:
            expected = f"(n >= 1, {model.feature_dim})"
            raise ValueError(f"training list {i} has shape {x.shape}, expected {expected}")
        if not np.isfinite(x).all():
            raise ValueError(f"training list {i} has non-finite features")


def _steps(
    model: scorer.ScorerModel,
    features: Sequence[np.ndarray],
    loss_fn: Callable[[np.ndarray], losses.LossOutput],
    cfg: TrainConfig,
):
    """AdamW steps on the mean batch loss; yields (step, model, batch loss) after each.

    Each chunk of a batch is stacked into one (B, n, F) block for one
    forward pass, one loss call and one backward pass, which share the MLP
    hidden layer. Loss values and gradients are added in batch order, so a
    step has the bits of a list-at-a-time loop.
    """
    lengths = [len(f) for f in features]
    state = scorer.AdamWState.create(
        model.num_params, cfg.learning_rate, weight_decay=cfg.weight_decay
    )
    batches = _batches(cfg.seed, len(features), cfg.batch_size)
    for step in range(1, cfg.max_steps + 1):
        batch = next(batches)
        total = 0.0
        grad = np.zeros(model.num_params)
        for chunk in _chunks(lengths, batch):
            block = np.array([features[i] for i in chunk])
            values, grad = scorer._loss_step(model, block, loss_fn, grad)
            for value in values.tolist():
                total += value
        batch_loss = total / len(batch)
        if not np.isfinite(batch_loss):
            raise TrainingError(f"non-finite loss {batch_loss} at step {step}")
        model, state = scorer.adamw_step(model, state, grad / len(batch))
        yield step, model, batch_loss


def train_stage1(
    model: scorer.ScorerModel, lists: Sequence[np.ndarray], cfg: TrainConfig
) -> tuple[scorer.ScorerModel, TrainReport]:
    """InfoNCE training on hard-negative groups for exactly max_steps steps.

    Each list holds one group's (n, F) features, positive first. The batch
    loss is the arithmetic mean of per-group losses; one AdamW step runs per
    batch. There is no early stopping in this stage.
    """
    if cfg.loss != LOSS_INFONCE:
        raise ValueError(f"train_stage1 requires loss={LOSS_INFONCE!r}, got {cfg.loss!r}")
    _check_lists("train_stage1", model, lists)
    loss_curve: list[tuple[int, float]] = []
    for step, model, batch_loss in _steps(model, lists, lambda s: losses.infonce(s, 0), cfg):
        loss_curve.append((step, batch_loss))
    return model, TrainReport(cfg.max_steps, STOP_MAX_STEPS, loss_curve)


def train_distill(
    model: scorer.ScorerModel,
    lists: Sequence[np.ndarray],
    validation: PoolBlock,
    cfg: TrainConfig,
) -> tuple[scorer.ScorerModel, TrainReport]:
    """Listwise distillation training with nDCG@10 early stopping.

    Each list holds the (n, F) features of one teacher-ranked list, best
    first. Validates before the first step and every validation_every steps;
    improvement means strictly greater (beyond a 1e-9 tolerance). Stops when
    no improvement has been seen for patience_steps optimizer steps, or at
    max_steps. Returns the checkpoint with the best validation score.
    """
    if cfg.loss not in DISTILL_LOSSES:
        raise ValueError(f"train_distill requires a distillation loss, got {cfg.loss!r}")
    if not len(validation):
        raise ValueError("validation set must contain at least one pool")
    _check_lists("train_distill", model, lists)
    approx = losses.ApproxConfig(alpha=cfg.alpha)
    loss_fn = losses.ranknet if cfg.loss == LOSS_RANKNET else lambda s: losses.adr_mse(s, approx)
    loss_curve: list[tuple[int, float]] = []
    validation_curve: list[tuple[int, float]] = []
    best_score = -np.inf
    best_params = model.params.copy()
    step_of_best = 0
    stop_reason = STOP_MAX_STEPS

    def validate(step: int, current: scorer.ScorerModel) -> None:
        nonlocal best_score, best_params, step_of_best
        value = mean_validation_ndcg(current, validation)
        validation_curve.append((step, value))
        if value > best_score + IMPROVEMENT_TOLERANCE:
            best_score = value
            best_params = current.params.copy()
            step_of_best = step

    validate(0, model)
    for step, model, batch_loss in _steps(model, lists, loss_fn, cfg):
        loss_curve.append((step, batch_loss))
        if step % cfg.validation_every == 0:
            validate(step, model)
            if step - step_of_best >= cfg.patience_steps:
                stop_reason = STOP_EARLY
                break
    steps_executed = len(loss_curve)
    if stop_reason == STOP_MAX_STEPS and steps_executed % cfg.validation_every != 0:
        validate(steps_executed, model)
    best_model = replace(model, params=best_params)
    report = TrainReport(
        steps_executed=steps_executed,
        stop_reason=stop_reason,
        loss_curve=loss_curve,
        best_validation_ndcg10=float(best_score),
        step_of_best=step_of_best,
        validation_curve=validation_curve,
    )
    return best_model, report

