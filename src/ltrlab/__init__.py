"""Desk-scale learning-to-rank toolkit.

Listwise training objectives with analytic gradients, a tiny differentiable
relevance scorer, synthetic retrieval worlds with noise-parameterized
retrievers and teachers, hard-negative and teacher-ranking dataset
construction, two-stage fine-tuning with early stopping, TREC-style
evaluation with significance testing, and a windowed re-ranking cost
simulator.
"""

from .core import (
    DistillDataset,
    DistillRecord,
    DuplicateEntryError,
    ParseError,
    Qrels,
    ScoredList,
    parse_distill_dataset,
    parse_qrels,
    parse_run,
    write_distill_dataset,
    write_qrels,
    write_run,
)
from .distill_data import (
    SamplingConfig,
    SyntheticWorld,
    WorldConfig,
    build_hard_negative_groups,
    build_teacher_dataset,
    generate_world,
    subsample_depth,
)
from .evaluation import (
    SignificanceReport,
    geometric_mean,
    holm_bonferroni,
    micro_average,
    ndcg_at_k,
    paired_t_test,
    significance_report,
)
from .losses import ApproxConfig, LossOutput, adr_mse, infonce, ranknet, smooth_rank
from .rerank_sim import CostModel, StrategySpec, estimate, schedule, scoring_count
from .scorer import AdamWState, ScorerModel, adamw_step, grad_batch, init_model, score_batch
from .trainer import TrainConfig, TrainReport, train_distill, train_stage1

__version__ = "0.1.0"
