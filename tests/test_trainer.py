import json
import math
import re

import numpy as np
import pytest

from ltrlab import scorer
from ltrlab.core import Qrels
from ltrlab.distill_data import WorldConfig, generate_world
from ltrlab.losses import ranknet
from ltrlab.pipeline import (
    build_rerank_pools,
    evaluate_model,
    query_ranges,
    range_pools,
    split_query_ids,
)
from ltrlab.trainer import (
    LOSS_ADR_MSE,
    LOSS_INFONCE,
    LOSS_RANKNET,
    STOP_EARLY,
    STOP_MAX_STEPS,
    TrainConfig,
    mean_validation_ndcg,
    train_distill,
    train_stage1,
)

from _oracles import (
    assert_groups_equal,
    doc_index_oracle,
    features_oracle,
    hard_negative_groups_oracle,
    kendall_tau,
    rejudged,
    restrict_run,
    scored_lists,
    teacher_lists,
)


def build_world(seed=3, num_queries=200):
    return generate_world(
        WorldConfig(
            num_queries=num_queries,
            docs_per_query=60,
            feature_dim=16,
            first_stage_noise={"main": 1.0},
            teacher_noise=0.0,
            seed=seed,
        )
    )


@pytest.fixture(scope="module")
def setup():
    world = build_world()
    fractions = {"train": 0.6, "validation": 0.2, "test": 0.2}
    splits = split_query_ids(world.query_ids, fractions)
    run = world.first_stage_run("main")
    dataset = teacher_lists(restrict_run(run, splits["train"]), 30)
    validation_range = query_ranges(len(world.query_ids), fractions)["validation"]
    validation = range_pools(world.config, "main", validation_range, 30)
    return world, splits, run, dataset, validation


def distill_cfg(**overrides):
    base = dict(
        loss=LOSS_RANKNET,
        max_steps=400,
        batch_size=32,
        learning_rate=0.02,
        weight_decay=0.0,
        patience_steps=100,
        validation_every=10,
        seed=5,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestStage1:
    def _groups(self, world, splits):
        from ltrlab.distill_data import SamplingConfig, build_hard_negative_groups

        run = restrict_run(world.first_stage_run("main"), splits["train"])
        cfg = SamplingConfig(pool_depth=50, num_negatives=7, seed=2)
        return list(build_hard_negative_groups(run, cfg))

    def test_zero_steps_returns_model_unchanged(self, setup):
        world, splits, *_ = setup
        groups = self._groups(world, splits)
        model = scorer.init_model("linear", 16, seed=1)
        trained, report = train_stage1(
            model, groups, distill_cfg(loss=LOSS_INFONCE, max_steps=0)
        )
        assert np.array_equal(trained.params, model.params)
        assert report.steps_executed == 0
        assert report.loss_curve == []

    def test_loss_decreases_on_separable_world(self, setup):
        world, splits, *_ = setup
        groups = self._groups(world, splits)
        model = scorer.init_model("linear", 16, seed=1)
        trained, report = train_stage1(
            model, groups, distill_cfg(loss=LOSS_INFONCE, max_steps=300)
        )

        def mean_infonce(m):
            from ltrlab.losses import infonce

            return float(np.mean([infonce(scorer.score_batch(m, g), 0).value for g in groups]))

        assert mean_infonce(trained) < mean_infonce(model)

    def test_groups_have_eight_members_and_loss_curve_per_step(self, setup):
        world, splits, *_ = setup
        groups = self._groups(world, splits)
        assert all(g.shape == (8, 16) for g in groups)
        _, report = train_stage1(
            scorer.init_model("linear", 16, seed=1),
            groups,
            distill_cfg(loss=LOSS_INFONCE, max_steps=25),
        )
        assert [step for step, _ in report.loss_curve] == list(range(1, 26))
        assert report.stop_reason == STOP_MAX_STEPS

    def test_deterministic(self, setup):
        world, splits, *_ = setup
        groups = self._groups(world, splits)
        cfg = distill_cfg(loss=LOSS_INFONCE, max_steps=60)
        model = scorer.init_model("linear", 16, seed=1)
        a, _ = train_stage1(model, groups, cfg)
        b, _ = train_stage1(model, groups, cfg)
        assert np.array_equal(a.params, b.params)

    def test_wrong_loss_rejected(self, setup):
        world, splits, *_ = setup
        with pytest.raises(ValueError):
            train_stage1(
                scorer.init_model("linear", 16, seed=1),
                self._groups(world, splits),
                distill_cfg(loss=LOSS_RANKNET),
            )

    def test_empty_groups_rejected(self, setup):
        world, *_ = setup
        with pytest.raises(ValueError):
            train_stage1(
                scorer.init_model("linear", 16, seed=1),
                [],
                distill_cfg(loss=LOSS_INFONCE),
            )

    def test_groups_gather_the_features_of_their_docs(self, setup):
        world, splits, *_ = setup
        from ltrlab.distill_data import SamplingConfig, build_hard_negative_groups

        run = restrict_run(world.first_stage_run("main"), splits["train"])
        cfg = SamplingConfig(50, 7, seed=2)
        expected, _ = hard_negative_groups_oracle(scored_lists(run.ranked()), world.qrels(), cfg)
        groups = build_hard_negative_groups(run, cfg)
        assert_groups_equal(world, groups, expected)


class TestTrainDistill:
    @pytest.mark.parametrize("loss", [LOSS_RANKNET, LOSS_ADR_MSE])
    def test_converges_to_teacher_order(self, setup, loss):
        world, splits, run, dataset, validation = setup
        model = scorer.init_model("linear", 16, seed=1)
        trained, report = train_distill(model, dataset, validation, distill_cfg(loss=loss))
        test_pools = build_rerank_pools(world, run, splits["test"], 30)
        reranked = scored_lists(evaluate_model(trained, test_pools, 10)[1])
        first_stage, taus = scored_lists(run.ranked()), []
        for qid in splits["test"]:
            docs = first_stage[qid].docs[:30]
            qi = world.query_ids.index(qid)
            teacher_order = tuple(sorted(docs, key=lambda d: -world._rel[qi, doc_index_oracle(world, qi, d)]))
            taus.append(kendall_tau(reranked[qid].docs, teacher_order))
        assert float(np.mean(taus)) > 0.9

    def test_early_stop_boundary(self, setup):
        world, splits, run, dataset, _ = setup
        # Validation pools with no judged positives give a constant nDCG of 0,
        # so the very first post-step check is non-improving.
        pools = build_rerank_pools(world, run, splits["validation"][:1], 5)
        constant = rejudged(pools, Qrels())
        model = scorer.init_model("linear", 16, seed=1)
        trained, report = train_distill(
            model, dataset, constant, distill_cfg(patience_steps=1, validation_every=1)
        )
        assert report.steps_executed == 1
        assert report.stop_reason == STOP_EARLY
        assert report.validation_curve == [(0, 0.0), (1, 0.0)]
        # Best checkpoint is the step-0 model: nothing ever improved on it.
        assert np.array_equal(trained.params, model.params)

    def test_returns_best_checkpoint(self, setup):
        _, _, _, dataset, validation = setup
        model = scorer.init_model("linear", 16, seed=1)
        trained, report = train_distill(model, dataset, validation, distill_cfg())
        best_seen = max(v for _, v in report.validation_curve)
        assert report.best_validation_ndcg10 == pytest.approx(best_seen)
        assert mean_validation_ndcg(trained, validation) == pytest.approx(best_seen)
        assert report.step_of_best <= report.steps_executed

    def test_zero_learning_rate_keeps_params(self, setup):
        _, _, _, dataset, validation = setup
        model = scorer.init_model("linear", 16, seed=1)
        trained, _ = train_distill(
            model, dataset, validation, distill_cfg(max_steps=5, learning_rate=0.0)
        )
        assert np.array_equal(trained.params, model.params)

    def test_batch_loss_is_mean_of_per_list_losses(self, setup):
        _, _, _, dataset, validation = setup
        model = scorer.init_model("linear", 16, seed=1)
        # One batch covering the whole dataset makes the expected mean
        # independent of shuffle order.
        cfg = distill_cfg(max_steps=1, batch_size=len(dataset))
        _, report = train_distill(model, dataset, validation, cfg)
        expected = float(
            np.mean([ranknet(scorer.score_batch(model, features)).value for features in dataset])
        )
        assert report.loss_curve[0][1] == pytest.approx(expected)

    def test_deterministic(self, setup):
        _, _, _, dataset, validation = setup
        model = scorer.init_model("linear", 16, seed=1)
        a, _ = train_distill(model, dataset, validation, distill_cfg(max_steps=80))
        b, _ = train_distill(model, dataset, validation, distill_cfg(max_steps=80))
        assert np.array_equal(a.params, b.params)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_surfaces_an_error(self, setup):
        _, _, _, dataset, validation = setup
        model = scorer.init_model("linear", 16, seed=1)
        with pytest.raises(ValueError, match="^parameters must be finite$"):
            train_distill(
                model, dataset, validation, distill_cfg(max_steps=50, learning_rate=1e308)
            )

    def test_infonce_rejected(self, setup):
        _, _, _, dataset, validation = setup
        with pytest.raises(ValueError):
            train_distill(
                scorer.init_model("linear", 16, seed=1),
                dataset,
                validation,
                distill_cfg(loss=LOSS_INFONCE),
            )

    def test_metrics_lines_are_json_per_step(self, setup):
        _, _, _, dataset, validation = setup
        model = scorer.init_model("linear", 16, seed=1)
        _, report = train_distill(model, dataset, validation, distill_cfg(max_steps=20))
        lines = report.metrics_lines()
        parsed = [json.loads(line) for line in lines]
        steps_with_loss = [p["step"] for p in parsed if "loss" in p]
        assert steps_with_loss == list(range(1, report.steps_executed + 1))
        assert any("validation_ndcg10" in p for p in parsed)


class TestTwoStage:
    def _stage1(self, world, splits, steps):
        from ltrlab.distill_data import SamplingConfig, build_hard_negative_groups

        run = restrict_run(world.first_stage_run("main"), splits["train"])
        groups = build_hard_negative_groups(
            run, SamplingConfig(pool_depth=50, num_negatives=7, seed=2)
        )
        model = scorer.init_model("linear", 16, seed=1)
        return train_stage1(model, list(groups), distill_cfg(loss=LOSS_INFONCE, max_steps=steps))

    def test_zero_distill_steps_keep_the_stage1_model(self, setup):
        world, splits, _, dataset, validation = setup
        stage1_model, _ = self._stage1(world, splits, 40)
        two_stage, report = train_distill(
            stage1_model, dataset, validation, distill_cfg(max_steps=0)
        )
        assert np.array_equal(two_stage.params, stage1_model.params)
        assert report.steps_executed == 0

    def test_deterministic(self, setup):
        world, splits, _, dataset, validation = setup
        models = []
        for _ in range(2):
            stage1_model, _ = self._stage1(world, splits, 30)
            model, _ = train_distill(stage1_model, dataset, validation, distill_cfg(max_steps=50))
            models.append(model)
        assert np.array_equal(models[0].params, models[1].params)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(loss="bogus", max_steps=1)
    with pytest.raises(ValueError):
        TrainConfig(loss=LOSS_RANKNET, max_steps=-1)
    with pytest.raises(ValueError):
        TrainConfig(loss=LOSS_RANKNET, max_steps=1, batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(loss=LOSS_RANKNET, max_steps=1, patience_steps=0)


@pytest.mark.parametrize("field", ["learning_rate", "weight_decay"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.5])
def test_train_config_rejects_a_bad_rate_by_name(field, value):
    message = f"{field} must be a finite number >= 0, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TrainConfig(loss=LOSS_RANKNET, max_steps=3, **{field: value})


def test_train_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        TrainConfig(loss=LOSS_RANKNET, max_steps=3, seed=-1)
