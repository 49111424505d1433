"""Differential tests: every vectorised ranking path against its scalar oracle.

Results are compared with ==, never approximately: the fast paths must give
the same ranks, the same floats and the same errors as the code they
replace.
"""

import argparse
import dataclasses
import gc
import io
import logging
import tempfile
import weakref
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltrlab import distill_data, scorer, trainer
from ltrlab.cli import DistillSpec, _read_dataset, _train_lists, load_experiment_config
from ltrlab.core import (
    Qrels,
    ScoredList,
    parse_distill_dataset,
    parse_run,
    write_distill_dataset,
    write_run,
)
from ltrlab.distill_data import (
    SamplingConfig,
    WorldConfig,
    build_hard_negative_groups,
    build_teacher_dataset,
    generate_world,
    subsample_depth,
)
from ltrlab.evaluation import ndcg_at_k, ndcg_rows
from ltrlab.pipeline import build_rerank_pools, evaluate_model
from ltrlab.trainer import ValidationSet, mean_validation_ndcg

from _oracles import (
    WORLD,
    block_lists,
    doc_index_oracle,
    features_oracle,
    first_stage_run_oracle,
    hard_negative_groups_oracle,
    outcome,
    parse_run_oracle,
    ranked_rows,
    record_values,
    rerank,
    rerank_pools_oracle,
    restrict_run,
    restrict_run_oracle,
    scored_list_checks,
    scored_lists,
    stack_records,
    subsample_depth_oracle,
    teacher_dataset_oracle,
    teacher_lists,
    without_features,
)

WEIRD_IDS = ["d1", "d2", "d10", "", "a b", "a\u00a0b", "a\u2003b", "a\x1cb", "x\n", 5, None]
SCORES = [0.0, -0.0, 1.5, float("nan"), float("inf"), -float("inf"), np.float64(2.0)]


def world_of(**overrides):
    cfg = dict(
        num_queries=12,
        docs_per_query=12,
        feature_dim=3,
        first_stage_noise={"r": 1.0},
        teacher_noise=0.5,
        seed=9,
    )
    cfg.update(overrides)
    return generate_world(WorldConfig(**cfg))


# -- ScoredList and doc id checks ---------------------------------------------

entry = st.tuples(
    st.one_of(st.sampled_from(WEIRD_IDS), st.text(max_size=3)),
    st.one_of(
        st.sampled_from(SCORES),
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-3, 3),
        st.just("1.0"),
        st.none(),
    ),
)


class TestScoredListChecks:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(entry, max_size=6))
    def test_same_verdict_and_message_as_per_doc_loop(self, entries):
        expected = outcome(lambda: scored_list_checks("q", entries))
        assert outcome(lambda: ScoredList("q", entries)) == expected

    @pytest.mark.parametrize(
        "entries",
        [
            [("a\u00a0b", 1.0)],
            [("a\u2003b", 1.0)],
            [("a\x1cb", 1.0)],
            [("", 1.0)],
            [(7, 1.0)],
            [("d1", 1.0), ("d1", 2.0)],
            [("d1", float("nan"))],
            [("d1", 1.0), ("d2", float("inf"))],
            [("d1", 1.0, "extra")],
            [("d1",)],
            [("d1", 1.0), ("d2", 1.0, 3), ("d3",)],
            [("d1", "1.0")],
        ],
    )
    def test_rejects_like_per_doc_loop(self, entries):
        expected = outcome(lambda: scored_list_checks("q", entries))
        assert expected is not None
        assert outcome(lambda: ScoredList("q", entries)) == expected

    @pytest.mark.parametrize(
        "entries, order",
        [
            ([], []),
            ([("d9", 1.0), ("d10", 1.0)], [1, 0]),
            ([("d1", 1), ("d2", np.float32(2.0)), ("d3", True)], [1, 0, 2]),
            ([("d1", 1 + 0j)], [0]),
            ([(np.str_("d1"), 1.0)], [0]),
        ],
    )
    def test_accepts_like_per_doc_loop(self, entries, order):
        """Accepted entries come back in canonical order."""
        assert scored_list_checks("q", entries) is None
        assert ScoredList("q", entries).entries == tuple(entries[i] for i in order)

    def test_every_whitespace_character_rejected(self):
        for code in range(0x110000):
            ch = chr(code)
            if ch.isspace():
                with pytest.raises(ValueError, match="contains whitespace"):
                    ScoredList("q", ((f"a{ch}b", 0.0),))


# -- TREC run text ------------------------------------------------------------------

RANKS = ["1", "2", "10", "007", "+1", "1_0", "-1", "x", "\u0663", "\u00b2", "1.0"]
SCORE_TEXTS = ["1e3", "-0.0", "0.0", "0", "2.5", "1_0", "nan", "inf", "-inf", "abc", "\u0661"]
SEPARATORS = [" ", " ", "\t", "  ", "\x0c", "\x1c", "\u0085", "\u00a0"]


@st.composite
def run_line(draw, valid: bool):
    """One run line; with valid=False, any field may be malformed."""
    def pick(good, bad):
        return draw(st.sampled_from(good if valid else good * 3 + bad))

    fields = [
        pick(["q1", "q2", "q10"], []),
        pick(["Q0"], ["Q1", "q0"]),
        pick(["d1", "d2", "d3", "d10", "D1"], []),
        pick(["1", "2", "10", "007"], RANKS),
        draw(st.one_of(
            st.integers(-4, 4).map(lambda v: f"{v / 2}"),
            st.floats(-5, 5).map("{:.6f}".format),
            st.sampled_from(SCORE_TEXTS[:5] if valid else SCORE_TEXTS),
        )),
        "t",
    ]
    if not valid:
        fields = (fields + ["extra"])[: draw(st.sampled_from([6, 6, 6, 6, 0, 5, 7]))]
    return draw(st.sampled_from(SEPARATORS if not valid else [" ", "\t"])).join(fields)


def run_text(valid: bool):
    """Run files; valid ones name each (query, doc) pair once."""
    unique = (lambda line: tuple(line.split()[0:3:2])) if valid else None
    return st.tuples(
        st.lists(run_line(valid), max_size=14, unique_by=unique),
        st.sampled_from(["", "\n", "\n\n"]),
    ).map(lambda t: "\n".join(t[0]) + t[1])


def parsed(parse, source):
    """What a parse returns, with scores by their bits, or what it raised."""
    try:
        run = parse(source)
    except Exception as exc:  # the test compares whatever is raised
        return type(exc), str(exc), getattr(exc, "line", None)
    assert all(type(ranking) is ScoredList for ranking in run.values())
    return [
        (qid, ranking.query, [(doc, score.hex()) for doc, score in ranking.entries])
        for qid, ranking in run.items()
    ]


def assert_parses_like_oracle(text):
    expected = parsed(parse_run_oracle, text)
    assert parsed(parse_run, text) == expected
    lines = text.splitlines(keepends=True)
    assert parsed(parse_run, lines) == expected
    assert parsed(parse_run, (line for line in lines)) == expected  # read once
    stream = parsed(parse_run, io.StringIO(text))
    assert stream == parsed(parse_run_oracle, io.StringIO(text))


class TestParseRun:
    @settings(max_examples=500, deadline=None)
    @given(run_text(valid=False))
    def test_same_result_or_error_as_per_line_loop(self, text):
        assert_parses_like_oracle(text)

    @settings(max_examples=200, deadline=None)
    @given(run_text(valid=True), st.booleans())
    def test_valid_runs_in_any_order(self, text, canonical):
        """Files in canonical order and in any other order parse alike."""
        if canonical:
            text = "".join(write_run(ranked_rows(parse_run_oracle(text)), "t"))
        assert_parses_like_oracle(text)

    @pytest.mark.parametrize(
        "text",
        [
            "q1 Q0 d1 +1 1.0 t",
            "q1 Q0 d1 1_0 1.0 t",
            "q1 Q0 d1 x 1.0 t",
            "q1 Q0 d1 \u0663 1.0 t",
            "q1 Q0 d1 \u00b2 1.0 t",
            "q1 Q0 d1 " + "1" * 640 + " 1.0 t",
            "q1 Q0 d1 " + "1" * 5000 + " 1.0 t",
            "q1 Q0 d1 1 1e3 t\nq1 Q0 d2 2 -0.0 t\nq1 Q0 d3 3 0.0 t",
            "q1 Q0 d1 1 nan t",
            "q1 Q0 d1 1 inf t",
            "q1 Q0 d1 1 abc t",
            "q1 Q0 d1 1 1.0 t\nq1 Q0 d1 2 0.5 t",
            "q1 Q0 d1 1 1.0 t\nq2 Q0 d1 1 0.5 t",
            "q1 Q0 d1 1 1.0",
            "q1 Q0 d1 1 1.0 t x",
            "q1 Q0 d1 1 1.0\nq1 Q0 d2 1 1.0 t x",
            "q1 Q1 d1 1 1.0 t",
            "q1 Q0 d1 1 1.0 t\x0cq1 Q0 d2 2 0.5 t",
            "q1 Q0 d1\x1c1 1.0 t\n",
            "q1 Q0 d1 1 1.0 t\n\u0085q1 Q0 d2 2 0.5 t",
            "q1 Q0 d1 1 1.0 t\nq1 Q0 d1 2 0.5 t\nq1 Q0 d2 x 0.5 t",
            "q1 Q0 d1 1 1.0 t\nq1 Q0 d2 x 0.5 t\nq1 Q0 d1 2 0.5 t",
            "q2 Q0 d2 1 1.0 t\nq1 Q0 d9 1 2.0 t\nq2 Q0 d10 2 1.0 t\n\n   \nq1 Q0 d1 2 2.0 t",
            "",
            "\n \n",
            "q1 Q0 d2 1 0.0 t\nq1 Q0 d10 2 -0.0 t\nq1 Q0 d1 3 0 t\nq1 Q0 D1 4 -0 t",
            "q2 Q0 b 1 1.0 t\nq1 Q0 z 1 -0.0 t\nq2 Q0 a 2 1 t\nq1 Q0 y 2 0.0 t\nq1 Q0 x 3 5 t",
            "q1 Q0 c 1 2 t\nq1 Q0 b 2 1 t\nq1 Q0 a 3 2 t\nq1 Q0 e 4 1 t\nq1 Q0 d 5 1 t",
            "\nq1 Q0 d1 1 1.0 t\n\n  \nq1 Q0 d1 2 1.0 t\n",
            "\n\nq1 Q0 d1 1 1.0 t\nq2 Q0 d1 1 1.0 t\n \nq1 Q0 d1 2 2.0 t\nq1 Q0 d2 2 x t",
            "q1 Q0 d1 1 1.0 t\n\nq1 Q0 d2 2 1.0 t\n\t\nq1 Q0 d3 3 1.0 t x",
        ],
    )
    def test_edge_cases_match_per_line_loop(self, text):
        assert_parses_like_oracle(text)

    def test_reads_like_a_mapping(self):
        text = "q2 Q0 d2 1 1 t\nq1 Q0 d9 1 -0 t\nq2 Q0 d10 2 1 t\nq3 Q0 a 1 7 t\nq1 Q0 d1 2 0 t"
        run = parse_run(line for line in text.splitlines())
        oracle = parse_run_oracle(text)
        assert len(run) == len(oracle) == 3
        assert list(run) == list(oracle) == ["q2", "q1", "q3"]
        for qid, ranking in oracle.items():
            assert run[qid] == ranking
            assert [s.hex() for _, s in run[qid].entries] == [s.hex() for _, s in ranking.entries]
        assert run == oracle
        assert "q1" in run and "q4" not in run and run.get("q4") is None
        with pytest.raises(KeyError):
            run["q4"]


# -- trusted producers: the same lists the checking constructor builds ---------------


def assert_checked_equal(run):
    for qid, ranking in run.items():
        assert type(ranking) is ScoredList and type(ranking.entries) is tuple
        assert ranking == ScoredList(qid, ranking.entries)
        assert all(type(entry) is tuple for entry in ranking.entries)


def assert_checked_rows(rows):
    """Ranked rows are the checked constructor's lists, in query-id order."""
    rows = [(query, list(docs), list(scores)) for query, docs, scores in rows]
    assert all(type(score) is float for _, _, scores in rows for score in scores)
    assert [(q, list(docs), s) for q, docs, s in ranked_rows(scored_lists(rows))] == rows


class TestTrustedProducers:
    def test_parse_run(self):
        assert_checked_equal(parse_run("q1 Q0 d2 1 1.0 t\nq1 Q0 d1 2 1.0 t\nq2 Q0 d1 1 3 t"))
        assert_checked_equal(parse_run("q1 Q0 d1 +1 1.0 t\nq1 Q0 d2 2 2.0 t"))

    def test_first_stage_run(self):
        assert_checked_rows(world_of().first_stage_run("r").ranked())

    def test_distill_datasets_pass_the_parser(self):
        """What the producers build, the checking parser reads back unchanged."""
        full = build_teacher_dataset(world_of().first_stage_run("r"), depth=9)
        for dataset in [full, subsample_depth(full, 4), subsample_depth(full, 1)]:
            assert_dataset_layout(dataset)
            text = "".join(write_distill_dataset(dataset))
            parsed = parse_distill_dataset(text)
            assert_dataset_layout(parsed)
            assert record_values(parsed) == record_values(dataset)
            assert parsed.world == dataset.world
            assert "".join(write_distill_dataset(parsed)) == text

    def test_teacher_dataset_still_rejects_non_finite_features(self):
        """A dataset holds no features; its lists' features, gathered from the
        world for training, are checked where training starts."""
        # Finite feature noise as large as 1e308 can still overflow a feature.
        world = world_of()
        world._features[5, 3, 1] = float("inf")
        lists = teacher_lists(world.first_stage_run("r"), 12)
        cfg = trainer.TrainConfig(loss=trainer.LOSS_INFONCE, max_steps=1)
        model = scorer.init_model(scorer.LINEAR, 3)
        with pytest.raises(ValueError, match="^training list 5 has non-finite features$"):
            trainer.train_stage1(model, lists, cfg)

    def test_subsample_still_rejects_an_empty_record(self):
        dataset = stack_records([("q", ("a", "b"), (4, 2), 5)])
        with pytest.raises(ValueError, match="record for query 'q' has no docs"):
            subsample_depth(dataset, 1)

    def test_rerank_run(self):
        world = world_of()
        block = build_rerank_pools(world, world.first_stage_run("r"), world.query_ids, 12)
        for model in models():
            assert_checked_rows(evaluate_model(model, block, Qrels())[1])

    @pytest.mark.parametrize("sigma", [float("inf"), float("nan")])
    def test_first_stage_run_still_rejects_non_finite_scores(self, sigma):
        # The config rejects non-finite noise, so plant the score; a finite
        # noise as large as 1e308 still overflows to one.
        world = world_of()
        world._fs_scores["r"][2, 5] = sigma
        with pytest.raises(ValueError, match="non-finite score for doc"):
            world.first_stage_run("r")

    def test_write_run_sorts_a_public_list(self):
        ranking = ScoredList("q", (("b", 1.0), ("c", 2.0), ("a", 2.0)))
        text = "q Q0 a 1 2.000000 t\nq Q0 c 2 2.000000 t\nq Q0 b 3 1.000000 t\n"
        assert "".join(write_run(ranked_rows({"q": ranking}), "t")) == text


# -- world runs: index matrices against the string-keyed paths ---------------


def run_entries(rows):
    """Each row's query and (doc, score) entries, as given and in row order."""
    return [(query, tuple(zip(docs, scores))) for query, docs, scores in rows]


def force_ties(world, data, arrays):
    """Redraw the named (Q, P) world arrays from a small set of values."""
    for name in arrays:
        shape = world._rel.shape
        values = data.draw(
            st.lists(st.sampled_from([-1.0, -0.0, 0.0, 2.5]), min_size=shape[0] * shape[1],
                     max_size=shape[0] * shape[1]), label=name
        )
        tied = np.array(values).reshape(shape)
        if name == "fs":
            world._fs_scores["r"] = tied
        else:
            setattr(world, name, tied)


def query_subset(data, world, **kwargs):
    return data.draw(st.lists(st.sampled_from(world.query_ids), **kwargs), label="queries")


def assert_dataset_layout(dataset):
    """The column types and shapes that every DistillDataset producer fills."""
    n, lists = len(dataset.docs), len(dataset)
    assert type(dataset.queries) is tuple and all(type(q) is str for q in dataset.queries)
    assert type(dataset.docs) is list and all(type(doc) is str for doc in dataset.docs)
    assert dataset.offsets.dtype.kind == "i" and dataset.offsets.shape == (lists + 1,)
    assert dataset.offsets[0] == 0 and dataset.offsets[-1] == n
    assert (np.diff(dataset.offsets) >= 1).all()
    assert type(dataset.world) is str if lists else dataset.world is None
    assert dataset.first_stage_ranks.dtype.kind == "i" and dataset.first_stage_ranks.shape == (n,)
    assert dataset.source_depths.dtype.kind == "i" and dataset.source_depths.shape == (lists,)


class TestFirstStageOrder:
    def test_matches_canonical_order(self):
        world = world_of()
        run = world.first_stage_run("r")
        oracle = first_stage_run_oracle(world, "r")
        assert run_entries(run.ranked()) == run_entries(ranked_rows(oracle))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_forced_ties_break_by_doc_id(self, data):
        world = world_of()
        force_ties(world, data, ["fs"])
        run = world.first_stage_run("r")
        oracle = first_stage_run_oracle(world, "r")
        assert run_entries(run.ranked()) == run_entries(ranked_rows(oracle))
        assert "".join(write_run(run.ranked(), "r")) == "".join(write_run(ranked_rows(oracle), "r"))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_restricted_run_is_the_restricted_mapping(self, data):
        world = world_of()
        queries = query_subset(data, world, max_size=14)
        run = restrict_run(world.first_stage_run("r"), queries)
        oracle = restrict_run_oracle(first_stage_run_oracle(world, "r"), queries)
        assert run_entries(run.ranked()) == run_entries(ranked_rows(oracle))
        assert len(run) == len(oracle)
        assert "".join(write_run(run.ranked(), "r")) == "".join(write_run(ranked_rows(oracle), "r"))
        twice = ranked_rows(restrict_run_oracle(oracle, queries[:2]))
        assert run_entries(restrict_run(run, queries[:2]).ranked()) == run_entries(twice)

    def test_restricts_and_caches_its_order(self):
        world = world_of()
        run = world.first_stage_run("r")
        assert run.order is world.first_stage_run("r").order
        assert restrict_run(run, ["q05", "q01", "q05"]).queries == ("q01", "q05")
        with pytest.raises(KeyError, match="'q05'"):
            restrict_run(restrict_run(run, ["q01"]), ["q05"])


    def test_world_freed_without_the_cycle_collector(self):
        """A run refers to its world, so the world must not cache runs."""
        world = world_of()
        restrict_run(world.first_stage_run("r"), ["q01"])
        ref = weakref.ref(world)
        gc.disable()
        try:
            del world
            assert ref() is None
        finally:
            gc.enable()


class TestTeacherDataset:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_string_teacher(self, data):
        world = world_of(teacher_noise=data.draw(st.sampled_from([0.0, 0.5])),
                         teacher_noise_rank_growth=data.draw(st.sampled_from([0.0, 0.3])))
        force_ties(world, data, data.draw(st.sets(st.sampled_from(["_rel", "_teacher_u", "fs"]))))
        depth = data.draw(st.sampled_from([1, 2, 7, 12]), label="depth")
        queries = query_subset(data, world, min_size=1, max_size=14)
        run = restrict_run(world.first_stage_run("r"), queries)
        oracle = teacher_dataset_oracle(
            world, restrict_run_oracle(first_stage_run_oracle(world, "r"), queries), depth
        )
        dataset = build_teacher_dataset(run, depth)
        assert_dataset_layout(dataset)
        assert dataset.world == world.config.fingerprint()
        assert record_values(dataset) == record_values(without_features(oracle))

    @pytest.mark.parametrize("depth", [0, 13])
    def test_errors_match(self, depth):
        world = world_of()
        run = world.first_stage_run("r")
        expected = outcome(lambda: teacher_dataset_oracle(world, scored_lists(run.ranked()), depth))
        assert expected is not None
        assert outcome(lambda: build_teacher_dataset(run, depth)) == expected

    def test_no_queries(self):
        world = world_of()
        for depth in [1, 13]:
            dataset = build_teacher_dataset(restrict_run(world.first_stage_run("r"), []), depth)
            assert len(dataset) == 0 and dataset.docs == [] and list(dataset) == []
            assert dataset.offsets.tolist() == [0]


@contextmanager
def sampling_log():
    """Collects the skip counts that build_hard_negative_groups logs."""
    counts = []

    class Handler(logging.Handler):
        def emit(self, record):
            if record.msg.startswith("hard-negative sampling"):
                counts.append(record.args[2:])

    logger = logging.getLogger("ltrlab.distill_data")
    handler, level = Handler(), logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield counts
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


# Judged docs of q00: ids of its own pool, an id of another query's pool, ids
# that decode to a pool index without being that doc's id, and foreign ids.
JUDGED = ["q00_p00", "q00_p03", "q00_p11", "q01_p02", "q00_p3", "q00_p+4", "d1", "q00_p12"]


def assert_groups_equal(world, block, groups):
    """A block of groups holds the oracle's (query, positive, negatives)
    groups, and each list the features of its docs, looked up doc by doc."""
    lists = block_lists(block)
    assert [(query, docs[0], docs[1:]) for query, docs, _ in lists] == groups
    for query, docs, features in lists:
        assert np.array_equal(features, features_oracle(world, query, docs))
    assert block.features.dtype == np.float64 and block.features.flags.c_contiguous
    assert block.features.shape[1] == world.config.feature_dim


class TestHardNegativeGroups:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_string_sampling(self, data):
        world = world_of()
        if data.draw(st.booleans(), label="tied run"):
            force_ties(world, data, ["fs"])
        queries = query_subset(data, world, max_size=14)
        grades = {}
        for qid in data.draw(st.lists(st.sampled_from(world.query_ids), max_size=12)):
            pool = world._doc_ids(world.query_ids.index(qid), range(12))
            docs = [d.replace("q00", qid, 1) for d in JUDGED] + pool
            judged = data.draw(st.lists(st.sampled_from(docs), max_size=6), label=qid)
            grades[qid] = {d: data.draw(st.integers(0, 3)) for d in judged}
        qrels = Qrels(grades)
        pool_depth = data.draw(st.integers(2, 14), label="pool_depth")
        negatives = data.draw(st.integers(1, pool_depth - 1), label="num_negatives")
        cfg = SamplingConfig(pool_depth, negatives, seed=data.draw(st.integers(0, 3)))
        run = restrict_run(world.first_stage_run("r"), queries)
        oracle_run = restrict_run_oracle(first_stage_run_oracle(world, "r"), queries)
        expected, skipped = hard_negative_groups_oracle(oracle_run, qrels, cfg)
        # A group's positive must be a doc of its query's pool: the first
        # group whose positive is not raises the ValueError of its lookup.
        outside = [
            (query, positive) for query, positive, _ in expected
            if outcome(lambda: doc_index_oracle(world, world.query_ids.index(query), positive))
        ]
        built = []
        with sampling_log() as counts:
            error = outcome(lambda: built.append(build_hard_negative_groups(run, qrels, cfg)))
        if outside:
            query, positive = outside[0]
            qi = world.query_ids.index(query)
            assert error == outcome(lambda: world.pool_index(qi, [positive]))
            assert error[0] is ValueError and counts == []
        else:
            assert error is None
            assert_groups_equal(world, built[0], expected)
            assert counts == ([skipped] if any(skipped) else [])

    def test_every_skip_reason(self):
        world = world_of()
        run = world.first_stage_run("r")
        oracle_run = scored_lists(run.ranked())
        top = {qid: ranking.docs for qid, ranking in oracle_run.items()}
        qrels = Qrels({
            "q00": {},
            "q01": {top["q01"][0]: 1},
            "q02": {top["q02"][0]: 2, top["q02"][1]: 1, top["q02"][2]: 1, "q02_p5": 1},
        })
        # q02 keeps 9 of its top 12 docs: "q02_p5" is not an id of its pool.
        for cfg, skipped in [
            (SamplingConfig(12, 10), (10, 0, 1)),
            (SamplingConfig(13, 10), (10, 2, 0)),
        ]:
            expected, oracle_skipped = hard_negative_groups_oracle(oracle_run, qrels, cfg)
            assert oracle_skipped == skipped
            with sampling_log() as counts:
                assert_groups_equal(world, build_hard_negative_groups(run, qrels, cfg), expected)
            assert counts == [skipped]


class TestRerankPools:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_pools_of_string_run(self, data):
        world = world_of()
        if data.draw(st.booleans(), label="tied run"):
            force_ties(world, data, ["fs"])
        run = world.first_stage_run("r")
        if data.draw(st.booleans(), label="restricted"):
            run = restrict_run(run, query_subset(data, world, max_size=14))
        queries = data.draw(st.lists(st.sampled_from(run.queries), max_size=8)) if len(run) else []
        depth = data.draw(st.integers(1, 15), label="depth")
        block = build_rerank_pools(world, run, queries, depth)
        pools = rerank_pools_oracle(world, first_stage_run_oracle(world, "r"), queries, depth)
        assert block.queries == tuple(queries)
        assert [tuple(docs) for docs in block.docs] == [docs for _, docs, _ in pools]
        index = [[doc_index_oracle(world, world.query_ids.index(q), d) for d in docs]
                 for q, docs, _ in pools]
        assert block.index.tolist() == (index if pools else [])
        if pools:
            assert np.array_equal(block.features, np.array([f for _, _, f in pools]))
        else:
            assert block.index.shape == (0, 0) and block.features.shape == (0, 0, 3)

    def test_errors(self):
        world, other = world_of(), world_of()
        run = world.first_stage_run("r")
        with pytest.raises(KeyError, match="'x'"):
            build_rerank_pools(world, run, ["q01", "x"], 5)
        with pytest.raises(ValueError, match="not a run of this world"):
            build_rerank_pools(other, run, ["q01"], 5)

    @pytest.mark.parametrize("docs_per_query", [1, 9, 10, 11, 100, 101])
    def test_doc_id_order_is_pool_order(self, docs_per_query):
        """The tie-break of a block's ranking: pool index order is doc id order."""
        world = world_of(docs_per_query=docs_per_query)
        for qi in (0, len(world.query_ids) - 1):
            docs = world._doc_ids(qi, range(docs_per_query))
            assert sorted(docs) == docs and len(set(docs)) == docs_per_query


# -- doc id lookup ------------------------------------------------------------------


class TestDocIndex:
    @pytest.mark.parametrize("doc", ["q00_p7", "q00_p+7", "q00_p\u0667", "q00_p7 ", "q00_p007"])
    def test_only_exact_pool_ids_resolve(self, doc):
        world = world_of()
        assert world.pool_index(0, ["q00_p07", "q00_p00", "q00_p11"]) == [7, 0, 11]
        with pytest.raises(ValueError, match="is not one of the 12 docs of query 'q00'"):
            world.pool_index(0, ["q00_p07", doc])

    @pytest.mark.parametrize(
        "doc, message",
        [
            ("q01_p02", "doc 'q01_p02' is not one of the 12 docs of query 'q00'"),
            ("d1", "doc 'd1' is not one of the 12 docs of query 'q00'"),
            ("q00_p12", "doc 'q00_p12' is not one of the 12 docs of query 'q00'"),
            ("q00_p1x", "doc 'q00_p1x' is not one of the 12 docs of query 'q00'"),
        ],
    )
    def test_foreign_ids_named(self, doc, message):
        with pytest.raises(ValueError) as info:
            world_of().pool_index(0, ["q00_p01", doc, "q00_p13"])
        assert info.value.args == (message,)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_a_search_of_the_pool(self, data):
        """Exact pool ids resolve to their index; the first other doc is named."""
        world = world_of()
        qi = data.draw(st.integers(0, 11), label="query")
        pool = world._doc_ids(qi, range(12))
        docs = data.draw(st.lists(st.sampled_from(pool + JUDGED)), label="docs")
        bad = [doc for doc in docs if doc not in pool]
        if bad:
            message = f"doc {bad[0]!r} is not one of the 12 docs of query {world.query_ids[qi]!r}"
            assert outcome(lambda: world.pool_index(qi, docs)) == (ValueError, message)
        else:
            assert world.pool_index(qi, docs) == [doc_index_oracle(world, qi, d) for d in docs]


# -- batched validation and test evaluation ---------------------------------------


def random_qrels(data, world, queries):
    """Grades for some docs of some queries, and for a doc no pool holds."""
    grades = {}
    for qid in data.draw(st.lists(st.sampled_from(queries), max_size=len(queries)), label="judged"):
        docs = data.draw(st.lists(st.sampled_from(world._doc_ids(0, range(12))), max_size=6))
        judged = {doc.replace("q00", qid, 1): data.draw(st.integers(0, 3)) for doc in docs}
        judged["unretrieved"] = data.draw(st.integers(0, 3))
        grades[qid] = judged
    return Qrels(grades)


def models(dim=3):
    zero = scorer.ScorerModel(scorer.LINEAR, dim, 0, np.zeros(dim + 1))
    return [zero, scorer.init_model(scorer.LINEAR, dim, seed=1),
            scorer.init_model(scorer.MLP, dim, hidden_width=4, seed=2)]


def world_pools(world, queries, depth):
    """A block cut from the world's run "r" and the oracle's pools of its rows."""
    block = build_rerank_pools(world, world.first_stage_run("r"), queries, depth)
    return block, rerank_pools_oracle(world, first_stage_run_oracle(world, "r"), queries, depth)


class TestBatchedValidation:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_ndcg_and_runs_match_scalar_path(self, data):
        world = world_of()
        if data.draw(st.booleans(), label="tied run"):
            force_ties(world, data, ["fs"])
        run = world.first_stage_run("r")
        if data.draw(st.booleans(), label="restricted"):
            run = restrict_run(run, query_subset(data, world, min_size=1, max_size=14))
        queries = data.draw(st.lists(st.sampled_from(run.queries), min_size=1, max_size=8))
        depth = data.draw(st.integers(1, 13), label="depth")
        k = data.draw(st.integers(1, 14), label="k")
        qrels = random_qrels(data, world, queries)
        block = build_rerank_pools(world, run, queries, depth)
        pools = rerank_pools_oracle(world, first_stage_run_oracle(world, "r"), queries, depth)
        validation = ValidationSet(block, qrels)
        for model in models():
            oracle = [ndcg_at_k(rerank(model, pool), qrels, k) for pool in pools]
            assert validation.ndcg(model, k).tolist() == oracle
            assert mean_validation_ndcg(model, validation, k) == float(np.mean(oracle))
            scores, run = evaluate_model(model, block, qrels, k)
            assert scores == {query: value for (query, _, _), value in zip(pools, oracle)}
            assert run_entries(run) == [(pool[0], rerank(model, pool).entries) for pool in pools]

    def test_length_one_pools(self):
        world = world_of()
        block, pools = world_pools(world, ["q00", "q01", "q02"], 1)
        qrels = Qrels({"q00": {pools[0][1][0]: 2}, "q01": {"other": 1}})
        for model in models():
            assert ValidationSet(block, qrels).ndcg(model).tolist() == [1.0, 0.0, 0.0]

    def test_ties_rank_by_doc_id(self):
        """Under a zero model every score ties: q_p09 comes before q_p10."""
        world = world_of()
        block, _ = world_pools(world, world.query_ids, 12)
        run = evaluate_model(models()[0], block, Qrels())[1]
        for (_, ranked, _), docs in zip(run, block.docs):
            assert ranked == sorted(docs)
        assert run[0][0] == "q00" and run[0][1][9:11] == ["q00_p09", "q00_p10"]

    def test_block_rows_are_rerank_pools(self):
        world = world_of()
        run = world.first_stage_run("r")
        block = build_rerank_pools(world, run, world.query_ids[:4], 5)
        top = {qid: tuple(docs[:5]) for qid, docs, _ in run.ranked()}
        for pool, qid in zip(block, world.query_ids[:4]):
            docs = top[qid]
            assert (pool.query, pool.docs) == (qid, docs)
            assert np.array_equal(pool.features, features_oracle(world, qid, docs))

    def test_empty_pools(self):
        model = models()[1]
        world = world_of()
        empty = build_rerank_pools(world, world.first_stage_run("r"), [], 5)
        assert evaluate_model(model, empty, Qrels()) == ({}, [])
        with pytest.raises(ValueError, match="at least one pool"):
            ValidationSet(empty, Qrels())

    def test_non_finite_scores_rejected_like_rerank(self):
        world = world_of()
        doc = scored_lists(world.first_stage_run("r").ranked())["q03"].docs[2]
        world._features[3, doc_index_oracle(world, 3, doc)] = [1e308, 0.0, 0.0]
        block, pools = world_pools(world, ["q01", "q03"], 5)
        model = scorer.ScorerModel(scorer.LINEAR, 3, 0, np.array([10.0, 0.0, 0.0, 0.0]))
        message = f"non-finite score for doc '{doc}' in query 'q03'"
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match=message):
                rerank(model, pools[1])
            with pytest.raises(ValueError, match=message):
                ValidationSet(block, Qrels()).ndcg(model)
            with pytest.raises(ValueError, match=message):
                evaluate_model(model, block, Qrels())


class TestNdcgRows:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=8), min_size=1, max_size=5),
        st.integers(1, 10),
    )
    def test_rows_equal_scalar_ndcg(self, rows, k):
        lists, judged = {}, {}
        for i, grades in enumerate(rows):
            docs = [f"d{j}" for j in range(len(grades))]
            lists[f"q{i}"] = ScoredList(f"q{i}", [(d, -j) for j, d in enumerate(docs)])
            judged[f"q{i}"] = dict(zip(docs, grades))
        qrels = Qrels(judged)
        width = max(map(len, rows))
        padded = np.array([g + [0] * (width - len(g)) for g in rows])
        ideal = -np.sort(-padded, axis=1)
        expected = [ndcg_at_k(lists[f"q{i}"], qrels, k) for i in range(len(rows))]
        assert ndcg_rows(padded, ideal, k).tolist() == expected

    def test_cutoff_validated(self):
        with pytest.raises(ValueError, match="cutoff"):
            ndcg_rows(np.zeros((1, 1), dtype=int), np.zeros((1, 1), dtype=int), 0)


# -- distillation datasets -----------------------------------------------------------


@st.composite
def distill_records(draw):
    """(query, docs, first-stage ranks, source depth) tuples: ragged lists,
    some of length 1, of mixed source depths."""
    records = []
    for i in range(draw(st.integers(0, 6), label="lists")):
        n = draw(st.integers(1, 6), label="n")
        depth = draw(st.integers(n, 9), label="source depth")
        ranks = draw(st.permutations(range(1, depth + 1)))[:n]
        ids = draw(st.permutations(["d1", "d2", "d10", "a", "b", "c", "x9"]))[:n]
        records.append((f"q{i}", tuple(ids), tuple(ranks), depth))
    return records


class TestSubsampleDepth:
    @settings(max_examples=200, deadline=None)
    @given(distill_records(), st.integers(0, 10))
    def test_matches_record_at_a_time_filter(self, records, depth):
        dataset = stack_records(records)
        expected = outcome(lambda: subsample_depth_oracle(records, depth))
        assert outcome(lambda: subsample_depth(dataset, depth)) == expected
        if expected is None:
            got, oracle = subsample_depth(dataset, depth), subsample_depth_oracle(records, depth)
            assert_dataset_layout(got)
            assert record_values(got) == record_values(oracle)
            assert got.source_depths.tolist() == [depth] * len(records)
            assert got.world == dataset.world

    def test_first_bad_list_wins(self):
        records = [
            ("q1", ("a",), (1,), 5),
            ("q2", ("a",), (4,), 5),  # keeps no doc at depth 2
            ("q3", ("a",), (1,), 2),  # not deeper than 2
        ]
        with pytest.raises(ValueError, match="^record for query 'q2' has no docs$"):
            subsample_depth(stack_records(records), 2)
        with pytest.raises(ValueError, match=r"source depth 2 \(query 'q3'\)"):
            subsample_depth(stack_records(records[:1] + records[2:]), 2)


class TestDatasetText:
    @settings(max_examples=150, deadline=None)
    @given(distill_records())
    def test_written_datasets_parse_back_bit_for_bit(self, records):
        text = "".join(write_distill_dataset(stack_records(records)))
        parsed = parse_distill_dataset(io.StringIO(text))
        assert_dataset_layout(parsed)
        assert record_values(parsed) == record_values(records)
        assert parsed.world == (WORLD if records else None)
        assert "".join(write_distill_dataset(parsed)) == text


# -- training lists gathered from the world by pool index -------------------------


class TestGatheredLists:
    """`train` gathers every list's features from the world by pool index, one
    world slice at a time; they equal the features that the id-keyed teacher
    oracle looks up one doc at a time."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_equal_the_features_of_the_string_gather(self, data):
        per_slice = data.draw(st.sampled_from([1, 2, 5, 7, 256]), label="queries per slice")
        lo = data.draw(st.integers(0, 11), label="lo")
        hi = data.draw(st.integers(lo + 1, 12), label="hi")
        depth = data.draw(st.sampled_from([1, 5, 12]), label="depth")
        world = world_of(teacher_noise_rank_growth=data.draw(st.sampled_from([0.0, 0.3])))
        run = restrict_run(world.first_stage_run("r"), world.query_ids[lo:hi])
        oracle = teacher_dataset_oracle(world, scored_lists(run.ranked()), depth)
        # The dataset holds the lists truncated, and in another order.
        kept = [data.draw(st.integers(1, depth), label="kept") for _ in oracle]
        order = data.draw(st.permutations(range(len(oracle))), label="order")
        records = [(oracle[i][0], oracle[i][1][: kept[i]], oracle[i][3][: kept[i]], depth) for i in order]
        text = "".join(write_distill_dataset(stack_records(records, world.config.fingerprint())))
        cfg = load_experiment_config(None, argparse.Namespace())
        cfg = dataclasses.replace(cfg, world=world.config, distill=DistillSpec("r", depth))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            path = Path(tmp) / "dataset.jsonl"
            path.write_text(text, encoding="utf-8")
            patch.setattr(distill_data, "_QUERIES_PER_RANGE", per_slice)
            _, teacher = _train_lists(cfg, range(lo, hi), False, depth, None)
            dataset = _read_dataset(str(path), cfg, range(lo, hi))
            _, gathered = _train_lists(cfg, range(lo, hi), False, None, dataset)
        assert dataset == {}  # every list was taken by its world slice
        features = [f for _, _, f, _, _ in oracle]
        assert [f.tolist() for f in teacher] == [f.tolist() for f in features]
        assert [f.tolist() for f in gathered] == [features[i][: kept[i]].tolist() for i in order]
        assert all(f.dtype == np.float64 and f.flags.c_contiguous for f in teacher + gathered)
