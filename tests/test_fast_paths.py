"""Differential tests: every vectorised ranking path against its scalar oracle.

Results are compared with ==, never approximately: the fast paths must give
the same ranks, the same floats and the same errors as the code they
replace.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltrlab import scorer
from ltrlab.core import (
    DistillRecord,
    Qrels,
    ScoredList,
    canonical_order,
    parse_run,
    validate_doc_ids,
    write_run,
)
from ltrlab.distill_data import WorldConfig, generate_world
from ltrlab.evaluation import ndcg_at_k, ndcg_rows
from ltrlab.pipeline import build_rerank_pools, evaluate_model, rerank_run
from ltrlab.trainer import RerankPool, ValidationSet, mean_validation_ndcg

from _oracles import (
    outcome,
    parse_run_oracle,
    rerank,
    scored_list_checks,
    stack_pools,
    teacher_order,
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
        "entries",
        [
            [],
            [("d9", 1.0), ("d10", 1.0)],
            [("d1", 1), ("d2", np.float32(2.0)), ("d3", True)],
            [("d1", 1 + 0j)],
            [(np.str_("d1"), 1.0)],
        ],
    )
    def test_accepts_like_per_doc_loop(self, entries):
        assert scored_list_checks("q", entries) is None
        assert ScoredList("q", entries).entries == tuple(map(tuple, entries))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(WEIRD_IDS), st.text(max_size=3)), max_size=6))
    def test_doc_ids_checked_like_scored_list(self, docs):
        expected = outcome(lambda: scored_list_checks("q", [(d, 0.0) for d in docs]))
        assert outcome(lambda: validate_doc_ids("q", docs)) == expected
        block = outcome(lambda: stack_pools([("q", docs, np.zeros((len(docs), 2)))]))
        assert block == expected

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
    assert parsed(parse_run, text) == parsed(parse_run_oracle, text)
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
            text = write_run(parse_run_oracle(text), "t")
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
        ],
    )
    def test_edge_cases_match_per_line_loop(self, text):
        assert_parses_like_oracle(text)


# -- trusted producers: the same lists the checking constructor builds ---------------


def assert_checked_equal(run):
    for qid, ranking in run.items():
        assert type(ranking) is ScoredList and type(ranking.entries) is tuple
        assert ranking == ScoredList(qid, ranking.entries)
        assert all(type(entry) is tuple for entry in ranking.entries)


class TestTrustedProducers:
    def test_parse_run(self):
        assert_checked_equal(parse_run("q1 Q0 d2 1 1.0 t\nq1 Q0 d1 2 1.0 t\nq2 Q0 d1 1 3 t"))
        assert_checked_equal(parse_run("q1 Q0 d1 +1 1.0 t\nq1 Q0 d2 2 2.0 t"))

    def test_first_stage_run(self):
        assert_checked_equal(world_of().first_stage_run("r"))

    def test_rerank_run(self):
        block = stack_pools(ragged_pools(np.random.default_rng(3), [4, 1, 12], tie_rows=True))
        for model in models():
            assert_checked_equal(rerank_run(model, block))

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
        assert write_run({"q": ranking}, "t") == text


# -- first-stage runs -----------------------------------------------------------


def first_stage_oracle(world, retriever):
    scores = world._fs_scores[retriever]
    return {
        qid: canonical_order(
            (world._doc_id(qi, j), float(scores[qi, j])) for j in range(scores.shape[1])
        )
        for qi, qid in enumerate(world.query_ids)
    }


class TestFirstStageOrder:
    def test_matches_canonical_order(self):
        world = world_of()
        run = world.first_stage_run("r")
        oracle = first_stage_oracle(world, "r")
        assert {q: r.entries for q, r in run.items()} == oracle

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_forced_ties_break_by_doc_id(self, data):
        world = world_of()
        shape = world._fs_scores["r"].shape
        values = data.draw(
            st.lists(st.sampled_from([-1.0, -0.0, 0.0, 2.5]), min_size=shape[0] * shape[1],
                     max_size=shape[0] * shape[1])
        )
        world._fs_scores["r"] = np.array(values).reshape(shape)
        run = world.first_stage_run("r")
        oracle = first_stage_oracle(world, "r")
        assert {q: r.entries for q, r in run.items()} == oracle


# -- teacher and feature lookup -----------------------------------------------------


class TestTeacherOrder:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_tuple_sort(self, data):
        world = world_of(teacher_noise=data.draw(st.sampled_from([0.0, 0.5])),
                         teacher_noise_rank_growth=data.draw(st.sampled_from([0.0, 0.3])))
        if data.draw(st.booleans()):  # force ties on the teacher's key
            world._rel[:] = np.round(world._rel)
            world._teacher_u[:] = 0.0
        qi = data.draw(st.integers(0, 11))
        qid = world.query_ids[qi]
        docs = data.draw(st.permutations(world.doc_ids(qid)))
        docs = tuple(docs[: data.draw(st.integers(1, 12))])
        assert world.teacher(qid, docs) == teacher_order(world, qid, docs)

    def test_ids_not_in_generated_form_tie_by_string_order(self):
        world = world_of(teacher_noise=0.0)
        world._rel[:] = 0.0
        qid = world.query_ids[0]
        # "q00_p5" parses to pool index 5 but sorts after "q00_p10".
        docs = ("q00_p5", "q00_p10", "q00_p01")
        assert world.teacher(qid, docs) == teacher_order(world, qid, docs)
        assert world.teacher(qid, docs) == ("q00_p01", "q00_p10", "q00_p5")

    @pytest.mark.parametrize(
        "docs",
        [
            ("q00_p01", "q01_p02"),
            ("q00_p01", "q00_p12"),
            ("q00_p01", "q00_pxx"),
            ("q00_p01", "q00_p01"),
            ("q00_p01", 3),
        ],
    )
    def test_errors_match(self, docs):
        world = world_of()
        qid = world.query_ids[0]
        expected = outcome(lambda: teacher_order(world, qid, docs))
        assert expected is not None
        assert outcome(lambda: world.teacher(qid, docs)) == expected

    @pytest.mark.parametrize(
        "docs",
        [
            ("q00_p01", "q00_p11", "q00_p00"),
            ("q00_p5", "q00_p+7", "q00_p0011"),
            ("q00_p01", "q01_p02"),
            ("q00_p12",),
            ("q00_p1x",),
            ("q00_p\u0661",),
            (),
        ],
    )
    def test_features_for_matches_doc_by_doc_lookup(self, docs):
        world = world_of()
        qid = world.query_ids[0]

        def oracle():
            return world._features[0, [world._dindex(0, d) for d in docs]]

        expected = outcome(oracle)
        assert outcome(lambda: world.features_for(qid, docs)) == expected
        if expected is None:
            assert np.array_equal(world.features_for(qid, docs), oracle())


# -- batched validation and test evaluation ---------------------------------------


def ragged_pools(rng, sizes, dim=3, tie_rows=False):
    """Pools whose ids' string order differs from pool order (d9 before d10)."""
    pools = []
    for i, n in enumerate(sizes):
        docs = [f"d{j}" for j in rng.permutation(12)[:n] + 1]
        feats = rng.integers(-1, 2, size=(n, dim)).astype(float)
        if tie_rows and n > 1:
            feats[1:] = feats[0]  # duplicated feature rows: every score ties
        pools.append(RerankPool(f"q{i}", tuple(docs), feats))
    return pools


def random_qrels(rng, pools):
    grades = {}
    for pool in pools[:-1]:  # the last query has no judgments at all
        judged = {d: int(rng.integers(0, 4)) for d in pool.docs if rng.random() < 0.5}
        judged["unretrieved"] = int(rng.integers(0, 4))
        grades[pool.query] = judged
    return Qrels(grades)


def models(dim=3):
    zero = scorer.ScorerModel(scorer.LINEAR, dim, 0, np.zeros(dim + 1))
    return [zero, scorer.init_model(scorer.LINEAR, dim, seed=1),
            scorer.init_model(scorer.MLP, dim, hidden_width=4, seed=2)]


class TestBatchedValidation:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=6),
        st.integers(1, 14),
        st.integers(0, 2**16),
        st.booleans(),
    )
    def test_ndcg_and_runs_match_scalar_path(self, sizes, k, seed, tie_rows):
        rng = np.random.default_rng(seed)
        pools = ragged_pools(rng, sizes, tie_rows=tie_rows)
        qrels = random_qrels(rng, pools)
        block = stack_pools(pools)
        validation = ValidationSet(block, qrels)
        for model in models():
            oracle = [ndcg_at_k(rerank(model, pool), qrels, k) for pool in pools]
            assert validation.ndcg(model, k).tolist() == oracle
            assert mean_validation_ndcg(model, validation, k) == float(np.mean(oracle))
            assert evaluate_model(model, block, qrels, k) == {
                pool.query: value for pool, value in zip(pools, oracle)
            }
            run = rerank_run(model, block)
            assert {q: r.entries for q, r in run.items()} == {
                pool.query: rerank(model, pool).entries for pool in pools
            }

    def test_length_one_pools(self):
        rng = np.random.default_rng(0)
        pools = ragged_pools(rng, [1, 1, 1])
        qrels = Qrels({"q0": {pools[0].docs[0]: 2}, "q1": {"other": 1}})
        for model in models():
            assert ValidationSet(stack_pools(pools), qrels).ndcg(model).tolist() == [1.0, 0.0, 0.0]

    def test_string_order_differs_from_pool_order(self):
        pool = ("q", ("d9", "d10", "d1"), np.zeros((3, 3)))
        qrels = Qrels({"q": {"d10": 1}})
        zero = models()[0]
        assert rerank(zero, pool).docs == ("d1", "d10", "d9")
        expected = ndcg_at_k(rerank(zero, pool), qrels, 10)
        assert ValidationSet(stack_pools([pool]), qrels).ndcg(zero).tolist() == [expected]
        assert rerank_run(zero, stack_pools([pool]))["q"].docs == ("d1", "d10", "d9")

    def test_block_from_world_matches_stacked_pools(self):
        world = world_of()
        run = world.first_stage_run("r")
        block = build_rerank_pools(world, run, world.query_ids[:4], 5)
        for pool, qid in zip(block, world.query_ids[:4]):
            docs = run[qid].docs[:5]
            assert pool.docs == docs
            assert np.array_equal(pool.features, world.features_for(qid, docs))
        pools = ragged_pools(np.random.default_rng(5), [3, 1, 7])
        for row, pool in zip(stack_pools(pools), pools):
            assert (row.query, row.docs) == (pool.query, pool.docs)
            assert np.array_equal(row.features, pool.features)

    def test_empty_pools(self):
        model = models()[1]
        empty = stack_pools([])
        assert evaluate_model(model, empty, Qrels()) == {}
        assert rerank_run(model, empty) == {}
        with pytest.raises(ValueError, match="at least one pool"):
            ValidationSet(empty, Qrels())

    def test_non_finite_scores_rejected_like_rerank(self):
        pool = ("q", ("d1", "d2"), [[1e308, 0.0, 0.0], [0.0, 0.0, 0.0]])
        model = scorer.ScorerModel(scorer.LINEAR, 3, 0, np.array([10.0, 0.0, 0.0, 0.0]))
        message = "non-finite score for doc 'd1' in query 'q'"
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match=message):
                rerank(model, pool)
            with pytest.raises(ValueError, match=message):
                ValidationSet(stack_pools([pool]), Qrels()).ndcg(model)
            with pytest.raises(ValueError, match=message):
                rerank_run(model, stack_pools([pool]))


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


# -- distillation records -------------------------------------------------------------


class TestDistillRecordChecks:
    @pytest.mark.parametrize("ranks, bad", [((3, 0, 9), 0), ((3, 9, 0), 9), ((6, 1, 2), 6)])
    def test_first_out_of_range_rank_named(self, ranks, bad):
        with pytest.raises(ValueError, match=f"first-stage rank {bad} outside 1..5"):
            DistillRecord("q", ("a", "b", "c"), np.zeros((3, 2)), ranks, 5)

    def test_ranks_converted_with_int(self):
        rec = DistillRecord("q", ("a", "b"), np.zeros((2, 2)), ("2", 1.0), 5)
        assert rec.first_stage_ranks == (2, 1)
