import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from ltrlab import distill_data, pipeline, scorer, trainer
from ltrlab.distill_data import (
    FEATURE_MAP_PRODUCT,
    FEATURE_MAP_SATURATED,
    SamplingConfig,
    WorldConfig,
    build_hard_negative_groups,
    build_teacher_dataset,
    generate_world,
    subsample_depth,
    map_ranges,
    part_ranges,
)
from ltrlab.evaluation import grade_rows

from _oracles import (
    assert_groups_equal,
    block_docs,
    doc_index_oracle,
    features_oracle,
    hard_negative_groups_oracle,
    range_pools_oracle,
    record_values,
    restrict_qrels,
    restrict_run,
    scored_lists,
    slice_bytes,
    stack_records,
    teacher_lists,
)


def small_world(**overrides):
    defaults = dict(
        num_queries=20,
        docs_per_query=30,
        feature_dim=4,
        first_stage_noise={"clean": 0.0, "noisy": 3.0},
        teacher_noise=0.0,
        seed=5,
    )
    defaults.update(overrides)
    return generate_world(WorldConfig(**defaults))


def pool_docs(world, query):
    """Every doc id of a query's pool, in pool order."""
    return world._doc_ids(world.query_ids.index(query), range(world.config.docs_per_query))


def relevance(world, query, doc):
    """The hidden relevance of one of a query's docs."""
    qi = world.query_ids.index(query)
    return float(world._rel[qi, doc_index_oracle(world, qi, doc)])


class TestGenerateWorld:
    def test_zero_noise_retriever_matches_true_relevance(self):
        world = small_world()
        ranked = {qid: docs for qid, docs, _ in world.first_stage_run("clean").ranked()}
        for qid in world.query_ids:
            docs = pool_docs(world, qid)
            by_rel = sorted(docs, key=lambda d: -relevance(world, qid, d))
            assert ranked[qid] == by_rel

    def test_zero_noise_teacher_matches_true_relevance(self):
        world = small_world()
        run = restrict_run(world.first_stage_run("noisy"), world.query_ids[:5])
        for rec in build_teacher_dataset(run, depth=10):
            by_rel = sorted(rec.docs, key=lambda d: -relevance(world, rec.query, d))
            assert list(rec.docs) == by_rel

    def test_qrels_single_positive_is_true_best(self):
        world = small_world()
        qrels = world.qrels()
        for qid in world.query_ids:
            positives = qrels.positives(qid)
            assert len(positives) == 1
            best = max(pool_docs(world, qid), key=lambda d: relevance(world, qid, d))
            assert positives[0] == best

    def test_lower_noise_retriever_has_higher_recall(self):
        # Monte-Carlo over 1000 queries: probability that the true best doc
        # survives into the top 100 of a 200-doc pool.
        world = generate_world(
            WorldConfig(
                num_queries=1000,
                docs_per_query=200,
                feature_dim=2,
                first_stage_noise={"good": 0.1, "bad": 2.0},
                seed=13,
            )
        )
        qrels = world.qrels()

        def recall_at(run, k):
            hits = 0
            for qid, docs, _ in run.ranked():
                hits += qrels.positives(qid)[0] in set(docs[:k])
            return hits / len(world.query_ids)

        good = recall_at(world.first_stage_run("good"), 100)
        bad = recall_at(world.first_stage_run("bad"), 100)
        assert good > bad

    def test_deterministic_under_seed(self):
        w1, w2 = small_world(seed=99), small_world(seed=99)
        qid = w1.query_ids[3]
        docs = pool_docs(w1, qid)
        assert np.array_equal(features_oracle(w1, qid, docs), features_oracle(w2, qid, docs))
        first, again = (scored_lists(w.first_stage_run("noisy").ranked()) for w in (w1, w2))
        assert first[qid].entries == again[qid].entries

    def test_saturated_feature_map(self):
        flat = small_world(feature_map="product")
        sat = small_world(feature_map="saturated")
        qid = flat.query_ids[0]
        docs = pool_docs(flat, qid)
        assert np.allclose(
            features_oracle(sat, qid, docs), np.tanh(features_oracle(flat, qid, docs))
        )

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            WorldConfig(num_queries=0)
        with pytest.raises(ValueError):
            WorldConfig(first_stage_noise={"x": -1.0})
        with pytest.raises(ValueError):
            WorldConfig(feature_map="mystery")

    @pytest.mark.parametrize("sigma", [-1.0, math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "key", ["first_stage_noise", "teacher_noise", "teacher_noise_rank_growth", "feature_noise"]
    )
    def test_noise_must_be_finite_and_non_negative(self, key, sigma):
        value = {"x": sigma} if key == "first_stage_noise" else sigma
        name = "first_stage_noise['x']" if key == "first_stage_noise" else key
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be a finite number >= 0"):
            WorldConfig(**{key: value})


class TestHardNegativeGroups:
    def _run(self, n_queries=10, depth=20):
        """A noise-free run of the whole pool of a small world."""
        return small_world(num_queries=n_queries, docs_per_query=depth).first_stage_run("clean")

    @staticmethod
    def _oracle_groups(run, cfg):
        """The groups of the string oracle over the world's qrels, after
        checking that the block of build_hard_negative_groups holds their features."""
        qrels = run.world.qrels()
        expected, _ = hard_negative_groups_oracle(scored_lists(run.ranked()), qrels, cfg)
        groups = build_hard_negative_groups(run, cfg)
        assert_groups_equal(run.world, groups, expected)
        return expected

    def test_group_shape(self):
        run = self._run()
        cfg = SamplingConfig(pool_depth=20, num_negatives=7, seed=1)
        groups = build_hard_negative_groups(run, cfg)
        assert groups.shape == (10, 8, 4)
        expected = self._oracle_groups(run, cfg)
        assert [query for query, _, _ in expected] == list(run.queries)

    def test_no_judged_positive_in_negatives(self):
        run = self._run()
        qrels = run.world.qrels()
        cfg = SamplingConfig(pool_depth=20, num_negatives=7, seed=3)
        for query, positive, negatives in self._oracle_groups(run, cfg):
            assert qrels.grade(query, positive) > 0
            for doc in negatives:
                assert qrels.grade(query, doc) == 0

    def test_deterministic_with_seed(self):
        run = self._run()
        cfg = SamplingConfig(pool_depth=20, num_negatives=7, seed=11)
        first, again = (build_hard_negative_groups(run, cfg) for _ in range(2))
        assert np.array_equal(first, again)
        other = build_hard_negative_groups(run, SamplingConfig(20, 7, seed=12))
        assert not np.array_equal(other, first)

    def test_shallow_run_raises(self):
        """A run shallower than pool_depth raises one ValueError that names
        both depths, with or without rows."""
        run = self._run(depth=20)
        for rows in (run, restrict_run(run, [])):
            with pytest.raises(ValueError, match=r"^run depth 20 < pool_depth 21$"):
                build_hard_negative_groups(rows, SamplingConfig(pool_depth=21))

    def test_sampling_uniform_over_subsets(self):
        # 10^4 independent draws of 2 negatives from 6 eligible docs; the 15
        # possible subsets should be uniform (chi-square, not rejected at 0.01).
        n_draws = 10_000
        run = self._run(n_queries=n_draws, depth=7)
        cfg = SamplingConfig(pool_depth=7, num_negatives=2, seed=17)
        groups = self._oracle_groups(run, cfg)
        assert len(groups) == n_draws
        counts, ranked = {}, {query: docs for query, docs, _ in run.ranked()}
        for query, _, negatives in groups:
            ranks = ranked[query]
            key = tuple(sorted(str(ranks.index(doc)) for doc in negatives))
            counts[key] = counts.get(key, 0) + 1
        subsets = list(itertools.combinations("123456", 2))
        assert set(counts) <= set(subsets)
        expected = n_draws / len(subsets)
        stat = sum((counts.get(s, 0) - expected) ** 2 / expected for s in subsets)
        assert stat < chi2.ppf(0.99, df=len(subsets) - 1)


def dataset_columns(dataset):
    """Every column of a DistillDataset, as values that compare with ==."""
    return (
        dataset.queries,
        dataset.offsets.tolist(),
        dataset.docs,
        dataset.first_stage_ranks.tolist(),
        dataset.source_depths.tolist(),
    )


class TestQueryRanges:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_range_rows_equal_whole_world_rows(self, data):
        num_queries = data.draw(st.integers(1, 120), label="num_queries")
        noise = st.sampled_from([0.0, 0.5, 3.0])
        config = WorldConfig(
            num_queries=num_queries,
            docs_per_query=data.draw(st.integers(1, 12), label="docs_per_query"),
            feature_dim=data.draw(st.integers(1, 4), label="feature_dim"),
            first_stage_noise=data.draw(
                st.dictionaries(st.sampled_from(["a", "b", "c"]), noise, min_size=1),
                label="retrievers",
            ),
            teacher_noise=data.draw(noise, label="teacher_noise"),
            teacher_noise_rank_growth=data.draw(st.sampled_from([0.0, 0.1])),
            feature_map=data.draw(st.sampled_from([FEATURE_MAP_PRODUCT, FEATURE_MAP_SATURATED])),
            feature_noise=data.draw(st.sampled_from([0.0, 0.3]), label="feature_noise"),
            seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
        )
        lo = data.draw(st.integers(0, num_queries - 1), label="lo")
        hi = data.draw(st.integers(lo + 1, num_queries), label="hi")
        whole, part = generate_world(config), generate_world(config, range(lo, hi))
        assert part.query_ids == whole.query_ids[lo:hi]
        assert (part._rel == whole._rel[lo:hi]).all()
        assert (part._features == whole._features[lo:hi]).all()
        assert (part._teacher_u == whole._teacher_u[lo:hi]).all()
        assert part.qrels() == restrict_qrels(whole.qrels(), part.query_ids)
        depth = data.draw(st.integers(1, config.docs_per_query), label="depth")
        for name in config.first_stage_noise:
            assert (part._fs_scores[name] == whole._fs_scores[name][lo:hi]).all()
            run, whole_run = part.first_stage_run(name), whole.first_stage_run(name)
            whole_run = restrict_run(whole_run, part.query_ids)
            assert list(run.ranked()) == list(whole_run.ranked())
            assert dataset_columns(build_teacher_dataset(run, depth)) == dataset_columns(
                build_teacher_dataset(whole_run, depth)
            )
            lists, whole_lists = (teacher_lists(r, depth) for r in (run, whole_run))
            assert [f.tolist() for f in lists] == [f.tolist() for f in whole_lists]
            if config.docs_per_query > 1:
                negatives = data.draw(st.integers(1, config.docs_per_query - 1))
                cfg = SamplingConfig(config.docs_per_query, negatives)
                groups, whole_groups = (build_hard_negative_groups(r, cfg) for r in (run, whole_run))
                assert np.array_equal(groups, whole_groups)

    def test_query_ids_keep_the_width_of_the_whole_config(self):
        world = generate_world(WorldConfig(num_queries=1000, docs_per_query=3), range(7, 9))
        assert world.query_ids == ("q007", "q008")
        assert [docs for _, docs, _ in world.first_stage_run("weak").ranked()][0][0][:6] == "q007_p"

    @pytest.mark.parametrize("queries", [range(0), range(3, 3), range(-1, 2), range(0, 11), range(0, 4, 2)])
    def test_bad_range_rejected(self, queries):
        with pytest.raises(ValueError, match="is not a non-empty range of the 10 queries"):
            generate_world(WorldConfig(num_queries=10, docs_per_query=3), queries)

    def test_map_ranges_covers_the_range_in_slices(self, monkeypatch):
        config = WorldConfig(num_queries=40, docs_per_query=3)
        monkeypatch.setattr(distill_data, "_SLICE_BYTES", slice_bytes(config, 7))
        slices = list(map_ranges(lambda world: world.query_ids, config, range(3, 25)))
        assert [len(ids) for ids in slices] == [7, 7, 7, 1]
        assert sum(slices, ()) == generate_world(config).query_ids[3:25]
        assert list(map_ranges(lambda world: world, config, range(5, 5))) == []

    def test_part_ranges_cut_whole_slices_two_full_ones_a_part(self, monkeypatch):
        """34 queries at 4 a slice are 8 full slices and one of 2."""
        config = WorldConfig(num_queries=40, docs_per_query=3)
        monkeypatch.setattr(distill_data, "_SLICE_BYTES", slice_bytes(config, 4))
        queries = range(3, 37)
        cuts = {
            1: [range(3, 37)],
            2: [range(3, 19), range(19, 37)],
            8: [range(3, 11), range(11, 19), range(19, 27), range(27, 37)],
        }
        slices = list(map_ranges(lambda world: world.queries, config, queries))
        for parts, expected in cuts.items():
            assert part_ranges(config, queries, parts) == expected
            cut = [map_ranges(lambda world: world.queries, config, part) for part in expected]
            assert [s for part in cut for s in part] == slices
        assert part_ranges(config, range(3, 14), 2) == [range(3, 14)]  # 2 full slices and 3 queries
        assert part_ranges(config, range(3, 11), 2) == [range(3, 11)]
        assert part_ranges(config, range(3, 6), 4) == [range(3, 6)]
        assert part_ranges(config, range(5, 5), 2) == [range(5, 5)]

    @pytest.mark.parametrize(
        "shape, budget, per_slice",
        [((200, 16), 2**21, 81), ((300, 16), 2**21, 54), ((200, 16), 2**20, 40), ((200, 16), 25_599, 1)],
    )
    def test_slices_hold_the_queries_whose_features_fit_the_budget(
        self, monkeypatch, shape, budget, per_slice
    ):
        config = WorldConfig(num_queries=100, docs_per_query=shape[0], feature_dim=shape[1])
        monkeypatch.setattr(distill_data, "_SLICE_BYTES", budget)
        sizes = list(map_ranges(lambda world: len(world.queries), config, range(0, 100)))
        assert sizes[0] == per_slice and sum(sizes) == 100


class TestRangePools:
    def test_equal_pools_of_the_whole_world(self, monkeypatch):
        config = WorldConfig(num_queries=40, docs_per_query=30, feature_dim=3, seed=8)
        monkeypatch.setattr(distill_data, "_SLICE_BYTES", slice_bytes(config, 7))
        whole = generate_world(config)
        queries = whole.query_ids[5:30]
        expected = pipeline.build_rerank_pools(whole, whole.first_stage_run("weak"), queries, 12)
        block = pipeline.range_pools(config, "weak", range(5, 30), 12)
        assert block.queries == expected.queries and block.pool == expected.pool
        assert (block.index == expected.index).all()
        assert (block.features == expected.features).all()
        qrels = restrict_qrels(whole.qrels(), queries)
        grades, ideal = grade_rows(qrels, queries, block_docs(block))
        assert (block.grades == grades).all() and (block.ideal == ideal).all()

    def test_empty_range_gives_an_empty_block(self):
        config = WorldConfig(num_queries=3, docs_per_query=10, feature_dim=2)
        block = pipeline.range_pools(config, "strong", range(3, 3), 5)
        assert len(block) == 0 and block.grades.size == block.ideal.size == 0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_equals_the_concatenated_slice_blocks(self, data):
        num_queries = data.draw(st.integers(1, 30), label="num_queries")
        config = WorldConfig(
            num_queries=num_queries,
            docs_per_query=data.draw(st.integers(1, 9), label="docs_per_query"),
            feature_dim=data.draw(st.integers(1, 3), label="feature_dim"),
            first_stage_noise={"r": data.draw(st.sampled_from([0.0, 1.0]), label="noise")},
            seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
        )
        lo = data.draw(st.integers(0, num_queries), label="lo")
        hi = data.draw(st.integers(lo, num_queries), label="hi")
        per_slice = data.draw(st.sampled_from([1, 7, num_queries + 1]), label="queries per slice")
        depth = data.draw(st.integers(1, config.docs_per_query), label="depth")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(distill_data, "_SLICE_BYTES", slice_bytes(config, per_slice))
            block = pipeline.range_pools(config, "r", range(lo, hi), depth)
            expected = range_pools_oracle(config, "r", range(lo, hi), depth)
        assert block.queries == expected.queries and block.pool == expected.pool
        for got, want in ((block.index, expected.index), (block.features, expected.features)):
            assert got.shape == want.shape and (got == want).all()
            assert got.dtype == want.dtype and got.flags.c_contiguous
        if len(block):  # `grade_rows` pads to one column; an empty block's grades have none
            assert block.grades.shape == expected.grades.shape
        assert block.ideal.shape == expected.ideal.shape
        for got, want in ((block.grades, expected.grades), (block.ideal, expected.ideal)):
            assert got.dtype == want.dtype and (got == want).all()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_grades_are_those_of_the_qrels_by_doc_id(self, data):
        """The grades that `range_pools` and `build_rerank_pools` take from
        the world's best doc are `grade_rows` of the world's qrels over the
        blocks' doc ids, for ranges across slice edges."""
        config = WorldConfig(
            num_queries=24,
            docs_per_query=data.draw(st.sampled_from([1, 2, 9, 10, 11, 30]), label="pool"),
            feature_dim=2,
            first_stage_noise={"r": data.draw(st.sampled_from([0.0, 1.0, 5.0]), label="noise")},
            seed=data.draw(st.integers(0, 2**32 - 1), label="seed"),
        )
        lo = data.draw(st.integers(0, 23), label="lo")
        queries = range(lo, data.draw(st.integers(lo + 1, 24), label="hi"))
        depth = data.draw(st.integers(1, config.docs_per_query + 2), label="depth")
        whole = generate_world(config)
        ids = whole.query_ids[queries.start : queries.stop]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(distill_data, "_SLICE_BYTES", slice_bytes(config, 5))
            sliced = pipeline.range_pools(config, "r", queries, depth)
        cut = pipeline.build_rerank_pools(whole, whole.first_stage_run("r"), ids, depth)
        for block in (sliced, cut):
            grades, ideal = grade_rows(whole.qrels(), ids, block_docs(block))
            for got, want in ((block.grades, grades), (block.ideal, ideal)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert (got == want).all()

    def test_a_validation_pass_makes_no_doc_id(self, monkeypatch):
        """`range_pools` and a validation pass read pool indices and grades
        only: with the id function made to raise, both run; the test
        evaluation, which writes ids, does not."""
        config = WorldConfig(num_queries=30, docs_per_query=20, feature_dim=3, seed=4)
        monkeypatch.setattr(distill_data, "_SLICE_BYTES", slice_bytes(config, 7))

        def no_ids(*args):
            raise AssertionError("a doc id was made")

        for module in (distill_data, pipeline):
            monkeypatch.setattr(module, "doc_ids", no_ids)
        block = pipeline.range_pools(config, "weak", range(2, 27), 10)
        model = scorer.init_model(scorer.MLP, 3, hidden_width=4, seed=1)
        assert 0.0 <= trainer.mean_validation_ndcg(model, block) <= 1.0
        with pytest.raises(AssertionError, match="a doc id was made"):
            pipeline.evaluate_model(model, block)

    def test_peak_is_the_block_plus_two_slices(self, monkeypatch):
        """A block of 42 queries, 11 slices of 4, peaks at its own features,
        which at 64 a doc outweigh its other columns, plus little more."""
        config = WorldConfig(num_queries=48, docs_per_query=20, feature_dim=64, seed=3)
        budget = slice_bytes(config, 4)
        monkeypatch.setattr(distill_data, "_SLICE_BYTES", budget)
        pipeline.range_pools(config, "weak", range(0, 1), 20)  # one-time allocations go first
        tracemalloc.start()
        try:
            block = pipeline.range_pools(config, "weak", range(3, 45), 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block.features.shape == (42, 20, 64)
        assert peak < 1.5 * block.features.nbytes + 2 * budget, (peak, block.features.nbytes)


class TestTeacherDataset:
    def test_depth_100_yields_n_100(self):
        world = generate_world(
            WorldConfig(
                num_queries=5,
                docs_per_query=120,
                feature_dim=4,
                first_stage_noise={"r": 1.0},
                seed=2,
            )
        )
        run = world.first_stage_run("r")
        ds = build_teacher_dataset(run, depth=100)
        assert all(len(rec) == 100 for rec in ds)
        assert all(rec.source_depth == 100 for rec in ds)

    def test_depth_one_is_first_stage_top(self):
        world = small_world()
        run = world.first_stage_run("noisy")
        ds = build_teacher_dataset(run, depth=1)
        top = {query: docs[0] for query, docs, _ in run.ranked()}
        for rec in ds:
            assert rec.docs == [top[rec.query]]

    def test_zero_noise_teacher_orders_by_relevance(self):
        world = small_world()
        run = world.first_stage_run("noisy")
        ds = build_teacher_dataset(run, depth=10)
        for rec in ds:
            rels = [relevance(world, rec.query, d) for d in rec.docs]
            assert rels == sorted(rels, reverse=True)

    def test_features_align_with_docs(self):
        world = small_world()
        run = world.first_stage_run("clean")
        ds = build_teacher_dataset(run, depth=5)
        for rec, features in zip(ds, teacher_lists(run, 5)):
            for i, doc in enumerate(rec.docs):
                assert np.array_equal(features[i], features_oracle(world, rec.query, [doc])[0])

    def test_shallow_run_rejected(self):
        world = small_world()
        run = world.first_stage_run("clean")
        with pytest.raises(ValueError, match="depth"):
            build_teacher_dataset(run, depth=1000)


class TestSubsampleDepth:
    def _dataset(self, fs_order_by_teacher=(3, 1, 4, 2, 5)):
        world = small_world()
        qid = world.query_ids[0]
        docs = tuple(f"{qid}_p{r:04d}" for r in range(len(fs_order_by_teacher)))
        return stack_records([(qid, docs, fs_order_by_teacher, max(fs_order_by_teacher))])

    def test_filter_on_first_stage_keep_teacher_order(self):
        (rec,) = subsample_depth(self._dataset(), 2)
        assert rec.first_stage_ranks.tolist() == [1, 2]
        assert rec.source_depth == 2
        # Teacher order preserved: fs-rank-1 doc had teacher position 2,
        # fs-rank-2 doc had position 4, so rank-1 doc stays first.
        docs = self._dataset().docs
        assert rec.docs == [docs[1], docs[3]]

    def test_depth_not_below_original_rejected(self):
        with pytest.raises(ValueError):
            subsample_depth(self._dataset(), 5)
        with pytest.raises(ValueError):
            subsample_depth(self._dataset(), 9)

    def test_composition_equals_direct(self):
        world = generate_world(
            WorldConfig(
                num_queries=8,
                docs_per_query=60,
                feature_dim=3,
                first_stage_noise={"r": 1.5},
                teacher_noise=0.5,
                seed=21,
            )
        )
        run = world.first_stage_run("r")
        full = build_teacher_dataset(run, depth=50)
        via_50_25 = subsample_depth(subsample_depth(full, 40), 25)
        direct = subsample_depth(full, 25)
        assert record_values(via_50_25) == record_values(direct)

    def test_random_permutations_property(self):
        # On random teacher permutations, subsampling keeps exactly the docs
        # with fs rank <= depth, in their original relative order.
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            depth = int(rng.integers(1, n))
            perm = rng.permutation(n) + 1
            dataset = stack_records(
                [("q", tuple(f"d{i}" for i in range(n)), perm.tolist(), n)]
            )
            (sub,) = subsample_depth(dataset, depth)
            kept = [i for i in range(n) if perm[i] <= depth]
            assert sub.docs == [f"d{i}" for i in kept]
            assert len(sub) == depth
