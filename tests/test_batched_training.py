"""The batched training step against the list-at-a-time code it replaced.

Every comparison is exact: values, gradients, parameters and reports must
have the same bits (and the same sign of zero) as the per-list oracles in
_oracles.py.
"""

import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ltrlab import losses, scorer, trainer
from ltrlab.core import Qrels, canonical_order
from ltrlab.distill_data import (
    SamplingConfig,
    WorldConfig,
    build_hard_negative_groups,
    generate_world,
)
from ltrlab.pipeline import query_ranges, range_pools, split_query_ids

from _oracles import (
    add_in_order,
    adr_mse_block_oracle,
    adr_mse_oracle,
    assert_groups_equal,
    block_docs,
    features_oracle,
    grad_oracle,
    hard_negative_groups_oracle,
    infonce_oracle,
    judged_block,
    pair_sigmoid_oracle,
    pair_softplus_sigmoid_oracle,
    ranknet_block_oracle,
    ranknet_oracle,
    reference_step,
    rejudged,
    restrict_run,
    row_sums,
    score_oracle,
    scored_lists,
    smooth_rank_block_oracle,
    teacher_lists,
)

finite = st.floats(min_value=-30, max_value=30, allow_nan=False, allow_infinity=False)


def assert_same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@st.composite
def score_blocks(draw, max_rows=5, max_len=12):
    shape = (draw(st.integers(1, max_rows)), draw(st.integers(1, max_len)))
    return draw(arrays(np.float64, shape, elements=finite))


@st.composite
def feature_blocks(draw, dim):
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 9)), dim)
    x = draw(arrays(np.float64, shape, elements=st.floats(-5, 5)))
    if draw(st.booleans()):
        x[:, 1::2] = x[:, :1]  # duplicated rows: tied scores
    return x


def model_of(arch, dim, seed, zero=False):
    model = scorer.init_model(arch, dim, 3 if arch == scorer.MLP else 0, seed=seed)
    return replace(model, params=np.zeros(model.num_params)) if zero else model


def row_outputs(out, vector=False):
    """Per-row tuples of what a loss returned: (value, grad) from a
    LossOutput, (ranks,) from smooth_rank; one tuple for a 1-d input."""
    columns = (out,) if isinstance(out, np.ndarray) else (out.value, out.grad)
    return tuple(columns) if vector else list(zip(*columns))


class TestLosses:
    @settings(max_examples=100, deadline=None)
    @given(score_blocks(), st.data())
    def test_infonce_rows_match_oracle(self, s, data):
        positive = data.draw(st.integers(0, s.shape[1] - 1))
        out = losses.infonce(s, positive)
        for row, value, grad in zip(s, out.value, out.grad):
            expected = infonce_oracle(row, positive)
            assert_same(value, expected[0])
            assert_same(grad, expected[1])

    @settings(max_examples=100, deadline=None)
    @given(score_blocks())
    def test_ranknet_rows_match_oracle(self, s):
        out = losses.ranknet(s)
        for row, value, grad in zip(s, out.value, out.grad):
            expected = ranknet_oracle(row)
            assert_same(value, expected[0])
            assert_same(grad, expected[1])

    @settings(max_examples=100, deadline=None)
    @given(score_blocks(), st.sampled_from([0.3, 1.0, 4.0]))
    def test_adr_mse_rows_match_oracle(self, s, alpha):
        out = losses.adr_mse(s, losses.ApproxConfig(alpha))
        for row, value, grad in zip(s, out.value, out.grad):
            expected = adr_mse_oracle(row, alpha)
            assert_same(value, expected[0])
            assert_same(grad, expected[1])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(finite, min_size=1, max_size=12))
    def test_a_vector_is_one_row(self, s):
        for batched, oracle in [
            (losses.infonce(s, 0), infonce_oracle(s, 0)),
            (losses.ranknet(s), ranknet_oracle(s)),
            (losses.adr_mse(s), adr_mse_oracle(s)),
        ]:
            assert type(batched.value) is float
            assert_same(batched.value, oracle[0])
            assert_same(batched.grad, oracle[1])

    @pytest.mark.parametrize("s", [[[3.0]], [[800.0, 0.0]], [[0.0, -900.0, -900.0]]])
    def test_zero_infonce_loss_is_positive_zero(self, s):
        value = losses.infonce(np.array(s), 0).value
        assert_same(value, [0.0])
        assert_same(losses.infonce(s[0], 0).value, 0.0)

    def test_length_one_lists(self):
        s = np.array([[2.5], [-1.0]])
        assert_same(losses.ranknet(s).value, [0.0, 0.0])
        assert_same(losses.ranknet(s).grad, [[0.0], [0.0]])
        assert_same(losses.adr_mse(s).value, [0.0, 0.0])

    def test_smooth_rank_of_a_block_row_by_row(self):
        s = np.random.default_rng(2).normal(size=(3, 7))
        assert_same(losses.smooth_rank(s), [losses.smooth_rank(row) for row in s])

    @settings(max_examples=100, deadline=None)
    @given(score_blocks(max_rows=6), st.data())
    def test_pair_losses_do_not_depend_on_grouping(self, s, data):
        """Each row's value and gradient have the same bits whether it is
        scored alone as a 1-d vector, in the first k rows, in a slice of
        rows, in a strided or reversed view, or in an F-ordered copy."""
        rows, n = s.shape
        if data.draw(st.booleans()):
            s[:, 1::2] = s[:, :1]  # tied scores
        alpha = data.draw(st.sampled_from([0.3, 1.0, 4.0]))
        for loss in (
            losses.ranknet,
            lambda v: losses.adr_mse(v, losses.ApproxConfig(alpha)),
            lambda v: losses.smooth_rank(v, losses.ApproxConfig(alpha)),
        ):
            whole = row_outputs(loss(s))
            lo = data.draw(st.integers(0, rows - 1))
            hi = data.draw(st.integers(lo + 1, rows))
            wide = np.zeros((rows, 2 * n))
            wide[:, ::2] = s
            groupings = [(range(k), s[:k]) for k in range(1, rows + 1)]
            groupings += [(range(lo, hi), s[lo:hi]), (range(rows), wide[:, ::2])]
            groupings += [(range(rows - 1, -1, -1), s[::-1]), (range(rows), np.asfortranarray(s))]
            for picked, block in groupings:
                for i, got in zip(picked, row_outputs(loss(block)), strict=True):
                    for a, b in zip(got, whole[i], strict=True):
                        assert_same(a, b)
            for i in range(rows):
                for a, b in zip(row_outputs(loss(s[i]), vector=True), whole[i], strict=True):
                    assert_same(a, b)

    @pytest.mark.parametrize("bad", [[], [[]], np.zeros((2, 2, 2))])
    def test_bad_blocks_rejected(self, bad):
        with pytest.raises(ValueError):
            losses.ranknet(bad)


class TestScorerBlocks:
    @pytest.mark.parametrize("arch", [scorer.LINEAR, scorer.MLP])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16), zero=st.booleans())
    def test_block_scores_equal_per_list_scores(self, arch, data, seed, zero):
        model = model_of(arch, 16, seed, zero)
        x = data.draw(feature_blocks(16))
        scores = scorer.score_batch(model, x)
        assert scores.shape == x.shape[:2]
        for row, features in zip(scores, x):
            assert_same(row, score_oracle(model, features))
            assert_same(scorer.score_batch(model, features), score_oracle(model, features))

    @pytest.mark.parametrize("arch", [scorer.LINEAR, scorer.MLP])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16), zero=st.booleans())
    def test_block_gradient_adds_lists_in_order(self, arch, data, seed, zero):
        model = model_of(arch, 16, seed, zero)
        x = data.draw(feature_blocks(16))
        u = data.draw(arrays(np.float64, x.shape[:2], elements=st.floats(-3, 3)))
        start = np.random.default_rng(seed).normal(size=model.num_params)
        singles = [grad_oracle(model, features, upstream) for features, upstream in zip(x, u)]
        for features, upstream, single in zip(x, u, singles):
            assert_same(scorer.grad_batch(model, features, upstream), single)
        assert_same(scorer.grad_batch(model, x, u, start), add_in_order(start, singles))
        from_zero = add_in_order(np.zeros(model.num_params), singles)
        assert_same(scorer.grad_batch(model, x, u), from_zero)

    def test_upstream_shape_checked(self):
        model = model_of(scorer.LINEAR, 2, 0)
        with pytest.raises(ValueError, match="upstream has 3 values"):
            scorer.grad_batch(model, np.zeros((2, 2, 2)), np.zeros(3))


def signed_values(rng, shape, ties, zeros):
    """Normal values at one of three scales; `ties` copies each row's first
    column into every odd column, `zeros` sets about a third of the entries
    to 0.0 or -0.0."""
    x = rng.normal(size=shape) * rng.choice([1e-3, 1.0, 30.0])
    if ties:
        x[:, 1::2] = x[:, :1]
    if zeros:
        signed = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
        x = np.where(rng.random(shape) < 0.3, signed, x)
    return x


def layouts(block):
    """A (B, m) block as a C-ordered, an F-ordered and a strided array."""
    wide = np.zeros((block.shape[0], 2 * block.shape[1]))
    wide[:, ::2] = block
    return {"C": block, "F": np.asfortranarray(block), "strided": wide[:, ::2]}


@st.composite
def reduction_blocks(draw, max_pairs=None):
    """A (B, n) block with B in 1..64 and n in 1..300, and B * n * n at most
    `max_pairs`, with ties and signed zeros; plus the generator that drew it."""
    n = draw(st.integers(1, 300))
    most = 64 if max_pairs is None else max(1, min(64, max_pairs // (n * n)))
    rows = draw(st.integers(1, most))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return signed_values(rng, (rows, n), draw(st.booleans()), draw(st.booleans())), rng


class TestRowReductions:
    """The losses and grad_batch sum a block's rows with one numpy reduce;
    every output keeps the bits of the per-row loops it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 64), st.integers(1, 45_000), st.integers(0, 2**32 - 1), st.booleans())
    def test_axis_one_reduce_is_the_row_loop(self, rows, m, seed, zeros):
        """Up to 44 850 terms a row, RankNet's pair count at n = 300."""
        block = signed_values(np.random.default_rng(seed), (rows, m), False, zeros)
        want = row_sums(block)
        assert_same(np.add.reduce(block, axis=1), want)
        assert_same(np.add.reduce(layouts(block)["strided"], axis=1), want)

    # B * n * n at most 2^20, eight times the trainer's chunk budget.
    @settings(max_examples=40, deadline=None)
    @given(reduction_blocks(max_pairs=1 << 20), st.sampled_from([0.3, 1.0, 4.0]), st.data())
    def test_losses_equal_per_list_oracles(self, drawn, alpha, data):
        s, _ = drawn
        positive = data.draw(st.integers(0, s.shape[1] - 1))
        cases = [
            (lambda v: losses.infonce(v, positive), lambda r: infonce_oracle(r, positive)),
            (losses.ranknet, ranknet_oracle),
            (
                lambda v: losses.adr_mse(v, losses.ApproxConfig(alpha)),
                lambda r: adr_mse_oracle(r, alpha),
            ),
        ]
        for loss, oracle in cases:
            want = [oracle(row) for row in s]
            for block in layouts(s).values():
                out = loss(block)
                for (value, grad), got_value, got_grad in zip(want, out.value, out.grad):
                    assert_same(got_value, value)
                    assert_same(got_grad, grad)

    @pytest.mark.parametrize("arch", [scorer.LINEAR, scorer.MLP])
    @settings(max_examples=40, deadline=None)
    @given(drawn=reduction_blocks(), zero=st.booleans(), with_total=st.booleans())
    def test_grad_batch_adds_lists_in_order(self, arch, drawn, zero, with_total):
        u, rng = drawn
        model = model_of(arch, 16, int(rng.integers(2**16)), zero)
        x = rng.normal(size=u.shape + (16,))
        x[:, 1::2] = x[:, :1]  # tied scores
        total = signed_values(rng, (1, model.num_params), False, True)[0] if with_total else None
        singles = [grad_oracle(model, features, row) for features, row in zip(x, u)]
        start = np.zeros(model.num_params) if total is None else total
        want = add_in_order(start, singles)
        for upstream in layouts(u).values():
            assert_same(scorer.grad_batch(model, x, upstream, total), want)
            assert_same(scorer.grad_batch(model, x[0], upstream[0]), singles[0])


LOSS_ORACLES = {
    trainer.LOSS_INFONCE: (lambda s: losses.infonce(s, 0), lambda s: infonce_oracle(s, 0)),
    trainer.LOSS_RANKNET: (losses.ranknet, ranknet_oracle),
    trainer.LOSS_ADR_MSE: (losses.adr_mse, adr_mse_oracle),
}


def reference_loop(model, features, loss, cfg, steps):
    """`steps` AdamW steps of reference_step over the trainer's batches."""
    state = scorer.AdamWState.create(
        model.num_params, cfg.learning_rate, weight_decay=cfg.weight_decay
    )
    batches = trainer._batches(cfg.seed, len(features), cfg.batch_size)
    curve = []
    for step in range(1, steps + 1):
        batch_loss, grad = reference_step(model, features, next(batches), loss)
        model, state = scorer.adamw_step(model, state, grad)
        curve.append((step, batch_loss))
    return model, curve


class TestTrainingSteps:
    @pytest.mark.parametrize("budget", [1, 40, trainer._CHUNK_PAIRS])
    @settings(max_examples=40, deadline=None)
    @given(
        lengths=st.lists(st.sampled_from([1, 2, 3, 5, 8]), min_size=1, max_size=12),
        arch=st.sampled_from([scorer.LINEAR, scorer.MLP]),
        loss=st.sampled_from(sorted(LOSS_ORACLES)),
        batch_size=st.integers(1, 7),
        seed=st.integers(0, 2**16),
        zero=st.booleans(),
    )
    def test_steps_equal_list_at_a_time_steps(
        self, budget, lengths, arch, loss, batch_size, seed, zero
    ):
        rng = np.random.default_rng(seed)
        features = [rng.normal(size=(n, 3)) for n in lengths]
        features[0][-1] = features[0][0]  # a tie in the first list
        model = model_of(arch, 3, seed, zero)
        cfg = trainer.TrainConfig(loss=loss, max_steps=4, batch_size=batch_size, seed=seed)
        batched, oracle = LOSS_ORACLES[loss]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trainer, "_CHUNK_PAIRS", budget)
            steps = list(trainer._steps(model, features, batched, cfg))
        curve = [(step, value) for step, _, value in steps]
        got = steps[-1][1]
        want, want_curve = reference_loop(model, features, oracle, cfg, 4)
        assert curve == want_curve
        assert_same(got.params, want.params)

    def test_chunks_are_runs_of_equal_length_in_batch_order(self, monkeypatch):
        monkeypatch.setattr(trainer, "_CHUNK_PAIRS", 50)
        lengths = [5, 5, 5, 3, 5, 1, 1, 1]
        batch = np.array([0, 1, 2, 3, 4, 5, 6, 7])
        chunks = [list(c) for c in trainer._chunks(lengths, batch)]
        assert chunks == [[0, 1], [2], [3], [4], [5, 6, 7]]


class TestRealSizes:
    """The trainer's own pair budget at the list lengths the benchmark trains."""

    @pytest.mark.parametrize(
        "arch, loss, n",
        [(scorer.MLP, trainer.LOSS_RANKNET, 50), (scorer.LINEAR, trainer.LOSS_ADR_MSE, 100)],
    )
    def test_steps_equal_list_at_a_time_steps(self, arch, loss, n):
        rng = np.random.default_rng(n)
        features = [rng.normal(size=(n, 16)) for _ in range(40)]
        model = model_of(arch, 16, 5)
        cfg = trainer.TrainConfig(loss=loss, max_steps=3, batch_size=32, seed=6)
        batched, oracle = LOSS_ORACLES[loss]
        steps = list(trainer._steps(model, features, batched, cfg))
        want, want_curve = reference_loop(model, features, oracle, cfg, 3)
        assert [(step, value) for step, _, value in steps] == want_curve
        assert_same(steps[-1][1].params, want.params)

    @pytest.mark.parametrize("n, sizes", [(50, [32]), (100, [13, 13, 6])])
    def test_chunks_of_a_32_list_batch(self, n, sizes):
        chunks = list(trainer._chunks([n] * 32, np.arange(32)))
        assert [len(chunk) for chunk in chunks] == sizes
        assert [i for chunk in chunks for i in chunk] == list(range(32))

    def test_isfinite_scans_per_step_do_not_grow_with_chunks(self, monkeypatch):
        """Lists are checked finite once, where they enter training. A step
        scans its batch loss, its gradient and the new parameters, once each,
        whether the batch is one chunk (n = 50) or three (n = 100)."""
        isfinite, calls = np.isfinite, [0]

        def counting(*args, **kwargs):
            calls[0] += 1
            return isfinite(*args, **kwargs)

        model = model_of(scorer.LINEAR, 16, 0)
        cfg = trainer.TrainConfig(loss=trainer.LOSS_ADR_MSE, max_steps=4, batch_size=32)
        per_step = {}
        for n in (50, 100):
            rng = np.random.default_rng(n)
            features = [rng.normal(size=(n, 16)) for _ in range(32)]
            marks = []
            with monkeypatch.context() as patch:
                patch.setattr(np, "isfinite", counting)
                for _ in trainer._steps(model, features, losses.adr_mse, cfg):
                    marks.append(calls[0])
            per_step[n] = np.diff(marks).tolist()
        assert per_step[50] == per_step[100] == [3, 3, 3]

    def test_adr_mse_steps_stay_under_6_mib(self):
        """Two 32-list ADR-MSE steps at n = 100 peak at about 4.2 MiB in
        chunks of 13 lists. Whole-batch chunks, with no pair budget, peak at
        about 10.2 MiB: each (32, 100, 100) pair temporary is 2.4 MiB."""
        rng = np.random.default_rng(0)
        features = [rng.normal(size=(100, 16)) for _ in range(64)]
        model = model_of(scorer.LINEAR, 16, 0)
        cfg = trainer.TrainConfig(loss=trainer.LOSS_ADR_MSE, max_steps=2, batch_size=32)
        tracemalloc.start()
        try:
            for _ in trainer._steps(model, features, losses.adr_mse, cfg):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


def same_bytes(a, b):
    """Equal dtype, shape and bytes: -0.0 differs from 0.0, and NaNs by their bits."""
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


@st.composite
def kernel_blocks(draw):
    """A (B, n) score block, n often 1 or 2, with ties, signed zeros and
    score gaps beyond 745, where exp(-|d|) underflows to 0."""
    n = draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = signed_values(rng, (draw(st.integers(1, 6)), n), draw(st.booleans()), draw(st.booleans()))
    if draw(st.booleans()):
        far = rng.random(s.shape) < 0.3
        s[far] = rng.choice([-1.0, 1.0], far.sum()) * rng.uniform(400.0, 1000.0, far.sum())
    return s


class TestInPlaceKernels:
    """The loss kernels write each pair pass into the call's own arrays and
    pick the sigmoid's numerator with np.maximum; every output has the bytes
    of the kernels they replaced, kept in _oracles.py."""

    @settings(max_examples=200, deadline=None)
    @given(
        kernel_blocks(),
        st.sampled_from([0.3, 1.0, 4.0]),
        st.sampled_from(["1-d", "C", "F", "strided"]),
    )
    def test_losses_equal_the_kernels_they_replaced(self, s, alpha, layout):
        block = s[0] if layout == "1-d" else layouts(s)[layout]
        cfg = losses.ApproxConfig(alpha)
        for got, want in [
            (losses.ranknet(block), ranknet_block_oracle(block)),
            (losses.adr_mse(block, cfg), adr_mse_block_oracle(block, alpha)),
        ]:
            assert type(got.value) is type(want.value)
            same_bytes(got.value, want.value)
            same_bytes(got.grad, want.grad)
        same_bytes(losses.smooth_rank(block, cfg), smooth_rank_block_oracle(block, alpha))

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 30)),
            elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        ),
        st.sampled_from(["1-d", "C", "F", "strided"]),
    )
    def test_pair_kernel_equals_the_np_where_kernel(self, d, layout):
        """Over any doubles: ±0.0, subnormals, |d| > 745, infinities, NaNs."""
        self.check_pair_kernel(d[0] if layout == "1-d" else layouts(d)[layout])

    @pytest.mark.parametrize("layout", ["1-d", "C", "F", "strided"])
    def test_pair_kernel_on_special_values(self, layout):
        row = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 746.0, -746.0, 5e-324, -5e-324]
        d = np.array([row, row[::-1]])
        self.check_pair_kernel(d[0] if layout == "1-d" else layouts(d)[layout])

    @staticmethod
    def check_pair_kernel(d):
        before = d.copy()
        with np.errstate(all="ignore"):
            got = losses._softplus_sigmoid(d)
            want = pair_softplus_sigmoid_oracle(d)
            sigmoid = losses._sigmoid_from(d, losses._exp_neg_abs(d))
            want_sigmoid = pair_sigmoid_oracle(d)[0]
        for a, b in zip(got, want, strict=True):
            same_bytes(a, b)
        same_bytes(sigmoid, want_sigmoid)
        same_bytes(d, before)  # the kernel leaves its input alone


class TestStepHelper:
    """`scorer._loss_step` runs a chunk's forward pass, loss and backward
    pass with the MLP hidden layer computed once."""

    @pytest.mark.parametrize("arch", [scorer.LINEAR, scorer.MLP])
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        seed=st.integers(0, 2**16),
        zero=st.booleans(),
        with_total=st.booleans(),
        loss=st.sampled_from(sorted(LOSS_ORACLES)),
    )
    def test_equals_score_loss_grad_in_turn(self, arch, data, seed, zero, with_total, loss):
        model = model_of(arch, 16, seed, zero)
        x = data.draw(feature_blocks(16))
        loss_fn = LOSS_ORACLES[loss][0]
        rng = np.random.default_rng(seed)
        total = signed_values(rng, (1, model.num_params), False, True)[0] if with_total else None
        out = loss_fn(scorer.score_batch(model, x))
        want = scorer.grad_batch(model, x, out.grad, total)
        values, grad = scorer._loss_step(model, x, loss_fn, total)
        same_bytes(values, out.value)
        same_bytes(grad, want)

    def test_steps_score_through_the_helper_alone(self, monkeypatch):
        """A step makes one loss call per chunk and no call of the public
        scorer passes, whose spans count only validation and test work."""
        calls = {"score_batch": 0, "grad_batch": 0, "loss": 0}
        for name in ("score_batch", "grad_batch"):
            real = getattr(scorer, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(scorer, name, counting)

        def loss(scores):
            calls["loss"] += 1
            return losses.ranknet(scores)

        rng = np.random.default_rng(0)
        features = [rng.normal(size=(100, 16)) for _ in range(32)]
        cfg = trainer.TrainConfig(loss=trainer.LOSS_RANKNET, max_steps=2, batch_size=32)
        for _ in trainer._steps(model_of(scorer.MLP, 16, 0), features, loss, cfg):
            pass
        assert calls == {"score_batch": 0, "grad_batch": 0, "loss": 6}  # chunks of 13, 13, 6


@st.composite
def pool_blocks(draw):
    """A PoolBlock of 1..8 queries' pools of 1..12 docs (or the benchmark's
    50 and 100), cut from world pools twice as large; some pools repeat a
    doc's features, so their scores tie."""
    rows = draw(st.integers(1, 8))
    n = draw(st.one_of(st.integers(1, 12), st.sampled_from([50, 100])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    index = np.array([rng.permutation(2 * n)[:n] for _ in range(rows)])
    features = rng.normal(size=(rows, n, 16))
    if draw(st.booleans()):
        features[:, 1::2] = features[:, :1]
    if draw(st.booleans()):
        features[rows // 2] = features[0]  # a duplicate pool
    return judged_block(tuple(f"q{i}" for i in range(rows)), 2 * n, index, features, Qrels())


class TestOneCallRanking:
    """PoolBlock.rank scores the whole block in one call; each row keeps the
    bytes of scoring it alone and the order of core.canonical_order."""

    @pytest.mark.parametrize("arch", [scorer.LINEAR, scorer.MLP])
    @settings(max_examples=60, deadline=None)
    @given(block=pool_blocks(), seed=st.integers(0, 2**16), zero=st.booleans(), data=st.data())
    def test_rows_do_not_depend_on_grouping(self, arch, block, seed, zero, data):
        model = model_of(arch, 16, seed, zero)
        q = len(block)
        lo = data.draw(st.integers(0, q - 1))
        hi = data.draw(st.integers(lo + 1, q))
        groupings = [range(k) for k in range(1, q + 1)] + [range(lo, hi), range(q - 1, q)]
        for picked in groupings:
            scores, order = rejudged(block, Qrels(), slice(picked.start, picked.stop)).rank(model)
            assert scores.shape == order.shape == (len(picked), block.index.shape[1])
            for i, row_scores, row_order in zip(picked, scores, order.tolist(), strict=True):
                alone = scorer.score_batch(model, block.features[i])
                same_bytes(row_scores, alone)
                docs = block_docs(block)[i]
                want = [doc for doc, _ in canonical_order(zip(docs, alone.tolist()))]
                assert [docs[j] for j in row_order] == want

    def test_a_validation_pass_scores_once(self, world_setup, monkeypatch):
        validation = world_setup[2]
        calls = []
        real = scorer.score_batch

        def counting(model, features):
            calls.append(np.shape(features))
            return real(model, features)

        monkeypatch.setattr(scorer, "score_batch", counting)
        trainer.mean_validation_ndcg(model_of(scorer.MLP, 5, 0), validation)
        assert calls == [validation.features.shape]


def small_world():
    return generate_world(
        WorldConfig(
            num_queries=60,
            docs_per_query=24,
            feature_dim=5,
            first_stage_noise={"main": 1.0},
            teacher_noise=0.3,
            seed=9,
        )
    )


@pytest.fixture(scope="module")
def world_setup():
    world = small_world()
    fractions = {"train": 0.6, "validation": 0.2, "test": 0.2}
    splits = split_query_ids(world.query_ids, fractions)
    run = restrict_run(world.first_stage_run("main"), splits["train"])
    full, shallow = teacher_lists(run, 12), teacher_lists(run, 12, cut=6)
    ragged = full[:10] + shallow[10:20]
    for i, features in enumerate(full[20:]):
        ragged.append(features[: 1 + i % 7])  # mixed lengths, some of them 1
    validation_range = query_ranges(len(world.query_ids), fractions)["validation"]
    validation = range_pools(world.config, "main", validation_range, 12)
    sampling = SamplingConfig(pool_depth=20, num_negatives=5, seed=1)
    groups = build_hard_negative_groups(run, sampling)
    expected, _ = hard_negative_groups_oracle(scored_lists(run.ranked()), world.qrels(), sampling)
    assert_groups_equal(world, groups, expected)
    return world, ragged, validation, groups, expected


def reference_distill(model, features, validation, cfg, loss):
    """train_distill as a list-at-a-time loop."""
    state = scorer.AdamWState.create(
        model.num_params, cfg.learning_rate, weight_decay=cfg.weight_decay
    )
    loss_curve, validation_curve = [], []
    best = [-np.inf, model.params.copy(), 0]

    def validate(step, current):
        value = trainer.mean_validation_ndcg(current, validation)
        validation_curve.append((step, value))
        if value > best[0] + trainer.IMPROVEMENT_TOLERANCE:
            best[:] = [value, current.params.copy(), step]

    validate(0, model)
    batches = trainer._batches(cfg.seed, len(features), cfg.batch_size)
    stop_reason, steps = trainer.STOP_MAX_STEPS, 0
    for step in range(1, cfg.max_steps + 1):
        batch_loss, grad = reference_step(model, features, next(batches), loss)
        model, state = scorer.adamw_step(model, state, grad)
        loss_curve.append((step, batch_loss))
        steps = step
        if step % cfg.validation_every == 0:
            validate(step, model)
            if step - best[2] >= cfg.patience_steps:
                stop_reason = trainer.STOP_EARLY
                break
    if stop_reason == trainer.STOP_MAX_STEPS and steps % cfg.validation_every != 0:
        validate(steps, model)
    report = trainer.TrainReport(
        steps, stop_reason, loss_curve, float(best[0]), best[2], validation_curve
    )
    return replace(model, params=best[1]), report


def spoiled(lists, kind):
    """The lists with list 2 made non-finite, one feature too wide, or empty."""
    lists = list(lists)
    x = lists[2].copy()
    if kind == "nan":
        x[-1, 0] = np.nan
    elif kind == "width":
        x = np.hstack([x, x[:, :1]])
    else:
        x = x[:0]
    lists[2] = x
    return lists


class TestEntryCheck:
    """train_stage1 and train_distill check their lists once, before they
    validate or step; the kernels of the step loop trust them."""

    MESSAGES = {
        "nan": r"^training list 2 has non-finite features$",
        "width": r"^training list 2 has shape \(\d+, 6\), expected \(n >= 1, 5\)$",
        "empty": r"^training list 2 has shape \(0, 5\), expected \(n >= 1, 5\)$",
    }

    @pytest.mark.parametrize("kind", sorted(MESSAGES))
    @pytest.mark.parametrize("stage", ["stage1", "distill"])
    def test_bad_list_named_before_any_validation(self, world_setup, monkeypatch, stage, kind):
        _, ragged, validation, groups, _ = world_setup
        validations = []
        real = trainer.mean_validation_ndcg

        def counting(*args, **kwargs):
            validations.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer, "mean_validation_ndcg", counting)
        model = model_of(scorer.LINEAR, 5, 0)
        with pytest.raises(ValueError, match=self.MESSAGES[kind]):
            if stage == "stage1":
                cfg = trainer.TrainConfig(loss=trainer.LOSS_INFONCE, max_steps=3)
                trainer.train_stage1(model, spoiled(groups, kind), cfg)
            else:
                cfg = trainer.TrainConfig(loss=trainer.LOSS_RANKNET, max_steps=3)
                trainer.train_distill(model, spoiled(ragged, kind), validation, cfg)
        assert validations == []


class TestWholeRuns:
    @pytest.mark.parametrize("arch", [scorer.LINEAR, scorer.MLP])
    def test_train_stage1_equals_reference_loop(self, world_setup, arch):
        world, _, _, groups, expected = world_setup
        model = model_of(arch, 5, 3)
        cfg = trainer.TrainConfig(loss=trainer.LOSS_INFONCE, max_steps=25, batch_size=8, seed=2)
        got, report = trainer.train_stage1(model, list(groups), cfg)
        features = [features_oracle(world, query, (pos, *negs)) for query, pos, negs in expected]
        want, curve = reference_loop(model, features, lambda s: infonce_oracle(s, 0), cfg, 25)
        assert report.loss_curve == curve
        assert report.steps_executed == 25
        assert_same(got.params, want.params)

    @pytest.mark.parametrize(
        "arch, loss, steps, patience",
        [
            (scorer.LINEAR, trainer.LOSS_RANKNET, 37, 100),
            (scorer.MLP, trainer.LOSS_RANKNET, 60, 10),
            (scorer.LINEAR, trainer.LOSS_ADR_MSE, 23, 100),
            (scorer.MLP, trainer.LOSS_ADR_MSE, 60, 10),
        ],
    )
    def test_train_distill_equals_reference_loop(self, world_setup, arch, loss, steps, patience):
        _, ragged, validation, _, _ = world_setup
        model = model_of(arch, 5, 4)
        cfg = trainer.TrainConfig(
            loss=loss,
            max_steps=steps,
            batch_size=6,
            learning_rate=0.05,
            patience_steps=patience,
            validation_every=5,
            seed=3,
        )
        got, report = trainer.train_distill(model, ragged, validation, cfg)
        oracle = LOSS_ORACLES[loss][1]
        want, want_report = reference_distill(model, ragged, validation, cfg, oracle)
        assert asdict(report) == asdict(want_report)
        assert_same(got.params, want.params)
