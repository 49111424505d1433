import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltrlab.losses import (
    ApproxConfig,
    _softplus_sigmoid,
    adr_mse,
    infonce,
    ranknet,
    smooth_rank,
)

from _oracles import finite_difference_grad, grad_close, softplus_sigmoid_reference

score_vectors = st.lists(
    st.floats(min_value=-30, max_value=30, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=40,
)


class TestInfoNCE:
    def test_equal_scores_group_of_eight(self):
        out = infonce(np.full(8, 1.3), positive_index=5)
        assert out.value == pytest.approx(math.log(8), abs=1e-9)

    def test_saturated(self):
        out = infonce([100.0, 0.0], positive_index=0)
        assert out.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(out.grad, 0.0, atol=1e-12)

    def test_gradient_is_softmax_minus_onehot(self):
        s = np.array([0.5, -1.0, 2.0])
        out = infonce(s, 1)
        soft = np.exp(s) / np.exp(s).sum()
        soft[1] -= 1.0
        assert np.allclose(out.grad, soft)

    def test_huge_scores_stable(self):
        out = infonce([900.0, 899.0], 0)
        assert np.isfinite(out.value)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            infonce([], 0)

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            infonce([1.0], 1)

    def test_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            s = rng.normal(size=8) * 3
            out = infonce(s, 0)
            fd = finite_difference_grad(lambda v: infonce(v, 0).value, s)
            assert grad_close(out.grad, fd)


class TestRankNet:
    def test_two_equal_scores(self):
        assert ranknet([0.7, 0.7]).value == pytest.approx(math.log(2), abs=1e-9)

    def test_violated_by_margin_one(self):
        assert ranknet([0.0, 1.0]).value == pytest.approx(math.log(1 + math.e), abs=1e-12)

    def test_single_score(self):
        out = ranknet([3.0])
        assert out.value == 0.0
        assert out.grad.shape == (1,)

    def test_large_margins_stable(self):
        assert np.isfinite(ranknet([800.0, -800.0]).value)
        assert np.isfinite(ranknet([-800.0, 800.0]).value)

    def test_finite_differences(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            s = rng.normal(size=20) * 2
            out = ranknet(s)
            fd = finite_difference_grad(lambda v: ranknet(v).value, s)
            assert grad_close(out.grad, fd)


# Fixed before measuring: the fused kernel and numpy's logaddexp / scipy's
# expit each round a few operations, so up to 4 ulp apart where both results
# are normal numbers (|d| <= 700), and within 1e-300 of each other where the
# tail underflows towards 0.
ULP_TOL = 4
KERNEL_RANGE = 700.0
TAIL_ABS_TOL = 1e-300


def ulps_apart(a, b):
    return np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))


class TestSoftplusSigmoidKernel:
    """The per-pair kernel of ranknet, adr_mse and smooth_rank against
    numpy's logaddexp(0, d) and scipy's expit."""

    def check(self, d):
        d = np.asarray(d, dtype=np.float64)
        softplus, sigmoid = _softplus_sigmoid(d)
        ref_softplus, ref_sigmoid = softplus_sigmoid_reference(d)
        inside = np.abs(d) <= KERNEL_RANGE
        for got, ref in ((softplus, ref_softplus), (sigmoid, ref_sigmoid)):
            assert np.all(ulps_apart(got[inside], ref[inside]) <= ULP_TOL)
            assert np.all(np.abs(got[~inside] - ref[~inside]) <= TAIL_ABS_TOL)

    def test_dense_grid(self):
        self.check(np.linspace(-KERNEL_RANGE, KERNEL_RANGE, 200_001))
        self.check(np.linspace(-800.0, -KERNEL_RANGE, 10_001))
        self.check(np.linspace(KERNEL_RANGE, 800.0, 10_001))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
    def test_any_finite_difference(self, d):
        self.check(d)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=50))
    def test_score_scale_differences(self, d):
        self.check(d)

    def test_zero_is_exact(self):
        for zero in (0.0, -0.0):
            softplus, sigmoid = _softplus_sigmoid(np.array([zero]))
            assert softplus[0] == math.log(2.0)
            assert sigmoid[0] == 0.5

    def test_tail_is_finite_and_bounded(self):
        softplus, sigmoid = _softplus_sigmoid(np.array([-1e308, -745.0, -709.8, 709.8, 1e308]))
        assert np.all(np.isfinite(softplus)) and np.all(np.isfinite(sigmoid))
        assert np.all((sigmoid >= 0.0) & (sigmoid <= 1.0))
        assert sigmoid[2] > 0.0  # expit gives 0 here; the fused form a subnormal


class TestSmoothRank:
    def test_single(self):
        assert np.allclose(smooth_rank([42.0]), [1.0])

    def test_two_equal(self):
        assert np.allclose(smooth_rank([1.0, 1.0]), [1.5, 1.5])

    def test_saturated_triple(self):
        pi = smooth_rank([10.0, 0.0, -10.0], ApproxConfig(alpha=1.0))
        assert np.allclose(pi, [1.0, 2.0, 3.0], atol=1e-4)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            ApproxConfig(alpha=0.0)

    @settings(max_examples=100, deadline=None)
    @given(score_vectors)
    def test_conservation_and_bounds(self, scores):
        n = len(scores)
        pi = smooth_rank(scores)
        assert abs(pi.sum() - n * (n + 1) / 2) < 1e-9
        assert np.all(pi > 0.5) and np.all(pi < n + 0.5)


class TestAdrMse:
    def test_singleton_is_zero(self):
        assert adr_mse([5.0]).value == 0.0

    def test_two_equal_scores_hand_value(self):
        expected = 0.5 * (0.25 + 0.25 / math.log2(3))
        assert adr_mse([2.0, 2.0]).value == pytest.approx(expected, abs=1e-12)
        assert adr_mse([2.0, 2.0]).value == pytest.approx(0.2039, abs=5e-5)

    def test_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            s = rng.normal(size=20) * 2
            out = adr_mse(s)
            fd = finite_difference_grad(lambda v: adr_mse(v).value, s)
            assert grad_close(out.grad, fd)

    def test_finite_differences_alpha_2(self):
        rng = np.random.default_rng(17)
        cfg = ApproxConfig(alpha=2.0)
        for _ in range(10):
            s = rng.normal(size=10)
            out = adr_mse(s, cfg)
            fd = finite_difference_grad(lambda v: adr_mse(v, cfg).value, s)
            assert grad_close(out.grad, fd)


@settings(max_examples=100, deadline=None)
@given(
    score_vectors,
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.integers(0, 1_000_000),
)
def test_translation_invariance(scores, shift, pos_seed):
    pos = pos_seed % len(scores)
    shifted = [s + shift for s in scores]
    assert abs(infonce(scores, pos).value - infonce(shifted, pos).value) < 1e-9
    assert abs(ranknet(scores).value - ranknet(shifted).value) < 1e-9
    assert abs(adr_mse(scores).value - adr_mse(shifted).value) < 1e-9


@settings(max_examples=100, deadline=None)
@given(score_vectors, st.integers(0, 1_000_000))
def test_non_negativity(scores, pos_seed):
    pos = pos_seed % len(scores)
    assert infonce(scores, pos).value >= 0.0
    assert ranknet(scores).value >= 0.0
    assert adr_mse(scores).value >= 0.0


@pytest.mark.parametrize("loss_fn", [ranknet, adr_mse])
@pytest.mark.parametrize("n", [3, 8, 20])
def test_moving_toward_teacher_order_never_increases_loss(loss_fn, n):
    # Walk from a random vector to a large-margin vector in perfect teacher
    # order; the loss must be non-increasing at each of the 10 samples.
    rng = np.random.default_rng(23)
    target = np.linspace(10.0 * n, 0.0, n)
    for _ in range(20):
        start = rng.normal(size=n)
        values = [loss_fn((1 - t) * start + t * target).value for t in np.linspace(0, 1, 10)]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-9


def float64_tolerance(n: int, magnitude: float) -> float:
    """Bound on how far two float64 evaluations of one loss may differ when
    their inputs agree in every score difference up to rounding.

    Shifting or reordering rounds each score difference by at most
    2 * eps * M, with M the largest |score| involved. Each loss and each
    gradient entry changes by at most n^2 / 2 times that over its pairs, and
    the pairwise sums round by about as much again; the factor 8 covers both
    evaluations. Fixed from eps, not fitted to observed differences.
    """
    return 8 * n * n * np.finfo(np.float64).eps * max(1.0, magnitude)


class TestInvariances:
    @settings(max_examples=200, deadline=None)
    @given(
        score_vectors,
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.integers(0, 1_000_000),
        st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_translation_invariant_value_and_gradient(self, scores, shift, pos_seed, alpha):
        s = np.array(scores)
        shifted = s + shift
        tol = float64_tolerance(len(s), float(np.abs(s).max()) + abs(shift))
        pos = pos_seed % len(s)
        cfg = ApproxConfig(alpha)
        for loss in (lambda v: infonce(v, pos), ranknet, lambda v: adr_mse(v, cfg)):
            a, b = loss(s), loss(shifted)
            assert abs(a.value - b.value) <= tol
            assert np.abs(a.grad - b.grad).max() <= tol

    @settings(max_examples=200, deadline=None)
    @given(score_vectors, st.integers(0, 1_000_000), st.randoms(use_true_random=False))
    def test_infonce_equivariant_under_permuted_negatives(self, scores, pos_seed, random):
        s = np.array(scores)
        pos = pos_seed % len(s)
        negatives = [i for i in range(len(s)) if i != pos]
        perm = list(range(len(s)))
        shuffled = negatives[:]
        random.shuffle(shuffled)
        for i, j in zip(negatives, shuffled):
            perm[i] = j
        tol = float64_tolerance(len(s), float(np.abs(s).max()))
        a, b = infonce(s, pos), infonce(s[perm], pos)
        assert abs(a.value - b.value) <= tol
        assert np.abs(a.grad[perm] - b.grad).max() <= tol
