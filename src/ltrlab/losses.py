"""Training objectives for relevance scorers, with analytic gradients.

Three objectives over a vector of per-document scores:

* ``infonce``    - listwise softmax cross-entropy with one positive,
                   L = logsumexp(s) - s[positive]
* ``ranknet``    - pairwise logistic loss over all ordered pairs of a
                   teacher-ranked list, L = sum_{i<j} log(1 + exp(s_j - s_i))
* ``adr_mse``    - discounted squared error between each document's target
                   rank and its smooth approximate rank,
                   L = (1/n) sum_i (i - pi_i)^2 / log2(i + 1)

All three depend only on score differences (translation invariant) and
return the loss value together with its gradient w.r.t. every score.
The smooth rank shared by the ADR loss is

    pi_i = 1 + sum_{j != i} sigmoid(alpha * (s_j - s_i))

so a higher score means a smaller (better) approximate rank.

The pairwise softplus and sigmoid come from numpy alone, both from one
e = exp(-|d|) per pair: softplus(d) = max(d, 0) + log1p(e) and
sigmoid(d) = (1 if d >= 0 else e) / (1 + e). Neither overflows for any
finite d, and each element's bits do not depend on the array around it,
so a list's loss has the same bits however lists are grouped into rows.
Each pass over the pairs writes into the call's own arrays where it can,
so a call allocates a few pair-sized arrays, not one per operation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["ApproxConfig", "LossOutput", "infonce", "ranknet", "smooth_rank", "adr_mse"]


@dataclass(frozen=True)
class ApproxConfig:
    """Sharpness of the sigmoid in the smooth rank approximation."""

    alpha: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha <= 0:
            raise ValueError(f"alpha must be a positive finite number, got {self.alpha}")


@dataclass(frozen=True)
class LossOutput:
    """Non-negative loss values and their gradients w.r.t. each input score:
    a float and an (n,) gradient for a 1-d vector, (B,) and (B, n) for a
    (B, n) block of B lists."""

    value: float | np.ndarray
    grad: np.ndarray


def _as_rows(scores, name: str) -> np.ndarray:
    """Scores as a C-ordered (B, n) block: a 1-d vector becomes one row.

    C order keeps each row's bits independent of the input's memory layout:
    adr_mse's batched matmul and the axis-1 row sums round differently on
    other layouts. Checks the shape only: non-finite scores give non-finite output."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise ValueError(f"{name} requires non-empty (n,) or (B, n) scores, got shape {arr.shape}")
    return np.ascontiguousarray(arr.reshape(-1, arr.shape[-1]))


def _output(scores, values: np.ndarray, grad: np.ndarray) -> LossOutput:
    if np.ndim(scores) == 1:
        return LossOutput(float(values[0]), grad[0])
    return LossOutput(values, grad)


@functools.cache
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs i < j among n items, row by row.

    Cached per list length and shared between calls, so read-only."""
    pairs = np.triu_indices(n, k=1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _exp_neg_abs(d: np.ndarray) -> np.ndarray:
    """e = exp(-|d|) elementwise, in one new array: in [0, 1] unless d is NaN."""
    e = np.abs(d)
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _sigmoid_from(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """sigmoid(d) elementwise from e = exp(-|d|), which becomes 1 + e.

    The numerator is 1 where d >= 0 and e elsewhere: as e lies in [0, 1],
    that is max(e, d >= 0), and a NaN in d stays NaN.
    """
    sigmoid = np.maximum(e, d >= 0.0)
    e += 1.0
    sigmoid /= e
    return sigmoid


def _softplus_sigmoid(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """softplus(d) = log(1 + exp(d)) and sigmoid(d) elementwise, sharing one exp."""
    e = _exp_neg_abs(d)
    softplus = np.log1p(e)
    sigmoid = _sigmoid_from(d, e)
    np.add(np.maximum(d, 0.0, out=e), softplus, out=softplus)  # in the order of the formula
    return softplus, sigmoid


def _pair_sigmoids(s: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The (B, n, n) sigmoid(alpha * (s_j - s_i)) of a (B, n) block at [b, i, j],
    and a spare array of the same shape for the caller to write into."""
    d = s[:, None, :] - s[:, :, None]
    d *= alpha
    e = _exp_neg_abs(d)
    return _sigmoid_from(d, e), d


def infonce(scores, positive_index: int) -> LossOutput:
    """Softmax cross-entropy of the positive against the whole candidate set.

    Computed per row as logsumexp(scores) - scores[positive_index] with max
    subtraction, so scores of any magnitude are safe. The gradient is
    softmax(scores) minus the one-hot positive indicator.
    """
    s = _as_rows(scores, "infonce")
    n = s.shape[1]
    if not 0 <= positive_index < n:
        raise ValueError(f"positive_index {positive_index} out of range for {n} scores")
    z = s - s.max(axis=1, keepdims=True)
    expz = np.exp(z)
    total = np.add.reduce(expz, axis=1)
    values = np.log(total) - z[:, positive_index]
    # Mathematically >= 0; the clamp strips 1-ulp rounding noise and -0.0.
    values = np.where(values > 0.0, values, 0.0)
    grad = expz / total[:, None]
    grad[:, positive_index] -= 1.0
    return _output(scores, values, grad)


def ranknet(scores) -> LossOutput:
    """Pairwise logistic loss over lists given in teacher order (best first).

    Every ordered pair (i, j) with j below i contributes
    softplus(s_j - s_i), whose derivative is sigmoid(s_j - s_i); both come
    from one exp per pair, so large score gaps do not overflow.
    """
    s = _as_rows(scores, "ranknet")
    rows, n = s.shape
    upper_i, upper_j = _upper_pairs(n)
    diff = np.take(s, upper_j, axis=1)
    diff -= np.take(s, upper_i, axis=1)  # s_j - s_i, i < j
    softplus, sigmoid = _softplus_sigmoid(diff)
    values = np.add.reduce(softplus, axis=1)
    pair = np.zeros((rows, n * n))  # pair[b, i * n + j] = sigmoid(s_j - s_i) for j > i
    pair[:, upper_i * n + upper_j] = sigmoid
    pair = pair.reshape(rows, n, n)
    return _output(scores, values, pair.sum(axis=1) - pair.sum(axis=2))


def smooth_rank(scores, cfg: ApproxConfig = ApproxConfig()) -> np.ndarray:
    """Differentiable rank estimates from pairwise sigmoid comparisons.

    Returns pi with pi_i = 1 + sum_{j != i} sigmoid(alpha * (s_j - s_i)).
    Because opposing sigmoids sum to one, sum(pi) = n(n+1)/2 for any input.
    """
    s = _as_rows(scores, "smooth_rank")
    mat = _pair_sigmoids(s, cfg.alpha)[0]
    # Row sums include the diagonal sigmoid(0) = 0.5, hence the +0.5 offset.
    return (mat.sum(axis=2) + 0.5).reshape(np.shape(scores))


def adr_mse(scores, cfg: ApproxConfig = ApproxConfig()) -> LossOutput:
    """Discounted rank MSE against the teacher order (scores in teacher order).

    Position i (1-based) has target rank i and weight 1/log2(i+1); the loss
    averages the weighted squared gaps between targets and smooth ranks.
    The gradient chains through every pairwise sigmoid, since each smooth
    rank depends on all scores.
    """
    s = _as_rows(scores, "adr_mse")
    n = s.shape[1]
    alpha = cfg.alpha
    mat, bmat = _pair_sigmoids(s, alpha)
    pi = mat.sum(axis=2) + 0.5
    targets = np.arange(1, n + 1, dtype=np.float64)
    weights = 1.0 / np.log2(targets + 1.0)
    gaps = targets - pi
    values = np.add.reduce(weights * gaps * gaps, axis=1) / n
    # dL/dpi_i, then through dpi_i/ds_k = alpha*B[i,k] (k != i),
    # dpi_i/ds_i = -alpha*sum_j B[i,j], with B = sigmoid' off-diagonal.
    dpi = (2.0 / n) * weights * (pi - targets)
    np.subtract(1.0, mat, out=bmat)
    bmat *= mat
    bmat.reshape(len(s), n * n)[:, :: n + 1] = 0.0  # the diagonals
    back = np.matmul(bmat.swapaxes(1, 2), dpi[:, :, None])[:, :, 0]
    return _output(scores, values, alpha * (back - dpi * bmat.sum(axis=2)))
