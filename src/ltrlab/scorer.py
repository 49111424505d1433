"""A small differentiable relevance scorer over feature vectors.

Two architectures share a flat parameter vector: a linear model
(w . x + b) and a one-hidden-layer tanh perceptron
(w2 . tanh(W1 x + b1) + b2). Backpropagation is analytic, and updates use
AdamW with decoupled weight decay. Scoring is pure; the model and optimizer
state are immutable values, so every step returns fresh copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import ascii_number

LINEAR = "linear"
MLP = "mlp"

_CHECKPOINT_MAGIC = "ltrlab-scorer"
_CHECKPOINT_VERSION = "v1"


def param_count(architecture: str, feature_dim: int, hidden_width: int = 0) -> int:
    """Number of parameters (weights plus biases); the one check of a model's shape."""
    if feature_dim < 1:
        raise ValueError("feature_dim must be >= 1")
    if architecture == LINEAR:
        return feature_dim + 1
    if architecture == MLP:
        if hidden_width < 1:
            raise ValueError("mlp requires hidden_width >= 1")
        return feature_dim * hidden_width + hidden_width + hidden_width + 1
    raise ValueError(f"unknown architecture {architecture!r}")


@dataclass(frozen=True)
class ScorerModel:
    """Scorer parameters as one flat float64 vector.

    Linear layout: [w (F), b]. MLP layout: [W1 (H*F, row-major), b1 (H),
    w2 (H), b2].
    """

    architecture: str
    feature_dim: int
    hidden_width: int
    params: np.ndarray

    def __post_init__(self):
        params = np.asarray(self.params, dtype=np.float64)
        expected = param_count(self.architecture, self.feature_dim, self.hidden_width)
        if params.shape != (expected,):
            raise ValueError(
                f"parameter vector has shape {params.shape}, expected ({expected},)"
            )
        if not np.isfinite(params).all():
            raise ValueError("parameters must be finite")
        object.__setattr__(self, "params", params)

    @property
    def num_params(self) -> int:
        return self.params.size


def init_model(
    architecture: str, feature_dim: int, hidden_width: int = 0, seed: int = 0
) -> ScorerModel:
    """Seeded uniform initialization in [-1/sqrt(fan_in), 1/sqrt(fan_in)] per layer."""
    hidden_width = hidden_width if architecture == MLP else 0
    count = param_count(architecture, feature_dim, hidden_width)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    b1 = 1.0 / np.sqrt(feature_dim)
    if architecture == LINEAR:
        params = rng.uniform(-b1, b1, size=count)
    else:
        b2 = 1.0 / np.sqrt(hidden_width)
        parts = [
            rng.uniform(-b1, b1, size=feature_dim * hidden_width),
            rng.uniform(-b1, b1, size=hidden_width),
            rng.uniform(-b2, b2, size=hidden_width),
            rng.uniform(-b2, b2, size=1),
        ]
        params = np.concatenate(parts)
    return ScorerModel(architecture, feature_dim, hidden_width, params)


def _mlp_parts(model: ScorerModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    f, h = model.feature_dim, model.hidden_width
    p = model.params
    w1 = p[: f * h].reshape(h, f)
    b1 = p[f * h : f * h + h]
    w2 = p[f * h + h : f * h + 2 * h]
    b2 = float(p[-1])
    return w1, b1, w2, b2


def _as_features(model: ScorerModel, features) -> np.ndarray:
    """Features as a float64 (n, F) list or (B, n, F) block. Checks the shape
    only: a non-finite feature gives non-finite outputs, not an error."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim not in (2, 3) or x.shape[-1] != model.feature_dim:
        raise ValueError(
            f"features have shape {np.shape(features)}, expected (..., {model.feature_dim})"
        )
    return x


def _hidden(model: ScorerModel, x: np.ndarray) -> np.ndarray | None:
    """The MLP's tanh hidden layer of an (n, F) list or (B, n, F) block;
    None for a linear model."""
    if model.architecture == LINEAR:
        return None
    w1, b1, _, _ = _mlp_parts(model)
    return np.tanh(x @ w1.T + b1)


def _scores(model: ScorerModel, x: np.ndarray, hidden: np.ndarray | None) -> np.ndarray:
    """Scores of checked features `x`, whose `_hidden` layer is `hidden`."""
    if model.architecture == LINEAR:
        f = model.feature_dim
        return x @ model.params[:f] + float(model.params[f])
    _, _, w2, b2 = _mlp_parts(model)
    return hidden @ w2 + b2


def _gradient_rows(
    model: ScorerModel, block: np.ndarray, u: np.ndarray, hidden: np.ndarray | None, total
) -> np.ndarray:
    """`total` (zeros when None), then the gradient of each list of a (B, n, F)
    block under C-ordered (B, n) upstream `u`, as the rows of a (B + 1, P)
    array. `hidden` is the block's MLP hidden layer, None for a linear model."""
    rows = np.empty((len(block) + 1, model.num_params))
    rows[0] = 0.0 if total is None else total
    per_list = rows[1:]
    per_list[:, -1] = np.add.reduce(u, axis=1)
    if model.architecture == LINEAR:
        per_list[:, :-1] = (block.swapaxes(1, 2) @ u[:, :, None])[:, :, 0]
    else:
        w1, _, w2, _ = _mlp_parts(model)
        fh, h = w1.size, model.hidden_width
        delta = (u[:, :, None] * w2) * (1.0 - hidden * hidden)  # (B, n, H)
        per_list[:, :fh] = (delta.swapaxes(1, 2) @ block).reshape(len(block), fh)
        per_list[:, fh : fh + h] = delta.sum(axis=1)
        per_list[:, fh + h : -1] = (hidden.swapaxes(1, 2) @ u[:, :, None])[:, :, 0]
    return rows


def score_batch(model: ScorerModel, features) -> np.ndarray:
    """Scores of an (n, F) list, or (B, n) scores of a (B, n, F) block.

    Deterministic and pure. A block takes one stacked matmul, which runs the
    same BLAS product per list as scoring the lists one by one.
    """
    x = _as_features(model, features)
    return _scores(model, x, _hidden(model, x))


def grad_batch(model: ScorerModel, features, upstream, total=None) -> np.ndarray:
    """Gradient of sum_i upstream_i * score(x_i) w.r.t. the flat parameters.

    Takes an (n, F) list with (n,) upstream or a (B, n, F) block with (B, n)
    upstream. A block's per-list gradients are added to `total` (zeros when
    None) by one axis-0 reduce, which adds them one list at a time in list
    order: a caller that passes its running sum gets the bits of one call
    per list.
    """
    x = _as_features(model, features)
    block = x if x.ndim == 3 else x[None]
    u = np.asarray(upstream, dtype=np.float64)
    if u.size != block.shape[0] * block.shape[1]:
        raise ValueError(f"upstream has {u.size} values, expected shape {x.shape[:-1]}")
    u = np.ascontiguousarray(u.reshape(block.shape[:2]))  # C order: see losses._as_rows
    rows = _gradient_rows(model, block, u, _hidden(model, block), total)
    if x.ndim == 2 and total is None:
        return rows[1]
    return np.add.reduce(rows, axis=0)


def _loss_step(model: ScorerModel, block: np.ndarray, loss_fn, total: np.ndarray | None):
    """One chunk's forward pass, loss and backward pass, with the MLP hidden
    layer computed once: the (B,) loss values and `total` plus the block's
    gradient, with the bits of `score_batch`, `loss_fn` and `grad_batch` in turn."""
    x = _as_features(model, block)
    hidden = _hidden(model, x)
    out = loss_fn(_scores(model, x, hidden))
    rows = _gradient_rows(model, x, np.ascontiguousarray(out.grad), hidden, total)
    return out.value, np.add.reduce(rows, axis=0)


# AdamW's moment decay rates and the term that keeps its denominator positive.
BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class AdamWState:
    """AdamW moment accumulators, step counter, learning rate and weight decay."""

    m: np.ndarray
    v: np.ndarray
    t: int
    learning_rate: float
    weight_decay: float = 0.01

    @classmethod
    def create(
        cls, num_params: int, learning_rate: float, weight_decay: float = 0.01
    ) -> "AdamWState":
        """Zero moments at step 0, and the one check of the hyperparameters:
        `adamw_step` keeps them, and its second moments are sums of squares."""
        for name, value in (("learning_rate", learning_rate), ("weight_decay", weight_decay)):
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
        zeros = np.zeros(num_params)
        return cls(zeros, zeros.copy(), 0, learning_rate, weight_decay)


def adamw_step(
    model: ScorerModel, state: AdamWState, grad: np.ndarray
) -> tuple[ScorerModel, AdamWState]:
    """One AdamW update with bias-corrected moments and decoupled weight decay.

    Rejects a non-finite gradient with FloatingPointError. The new model is
    built by ScorerModel, whose one scan of the parameters raises ValueError
    if the update diverged, so training loops surface divergence immediately.
    """
    g = np.asarray(grad, dtype=np.float64)
    if g.shape != model.params.shape:
        raise ValueError(f"gradient shape {g.shape} does not match parameters {model.params.shape}")
    if not np.isfinite(g).all():
        raise FloatingPointError("non-finite gradient passed to adamw_step")
    t = state.t + 1
    # A diverging update overflows here, and ScorerModel's scan reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        m = BETA1 * state.m + (1.0 - BETA1) * g
        v = BETA2 * state.v + (1.0 - BETA2) * g * g
        m_hat = m / (1.0 - BETA1**t)
        v_hat = v / (1.0 - BETA2**t)
        # Decay applied in factored form so zero-gradient steps shrink
        # parameters by exactly (1 - lr * wd).
        decayed = model.params * (1.0 - state.learning_rate * state.weight_decay)
        new_params = decayed - state.learning_rate * m_hat / (np.sqrt(v_hat) + EPSILON)
    return replace(model, params=new_params), replace(state, m=m, v=v, t=t)


# ---------------------------------------------------------------------------
# Checkpoints: versioned text header, then one parameter per line
# ---------------------------------------------------------------------------


def checkpoint_text(model: ScorerModel) -> str:
    lines = [
        f"{_CHECKPOINT_MAGIC} {_CHECKPOINT_VERSION}",
        f"architecture {model.architecture}",
        f"feature_dim {model.feature_dim}",
        f"hidden_width {model.hidden_width}",
        f"param_count {model.num_params}",
    ]
    lines.extend(repr(float(p)) for p in model.params)
    return "\n".join(lines) + "\n"


def _parameter(path: str | Path, number: int, line: str) -> float:
    try:
        value = float(ascii_number(line))
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{path}, line {number}: parameter {line!r} is not a finite number")
    return value


def load_checkpoint(path: str | Path) -> ScorerModel:
    """Read a checkpoint written from checkpoint_text; exact float round-trip.
    Its integers and parameters are ASCII numbers (`core.ascii_number`); a
    bad parameter line raises ValueError naming the path and the line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if len(lines) < 5 or lines[0] != f"{_CHECKPOINT_MAGIC} {_CHECKPOINT_VERSION}":
        raise ValueError(f"{path}: not a {_CHECKPOINT_MAGIC} {_CHECKPOINT_VERSION} checkpoint")
    header: dict[str, str] = {}
    for line in lines[1:5]:
        key, _, value = line.partition(" ")
        header[key] = value
    try:
        architecture = header["architecture"]
        feature_dim = int(ascii_number(header["feature_dim"]))
        hidden_width = int(ascii_number(header["hidden_width"]))
        count = int(ascii_number(header["param_count"]))
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header: {exc}") from None
    numbered = enumerate(lines[5:], start=6)
    values = [_parameter(path, number, line) for number, line in numbered if line.strip()]
    if len(values) != count:
        raise ValueError(f"{path}: expected {count} parameters, found {len(values)}")
    return ScorerModel(architecture, feature_dim, hidden_width, np.array(values))
