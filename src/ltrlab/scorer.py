"""A small differentiable relevance scorer over feature vectors.

Two architectures share a flat parameter vector: a linear model
(w . x + b) and a one-hidden-layer tanh perceptron
(w2 . tanh(W1 x + b1) + b2). Backpropagation is analytic, and updates use
AdamW with decoupled weight decay. Scoring is pure; the model and optimizer
state are immutable values, so every step returns fresh copies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

LINEAR = "linear"
MLP = "mlp"

_CHECKPOINT_MAGIC = "ltrlab-scorer"
_CHECKPOINT_VERSION = "v1"


def param_count(architecture: str, feature_dim: int, hidden_width: int = 0) -> int:
    """Number of parameters for an architecture (weights plus biases)."""
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
        if self.architecture not in (LINEAR, MLP):
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
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
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if architecture == LINEAR:
        bound = 1.0 / np.sqrt(feature_dim)
        params = rng.uniform(-bound, bound, size=feature_dim + 1)
    elif architecture == MLP:
        if hidden_width < 1:
            raise ValueError("mlp requires hidden_width >= 1")
        b1 = 1.0 / np.sqrt(feature_dim)
        b2 = 1.0 / np.sqrt(hidden_width)
        parts = [
            rng.uniform(-b1, b1, size=feature_dim * hidden_width),
            rng.uniform(-b1, b1, size=hidden_width),
            rng.uniform(-b2, b2, size=hidden_width),
            rng.uniform(-b2, b2, size=1),
        ]
        params = np.concatenate(parts)
    else:
        raise ValueError(f"unknown architecture {architecture!r}")
    return ScorerModel(architecture, feature_dim, hidden_width if architecture == MLP else 0, params)


def _linear_parts(model: ScorerModel) -> tuple[np.ndarray, float]:
    f = model.feature_dim
    return model.params[:f], float(model.params[f])


def _mlp_parts(model: ScorerModel) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    f, h = model.feature_dim, model.hidden_width
    p = model.params
    w1 = p[: f * h].reshape(h, f)
    b1 = p[f * h : f * h + h]
    w2 = p[f * h + h : f * h + 2 * h]
    b2 = float(p[-1])
    return w1, b1, w2, b2


def _as_features(model: ScorerModel, features) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim not in (2, 3) or x.shape[-1] != model.feature_dim:
        raise ValueError(
            f"features have shape {np.shape(features)}, expected (..., {model.feature_dim})"
        )
    if not np.isfinite(x).all():
        raise ValueError("features must be finite")
    return x


def score_batch(model: ScorerModel, features) -> np.ndarray:
    """Scores of an (n, F) list, or (B, n) scores of a (B, n, F) block.

    Deterministic and pure. A block takes one stacked matmul, which runs the
    same BLAS product per list as scoring the lists one by one.
    """
    x = _as_features(model, features)
    if model.architecture == LINEAR:
        w, b = _linear_parts(model)
        return x @ w + b
    w1, b1, w2, b2 = _mlp_parts(model)
    return np.tanh(x @ w1.T + b1) @ w2 + b2


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
    rows = np.empty((len(block) + 1, model.num_params))  # the start, then one row per list
    per_list = rows[1:]
    per_list[:, -1] = np.add.reduce(u, axis=1)
    if model.architecture == LINEAR:
        per_list[:, :-1] = (block.swapaxes(1, 2) @ u[:, :, None])[:, :, 0]
    else:
        w1, b1, w2, _ = _mlp_parts(model)
        fh, h = w1.size, model.hidden_width
        hidden = np.tanh(block @ w1.T + b1)  # (B, n, H)
        delta = (u[:, :, None] * w2) * (1.0 - hidden * hidden)  # (B, n, H)
        per_list[:, :fh] = (delta.swapaxes(1, 2) @ block).reshape(len(block), fh)
        per_list[:, fh : fh + h] = delta.sum(axis=1)
        per_list[:, fh + h : -1] = (hidden.swapaxes(1, 2) @ u[:, :, None])[:, :, 0]
    if x.ndim == 2 and total is None:
        return per_list[0]
    rows[0] = 0.0 if total is None else total
    return np.add.reduce(rows, axis=0)


@dataclass(frozen=True)
class AdamWState:
    """AdamW moment accumulators, step counter, and hyperparameters."""

    m: np.ndarray
    v: np.ndarray
    t: int
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.01

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("step counter must be >= 0")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("betas must lie in [0, 1)")
        if self.learning_rate < 0 or self.epsilon <= 0 or self.weight_decay < 0:
            raise ValueError("invalid optimizer hyperparameters")
        if (np.asarray(self.v) < 0).any():
            raise ValueError("second moments must be non-negative")

    @classmethod
    def create(
        cls,
        num_params: int,
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
        weight_decay: float = 0.01,
    ) -> "AdamWState":
        zeros = np.zeros(num_params)
        return cls(zeros, zeros.copy(), 0, learning_rate, beta1, beta2, epsilon, weight_decay)


def adamw_step(
    model: ScorerModel, state: AdamWState, grad: np.ndarray
) -> tuple[ScorerModel, AdamWState]:
    """One AdamW update with bias-corrected moments and decoupled weight decay.

    Rejects non-finite gradients instead of silently continuing, so training
    loops surface divergence immediately.
    """
    g = np.asarray(grad, dtype=np.float64)
    if g.shape != model.params.shape:
        raise ValueError(f"gradient shape {g.shape} does not match parameters {model.params.shape}")
    if not np.isfinite(g).all():
        raise FloatingPointError("non-finite gradient passed to adamw_step")
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * g
    v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    # Decay applied in factored form so zero-gradient steps shrink parameters
    # by exactly (1 - lr * wd).
    decayed = model.params * (1.0 - state.learning_rate * state.weight_decay)
    new_params = decayed - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
    if not np.isfinite(new_params).all():
        raise FloatingPointError("parameters became non-finite after AdamW update")
    new_model = replace(model, params=new_params)
    new_state = replace(state, m=m, v=v, t=t)
    return new_model, new_state


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


def load_checkpoint(path: str | Path) -> ScorerModel:
    """Read a checkpoint written from checkpoint_text; exact float round-trip."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if len(lines) < 5 or lines[0] != f"{_CHECKPOINT_MAGIC} {_CHECKPOINT_VERSION}":
        raise ValueError(f"{path}: not a {_CHECKPOINT_MAGIC} {_CHECKPOINT_VERSION} checkpoint")
    header: dict[str, str] = {}
    for line in lines[1:5]:
        key, _, value = line.partition(" ")
        header[key] = value
    try:
        architecture = header["architecture"]
        feature_dim = int(header["feature_dim"])
        hidden_width = int(header["hidden_width"])
        count = int(header["param_count"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed checkpoint header: {exc}") from None
    values = [float(line) for line in lines[5:] if line.strip()]
    if len(values) != count:
        raise ValueError(f"{path}: expected {count} parameters, found {len(values)}")
    return ScorerModel(architecture, feature_dim, hidden_width, np.array(values))
