import math
import re
from dataclasses import replace

import numpy as np
import pytest

from ltrlab.scorer import (
    LINEAR,
    MLP,
    AdamWState,
    ScorerModel,
    adamw_step,
    checkpoint_text,
    grad_batch,
    init_model,
    load_checkpoint,
    param_count,
    score_batch,
)

from _oracles import finite_difference_grad, grad_close


def mlp_forward_reference(model, x):
    """Straightforward re-implementation of the MLP forward pass, loop style."""
    f, h = model.feature_dim, model.hidden_width
    p = model.params
    hidden = []
    for unit in range(h):
        pre = sum(p[unit * f + j] * x[j] for j in range(f)) + p[f * h + unit]
        hidden.append(np.tanh(pre))
    out = sum(p[f * h + h + unit] * hidden[unit] for unit in range(h)) + p[-1]
    return out


class TestScore:
    def test_zero_linear_model(self):
        model = ScorerModel(LINEAR, 3, 0, np.zeros(4))
        assert score_batch(model, [[9.0, -2.0, 4.0]])[0] == 0.0

    def test_linear_by_hand(self):
        model = ScorerModel(LINEAR, 2, 0, np.array([1.0, 2.0, 0.5]))
        assert score_batch(model, [[1.0, 1.0]])[0] == pytest.approx(3.5)

    def test_mlp_matches_reference_implementation(self):
        rng = np.random.default_rng(3)
        model = init_model(MLP, 5, hidden_width=4, seed=9)
        for _ in range(25):
            x = rng.normal(size=5)
            assert score_batch(model, [x])[0] == pytest.approx(
                mlp_forward_reference(model, x), abs=1e-12
            )

    def test_dimension_mismatch(self):
        model = init_model(LINEAR, 4, seed=0)
        with pytest.raises(ValueError):
            score_batch(model, [1.0, 2.0])

    def test_param_counts(self):
        assert param_count(LINEAR, 16) == 17
        assert param_count(MLP, 16, 4) == 16 * 4 + 4 + 4 + 1

    def test_batch_matches_single(self):
        model = init_model(MLP, 3, hidden_width=2, seed=4)
        xs = np.random.default_rng(5).normal(size=(6, 3))
        batched = score_batch(model, xs)
        assert np.allclose(batched, [score_batch(model, [x])[0] for x in xs])


class TestScoreGrad:
    def test_linear_gradient_closed_form(self):
        model = init_model(LINEAR, 3, seed=1)
        x = np.array([0.5, -1.0, 2.0])
        g = grad_batch(model, [x], [2.5])
        assert np.allclose(g[:3], 2.5 * x)
        assert g[3] == pytest.approx(2.5)

    def test_zero_upstream(self):
        model = init_model(MLP, 3, hidden_width=2, seed=1)
        assert np.allclose(grad_batch(model, [np.ones(3)], [0.0]), 0.0)

    @pytest.mark.parametrize("arch,hidden", [(LINEAR, 0), (MLP, 4)])
    def test_finite_differences(self, arch, hidden):
        rng = np.random.default_rng(31)
        model = init_model(arch, 6, hidden_width=hidden, seed=2)
        for _ in range(10):
            x = rng.normal(size=6)
            upstream = float(rng.normal())
            analytic = grad_batch(model, [x], [upstream])

            def loss_of(params):
                return upstream * score_batch(replace(model, params=params), [x])[0]

            fd = finite_difference_grad(loss_of, model.params)
            assert grad_close(analytic, fd)

    def test_grad_batch_sums_per_example(self):
        model = init_model(MLP, 4, hidden_width=3, seed=6)
        rng = np.random.default_rng(8)
        xs = rng.normal(size=(5, 4))
        u = rng.normal(size=5)
        total = grad_batch(model, xs, u)
        manual = sum(grad_batch(model, [xs[i]], [u[i]]) for i in range(5))
        assert np.allclose(total, manual)


class TestAdamW:
    def test_zero_gradient_no_decay_is_identity(self):
        model = init_model(LINEAR, 4, seed=0)
        state = AdamWState.create(model.num_params, learning_rate=0.1, weight_decay=0.0)
        new_model, new_state = adamw_step(model, state, np.zeros(model.num_params))
        assert np.array_equal(new_model.params, model.params)
        assert new_state.t == 1

    def test_first_step_from_zero_is_minus_lr(self):
        model = ScorerModel(LINEAR, 1, 0, np.zeros(2))
        state = AdamWState.create(2, learning_rate=0.1, weight_decay=0.0)
        new_model, _ = adamw_step(model, state, np.ones(2))
        assert np.allclose(new_model.params, -0.1, atol=1e-8)

    def test_weight_decay_shrinks_geometrically_on_zero_grad(self):
        model = init_model(LINEAR, 4, seed=3)
        lr, wd = 0.05, 0.2
        state = AdamWState.create(model.num_params, learning_rate=lr, weight_decay=wd)
        expected = model.params.copy()
        for _ in range(5):
            model, state = adamw_step(model, state, np.zeros(model.num_params))
            expected = expected * (1.0 - lr * wd)
            assert np.array_equal(model.params, expected)

    def test_convex_quadratic_descends(self):
        # Minimize 0.5 * ||theta - target||^2: monotone descent after a short
        # warm-up (until the oscillation floor near convergence) and a final
        # value many orders of magnitude below the start.
        target = np.array([3.0, -2.0, 1.0, 0.5, -1.5])
        model = ScorerModel(LINEAR, 4, 0, np.zeros(5))
        state = AdamWState.create(5, learning_rate=0.05, weight_decay=0.0)
        values = []
        for _ in range(1000):
            grad = model.params - target
            values.append(0.5 * float(grad @ grad))
            model, state = adamw_step(model, state, grad)
        descent = values[10:100]
        assert all(b <= a + 1e-12 for a, b in zip(descent, descent[1:]))
        assert values[-1] < 1e-12 * values[0]

    def test_non_finite_gradient_rejected(self):
        model = init_model(LINEAR, 2, seed=0)
        state = AdamWState.create(model.num_params, learning_rate=0.1)
        bad = np.array([1.0, np.nan, 0.0])
        with pytest.raises(FloatingPointError):
            adamw_step(model, state, bad)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_diverging_update_rejected_by_the_model(self):
        model = ScorerModel(LINEAR, 1, 0, np.array([1e308, 0.0]))
        state = AdamWState.create(2, learning_rate=1e308, weight_decay=0.0)
        with pytest.raises(ValueError, match="^parameters must be finite$"):
            adamw_step(model, state, np.array([-1.0, 0.0]))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("learning_rate", math.inf, "learning_rate must be a finite number >= 0, got inf"),
            ("learning_rate", -0.1, "learning_rate must be a finite number >= 0, got -0.1"),
            ("weight_decay", math.nan, "weight_decay must be a finite number >= 0, got nan"),
            ("weight_decay", -math.inf, "weight_decay must be a finite number >= 0, got -inf"),
        ],
    )
    def test_bad_hyperparameter_named_at_create(self, field, value, message):
        kwargs = {"learning_rate": 0.1, field: value}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AdamWState.create(3, **kwargs)

    def test_shape_mismatch_rejected(self):
        model = init_model(LINEAR, 2, seed=0)
        state = AdamWState.create(model.num_params, learning_rate=0.1)
        with pytest.raises(ValueError):
            adamw_step(model, state, np.zeros(5))


class TestDeterminismAndCheckpoints:
    def test_init_deterministic(self):
        a = init_model(MLP, 8, hidden_width=4, seed=42)
        b = init_model(MLP, 8, hidden_width=4, seed=42)
        assert np.array_equal(a.params, b.params)
        c = init_model(MLP, 8, hidden_width=4, seed=43)
        assert not np.array_equal(a.params, c.params)

    def test_training_loop_bit_identical(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(20, 3))

        def run():
            model = init_model(LINEAR, 3, seed=7)
            state = AdamWState.create(model.num_params, learning_rate=0.01)
            for i in range(50):
                grad = grad_batch(model, xs, np.sin(np.arange(20) + i))
                model, state = adamw_step(model, state, grad)
            return model.params

        assert np.array_equal(run(), run())

    @pytest.mark.parametrize("arch,hidden", [(LINEAR, 0), (MLP, 5)])
    def test_checkpoint_round_trip_exact(self, tmp_path, arch, hidden):
        model = init_model(arch, 7, hidden_width=hidden, seed=11)
        path = tmp_path / "model.txt"
        path.write_text(checkpoint_text(model), encoding="utf-8")
        loaded = load_checkpoint(path)
        assert loaded.architecture == model.architecture
        assert loaded.feature_dim == model.feature_dim
        assert loaded.hidden_width == model.hidden_width
        assert np.array_equal(loaded.params, model.params)

    def test_checkpoint_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", ["1_0", "\u0661", "abc", "nan", "-inf", "1e999"])
    def test_checkpoint_parameter_outside_the_grammar_named(self, tmp_path, value):
        """A parameter line is an ASCII number: ValueError names the file and the line."""
        lines = checkpoint_text(init_model(LINEAR, 2, seed=0)).splitlines()
        path = tmp_path / "model.txt"
        path.write_text("\n".join([*lines[:6], value, *lines[7:]]) + "\n", encoding="utf-8")
        message = f"{path}, line 7: parameter {value!r} is not a finite number"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", ["\u0662", "2_0"])
    def test_checkpoint_header_integer_outside_the_grammar_refused(self, tmp_path, value):
        text = checkpoint_text(init_model(LINEAR, 2, seed=0))
        path = tmp_path / "model.txt"
        path.write_text(text.replace("feature_dim 2", f"feature_dim {value}"), encoding="utf-8")
        message = f"{path}: malformed checkpoint header: {value!r} is not an ASCII number"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)


@pytest.mark.parametrize(
    "arch, dim, hidden, message",
    [
        ("cnn", 4, 0, "unknown architecture 'cnn'"),
        (MLP, 4, 0, "mlp requires hidden_width >= 1"),
        (LINEAR, 0, 0, "feature_dim must be >= 1"),
        (MLP, 0, 3, "feature_dim must be >= 1"),
    ],
)
def test_bad_shape_named_by_param_count(arch, dim, hidden, message):
    """init_model and ScorerModel leave the shape checks to param_count."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        init_model(arch, dim, hidden)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ScorerModel(arch, dim, hidden, np.zeros(5))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        param_count(arch, dim, hidden)
