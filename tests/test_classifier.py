import math
import re

import numpy as np
import pytest

from proxyssl import classifier
from proxyssl.classifier import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    MlpModel,
    TrainConfig,
    accuracy,
    adam_step,
    fit,
    forward,
    init_model,
    loss_and_grads,
    predict,
)
from proxyssl.errors import ConfigError, DataError, NumericError, ShapeError
from proxyssl.numerics import Rng


def reference_forward(model, x):
    """Independent forward pass: explicit loops and math.exp only."""
    out = []
    for row in x:
        h = list(row)
        for li, (w, b) in enumerate(zip(model.weights, model.biases)):
            z = []
            for j in range(w.shape[1]):
                s = b[j]
                for i in range(w.shape[0]):
                    s += h[i] * w[i, j]
                z.append(s)
            if li < len(model.weights) - 1:
                h = [max(v, 0.0) for v in z]
            else:
                h = z
        mx = max(h)
        exps = [math.exp(v - mx) for v in h]
        total = sum(exps)
        out.append([e / total for e in exps])
    return np.array(out)


def finite_difference_grads(model, x, y, h=1e-5):
    """Central-difference gradient for every parameter, in the params layout."""
    flat = model.params
    g = np.zeros_like(flat)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        lp, _ = loss_and_grads(model, x, y)
        flat[k] = orig - h
        lm, _ = loss_and_grads(model, x, y)
        flat[k] = orig
        g[k] = (lp - lm) / (2 * h)
    return g


def max_rel_error(analytic, numeric, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def flat_grad(model, w=(), b=()):
    """Gradient vector in the params layout from per-layer pieces (rest zero)."""
    grad = np.zeros_like(model.params)
    grads_w, grads_b = model.layers(grad)
    for dst, src in zip(grads_w, w):
        dst[...] = src
    for dst, src in zip(grads_b, b):
        dst[...] = src
    return grad


def reference_adam(weights, biases, moments, grads_w, grads_b, t, cfg):
    """The per-array Adam loop: every layer's weights, then its biases."""
    b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, cfg.learning_rate
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    for i in range(len(weights)):
        for param, grad, (mom, vel) in (
            (weights[i], grads_w[i], moments["w"][i]),
            (biases[i], grads_b[i], moments["b"][i]),
        ):
            mom *= b1
            mom += (1.0 - b1) * grad
            vel *= b2
            vel += (1.0 - b2) * grad * grad
            param -= lr * (mom / c1) / (np.sqrt(vel / c2) + eps)


def zero_model(input_dim, n_classes, hidden=(4,)):
    return MlpModel([input_dim, *hidden, n_classes])


class TestInit:
    def test_default_architecture_shapes(self):
        m = init_model(768, 5, Rng(7))
        assert [w.shape for w in m.weights] == [(768, 16), (16, 16), (16, 5)]
        assert [b.shape for b in m.biases] == [(16,), (16,), (5,)]
        assert m.t == 0

    def test_same_seed_bit_identical(self):
        a = init_model(10, 3, Rng(4))
        b = init_model(10, 3, Rng(4))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_weight_bound_matches_init_formula(self):
        m = init_model(4, 2, Rng(1))
        for w in m.weights:
            limit = math.sqrt(6.0 / (w.shape[0] + w.shape[1]))
            assert np.max(np.abs(w)) <= limit

    def test_biases_zero(self):
        m = init_model(6, 3, Rng(2))
        assert all(np.all(b == 0) for b in m.biases)

    def test_weights_drawn_layer_by_layer_from_one_stream(self):
        m = init_model(5, 3, Rng(9), hidden=(4,))
        rng = Rng(9)
        for w in m.weights:
            limit = math.sqrt(6.0 / (w.shape[0] + w.shape[1]))
            assert np.array_equal(w.ravel(), rng.uniform(-limit, limit, w.size))
        assert not (m.m.any() or m.v.any())

    def test_new_model_is_zeroed(self):
        m = MlpModel([3, 4, 2])
        assert [w.shape for w in m.weights] == [(3, 4), (4, 2)]
        assert m.params.size == 3 * 4 + 4 * 2 + 4 + 2 and not m.params.any()

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            init_model(4, 1, Rng(0))

    def test_parameters_are_views_of_one_vector(self):
        m = init_model(5, 3, Rng(8), hidden=(4,))
        assert m.n_weights == 5 * 4 + 4 * 3
        assert m.params.size == m.n_weights + 4 + 3
        assert all(np.shares_memory(p, m.params) for p in m.weights + m.biases)
        # all weights (row-major, layer order) first, then all biases
        m.params[:] = np.arange(m.params.size)
        assert m.weights[0][0, 1] == 1.0
        assert m.weights[1][0, 0] == 20.0
        assert m.biases[0][0] == m.n_weights
        m.biases[1][2] = -1.0
        assert m.params[-1] == -1.0


class TestForward:
    def test_zero_model_uniform(self):
        m = zero_model(3, 4)
        p = forward(m, np.ones((5, 3)))
        assert np.allclose(p, 0.25, atol=1e-12)

    def test_equal_logits_half(self):
        m = zero_model(2, 2)
        m.biases[-1][:] = 3.7  # logits (z, z)
        p = forward(m, np.array([[1.0, -1.0]]))
        assert np.allclose(p, [[0.5, 0.5]], atol=1e-12)

    def test_matches_reference_forward(self):
        m = init_model(5, 3, Rng(12), hidden=(4, 4))
        x = Rng(13).uniform(-2, 2, 30).reshape(6, 5)
        assert np.max(np.abs(forward(m, x) - reference_forward(m, x))) < 1e-12

    def test_rows_sum_to_one_large_logits(self):
        m = zero_model(2, 3)
        m.biases[-1][:] = [500.0, -500.0, 0.0]
        p = forward(m, np.ones((4, 2)))
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-9
        assert np.all(p > 0) and np.all(p < 1)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            forward(zero_model(3, 2), np.ones((2, 4)))


class TestLossAndGrads:
    def test_uniform_prediction_loss_is_ln_c(self):
        for c in (2, 3, 5):
            m = zero_model(3, c)
            loss, _ = loss_and_grads(m, np.ones((4, 3)), np.zeros(4, dtype=int))
            assert abs(loss - math.log(c)) < 1e-9

    def test_confident_correct_prediction_loss_near_zero(self):
        m = zero_model(2, 3)
        m.biases[-1][0] = 40.0  # overwhelming logit for the true class
        loss, _ = loss_and_grads(m, np.ones((3, 2)), np.zeros(3, dtype=int))
        assert loss < 1e-9

    def test_label_out_of_range_names_index(self):
        m = zero_model(2, 3)
        with pytest.raises(DataError, match="index 1"):
            loss_and_grads(m, np.ones((3, 2)), np.array([0, 3, 1]))

    def test_gradients_vs_finite_differences(self):
        m = init_model(4, 3, Rng(21), hidden=(5,))
        x = Rng(22).uniform(-1, 1, 32).reshape(8, 4)
        y = np.array([0, 1, 2, 0, 1, 2, 0, 1])
        _, grad = loss_and_grads(m, x, y)
        numeric = finite_difference_grads(m, x, y)
        assert grad.shape == m.params.shape
        assert max_rel_error(grad, numeric) < 1e-4

    def test_gradient_is_fresh_each_call(self):
        m = init_model(4, 3, Rng(23), hidden=(5,))
        x = Rng(24).uniform(-1, 1, 32).reshape(8, 4)
        y = np.array([0, 1, 2, 0, 1, 2, 0, 1])
        _, first = loss_and_grads(m, x, y)
        kept = first.copy()
        _, second = loss_and_grads(m, x[::-1], y)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, m.params)
        assert np.array_equal(first, kept)


class TestAdam:
    def test_zero_grad_keeps_params(self):
        m = init_model(3, 2, Rng(5), hidden=(4,))
        before = [w.copy() for w in m.weights]
        adam_step(m, np.zeros_like(m.params), TrainConfig())
        for w0, w1 in zip(before, m.weights):
            assert np.array_equal(w0, w1)
        assert m.t == 1

    def test_first_step_matches_hand_recurrence(self):
        lr, b1, b2, eps = 0.1, ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
        cfg = TrainConfig(learning_rate=lr)
        m = zero_model(1, 2, hidden=())
        m.weights[0][0, 0] = 0.5
        g = 1.0
        adam_step(m, flat_grad(m, w=[[[g, 0.0]]]), cfg)
        # hand-executed recurrence, one step
        mom = (1 - b1) * g
        vel = (1 - b2) * g * g
        m_hat = mom / (1 - b1)
        v_hat = vel / (1 - b2)
        expected = 0.5 - lr * m_hat / (math.sqrt(v_hat) + eps)
        assert abs(m.weights[0][0, 0] - expected) < 1e-12
        assert abs(expected - 0.4) < 1e-8  # delta is -lr/(1+eps), approx -0.1

    def test_two_steps_match_hand_recurrence(self):
        lr, b1, b2, eps = 0.05, ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
        cfg = TrainConfig(learning_rate=lr)
        m = zero_model(1, 2, hidden=())
        theta = 1.0
        m.weights[0][0, 0] = theta
        mom = vel = 0.0
        for t in (1, 2):
            g = 1.0
            adam_step(m, flat_grad(m, w=[[[g, 0.0]]]), cfg)
            mom = b1 * mom + (1 - b1) * g
            vel = b2 * vel + (1 - b2) * g * g
            theta -= lr * (mom / (1 - b1**t)) / (math.sqrt(vel / (1 - b2**t)) + eps)
        assert abs(m.weights[0][0, 0] - theta) < 1e-12

    def test_identical_models_identical_updates(self):
        cfg = TrainConfig()
        ms = [init_model(3, 2, Rng(6)) for _ in range(2)]
        grad = np.full_like(ms[0].params, 0.01)
        for m in ms:
            adam_step(m, grad, cfg)
        for wa, wb in zip(ms[0].weights, ms[1].weights):
            assert np.array_equal(wa, wb)

    def test_bit_identical_to_per_array_loop(self):
        cfg = TrainConfig(learning_rate=3e-3)
        m = init_model(7, 3, Rng(14), hidden=(5, 4))
        weights = [w.copy() for w in m.weights]
        biases = [b.copy() for b in m.biases]
        moments = {key: [(np.zeros_like(p), np.zeros_like(p)) for p in params]
                   for key, params in (("w", weights), ("b", biases))}
        draws = Rng(15)
        for t in range(1, 6):
            grad = draws.child(t).normal(0.0, 0.5, m.params.size)
            grads_w, grads_b = m.layers(grad)
            reference_adam(weights, biases, moments, grads_w, grads_b, t, cfg)
            adam_step(m, grad, cfg)
            for got, want in zip(m.weights + m.biases, weights + biases):
                assert np.array_equal(got, want)
        moment_w, moment_b = m.layers(m.m)
        assert all(np.array_equal(got, want) for got, (want, _) in
                   zip(moment_w + moment_b, moments["w"] + moments["b"]))
        velocity_w, velocity_b = m.layers(m.v)
        assert all(np.array_equal(got, want) for got, (_, want) in
                   zip(velocity_w + velocity_b, moments["w"] + moments["b"]))

    def test_nan_gradient_names_first_weights(self):
        m = init_model(3, 2, Rng(16), hidden=(4,))
        grad = np.zeros_like(m.params)
        grad[0] = np.nan
        with pytest.raises(NumericError, match=r"weights\[0\] after adam step"):
            adam_step(m, grad, TrainConfig())

    def test_nan_in_later_layer_named(self):
        m = init_model(3, 2, Rng(17), hidden=(4,))
        grads_w = [np.zeros_like(w) for w in m.weights]
        grads_w[1][2, 1] = np.inf  # inf / inf in the step: NaN, which numpy warns about
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match=r"weights\[1\]"):
            adam_step(m, flat_grad(m, w=grads_w), TrainConfig())

    def test_wrong_gradient_shape_rejected(self):
        m = init_model(3, 2, Rng(18), hidden=(4,))
        with pytest.raises(ShapeError):
            adam_step(m, np.zeros(m.params.size - 1), TrainConfig())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=0)
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf])
    def test_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(ConfigError, match="finite"):
            TrainConfig(learning_rate=lr)


def separable_blobs(n_per_class, seed):
    """Two 2-d blobs with a wide margin; verified linearly separable."""
    rng = Rng(seed)
    a = rng.child(0).normal(0.0, 1.0, (n_per_class, 2)) + np.array([4.0, 4.0])
    b = rng.child(1).normal(0.0, 1.0, (n_per_class, 2)) + np.array([-4.0, -4.0])
    x = np.concatenate([a, b])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    order = rng.child(2).permutation(len(y))
    return x[order], y[order]


def scored_fit(monkeypatch, *args):
    """What fit returns, and the per-epoch test accuracies it computed on the way."""
    scores = []

    def recorded(*a):
        scores.append(accuracy(*a))
        return scores[-1]

    monkeypatch.setattr(classifier, "accuracy", recorded)
    return fit(*args), scores


class TestFit:
    def test_learns_separable_blobs(self):
        x, y = separable_blobs(100, seed=31)
        # the midpoint separator x1 + x2 = 0 must already classify perfectly
        hand = (x.sum(axis=1) < 0).astype(int)
        assert np.array_equal(hand, y)
        train_x, train_y = x[:150], y[:150]
        test_x, test_y = x[150:], y[150:]
        m = init_model(2, 2, Rng(32))
        best = fit(m, train_x, train_y, test_x, test_y,
                   TrainConfig(epochs=50, batch_size=16), Rng(33))
        assert best >= 0.95

    def test_single_full_batch_step(self, monkeypatch):
        x, y = separable_blobs(10, seed=41)
        m = init_model(2, 2, Rng(42))
        best, scores = scored_fit(monkeypatch, m, x, y, x, y,
                                  TrainConfig(epochs=1, batch_size=len(y)), Rng(43))
        assert m.t == 1
        assert len(scores) == 1 and best == scores[0]

    def test_deterministic_run_record(self, monkeypatch):
        x, y = separable_blobs(30, seed=51)
        runs = []
        for _ in range(2):
            m = init_model(2, 2, Rng(52))
            runs.append(scored_fit(monkeypatch, m, x, y, x, y, TrainConfig(epochs=5), Rng(53)))
        assert runs[0][1] == runs[1][1]
        assert runs[0][0] == runs[1][0]

    def test_max_is_trace_maximum(self, monkeypatch):
        x, y = separable_blobs(20, seed=61)
        m = init_model(2, 2, Rng(62))
        best, scores = scored_fit(monkeypatch, m, x, y, x, y, TrainConfig(epochs=8), Rng(63))
        assert len(scores) == 8
        assert best == max(scores)
        assert all(0.0 <= a <= 1.0 for a in scores)

    def test_loss_decreases_full_batch(self):
        x, y = separable_blobs(40, seed=71)
        m = init_model(2, 2, Rng(72))
        cfg = TrainConfig(learning_rate=1e-3, batch_size=len(y), epochs=1)
        losses = []
        for _ in range(10):
            loss, grads = loss_and_grads(m, x, y)
            losses.append(loss)
            adam_step(m, grads, cfg)
        upticks = [b - a for a, b in zip(losses, losses[1:]) if b > a]
        assert len(upticks) <= 1
        assert all(u < 1e-3 for u in upticks)

    def test_one_loss_and_adam_call_per_batch(self, monkeypatch):
        calls = {"loss_and_grads": 0, "adam_step": 0}
        for name in calls:
            def counted(*args, _real=getattr(classifier, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(classifier, name, counted)
        x, y = separable_blobs(25, seed=101)  # 50 samples
        fit(init_model(2, 2, Rng(102)), x, y, x, y,
            TrainConfig(epochs=3, batch_size=16), Rng(103))
        batches = 3 * math.ceil(50 / 16)
        assert calls == {"loss_and_grads": batches, "adam_step": batches}

    def test_one_accuracy_call_per_epoch_with_a_test_set(self, monkeypatch):
        x, y = separable_blobs(10, seed=111)
        best, scores = scored_fit(monkeypatch, init_model(2, 2, Rng(112)), x, y, x, y,
                                  TrainConfig(epochs=4), Rng(113))
        assert len(scores) == 4 and best == max(scores)

    def test_without_test_set_only_trains(self, monkeypatch):
        x, y = separable_blobs(20, seed=121)
        cfg = TrainConfig(epochs=4, batch_size=8)
        scored = init_model(2, 2, Rng(122))
        fit(scored, x, y, x, y, cfg, Rng(123))
        calls = []
        monkeypatch.setattr(classifier, "accuracy", lambda *a: calls.append(a))
        trained = init_model(2, 2, Rng(122))
        assert fit(trained, x, y, None, None, cfg, Rng(123)) is None
        assert calls == []
        # scoring reads the model and draws nothing, so training is unchanged
        assert trained.t == scored.t
        for got, want in ((trained.params, scored.params), (trained.m, scored.m),
                          (trained.v, scored.v)):
            assert np.array_equal(got, want)

    def test_empty_train_rejected(self):
        m = init_model(2, 2, Rng(1))
        with pytest.raises(ValueError):
            fit(m, np.zeros((0, 2)), np.zeros(0, dtype=int), np.ones((1, 2)),
                np.zeros(1, dtype=int), TrainConfig(epochs=1), Rng(2))


class TestPredict:
    def test_argmax_and_confidence(self):
        m = zero_model(2, 3)
        m.biases[-1][:] = np.log([0.1, 0.7, 0.2])
        labels, conf = predict(m, np.ones((1, 2)))
        assert labels[0] == 1
        assert abs(conf[0] - 0.7) < 1e-12

    def test_tie_breaks_to_lowest_class(self):
        m = zero_model(2, 2)
        labels, conf = predict(m, np.ones((3, 2)))
        assert np.all(labels == 0)
        assert np.allclose(conf, 0.5)

    def test_batch_order_preserved(self):
        m = init_model(3, 4, Rng(81))
        x = Rng(82).uniform(-1, 1, 30).reshape(10, 3)
        labels, conf = predict(m, x)
        assert len(labels) == len(conf) == 10
        for i in range(10):
            li, ci = predict(m, x[i : i + 1])
            assert li[0] == labels[i]
            assert math.isclose(ci[0], conf[i], rel_tol=1e-12)

    def test_accuracy_helper(self):
        m = zero_model(2, 2)
        m.biases[-1][0] = 5.0
        assert accuracy(m, np.ones((4, 2)), np.zeros(4, dtype=int)) == 1.0


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: TrainConfig(batch_size=0), ConfigError, "batch_size must be >= 1, got 0"),
    (lambda: init_model(0, 2, Rng(1)), ValueError, "input_dim must be >= 1, got 0"),
    (lambda: fit(init_model(2, 2, Rng(1)), np.eye(2), [0, 1], np.ones((0, 2)), [],
                 TrainConfig(epochs=1), Rng(2)), ValueError, "fit needs a nonempty test set"),
], ids=["batch_size-0", "input_dim-0", "empty-test-set"])
def test_invalid_argument_rejected(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
