"""Feed-forward classifier: input -> 16 -> 16 -> C, ReLU hidden, softmax out.

Training is plain mini-batch cross-entropy with the Adam update rule,
implemented directly on numpy arrays. Given a test set, ``fit`` scores it
after every epoch and returns the best epoch's test accuracy; without one it
only trains.

Parameter layout: a model keeps all of its parameters in one contiguous
float64 vector, ``params``. It holds every layer's weight matrix in layer
order (each row-major, fan_in x fan_out), then every bias vector in the same
order; ``weights[i]`` and ``biases[i]`` are writable views into it. The Adam
moments ``m``/``v`` and the gradient that ``loss_and_grads`` returns are
vectors of the same layout, so an Adam step is a few whole-vector
operations, and the finiteness check after it reads one leading segment,
``params[:n_weights]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .numerics import Rng, check_finite

DEFAULT_HIDDEN = (16, 16)
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8  # Kingma & Ba (2015)


@dataclass(frozen=True)
class TrainConfig:
    """Step size and schedule of one fit call; Adam's betas and epsilon are fixed."""

    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 100

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")


class MlpModel:
    """One flat parameter vector with per-layer views, plus Adam state.

    ``params`` starts zeroed; ``weights[i]``/``biases[i]`` are writable views
    into it, and ``m``/``v`` are the Adam moments in the same layout.
    """

    def __init__(self, layer_dims):
        self.layer_dims = [int(d) for d in layer_dims]
        shapes = list(zip(self.layer_dims[:-1], self.layer_dims[1:]))
        self.n_weights = sum(a * b for a, b in shapes)
        self.params = np.zeros(self.n_weights + sum(b for _, b in shapes))
        self.weights, self.biases = self.layers(self.params)
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)
        self._scratch = (np.empty_like(self.params), np.empty_like(self.params))
        self.t = 0

    def layers(self, flat):
        """(weights, biases): per-layer views into a vector of the params layout."""
        weights, biases = [], []
        w_at, b_at = 0, self.n_weights
        for fan_in, fan_out in zip(self.layer_dims[:-1], self.layer_dims[1:]):
            weights.append(flat[w_at : w_at + fan_in * fan_out].reshape(fan_in, fan_out))
            biases.append(flat[b_at : b_at + fan_out])
            w_at += fan_in * fan_out
            b_at += fan_out
        return weights, biases

    @property
    def input_dim(self):
        return self.layer_dims[0]

    @property
    def n_classes(self):
        return self.layer_dims[-1]


def init_model(input_dim, n_classes, rng: Rng, hidden=DEFAULT_HIDDEN):
    """Fresh model with Glorot-uniform weights and zero biases.

    Weights for a (fan_in, fan_out) layer are drawn uniformly from
    +/- sqrt(6 / (fan_in + fan_out)); Adam state starts zeroed at t=0.
    """
    if n_classes < 2:
        raise ValueError(f"need at least 2 classes, got {n_classes}")
    if input_dim < 1:
        raise ValueError(f"input_dim must be >= 1, got {input_dim}")
    m = MlpModel([int(input_dim)] + [int(h) for h in hidden] + [int(n_classes)])
    for w in m.weights:
        limit = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-limit, limit, w.shape)
    return m


def _forward_cached(m: MlpModel, x):
    """Forward pass keeping pre/post activations for backprop."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != m.input_dim:
        raise ShapeError(f"input shape {x.shape} incompatible with input_dim={m.input_dim}")
    acts = [x]
    pre = []
    h = x
    last = len(m.weights) - 1
    for i, (w, b) in enumerate(zip(m.weights, m.biases)):
        z = h @ w
        z += b
        pre.append(z)
        h = z if i == last else np.maximum(z, 0.0)
        acts.append(h)
    probs = _softmax(pre[-1])
    return probs, pre, acts


_BELOW_ONE = np.nextafter(1.0, 0.0)


def _softmax(logits):
    # max-subtraction keeps exp() in range for logits up to +/- ~700;
    # the clip keeps every probability strictly inside (0, 1) even when a
    # logit gap is wide enough to underflow (sum error stays << 1e-9)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    np.maximum(p, 1e-300, out=p)
    return np.minimum(p, _BELOW_ONE, out=p)


def forward(m: MlpModel, x):
    """Class-probability matrix; each row sums to 1."""
    probs, _, _ = _forward_cached(m, x)
    return probs


def loss_and_grads(m: MlpModel, x, y):
    """Mean cross-entropy over the batch and its gradient.

    Returns (loss, grad) where grad is a fresh vector in the model's
    ``params`` layout.
    """
    y = np.asarray(y)
    bad = np.where((y < 0) | (y >= m.n_classes))[0]
    if bad.size:
        raise DataError(f"label {y[bad[0]]} out of range at sample index {bad[0]}")
    probs, pre, acts = _forward_cached(m, x)
    n = x.shape[0]
    picked = np.maximum(probs[np.arange(n), y], 1e-12)
    loss = float(-(np.log(picked).sum() / n))

    # softmax + cross-entropy gradient, then backprop through ReLU layers
    delta = probs - np.eye(m.n_classes)[y]
    delta /= n
    grad = np.empty_like(m.params)
    grads_w, grads_b = m.layers(grad)
    for i in range(len(m.weights) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=grads_w[i])
        np.add.reduce(delta, axis=0, out=grads_b[i])
        if i > 0:
            delta = delta @ m.weights[i].T
            delta *= pre[i - 1] > 0
    return loss, grad


def adam_step(m: MlpModel, grad, cfg: TrainConfig):
    """One Adam update of the whole parameter vector in place.

    ``grad`` is a vector in the ``params`` layout. t is incremented before
    bias correction. Raises NumericError naming the first weight matrix that
    the step left non-finite.
    """
    if np.shape(grad) != m.params.shape:
        raise ShapeError(f"gradient of shape {np.shape(grad)} for {m.params.size} parameters")
    m.t += 1
    b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON, cfg.learning_rate
    c1 = 1.0 - b1 ** m.t
    c2 = 1.0 - b2 ** m.t
    # operand for operand the recurrence m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*g*g,
    # params -= lr * (m / c1) / (sqrt(v / c2) + eps), so the results keep every bit
    step, denom = m._scratch
    m.m *= b1
    m.m += np.multiply(grad, 1.0 - b1, out=step)
    m.v *= b2
    np.multiply(grad, 1.0 - b2, out=step)
    m.v += np.multiply(step, grad, out=step)
    np.sqrt(np.divide(m.v, c2, out=denom), out=denom)
    denom += eps
    np.divide(m.m, c1, out=step)
    step *= lr
    m.params -= np.divide(step, denom, out=step)
    if not np.isfinite(m.params[: m.n_weights]).all():
        for i, w in enumerate(m.weights):
            check_finite(w, f"weights[{i}] after adam step")
    return m


def predict(m: MlpModel, x):
    """(labels, confidences): argmax class per row and its probability.

    Ties resolve to the lowest class index.
    """
    probs = forward(m, x)
    labels = probs.argmax(axis=1)
    conf = probs[np.arange(len(labels)), labels]
    return labels, conf


def accuracy(m: MlpModel, x, y):
    labels, _ = predict(m, x)
    return float(np.mean(labels == np.asarray(y)))


def fit(m: MlpModel, train_x, train_y, test_x, test_y, cfg: TrainConfig, rng: Rng):
    """Shuffled mini-batch training, scoring the test set after every epoch.

    Advances the model in place (optimizer moments persist), so successive
    calls warm-start from the previous state; callers wanting a fresh model
    call init_model first. Returns the best epoch's test accuracy; with
    ``test_x`` None it only trains and returns None.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y)
    n = train_x.shape[0]
    if n == 0:
        raise ValueError("fit needs a nonempty training set")
    scored = test_x is not None
    if scored and len(test_y) == 0:
        raise ValueError("fit needs a nonempty test set")
    # batches are gathered one at a time: a shuffled copy of the whole set
    # per epoch made fit about 20% slower at 768 columns
    scores = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            _, grad = loss_and_grads(m, train_x[idx], train_y[idx])
            adam_step(m, grad, cfg)
        if scored:
            scores.append(accuracy(m, test_x, test_y))
    return max(scores) if scored else None
