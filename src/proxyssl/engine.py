"""The five proxy-label algorithms over a labeled/unlabeled/test split.

Abbreviations used throughout: TBST (threshold-based self-training), CBST
(count-based self-training), CT (co-training), TT (tri-training), TTWD
(tri-training with disagreement).

All five are one loop, ``run_algorithm``: fit K models, predict the
unlabeled pool U, give each model a pseudo-label batch, retrain each on the
labeled pool D plus its batch, repeat until a stop rule fires or
``max_iterations`` is reached; at 0 a run scores its initial fit alone
(``SUPERVISED`` is TBST at 0). Only these differ per algorithm:

- views: one full-width model (TBST/CBST), two models on the two feature
  halves (CT), three full-width models (TT/TTWD);
- initial samples: D, or a bootstrap sample of D per model (TT/TTWD);
- selection: a confidence band (TBST), a confidence-rank window (CBST),
  the samples only the peer is confident about (CT), the two peers'
  agreement (TT; TTWD also requires the receiver to disagree);
- stop rule: the previous batch covered U (TBST/CBST), every batch is empty
  (CT), the batches repeat the previous ones (TT/TTWD);
- evaluation: best epoch of any model; with ``eval_mode="ensemble"``, the
  mean-probability argmax of two models or the majority vote of three.
  Only the first reads per-epoch scores, so only it passes ``fit`` a test
  set.

Batches are rebuilt from all of U every iteration; samples are never
removed from U. Warm start (continuing from the previous iteration's
parameters and optimizer state) is the default; the fresh-model switch
re-initializes before each retraining instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import TrainConfig, fit, forward, init_model, predict
from .dataset import SAMPLING_MODES, Dataset, SemiSplit, bootstrap_sample, split_features
from .errors import ConfigError

ALGORITHMS = ("TBST", "CBST", "CT", "TT", "TTWD")
EVAL_MODES = ("ensemble", "best_single")
_SELF_TRAINING = ("TBST", "CBST")
TRI_TRAINING = ("TT", "TTWD")  # the algorithms whose models start from bootstrap samples

# engine-internal child-stream ids
_STREAM_BOOTSTRAP = 90


@dataclass(frozen=True)
class SslConfig:
    algorithm: str
    tau1: float = 0.9
    tau2: float = 1.0
    count_lo: int = 0
    count_hi: int = 100
    max_iterations: int = 20
    fresh_model_each_iteration: bool = False
    sampling: str = "x:norepl"  # a key of dataset.SAMPLING_MODES (TT/TTWD)
    eval_mode: str = "ensemble"

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}, expected one of {ALGORITHMS}")
        if not (0.0 <= self.tau1 < self.tau2 <= 1.0):
            raise ConfigError(f"need 0 <= tau1 < tau2 <= 1, got tau1={self.tau1} tau2={self.tau2}")
        if not (0 <= self.count_lo < self.count_hi):
            raise ConfigError(f"need 0 <= count_lo < count_hi, got {self.count_lo}, {self.count_hi}")
        if self.max_iterations < 0:
            raise ConfigError(f"max_iterations must be >= 0, got {self.max_iterations}")
        if self.eval_mode not in EVAL_MODES:
            raise ConfigError(f"unknown eval_mode {self.eval_mode!r}, expected one of {EVAL_MODES}")
        if self.sampling not in SAMPLING_MODES:
            raise ConfigError(f"unknown sampling mode {self.sampling!r}, "
                              f"expected one of {', '.join(SAMPLING_MODES)}")


# the labeled-only baseline: self-training stopped before its first pseudo-label iteration
SUPERVISED = SslConfig("TBST", max_iterations=0)


@dataclass
class PseudoLabelBatch:
    """Selected positions into U and their assigned labels."""

    indices: np.ndarray
    labels: np.ndarray

    def __len__(self):
        return len(self.indices)

    def same_as(self, other):
        return (
            other is not None
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.labels, other.labels)
        )


@dataclass
class SslOutcome:
    """Accuracy trace over iteration boundaries plus per-iteration batch sizes.

    ``iteration_accuracy[0]`` is the initial training; each later entry is
    one pseudo-label iteration. ``pseudo_label_counts[k][s]`` is the size of
    the batch that model ``s`` received and trained on in iteration k+1.
    """

    iteration_accuracy: list[float]
    pseudo_label_counts: list[list[int]]

    @property
    def max_test_accuracy(self):
        return max(self.iteration_accuracy)

    @property
    def iterations_run(self):
        return len(self.pseudo_label_counts)


def select_by_threshold(conf, labels, tau1, tau2):
    """Samples whose confidence lies strictly inside (tau1, tau2)."""
    conf = np.asarray(conf)
    idx = np.where((conf > tau1) & (conf < tau2))[0]
    return PseudoLabelBatch(idx, np.asarray(labels)[idx])


def select_by_count(conf, labels, count_lo, count_hi):
    """Samples ranked [count_lo, count_hi) by descending confidence.

    Ties are broken by sample position ascending; a window reaching past the
    pool is truncated to the pool size.
    """
    conf = np.asarray(conf)
    order = np.argsort(-conf, kind="stable")
    idx = np.sort(order[count_lo:count_hi])
    return PseudoLabelBatch(idx, np.asarray(labels)[idx])


def tri_training_batches(preds, disagreement):
    """Per-model pseudo-label batches from three label vectors over U.

    Model i receives the samples where the other two models agree; with
    ``disagreement`` set, only if model i itself predicts differently.
    """
    batches = []
    for i in range(3):
        j, k = [o for o in range(3) if o != i]
        mask = preds[j] == preds[k]
        if disagreement:
            mask = mask & (preds[i] != preds[j])
        idx = np.where(mask)[0]
        batches.append(PseudoLabelBatch(idx, preds[j][idx]))
    return batches


def co_training_batches(labels, confs, tau):
    """Per-model pseudo-label batches from the two co-training views.

    Model i receives the samples whose confidence exceeds ``tau`` under its
    peer only, labeled by that peer.
    """
    batches = []
    for i in range(2):
        j = 1 - i
        idx = np.where((confs[j] > tau) & (confs[i] < tau))[0]
        batches.append(PseudoLabelBatch(idx, labels[j][idx]))
    return batches


def majority_vote(preds, probs):
    """Modal label of three predictions per sample.

    A three-way split falls back to the candidate label with the highest
    probability summed across the models, then the lowest class index.
    """
    a, b, c = (np.asarray(p, dtype=np.int64) for p in preds)
    # a when it has a partner, else c: that is b's label whenever b == c
    out = np.where((a == b) | (a == c), a, c)
    split = np.flatnonzero((a != b) & (a != c) & (b != c))
    if split.size:
        summed = probs[0][split] + probs[1][split] + probs[2][split]
        cands = np.sort(np.stack([a[split], b[split], c[split]], axis=1), axis=1)
        # argmax takes the first maximum, so the lowest label wins a tie
        best = np.take_along_axis(summed, cands, axis=1).argmax(axis=1)
        out[split] = cands[np.arange(split.size), best]
    return out


def run_supervised(ds: Dataset, split: SemiSplit, train_cfg: TrainConfig, rng):
    """Labeled-only baseline: ``SUPERVISED``, one model fit on D, U ignored.

    Rate-0 splits make this the fully-labeled upper-bound condition.
    """
    return run_algorithm(ds, split, SUPERVISED, train_cfg, rng)


def _views(ds: Dataset, cfg: SslConfig):
    """Column range per model: one or three full-width models, or CT's halves."""
    if cfg.algorithm == "CT":
        return list(split_features(ds))
    return [(0, ds.d)] * (1 if cfg.algorithm in _SELF_TRAINING else 3)


def _select(cfg: SslConfig, models, views, u_x):
    """Predict U with every model; one pseudo-label batch per receiving model."""
    labels, confs = zip(*(predict(m, u_x[:, lo:hi]) for m, (lo, hi) in zip(models, views)))
    if cfg.algorithm == "TBST":
        return [select_by_threshold(confs[0], labels[0], cfg.tau1, cfg.tau2)]
    if cfg.algorithm == "CBST":
        return [select_by_count(confs[0], labels[0], cfg.count_lo, cfg.count_hi)]
    if cfg.algorithm == "CT":
        return co_training_batches(labels, confs, cfg.tau1)
    return tri_training_batches(labels, cfg.algorithm == "TTWD")


def _stop(cfg: SslConfig, batches, prev, n_unlabeled):
    """Stop rule, checked on fresh batches before retraining on them."""
    if cfg.algorithm in _SELF_TRAINING:
        return prev is not None and len(prev[0]) == n_unlabeled
    if cfg.algorithm == "CT":
        return all(len(b) == 0 for b in batches)
    return prev is not None and all(b.same_as(p) for b, p in zip(batches, prev))


def _ensemble_accuracy(models, views, test_x, test_y):
    """Test accuracy of two models' mean probabilities, or three models' majority vote."""
    probs = [forward(m, test_x[:, lo:hi]) for m, (lo, hi) in zip(models, views)]
    if len(models) == 2:
        voted = (sum(probs) / 2).argmax(axis=1)
    else:
        voted = majority_vote([p.argmax(axis=1) for p in probs], probs)
    return float(np.mean(voted == test_y))


def run_algorithm(ds: Dataset, split: SemiSplit, cfg: SslConfig, train_cfg: TrainConfig, rng):
    """One SSL run: fit every model, then pseudo-label U until a stop rule fires.

    Model ``s`` of iteration ``it`` draws its initialization from
    ``rng.child(it).child(s).child(0)`` and its training order from
    ``.child(1)``. An empty U runs ``SUPERVISED`` in place of ``cfg``.
    """
    if len(split.unlabeled_idx) == 0:
        cfg = SUPERVISED

    views = _views(ds, cfg)
    d_x, d_y = ds.features[split.labeled_idx], ds.labels[split.labeled_idx]
    u_x = ds.features[split.unlabeled_idx]
    test_x, test_y = ds.features[split.test_idx], ds.labels[split.test_idx]
    if cfg.algorithm in TRI_TRAINING:
        boot_rng = rng.child(_STREAM_BOOTSTRAP)
        samples = (bootstrap_sample(split.labeled_idx, cfg.sampling, s, boot_rng) for s in range(3))
        initial = ((ds.features[i], ds.labels[i]) for i in samples)
    else:
        initial = [(d_x, d_y)] * len(views)

    models = [None] * len(views)
    # the best epoch of any model is the score, or else the ensemble's accuracy
    best_epoch = len(views) == 1 or cfg.eval_mode == "best_single"

    def train(it, train_sets):
        scores = []
        for s, ((lo, hi), (x, y)) in enumerate(zip(views, train_sets)):
            if models[s] is None or cfg.fresh_model_each_iteration:
                models[s] = init_model(hi - lo, ds.n_classes, rng.child(it).child(s).child(0))
            test = (test_x[:, lo:hi], test_y) if best_epoch else (None, None)
            scores.append(fit(models[s], x[:, lo:hi], y, *test,
                              train_cfg, rng.child(it).child(s).child(1)))
        if best_epoch:
            return max(scores)
        return _ensemble_accuracy(models, views, test_x, test_y)

    trace, counts, prev = [train(0, initial)], [], None
    for it in range(1, cfg.max_iterations + 1):
        batches = _select(cfg, models, views, u_x)
        if _stop(cfg, batches, prev, len(u_x)):
            break
        # batch rows are taken from U's own matrix, so a test row cannot be pseudo-labeled
        trace.append(train(it, ((np.concatenate([d_x, u_x[b.indices]]),
                                 np.concatenate([d_y, b.labels])) for b in batches)))
        counts.append([len(b) for b in batches])
        prev = batches
    return SslOutcome(trace, counts)
