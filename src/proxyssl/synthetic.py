"""Synthetic Gaussian-blob datasets for demos and end-to-end testing.

Class means are random directions scaled to a fixed norm; samples add
unit-variance isotropic noise, so ``separation`` directly controls class
overlap (larger = easier). Classes are balanced up to a remainder.
"""

from __future__ import annotations

import numpy as np

from .dataset import Dataset
from .numerics import Rng


def make_blobs(name, n, d, n_classes, separation, seed):
    """Balanced n-sample, d-dim, n_classes-way Gaussian-blob Dataset."""
    if n < n_classes:
        raise ValueError(f"need n >= n_classes, got n={n} n_classes={n_classes}")
    rng = Rng(seed)
    means = rng.normal(0.0, 1.0, (n_classes, d))
    means *= separation / np.linalg.norm(means, axis=1, keepdims=True)

    counts = [n // n_classes] * n_classes
    for c in range(n % n_classes):
        counts[c] += 1
    labels = np.repeat(np.arange(n_classes), counts)
    noise = rng.child(1).normal(0.0, 1.0, (n, d))
    features = means[labels] + noise
    # fixed shuffle so class blocks are interleaved like a real corpus
    order = rng.child(2).permutation(n)
    return Dataset(name=name, features=features[order], labels=labels[order])
