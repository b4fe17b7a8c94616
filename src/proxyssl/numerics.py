"""Finiteness check and deterministic seeded random streams.

Random streams are backed by NumPy's Philox4x64-10 counter-based generator,
keyed through ``numpy.random.SeedSequence(seed, spawn_key=path)``. The
(seed, path) pair fully determines the stream, so identical seeds reproduce
identical experiments bit-for-bit and child streams derived from distinct
stream ids never alias each other.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import NumericError


def check_finite(arr, what="array"):
    """Raise NumericError if ``arr`` contains NaN or Inf."""
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {what}")
    return arr


class Rng:
    """Deterministic random stream: Philox4x64-10 under a (seed, path) key.

    ``child(stream_id)`` derives an independent, reproducible stream by
    appending ``stream_id`` to the spawn path; the parent's draw state is
    never consumed by derivation, so children can be created in any order.
    A stream instance is single-owner: share seeds, not instances.
    """

    def __init__(self, seed, _path=()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in _path)
        if self.seed < 0 or any(p < 0 for p in self.path):
            raise ValueError(f"seed and stream ids must be >= 0, got {self!r}")

    @cached_property
    def _gen(self):
        # built on first draw: intermediate streams such as rng.child(it) often
        # only derive children and never draw
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(seq))

    def child(self, stream_id):
        return Rng(self.seed, self.path + (int(stream_id),))

    def uniform(self, lo, hi, n=None):
        """n draws (scalar count or shape tuple) in [lo, hi); requires lo < hi."""
        if not lo < hi:
            raise ValueError(f"uniform needs lo < hi, got lo={lo} hi={hi}")
        if n is None:
            return float(self._gen.uniform(lo, hi))
        return self._gen.uniform(lo, hi, n)

    def normal(self, mu, sigma, n=None):
        return self._gen.normal(mu, sigma, n)

    def permutation(self, n):
        return self._gen.permutation(int(n))

    def choice(self, n, size, replace=True):
        return self._gen.choice(int(n), size=int(size), replace=replace)

    def __repr__(self):
        return f"Rng(seed={self.seed}, path={self.path})"
