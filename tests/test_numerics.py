import numpy as np
import pytest

from proxyssl.numerics import Rng


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42).uniform(0, 1, 100)
        b = Rng(42).uniform(0, 1, 100)
        assert np.array_equal(a, b)

    def test_uniform_mean(self):
        draws = Rng(7).uniform(0, 1, 10000)
        assert abs(draws.mean() - 0.5) < 0.02
        assert draws.min() >= 0 and draws.max() < 1

    def test_uniform_empty(self):
        assert len(Rng(1).uniform(0, 1, 0)) == 0

    def test_uniform_bad_bounds(self):
        with pytest.raises(ValueError):
            Rng(1).uniform(1.0, 1.0, 5)

    def test_child_streams_reproducible(self):
        a = Rng(9).child(4).uniform(0, 1, 10)
        b = Rng(9).child(4).uniform(0, 1, 10)
        assert np.array_equal(a, b)

    def test_child_derivation_is_stateless(self):
        root = Rng(9)
        first = root.child(2).uniform(0, 1, 5)
        root.uniform(0, 1, 100)  # consume parent state
        again = root.child(2).uniform(0, 1, 5)
        assert np.array_equal(first, again)

    def test_distinct_streams_share_no_outputs(self):
        a = set(Rng(13).child(1).raw64(10_000).tolist())
        b = set(Rng(13).child(2).raw64(10_000).tolist())
        assert not (a & b)

    def test_stream_is_philox_under_seed_sequence(self):
        # the generator is built on first draw; the stream must not depend on when
        want = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(5, spawn_key=(2, 3)))).uniform(0, 1, 8)
        stream = Rng(5).child(2).child(3)
        assert np.array_equal(stream.uniform(0, 1, 4), want[:4])
        assert np.array_equal(stream.uniform(0, 1, 4), want[4:])

    def test_negative_seed_or_stream_id_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Rng(-1)
        with pytest.raises(ValueError):
            Rng(3).child(-2)

    def test_nested_children_differ(self):
        a = Rng(3).child(1).child(2).uniform(0, 1, 5)
        b = Rng(3).child(2).child(1).uniform(0, 1, 5)
        assert not np.array_equal(a, b)
