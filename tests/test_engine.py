import itertools
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from proxyssl import classifier, engine
from proxyssl.classifier import TrainConfig, fit, init_model
from proxyssl.dataset import make_semi_split
from proxyssl.engine import (
    ALGORITHMS,
    SUPERVISED,
    SslConfig,
    majority_vote,
    run_algorithm,
    run_supervised,
    select_by_count,
    select_by_threshold,
    tri_training_batches,
)
from proxyssl.errors import ConfigError
from proxyssl.numerics import Rng
from proxyssl.synthetic import make_blobs

FAST = TrainConfig(epochs=3, batch_size=32)


def blob_split(seed=1, rate=0.9, n=240, n_classes=3, separation=4.0):
    ds = make_blobs("blob", n=n, d=8, n_classes=n_classes, separation=separation, seed=seed)
    split = make_semi_split(ds, rate, fold=0, n_folds=3, rng=Rng(seed + 100))
    return ds, split


class TestSelectByThreshold:
    def test_band_selection(self):
        batch = select_by_threshold(np.array([0.95, 0.85, 0.50]), np.array([2, 1, 0]), 0.9, 1.0)
        assert batch.indices.tolist() == [0]
        assert batch.labels.tolist() == [2]

    def test_strict_on_both_sides(self):
        conf = np.array([0.7, 0.75, 0.8])
        batch = select_by_threshold(conf, np.zeros(3, dtype=int), 0.7, 0.8)
        assert batch.indices.tolist() == [1]

    def test_equal_thresholds_rejected_at_config(self):
        with pytest.raises(ConfigError):
            SslConfig("TBST", tau1=0.9, tau2=0.9)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(77)
        for trial in range(50):
            conf = rng.uniform(0, 1, 40)
            labels = rng.integers(0, 4, 40)
            t1 = float(rng.uniform(0, 0.9))
            t2 = float(rng.uniform(t1 + 1e-6, 1.0))
            got = select_by_threshold(conf, labels, t1, t2).indices.tolist()
            want = [i for i in range(40) if t1 < conf[i] < t2]
            assert got == want

    def test_wider_band_is_superset(self):
        conf = Rng(78).uniform(0, 1, 200)
        labels = np.zeros(200, dtype=int)
        wide = set(select_by_threshold(conf, labels, 0.6, 1.0).indices.tolist())
        narrow = set(select_by_threshold(conf, labels, 0.6, 0.8).indices.tolist())
        assert narrow <= wide


class TestSelectByCount:
    def test_top_hundred(self):
        conf = Rng(79).uniform(0, 1, 500)
        batch = select_by_count(conf, np.zeros(500, dtype=int), 0, 100)
        cutoff = np.sort(conf)[::-1][99]
        assert len(batch) == 100
        assert np.all(conf[batch.indices] >= cutoff)

    def test_middle_window(self):
        conf = np.arange(10, dtype=float) / 10  # distinct, ascending
        batch = select_by_count(conf, np.arange(10), 2, 5)
        # descending order is 9,8,...; ranks 2..4 are samples 7,6,5
        assert sorted(batch.indices.tolist()) == [5, 6, 7]

    def test_truncates_to_pool(self):
        conf = Rng(80).uniform(0, 1, 50)
        batch = select_by_count(conf, np.zeros(50, dtype=int), 0, 100)
        assert len(batch) == 50

    def test_ties_break_by_position(self):
        conf = np.array([0.5, 0.9, 0.5, 0.9, 0.5])
        batch = select_by_count(conf, np.arange(5), 0, 3)
        assert sorted(batch.indices.tolist()) == [0, 1, 3]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(81)
        for trial in range(50):
            n = int(rng.integers(5, 60))
            conf = np.round(rng.uniform(0, 1, n), 2)  # ties likely
            lo = int(rng.integers(0, n))
            hi = lo + 1 + int(rng.integers(0, n))
            got = select_by_count(conf, np.zeros(n, dtype=int), lo, hi).indices.tolist()
            ranked = sorted(range(n), key=lambda i: (-conf[i], i))
            want = sorted(ranked[lo:hi])
            assert got == want


class TestTriTrainingPredicates:
    def test_two_agree_third_differs(self):
        preds = [np.array([0]), np.array([0]), np.array([1])]
        tt = tri_training_batches(preds, disagreement=False)
        ttwd = tri_training_batches(preds, disagreement=True)
        assert len(tt[2]) == 1 and len(ttwd[2]) == 1  # model 3 taught either way
        assert tt[2].labels.tolist() == [0]

    def test_unanimous_only_plain_tt(self):
        preds = [np.array([2]), np.array([2]), np.array([2])]
        tt = tri_training_batches(preds, disagreement=False)
        ttwd = tri_training_batches(preds, disagreement=True)
        assert all(len(b) == 1 for b in tt)
        assert all(len(b) == 0 for b in ttwd)

    def test_all_27_triples_match_brute_force(self):
        for a, b, c in itertools.product(range(3), repeat=3):
            preds = [np.array([a]), np.array([b]), np.array([c])]
            tt = tri_training_batches(preds, disagreement=False)
            ttwd = tri_training_batches(preds, disagreement=True)
            p = [a, b, c]
            for i in range(3):
                j, k = [o for o in range(3) if o != i]
                agrees = p[j] == p[k]
                assert (len(tt[i]) == 1) == agrees
                assert (len(ttwd[i]) == 1) == (agrees and p[i] != p[k])
                if len(ttwd[i]):
                    assert set(ttwd[i].indices.tolist()) <= set(tt[i].indices.tolist())


class TestMajorityVote:
    def uniform_probs(self, n, c=3):
        return [np.full((n, c), 1.0 / c) for _ in range(3)]

    def test_two_to_one(self):
        preds = [np.array([0]), np.array([0]), np.array([1])]
        assert majority_vote(preds, self.uniform_probs(1)).tolist() == [0]

    def test_three_way_tie_uses_summed_probability(self):
        preds = [np.array([0]), np.array([1]), np.array([2])]
        probs = [np.array([[0.4, 0.3, 0.3]]),
                 np.array([[0.1, 0.6, 0.3]]),
                 np.array([[0.2, 0.3, 0.5]])]
        # summed: class 0 -> 0.7, class 1 -> 1.2, class 2 -> 1.1
        assert majority_vote(preds, probs).tolist() == [1]

    def test_three_way_tie_equal_sums_lowest_class(self):
        preds = [np.array([2]), np.array([0]), np.array([1])]
        assert majority_vote(preds, self.uniform_probs(1)).tolist() == [0]

    def test_unanimous(self):
        preds = [np.array([1, 2]), np.array([1, 2]), np.array([1, 2])]
        assert majority_vote(preds, self.uniform_probs(2)).tolist() == [1, 2]

    def test_matches_brute_force_oracle(self):
        rng = Rng(55)
        n = 27
        triples = list(itertools.product(range(3), repeat=3))
        preds = [np.array([t[i] for t in triples]) for i in range(3)]
        probs = [rng.uniform(0, 1, (n, 3)) for _ in range(3)]
        got = majority_vote(preds, probs)
        for s, (a, b, c) in enumerate(triples):
            votes = [a, b, c]
            counts = {v: votes.count(v) for v in set(votes)}
            top = max(counts.values())
            cands = sorted(v for v, k in counts.items() if k == top)
            if len(cands) == 1:
                want = cands[0]
            else:
                summed = probs[0][s] + probs[1][s] + probs[2][s]
                best = max(summed[v] for v in cands)
                want = min(v for v in cands if summed[v] == best)
            assert got[s] == want

    @staticmethod
    def loop_oracle(preds, probs):
        """The per-sample loop that majority_vote replaced, kept as its oracle."""
        p = np.stack(preds)
        summed = probs[0] + probs[1] + probs[2]
        out = np.empty(p.shape[1], dtype=np.int64)
        for s in range(p.shape[1]):
            a, b, c = p[0, s], p[1, s], p[2, s]
            if a == b or a == c:
                out[s] = a
            elif b == c:
                out[s] = b
            else:
                cands = sorted({a, b, c})
                out[s] = max(cands, key=lambda lbl: (summed[s, lbl], -lbl))
        return out

    def test_matches_loop_oracle_randomized(self):
        for trial in range(200):
            r = np.random.default_rng([57, trial])
            n, c = int(r.integers(0, 40)), int(r.integers(3, 7))
            preds = [r.integers(0, c, n) for _ in range(3)]
            # force three-way splits on a share of the rows
            split = r.uniform(0, 1, n) < 0.4
            three = r.permutation(c)[:3]
            for i in range(3):
                preds[i][split] = three[i]
            # coarse probabilities make equal summed scores (ties) common
            probs = [np.round(r.uniform(0, 1, (n, c)), 1) for _ in range(3)]
            if trial % 4 == 0:
                probs = [np.full((n, c), 1.0 / c)] * 3  # every split is a tie
            got = majority_vote(preds, probs)
            assert got.dtype == np.int64
            assert np.array_equal(got, self.loop_oracle(preds, probs))

    def test_identical_models_equal_single(self):
        rng = Rng(56)
        probs = rng.uniform(0, 1, (20, 4))
        probs /= probs.sum(axis=1, keepdims=True)
        labels = probs.argmax(axis=1)
        voted = majority_vote([labels] * 3, [probs] * 3)
        assert np.array_equal(voted, labels)


class TestSelfTraining:
    def test_empty_u_equals_supervised(self):
        ds, _ = blob_split()
        split = make_semi_split(ds, 0.0, 0, 3, Rng(3))
        cfg = SslConfig("TBST", max_iterations=3)
        a = run_algorithm(ds, split, cfg, FAST, Rng(9))
        b = run_supervised(ds, split, FAST, Rng(9))
        assert a.iteration_accuracy == b.iteration_accuracy
        assert a.iterations_run == 0

    def test_one_iteration_is_two_fits(self):
        ds, split = blob_split()
        cfg = SslConfig("TBST", tau1=0.5, max_iterations=1)
        out = run_algorithm(ds, split, cfg, FAST, Rng(9))
        assert len(out.iteration_accuracy) == 2
        assert out.iterations_run == 1

    def test_count_based_stops_when_u_covered(self):
        ds, split = blob_split(n=120)
        assert len(split.unlabeled_idx) < 500
        cfg = SslConfig("CBST", count_lo=0, count_hi=500, max_iterations=6)
        out = run_algorithm(ds, split, cfg, FAST, Rng(9))
        # window covers all of U on the first pass, so the loop ends there
        assert out.iterations_run == 1
        assert out.pseudo_label_counts == [[len(split.unlabeled_idx)]]

    def test_deterministic(self):
        ds, split = blob_split()
        cfg = SslConfig("TBST", max_iterations=2)
        a = run_algorithm(ds, split, cfg, FAST, Rng(10))
        b = run_algorithm(ds, split, cfg, FAST, Rng(10))
        assert a.iteration_accuracy == b.iteration_accuracy
        assert a.pseudo_label_counts == b.pseudo_label_counts

    def test_fresh_model_differs_from_warm(self):
        ds, split = blob_split()
        warm = run_algorithm(ds, split, SslConfig("TBST", max_iterations=2), FAST, Rng(11))
        fresh = run_algorithm(
            ds, split, SslConfig("TBST", max_iterations=2, fresh_model_each_iteration=True),
            FAST, Rng(11))
        assert warm.iteration_accuracy[0] == fresh.iteration_accuracy[0]
        assert warm.iteration_accuracy[1:] != fresh.iteration_accuracy[1:]

    def test_max_consistent_with_trace(self):
        ds, split = blob_split()
        out = run_algorithm(ds, split, SslConfig("CBST", count_hi=50, max_iterations=3),
                            FAST, Rng(12))
        assert out.max_test_accuracy == max(out.iteration_accuracy)
        assert all(c[0] <= len(split.unlabeled_idx) for c in out.pseudo_label_counts)


class TestCoTraining:
    def test_runs_and_is_deterministic(self):
        ds, split = blob_split()
        cfg = SslConfig("CT", tau1=0.8, max_iterations=2)
        a = run_algorithm(ds, split, cfg, FAST, Rng(20))
        b = run_algorithm(ds, split, cfg, FAST, Rng(20))
        assert a.iteration_accuracy == b.iteration_accuracy
        assert all(len(c) == 2 for c in a.pseudo_label_counts)

    def test_impossible_threshold_terminates_immediately(self):
        ds, split = blob_split()
        # tau1 close to 1: no confidence can exceed it, both batches empty
        cfg = SslConfig("CT", tau1=0.999999, tau2=1.0, max_iterations=5)
        out = run_algorithm(ds, split, cfg, FAST, Rng(21))
        assert out.iterations_run == 0
        assert len(out.iteration_accuracy) == 1

    def test_best_single_vs_ensemble_modes(self):
        ds, split = blob_split()
        ens = run_algorithm(ds, split, SslConfig("CT", max_iterations=1), FAST, Rng(22))
        single = run_algorithm(
            ds, split, SslConfig("CT", max_iterations=1, eval_mode="best_single"), FAST, Rng(22))
        assert ens.pseudo_label_counts == single.pseudo_label_counts
        assert 0.0 <= ens.max_test_accuracy <= 1.0
        assert 0.0 <= single.max_test_accuracy <= 1.0

    def test_counts_are_per_receiving_model(self, monkeypatch):
        ds, split = blob_split()
        sizes = []  # training rows per fit call, in call order

        def recording_fit(model, train_x, *args):
            sizes.append(len(train_x))
            return fit(model, train_x, *args)

        monkeypatch.setattr(engine, "fit", recording_fit)
        out = run_algorithm(ds, split, SslConfig("CT", tau1=0.6, max_iterations=3), FAST, Rng(24))
        assert out.iterations_run >= 1
        n_d = len(split.labeled_idx)
        # fit calls: two initial, then model 0 and model 1 per iteration
        assert sizes[:2] == [n_d, n_d]
        for k, counts in enumerate(out.pseudo_label_counts):
            assert sizes[2 + 2 * k : 4 + 2 * k] == [n_d + counts[0], n_d + counts[1]]
        assert any(c[0] != c[1] for c in out.pseudo_label_counts)

    def test_empty_u_equals_supervised(self):
        ds, _ = blob_split()
        split = make_semi_split(ds, 0.0, 0, 3, Rng(3))
        out = run_algorithm(ds, split, SslConfig("CT"), FAST, Rng(23))
        sup = run_supervised(ds, split, FAST, Rng(23))
        assert out.iteration_accuracy == sup.iteration_accuracy


class TestTriTraining:
    def test_runs_and_is_deterministic(self):
        ds, split = blob_split()
        cfg = SslConfig("TT", max_iterations=2)
        a = run_algorithm(ds, split, cfg, FAST, Rng(30))
        b = run_algorithm(ds, split, cfg, FAST, Rng(30))
        assert a.iteration_accuracy == b.iteration_accuracy
        assert a.pseudo_label_counts == b.pseudo_label_counts
        assert all(len(c) == 3 for c in a.pseudo_label_counts)

    def test_sampling_strategies_change_outcome(self):
        ds, split = blob_split()
        base = SslConfig("TT", max_iterations=1)
        boot = SslConfig("TT", max_iterations=1, sampling="x_half:repl")
        a = run_algorithm(ds, split, base, FAST, Rng(32))
        b = run_algorithm(ds, split, boot, FAST, Rng(32))
        assert a.iteration_accuracy != b.iteration_accuracy

    def test_stops_when_batches_stabilize(self):
        ds, split = blob_split(separation=8.0)  # easy data -> quick agreement
        cfg = SslConfig("TT", max_iterations=20)
        out = run_algorithm(ds, split, cfg, TrainConfig(epochs=10, batch_size=16), Rng(33))
        assert out.iterations_run < 20

    def test_empty_u_equals_supervised(self):
        ds, _ = blob_split()
        split = make_semi_split(ds, 0.0, 0, 3, Rng(3))
        out = run_algorithm(ds, split, SslConfig("TTWD"), FAST, Rng(34))
        sup = run_supervised(ds, split, FAST, Rng(34))
        assert out.iteration_accuracy == sup.iteration_accuracy


def hand_written_supervised(ds, split, train_cfg, rng):
    """The Supervised row's one model and score, built by hand as before it ran through
    ``run_algorithm``: the reference that run_supervised must match bit for bit."""
    model = init_model(ds.d, ds.n_classes, rng.child(0).child(0).child(0))
    acc = fit(model, ds.features[split.labeled_idx], ds.labels[split.labeled_idx],
              ds.features[split.test_idx], ds.labels[split.test_idx], train_cfg,
              rng.child(0).child(0).child(1))
    return model, acc


class TestSupervised:
    @pytest.mark.parametrize("rate", [0.0, 0.9])
    def test_matches_hand_written_fit(self, monkeypatch, rate):
        ds, _ = blob_split()
        split = make_semi_split(ds, rate, 0, 3, Rng(3))
        assert (len(split.unlabeled_idx) > 0) == (rate > 0)
        fitted = []
        monkeypatch.setattr(engine, "fit", lambda model, *a: fitted.append(model) or fit(model, *a))
        for seed in (9, 10):
            fitted.clear()
            out = run_supervised(ds, split, FAST, Rng(seed))
            model, acc = hand_written_supervised(ds, split, FAST, Rng(seed))
            assert out.iteration_accuracy == [acc] and out.pseudo_label_counts == []
            assert len(fitted) == 1 and np.array_equal(fitted[0].params, model.params)

    def test_config_is_frozen(self):
        with pytest.raises(FrozenInstanceError):
            SUPERVISED.max_iterations = 1
        with pytest.raises(FrozenInstanceError):
            SslConfig("TT").sampling = "x:repl"
        assert SUPERVISED == SslConfig("TBST", max_iterations=0)


class TestZeroIterations:
    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_scores_the_initial_fit(self, alg):
        ds, split = blob_split()
        out = run_algorithm(ds, split, SslConfig(alg, tau1=0.5, max_iterations=0), FAST, Rng(41))
        assert len(out.iteration_accuracy) == 1
        assert out.iterations_run == 0 and out.pseudo_label_counts == []
        # the same score as the first entry of a run that goes on to pseudo-label
        one = run_algorithm(ds, split, SslConfig(alg, tau1=0.5, max_iterations=1), FAST, Rng(41))
        assert one.iterations_run == 1
        assert out.iteration_accuracy[0] == one.iteration_accuracy[0]

    @pytest.mark.parametrize("alg", ["TBST", "CBST"])
    def test_self_training_is_supervised(self, alg):
        ds, split = blob_split()
        out = run_algorithm(ds, split, SslConfig(alg, max_iterations=0), FAST, Rng(42))
        assert out.iteration_accuracy == run_supervised(ds, split, FAST, Rng(42)).iteration_accuracy

    def test_negative_rejected(self):
        with pytest.raises(ConfigError, match="max_iterations must be >= 0, got -1"):
            SslConfig("TBST", max_iterations=-1)


class TestDispatch:
    @pytest.mark.parametrize("alg", ["TBST", "CBST", "CT", "TT", "TTWD"])
    def test_all_algorithms_run(self, alg):
        ds, split = blob_split()
        cfg = SslConfig(alg, max_iterations=1)
        out = run_algorithm(ds, split, cfg, FAST, Rng(40))
        assert 0.0 <= out.max_test_accuracy <= 1.0
        assert out.max_test_accuracy == max(out.iteration_accuracy)


class TestEpochScoring:
    """``fit`` scores the test set per epoch only where the run's score reads it."""

    def count(self, monkeypatch, run):
        fits, scores = [], []
        real_fit, real_accuracy = engine.fit, classifier.accuracy
        monkeypatch.setattr(engine, "fit", lambda *a: fits.append(a) or real_fit(*a))
        monkeypatch.setattr(classifier, "accuracy",
                            lambda *a: scores.append(a) or real_accuracy(*a))
        run()
        return len(fits), len(scores)

    @pytest.mark.parametrize("alg, eval_mode", [
        ("TBST", "ensemble"), ("CBST", "ensemble"),
        ("CT", "best_single"), ("TT", "best_single"), ("TTWD", "best_single")])
    def test_best_epoch_scores_every_epoch(self, monkeypatch, alg, eval_mode):
        ds, split = blob_split()
        cfg = SslConfig(alg, tau1=0.5, max_iterations=2, eval_mode=eval_mode)
        fits, scores = self.count(monkeypatch, lambda: run_algorithm(ds, split, cfg, FAST, Rng(9)))
        assert fits >= 2 and scores == FAST.epochs * fits

    def test_supervised_scores_every_epoch(self, monkeypatch):
        ds, split = blob_split()
        fits, scores = self.count(monkeypatch, lambda: run_supervised(ds, split, FAST, Rng(9)))
        assert (fits, scores) == (1, FAST.epochs)

    @pytest.mark.parametrize("alg", ["CT", "TT", "TTWD"])
    def test_ensemble_scores_no_epoch(self, monkeypatch, alg):
        ds, split = blob_split()
        cfg = SslConfig(alg, tau1=0.5, max_iterations=2)
        fits, scores = self.count(monkeypatch, lambda: run_algorithm(ds, split, cfg, FAST, Rng(9)))
        assert fits >= 4 and scores == 0
