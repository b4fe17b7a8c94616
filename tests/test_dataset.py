import json
import pickle
import re

import numpy as np
import pytest

from proxyssl.dataset import (
    SAMPLING_MODES,
    Dataset,
    SemiSplit,
    bootstrap_sample,
    load_csv,
    make_semi_split,
    read_manifest,
    save_csv,
    split_features,
)
from proxyssl.engine import SslConfig
from proxyssl.errors import ConfigError, DataError
from proxyssl.numerics import Rng
from proxyssl.synthetic import make_blobs


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestLoadCsv:
    def test_small_file(self, tmp_path):
        p = tmp_path / "tiny.csv"
        write_lines(p, [
            "# name=tiny d=2",
            "0,0,1.5,2.5",
            "1,1,-1.0,0.25",
            "2,0,0.0,3.0",
        ])
        ds = load_csv(p)
        assert ds.n == 3 and ds.d == 2 and ds.n_classes == 2
        assert ds.name == "tiny"
        assert ds.labels.tolist() == [0, 1, 0]

    def test_missing_class_rejected(self, tmp_path):
        p = tmp_path / "gap.csv"
        write_lines(p, [
            "# name=gap d=1",
            "0,0,1.0",
            "1,5,2.0",  # classes 1..4 never appear
        ])
        with pytest.raises(DataError, match="class 1"):
            load_csv(p)

    def test_truncated_row_names_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        write_lines(p, [
            "# name=bad d=3",
            "0,0,1.0,2.0,3.0",
            "1,1,4.0,5.0",
        ])
        with pytest.raises(DataError, match=":3:"):
            load_csv(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        write_lines(p, ["# name=empty d=4"])
        with pytest.raises(DataError, match="no samples"):
            load_csv(p)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "nohdr.csv"
        write_lines(p, ["0,0,1.0"])
        with pytest.raises(DataError, match="header"):
            load_csv(p)

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_header_d_below_one_rejected(self, tmp_path, d):
        p = tmp_path / "nod.csv"
        write_lines(p, [f"# name=x d={d}", "0", "0,0"])
        with pytest.raises(DataError, match=f"nod.csv: header d={d} must be at least 1"):
            load_csv(p)

    def test_non_numeric_feature_names_line(self, tmp_path):
        p = tmp_path / "nan.csv"
        write_lines(p, ["# name=x d=1", "0,0,1.0", "1,1,oops"])
        with pytest.raises(DataError, match=":3:"):
            load_csv(p)

    @pytest.mark.parametrize("ch", ["\f", "\x0b", "\x85", "\u2028"])
    def test_line_numbers_count_newlines_only(self, tmp_path, ch):
        # str.splitlines breaks at each of these, and float() reads them as spaces
        p = tmp_path / "ff.csv"
        p.write_text(f"# name=ff d=1\n0,0,1.0{ch}\n1,1,2.0\n2,0,oops\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"ff\.csv:4: "):
            load_csv(p)

    @pytest.mark.parametrize("name", ["a,b", "a/b"])
    def test_name_unsafe_for_log_and_paths_rejected(self, tmp_path, name):
        p = tmp_path / "named.csv"
        write_lines(p, [f"# name={name} d=1", "0,0,1.0", "1,1,2.0"])
        with pytest.raises(DataError, match="must not contain"):
            load_csv(p)

    @pytest.mark.parametrize("value", ["nan", "1e999"])
    def test_non_finite_feature_rejected(self, tmp_path, value):
        p = tmp_path / "nf.csv"
        write_lines(p, ["# name=nf d=1", f"0,0,{value}", "1,1,2.0"])
        with pytest.raises(DataError, match="sample 0 has a non-finite feature"):
            load_csv(p)

    def test_label_past_int64_rejected(self, tmp_path):
        p = tmp_path / "big.csv"
        write_lines(p, ["# name=big d=1", "0,0,1.0", f"1,{2**64},2.0"])
        with pytest.raises(DataError, match=f"big.csv: label {2**64} is out of range"):
            load_csv(p)

    def test_name_with_newline_rejected(self):
        with pytest.raises(DataError, match="must not contain"):
            Dataset("a\nb", np.ones((2, 1)), np.array([0, 1]))

    def test_round_trip(self, tmp_path):
        ds = make_blobs("round", n=40, d=7, n_classes=3, separation=3.0, seed=9)
        p = tmp_path / "round.csv"
        save_csv(ds, p)
        back = load_csv(p)
        assert back.name == ds.name and back.n_classes == ds.n_classes
        assert np.array_equal(back.labels, ds.labels)
        assert np.max(np.abs(back.features - ds.features)) < 1e-12

    def test_manifest_round_trip(self, tmp_path):
        ds = make_blobs("mani", n=20, d=3, n_classes=2, separation=3.0, seed=2)
        p = tmp_path / "mani.csv"
        save_csv(ds, p)
        payload = {"name": "mani", "n": 20, "d": 3, "n_classes": 2, "task": "sentiment analysis"}
        (tmp_path / "mani.csv.manifest.json").write_text(json.dumps(payload), encoding="utf-8")
        assert read_manifest(p) == payload


class TestDataset:
    def test_n_classes_is_max_label_plus_one(self):
        ds = Dataset("k", np.ones((4, 2)), np.array([2, 0, 1, 2]))
        assert ds.n_classes == 3
        assert ds.class_counts().tolist() == [1, 1, 2]
        with pytest.raises(TypeError):  # derived from the labels, never passed
            Dataset("k", np.ones((2, 1)), np.array([0, 1]), 2)

    def test_negative_label_rejected(self):
        with pytest.raises(DataError, match="negative label -1"):
            Dataset("k", np.ones((3, 1)), np.array([0, -1, 1]))

    @pytest.mark.parametrize("label", [2, 10**12, 2**63 - 1])
    def test_label_past_sample_count_names_missing_class(self, label):
        # two rows cannot cover label + 1 classes; nothing of that size is allocated
        with pytest.raises(DataError, match="dataset 'k': class 1 has no samples"):
            Dataset("k", np.ones((2, 1)), np.array([0, label]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_names_first_sample(self, value):
        feats = np.ones((4, 3))
        feats[2, 1] = feats[3, 0] = value
        with pytest.raises(DataError, match="dataset 'k': sample 2 has a non-finite feature"):
            Dataset("k", feats, np.array([0, 1, 0, 1]))


def balanced_dataset(n, n_classes=2, d=4, seed=17):
    rng = Rng(seed)
    labels = np.arange(n) % n_classes
    feats = rng.uniform(-1, 1, n * d).reshape(n, d)
    return Dataset("bal", feats, labels)


class TestMakeSemiSplit:
    def test_spec_arithmetic(self):
        ds = balanced_dataset(1000)
        split = make_semi_split(ds, 0.90, fold=0, n_folds=3, rng=Rng(5))
        assert abs(len(split.test_idx) - 333) <= 1
        train = len(split.labeled_idx) + len(split.unlabeled_idx)
        assert abs(len(split.unlabeled_idx) - round(0.9 * train)) <= 1
        assert abs(len(split.labeled_idx) - 67) <= 1
        frac = len(split.unlabeled_idx) / train
        assert abs(frac - 0.90) <= 1.0 / train + 1e-12

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_index_arrays_read_only_as_made_and_unpickled(self, rate):
        split = make_semi_split(balanced_dataset(90), rate, fold=1, n_folds=3, rng=Rng(5))
        back = pickle.loads(pickle.dumps(split))
        for made, unpickled in zip(vars(split).values(), vars(back).values()):
            assert np.array_equal(made, unpickled)
            for idx in (made, unpickled):
                assert not idx.flags.writeable
                with pytest.raises(ValueError):
                    idx[:1] = 0

    def test_rate_zero_is_fully_labeled(self):
        ds = balanced_dataset(90)
        split = make_semi_split(ds, 0.0, fold=1, n_folds=3, rng=Rng(5))
        assert len(split.unlabeled_idx) == 0
        assert len(split.labeled_idx) + len(split.test_idx) == ds.n

    def test_folds_partition_indices(self):
        ds = balanced_dataset(100, n_classes=4)
        tests = [make_semi_split(ds, 0.5, f, 3, Rng(8)).test_idx for f in range(3)]
        merged = np.sort(np.concatenate(tests))
        assert np.array_equal(merged, np.arange(ds.n))

    def test_fold_stratification_within_one(self):
        ds = balanced_dataset(101, n_classes=3)
        for fold in range(4):
            split = make_semi_split(ds, 0.5, fold, 4, Rng(3))
            counts = np.bincount(ds.labels[split.test_idx], minlength=3)
            for c in range(3):
                exact = np.sum(ds.labels == c) / 4
                assert abs(counts[c] - exact) <= 1

    def test_mask_stratified_per_class(self):
        ds = balanced_dataset(600, n_classes=3)
        split = make_semi_split(ds, 0.8, fold=0, n_folds=3, rng=Rng(4))
        for c in range(3):
            total = np.sum(ds.labels[np.concatenate([split.labeled_idx, split.unlabeled_idx])] == c)
            masked = np.sum(ds.labels[split.unlabeled_idx] == c)
            assert abs(masked - 0.8 * total) <= 1

    def test_every_class_keeps_a_labeled_sample(self):
        ds = balanced_dataset(60, n_classes=5)
        split = make_semi_split(ds, 0.95, fold=0, n_folds=3, rng=Rng(6))
        got = np.bincount(ds.labels[split.labeled_idx], minlength=5)
        assert np.all(got >= 1)

    def test_deterministic(self):
        ds = balanced_dataset(200)
        a = make_semi_split(ds, 0.9, 1, 3, Rng(44))
        b = make_semi_split(ds, 0.9, 1, 3, Rng(44))
        assert np.array_equal(a.labeled_idx, b.labeled_idx)
        assert np.array_equal(a.unlabeled_idx, b.unlabeled_idx)
        assert np.array_equal(a.test_idx, b.test_idx)

    def test_same_folds_across_rates(self):
        ds = balanced_dataset(200)
        a = make_semi_split(ds, 0.9, 2, 3, Rng(44))
        b = make_semi_split(ds, 0.5, 2, 3, Rng(44))
        assert np.array_equal(a.test_idx, b.test_idx)

    def test_tiny_class_rejected(self):
        feats = np.zeros((5, 2))
        labels = np.array([0, 0, 0, 0, 1])
        ds = Dataset("t", feats, labels)
        with pytest.raises(DataError, match="fewer than"):
            make_semi_split(ds, 0.5, 0, 3, Rng(1))

    def test_bad_rate_rejected(self):
        ds = balanced_dataset(30)
        with pytest.raises(ConfigError):
            make_semi_split(ds, 1.0, 0, 3, Rng(1))


class TestSplitFeatures:
    def test_even_halves(self):
        ds = Dataset("w", np.zeros((4, 768)) + np.arange(768), np.array([0, 1, 0, 1]))
        assert split_features(ds) == ((0, 384), (384, 768))

    def test_odd_extra_to_second_view(self):
        ds = Dataset("o", np.ones((4, 5)), np.array([0, 1, 0, 1]))
        assert split_features(ds) == ((0, 2), (2, 5))

    def test_views_cover_disjointly(self):
        for d in (2, 3, 10, 17):
            ds = Dataset("c", np.ones((4, d)), np.array([0, 1, 0, 1]))
            (lo_a, hi_a), (lo_b, hi_b) = split_features(ds)
            assert hi_a == lo_b
            assert lo_a == 0 and hi_b == d

    def test_single_column_rejected(self):
        ds = Dataset("s", np.ones((4, 1)), np.array([0, 1, 0, 1]))
        with pytest.raises(ValueError):
            split_features(ds)


class TestSamplingStrategy:
    def test_disjoint_forces_no_replacement(self):
        for mode in ("x_third_disjoint:repl", "x_third_disjoint:norepl"):
            with pytest.raises(ConfigError, match="x_third_disjoint:nointer"):
                SslConfig("TT", sampling=mode)

    def test_double_requires_replacement(self):
        with pytest.raises(ConfigError, match="2x:repl"):
            SslConfig("TT", sampling="2x:norepl")

    def test_unknown_mode(self):
        for mode in ("4x:repl", "x:nointer", "x", "x+norepl", " x:norepl"):
            with pytest.raises(ConfigError, match="unknown sampling mode"):
                SslConfig("TT", sampling=mode)

    def test_six_modes(self):
        assert list(SAMPLING_MODES) == ["x:norepl", "x:repl", "2x:repl", "x_half:norepl",
                                        "x_half:repl", "x_third_disjoint:nointer"]
        for mode in SAMPLING_MODES:
            assert SslConfig("TTWD", sampling=mode).sampling == mode


class TestBootstrapSample:
    def test_disjoint_thirds_partition(self):
        pool = np.arange(100, 199)  # x = 99
        slots = [bootstrap_sample(pool, "x_third_disjoint:nointer", s, Rng(5))
                 for s in range(3)]
        assert all(len(s) == 33 for s in slots)
        merged = np.sort(np.concatenate(slots))
        assert np.array_equal(merged, pool)

    def test_disjoint_thirds_partition_non_divisible(self):
        pool = np.arange(100)
        slots = [bootstrap_sample(pool, "x_third_disjoint:nointer", s, Rng(6))
                 for s in range(3)]
        assert sorted(len(s) for s in slots) == [33, 33, 34]
        assert np.array_equal(np.sort(np.concatenate(slots)), pool)

    def test_double_with_replacement(self):
        pool = np.arange(100)
        out = bootstrap_sample(pool, "2x:repl", 0, Rng(7))
        assert len(out) == 200
        assert set(out.tolist()) <= set(pool.tolist())

    def test_double_always_has_duplicates(self):
        pool = np.arange(10)
        hits = 0
        for trial in range(100):
            out = bootstrap_sample(pool, "2x:repl", 0, Rng(trial))
            hits += len(set(out.tolist())) < len(out)
        assert hits == 100  # 2x draws from x items must repeat something

    def test_x_without_replacement_is_permutation(self):
        pool = np.arange(50, 90)
        out = bootstrap_sample(pool, "x:norepl", 1, Rng(8))
        assert np.array_equal(np.sort(out), pool)

    def test_half_size(self):
        pool = np.arange(25)
        out = bootstrap_sample(pool, "x_half:repl", 2, Rng(9))
        assert len(out) == 12

    def test_slots_differ(self):
        pool = np.arange(40)
        a = bootstrap_sample(pool, "x:repl", 0, Rng(10))
        b = bootstrap_sample(pool, "x:repl", 1, Rng(10))
        assert not np.array_equal(a, b)

    def test_small_pool_rejected(self):
        with pytest.raises(ValueError, match="at least 6"):
            bootstrap_sample(np.arange(5), "x_half:repl", 0, Rng(1))
        with pytest.raises(ValueError, match="at least 3"):
            bootstrap_sample(np.arange(2), "x:norepl", 0, Rng(1))


def write_header(path, header):
    write_lines(path, [header, "0,0,1.0", "1,1,2.0"])
    return path


@pytest.mark.parametrize("call, error, fragment", [
    (lambda tmp: Dataset("k", np.ones((0, 2)), np.array([], dtype=np.int64)), DataError,
     "dataset 'k': need n >= 1 and d >= 1"),
    (lambda tmp: Dataset("k", np.ones((2, 0)), np.array([0, 1])), DataError,
     "dataset 'k': need n >= 1 and d >= 1"),
    (lambda tmp: Dataset("k", np.ones((3, 2)), np.array([0, 1])), DataError,
     "dataset 'k': labels length != n rows"),
    (lambda tmp: SemiSplit(np.array([0, 1]), np.array([1]), np.array([2])), DataError,
     "split index sets overlap"),
    (lambda tmp: load_csv(write_header(tmp / "h.csv", "# name=h d=1 bogus")), DataError,
     "h.csv: malformed header token 'bogus'"),
    (lambda tmp: make_semi_split(balanced_dataset(12), 0.5, 0, 1, Rng(1)), ConfigError,
     "n_folds must be >= 2, got 1"),
    (lambda tmp: make_semi_split(balanced_dataset(12), 0.5, 3, 3, Rng(1)), ConfigError,
     "fold 3 out of range for 3 folds"),
    (lambda tmp: make_semi_split(balanced_dataset(12), 0.5, -1, 3, Rng(1)), ConfigError,
     "fold -1 out of range for 3 folds"),
    (lambda tmp: bootstrap_sample(np.arange(10), "x:norepl", 3, Rng(1)), ValueError,
     "model_slot must be 0..2, got 3"),
], ids=["no-rows", "no-columns", "label-count", "overlapping-split", "header-token",
        "one-fold", "fold-past-end", "fold-negative", "model-slot"])
def test_invalid_input_rejected(tmp_path, call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call(tmp_path)


def test_make_blobs_needs_a_sample_per_class():
    with pytest.raises(ValueError, match="need n >= n_classes, got n=2 n_classes=3"):
        make_blobs("b", n=2, d=2, n_classes=3, separation=1.0, seed=0)
