"""Pre-embedded dataset ingestion, label masking, CV folds and sampling.

File format (UTF-8, LF): a header line ``# name=<string> d=<count>`` followed
by one sample per line, ``id,label,f0,f1,...,f{d-1}``. Sample ids are the
0-based row order of the file; every random decision downstream is keyed to
these ids, so a dataset loaded twice splits identically.

An optional sidecar ``<file>.manifest.json``, written by whatever produced the
vectors, carries ``{"name", "n", "d", "n_classes", "task"}`` for reporting.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .numerics import Rng
from .report import check_log_field

# bootstrap sampling mode -> (sample size as a multiple of the labeled count x or,
# for three disjoint thirds of the labeled set, None; replace; fewest labeled samples)
SAMPLING_MODES = {
    "x:norepl": (1, False, 3),
    "x:repl": (1, True, 3),
    "2x:repl": (2, True, 3),
    "x_half:norepl": (0.5, False, 6),
    "x_half:repl": (0.5, True, 6),
    "x_third_disjoint:nointer": (None, False, 6),
}

# fixed child-stream ids inside make_semi_split
_STREAM_FOLDS = 0
_STREAM_MASK = 1


@dataclass
class Dataset:
    name: str
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64
    n_classes: int = field(init=False)  # max label + 1; every class has samples

    def __post_init__(self):
        # the name is a field of the run log and part of the series_* file names
        check_log_field("dataset name", self.name, DataError)
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.features.shape[0]
        if n < 1 or self.features.ndim != 2 or self.features.shape[1] < 1:
            raise DataError(f"dataset {self.name!r}: need n >= 1 and d >= 1")
        if self.labels.shape != (n,):
            raise DataError(f"dataset {self.name!r}: labels length != n rows")
        if self.labels.min() < 0:
            raise DataError(f"dataset {self.name!r}: negative label {self.labels.min()}")
        self.n_classes = int(self.labels.max()) + 1
        # labels >= n share the counter at n, so a huge label allocates nothing; n rows
        # cover at most n classes, so such a label always leaves a class below n empty
        present = np.bincount(np.minimum(self.labels, n))
        missing = np.flatnonzero(present[: self.n_classes] == 0)
        if missing.size:
            raise DataError(f"dataset {self.name!r}: class {missing[0]} has no samples")
        if self.n_classes < 2:
            raise DataError(f"dataset {self.name!r}: need at least 2 classes, "
                            f"got {self.n_classes}")
        if not np.isfinite(self.features).all():
            bad = np.flatnonzero(~np.isfinite(self.features).all(axis=1))[0]
            raise DataError(f"dataset {self.name!r}: sample {bad} has a non-finite feature")

    @property
    def n(self):
        return len(self.labels)

    @property
    def d(self):
        return self.features.shape[1]

    def class_counts(self):
        return np.bincount(self.labels, minlength=self.n_classes)


@dataclass(frozen=True)
class SemiSplit:
    """Disjoint, read-only labeled (D), unlabeled (U) and test index sets of one fold."""

    labeled_idx: np.ndarray
    unlabeled_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        sets = [set(self.labeled_idx), set(self.unlabeled_idx), set(self.test_idx)]
        total = len(self.labeled_idx) + len(self.unlabeled_idx) + len(self.test_idx)
        if len(sets[0] | sets[1] | sets[2]) != total:
            raise DataError("split index sets overlap")
        for idx in (self.labeled_idx, self.unlabeled_idx, self.test_idx):
            idx.flags.writeable = False

    def __reduce__(self):  # unpickled arrays are writable; the constructor marks them again
        return SemiSplit, (self.labeled_idx, self.unlabeled_idx, self.test_idx)


def read_text(path):
    """The text of a UTF-8 file; bytes that do not decode are a DataError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None


# numpy's parser strips these around a number as whitespace; float() and int() reject them
_NUMPY_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def load_csv(path):
    """Parse a dataset file in the format above.

    A body of ASCII lines without ``_NUMPY_ONLY_SPACE`` goes through one
    ``np.loadtxt`` pass: on such text numpy's number grammar is a subset of
    ``float()``'s and ``int()``'s, with the same bits. Whatever that pass
    rejects, and any other body, goes through the line parser, which returns
    the same Dataset or raises the DataError with its line number.
    """
    # read_text turned "\r\n" and "\r" into "\n"; str.splitlines would also break at "\f", ...
    head, *body = read_text(path).split("\n")
    if not head.startswith("#"):
        raise DataError(f"{path}: missing '# name=... d=...' header line")
    header = {}
    for tok in head.lstrip("#").split():
        if "=" not in tok:
            raise DataError(f"{path}: malformed header token {tok!r}")
        k, v = tok.split("=", 1)
        header[k] = v
    if "name" not in header or "d" not in header:
        raise DataError(f"{path}: header must define name= and d=")
    try:
        d = int(header["d"])
    except ValueError:
        raise DataError(f"{path}: header d={header['d']!r} is not an integer")
    if d < 1:
        raise DataError(f"{path}: header d={d} must be at least 1")
    # a first row of 2 + d fields bounds the row that numpy allocates by the file's size
    if (body and body[0].count(",") == d + 1
            and all(line.isascii() and not any(c in line for c in _NUMPY_ONLY_SPACE)
                    for line in body)):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # "input contained no data" is a UserWarning
                rows = np.loadtxt(body, dtype=[("id", np.int64), ("label", np.int64),
                                               ("f", np.float64, (d,))],
                                  delimiter=",", comments=None, ndmin=1)
        except (ValueError, Warning):  # the line parser names the line
            pass
        else:
            if rows["label"].min() >= 0:  # else the line parser names the line
                # Dataset copies the strided features; a view of the labels would keep rows alive
                return Dataset(name=header["name"], features=rows["f"],
                               labels=rows["label"].copy())
    return _parse_lines(path, header["name"], d, body)


def _parse_lines(path, name, d, body):
    """The Dataset of the lines after the header, parsed one field at a time."""
    features, labels = [], []
    for lineno, line in enumerate(body, start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2 + d:
            raise DataError(f"{path}:{lineno}: expected {2 + d} fields, got {len(parts)}")
        try:
            int(parts[0])
            label = int(parts[1])
            row = [float(v) for v in parts[2:]]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}")
        if label < 0:
            raise DataError(f"{path}:{lineno}: negative label {label}")
        labels.append(label)
        features.append(row)
    if not labels:
        raise DataError(f"{path}: no samples")
    try:
        labels = np.array(labels, dtype=np.int64)
    except OverflowError:
        raise DataError(f"{path}: label {max(labels)} is out of range") from None
    return Dataset(
        name=name,
        features=np.array(features, dtype=np.float64),
        labels=labels,
    )


def save_csv(ds: Dataset, path):
    """Write a Dataset in the load_csv format (row index as id)."""
    if any(ch.isspace() for ch in ds.name):  # load_csv splits the header at whitespace
        raise DataError(f"dataset name {ds.name!r} must not contain whitespace to be saved")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# name={ds.name} d={ds.d}\n")
        for i in range(ds.n):
            feats = ",".join(repr(float(v)) for v in ds.features[i])
            fh.write(f"{i},{ds.labels[i]},{feats}\n")


def manifest_path(data_path):
    return str(data_path) + ".manifest.json"


def read_manifest(data_path):
    p = manifest_path(data_path)
    if not os.path.exists(p):
        return None
    try:
        manifest = json.loads(read_text(p))
    except json.JSONDecodeError as exc:
        raise DataError(f"{p}: {exc}") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{p}: expected a JSON object, got {type(manifest).__name__}")
    return manifest


def _stratified_fold_of(ds: Dataset, n_folds, rng: Rng):
    """Fold id per sample; per-class counts differ from exact share by <= 1."""
    fold_of = np.empty(ds.n, dtype=np.int64)
    for c in range(ds.n_classes):
        ids = np.where(ds.labels == c)[0]
        if len(ids) < n_folds:
            raise DataError(f"dataset {ds.name!r}: class {c} has {len(ids)} samples, "
                            f"fewer than {n_folds} folds")
        perm = ids[rng.child(c).permutation(len(ids))]
        for f, chunk in enumerate(np.array_split(perm, n_folds)):
            fold_of[chunk] = f
    return fold_of


def _mask_quotas(counts, target, caps):
    """Largest-remainder apportionment of ``target`` across classes.

    Per-class quota is proportional to class size, floored, remainder
    distributed by largest fractional part, capped at ``caps`` so every
    class keeps at least one labeled sample.
    """
    total = counts.sum()
    exact = counts * (target / total) if total else np.zeros_like(counts, dtype=float)
    quota = np.minimum(np.floor(exact).astype(np.int64), caps)
    room = caps - quota
    frac = exact - np.floor(exact)
    shortfall = target - quota.sum()
    # hand out remaining units to classes with room, largest remainder first
    for c in sorted(range(len(counts)), key=lambda c: (-frac[c], c)):
        if shortfall <= 0:
            break
        take = min(int(room[c]), shortfall)
        quota[c] += take
        shortfall -= take
    return quota


def make_semi_split(ds: Dataset, unlabeled_rate, fold, n_folds, rng: Rng):
    """Stratified k-fold split with stratified label masking in the train part.

    Fold assignment consumes a fixed child stream of ``rng``, so every call
    with the same seed sees the same partition regardless of ``fold`` or
    ``unlabeled_rate``; masking consumes a (fold, rate)-keyed child stream.
    Rate 0 yields an empty U (the fully-labeled condition).
    """
    if n_folds < 2:
        raise ConfigError(f"n_folds must be >= 2, got {n_folds}")
    if not 0 <= fold < n_folds:
        raise ConfigError(f"fold {fold} out of range for {n_folds} folds")
    if not 0.0 <= unlabeled_rate < 1.0:
        raise ConfigError(f"unlabeled_rate must lie in [0, 1), got {unlabeled_rate}")

    fold_of = _stratified_fold_of(ds, n_folds, rng.child(_STREAM_FOLDS))
    test_idx = np.where(fold_of == fold)[0]
    train_idx = np.where(fold_of != fold)[0]

    if unlabeled_rate == 0.0:
        return SemiSplit(train_idx, np.array([], dtype=np.int64), test_idx)

    rate_key = int(round(unlabeled_rate * 10**6))
    mask_rng = rng.child(_STREAM_MASK).child(fold).child(rate_key)
    counts = np.bincount(ds.labels[train_idx], minlength=ds.n_classes)
    target = int(round(unlabeled_rate * len(train_idx)))
    quota = _mask_quotas(counts, target, caps=np.maximum(counts - 1, 0))

    unlabeled = []
    for c in range(ds.n_classes):
        ids = train_idx[ds.labels[train_idx] == c]
        perm = ids[mask_rng.child(c).permutation(len(ids))]
        unlabeled.append(perm[: quota[c]])
    unlabeled_idx = np.sort(np.concatenate(unlabeled))
    labeled_idx = np.setdiff1d(train_idx, unlabeled_idx)
    return SemiSplit(labeled_idx, unlabeled_idx, test_idx)


def split_features(ds: Dataset):
    """Halve the columns into two ``(lo, hi)`` ranges; an odd count favors the second."""
    if ds.d < 2:
        raise ValueError(f"need d >= 2 to split features, got d={ds.d}")
    half = ds.d // 2
    return (0, half), (half, ds.d)


def bootstrap_sample(labeled_idx, mode, model_slot, rng: Rng):
    """Initial-training sample for one of the three model slots.

    ``mode`` is a key of ``SAMPLING_MODES``. Sizes are x, 2x or floor(x/2);
    the disjoint mode splits one shared permutation of the pool into three
    slices (sizes within 1 of x/3) so the slots partition the labeled set.
    """
    size, replace, min_labeled = SAMPLING_MODES[mode]
    labeled_idx = np.asarray(labeled_idx)
    x = len(labeled_idx)
    if x < min_labeled:
        raise ValueError(f"{mode} needs at least {min_labeled} labeled samples, got {x}")
    if not 0 <= model_slot <= 2:
        raise ValueError(f"model_slot must be 0..2, got {model_slot}")

    if size is None:
        # same permutation for every slot: derived from the parent, not drawn
        perm = labeled_idx[rng.child(3).permutation(x)]
        return np.array_split(perm, 3)[model_slot]

    picks = rng.child(model_slot).choice(x, int(size * x), replace=replace)
    return labeled_idx[picks]
