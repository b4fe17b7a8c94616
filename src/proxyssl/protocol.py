"""Experiment protocol: k-fold x multi-seed grids, baselines and tables.

Every cell of a comparison table is n_folds x n_seeds runs. Seeds derive
deterministically from (base_seed, dataset, rate, algorithm, fold, trial);
the data split additionally excludes algorithm and trial from its seed so
that all algorithms and trials of a (dataset, rate, fold) cell train on the
identical split and results pair up for the t-test.

Results persist as a flat run-log, one line per run:

    dataset,rate,algorithm,variant,fold,trial,max_test_acc,iterations,wall_ms

Accuracies are percentages at full precision. Tables are recomputed from the
log alone, so reports never require retraining. The wall_ms field is the one
intentionally non-deterministic column.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .classifier import TrainConfig
from .dataset import SAMPLING_MODES, Dataset, check_log_field, make_semi_split
from .engine import TRI_TRAINING, SslConfig, run_algorithm, run_supervised
from .errors import ConfigError, DataError, ProtocolError
from .numerics import Rng
from .stats import paired_t_test

BASELINE_ALGORITHMS = ("oracle", "supervised")


def derive_seed(*parts):
    """Stable 64-bit seed from arbitrary key parts (sha256, not hash())."""
    key = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "little")


@dataclass
class AlgorithmEntry:
    """One table row: an algorithm name plus its variant configuration."""

    algorithm: str  # "oracle", "supervised", or an SSL algorithm
    ssl: SslConfig | None = None
    detail: str = "std"  # row qualifier within the study

    def __post_init__(self):
        # the log records the row's name, but its config is what runs
        runs = self.ssl.algorithm if self.ssl else None
        if runs != (None if self.algorithm in BASELINE_ALGORITHMS else self.algorithm):
            raise ConfigError(f"row {self.algorithm!r} runs {runs or 'no SSL algorithm'}; a "
                              f"baseline row takes no SslConfig, an SSL row one of its own")
        check_log_field("variant detail", self.detail, ConfigError)

    def row_label(self):
        return format_row_label(self.algorithm, self.detail)


def format_row_label(algorithm, detail):
    """Table row label: display name, then the variant detail unless it is "std"."""
    name = {"oracle": "Oracle", "supervised": "Supervised"}.get(algorithm, algorithm)
    return name if detail == "std" else f"{name} {detail}"


@dataclass
class ExperimentGrid:
    """One study: datasets x rates x algorithm entries, 15 runs per cell."""

    datasets: list[Dataset]
    algorithms: list[AlgorithmEntry]
    unlabeled_rates: list[float] = field(default_factory=lambda: [0.95, 0.90, 0.80])
    n_folds: int = 3
    n_seeds: int = 5
    base_seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)
    study: str = "baselines"
    include_oracle: bool = True

    def __post_init__(self):
        if not self.datasets:
            raise ConfigError("grid needs at least one dataset")
        if not self.algorithms:
            raise ConfigError("grid needs at least one algorithm")
        if any(e.algorithm == "oracle" for e in self.algorithms):
            raise ConfigError("the Oracle row is requested by include_oracle, "
                              "not by an entry in algorithms")
        # runs, splits and table cells key on these
        for what, names in (("dataset names", [ds.name for ds in self.datasets]),
                            ("row labels", [e.row_label() for e in self.algorithms])):
            if len(set(names)) < len(names):
                raise ConfigError(f"{what} must be unique, got {names}")
        if not self.unlabeled_rates:
            raise ConfigError("grid needs at least one unlabeled rate")
        if len(set(self.unlabeled_rates)) < len(self.unlabeled_rates):
            raise ConfigError(f"unlabeled rates must be unique, got {self.unlabeled_rates}; "
                              f"a repeated rate would log each of its runs twice")
        for r in self.unlabeled_rates:
            if not 0.0 <= r < 1.0:
                raise ConfigError(f"unlabeled rate must lie in [0, 1), got {r}")
        if self.n_folds < 2 or self.n_seeds < 1:
            raise ConfigError("need n_folds >= 2 and n_seeds >= 1")
        check_log_field("study name", self.study, ConfigError)


@dataclass
class RunResult:
    dataset: str
    rate: float
    algorithm: str
    study: str
    detail: str  # row qualifier within the study
    fold: int
    trial: int
    max_test_acc: float  # percentage
    iterations: int
    wall_ms: float


def _execute_run(grid, ds: Dataset, rate, entry: AlgorithmEntry, fold, trial, split):
    rate_key = int(round(rate * 10**6))
    train_rng = Rng(derive_seed(grid.base_seed, "train", ds.name, rate_key,
                                entry.algorithm, fold, trial))
    t0 = time.perf_counter()
    if entry.ssl is None:
        outcome = run_supervised(ds, split, grid.train, train_rng)
    else:
        outcome = run_algorithm(ds, split, entry.ssl, grid.train, train_rng)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return RunResult(
        dataset=ds.name,
        rate=rate,
        algorithm=entry.algorithm,
        study=grid.study,
        detail=entry.detail,
        fold=fold,
        trial=trial,
        max_test_acc=100.0 * outcome.max_test_accuracy,
        iterations=outcome.iterations_run,
        wall_ms=wall_ms,
    )


def enumerate_runs(grid: ExperimentGrid):
    """Run descriptors in canonical order: oracle block, then rate blocks."""
    runs = []
    if grid.include_oracle:
        oracle = AlgorithmEntry("oracle")
        for ds in grid.datasets:
            for fold in range(grid.n_folds):
                for trial in range(grid.n_seeds):
                    runs.append((ds, 0.0, oracle, fold, trial))
    for rate in grid.unlabeled_rates:
        for entry in grid.algorithms:
            for ds in grid.datasets:
                for fold in range(grid.n_folds):
                    for trial in range(grid.n_seeds):
                        runs.append((ds, rate, entry, fold, trial))
    return runs


class Plan(NamedTuple):
    """What ``run_grid`` executes: the distinct ``runs`` in first-request order, each
    (grid, dataset, rate, entry, fold, trial, split), and per requested row in
    canonical order, (index into ``runs``, study, detail)."""

    runs: list
    rows: list


def _read_only(split):
    for idx in (split.labeled_idx, split.unlabeled_idx, split.test_idx):
        idx.flags.writeable = False
    return split


def check_plan(grids, jobs=1):
    """The ``Plan`` of a spec's grids; raises ``ConfigError`` or ``DataError``
    for a plan that cannot run, before any training.

    Identical work requested twice, by one grid or by two (same dataset, rate,
    algorithm, config, fold, trial, training config, folds and base seed),
    becomes one run; its seeds never involve the study. The runs of one
    (dataset, rate, fold) share its split, made here once with read-only
    indices, where each tri-training row's sampling mode must find the labeled
    samples it needs."""
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    named, studies = {}, set()
    for grid in grids:
        if grid.study in studies:
            raise ConfigError(f"two grids are named study {grid.study!r}; table cells "
                              f"key on the study, so each would hold every run twice")
        studies.add(grid.study)
        for ds in grid.datasets:
            if named.setdefault(ds.name, ds) is not ds:
                raise ConfigError(f"two different datasets are named {ds.name!r}; "
                                  f"runs and tables key on the name")
    runs, rows, index, splits = [], [], {}, {}
    for grid in grids:
        for ds, rate, entry, fold, trial in enumerate_runs(grid):
            key = (ds.name, rate, entry.algorithm, repr(entry.ssl), fold, trial,
                   repr(grid.train), grid.n_folds, grid.base_seed)
            if key not in index:
                if entry.algorithm == "CT" and ds.d < 2:
                    raise ConfigError(f"study {grid.study!r}: CT splits the features in "
                                      f"two, but dataset {ds.name!r} has d={ds.d}")
                split_key = (ds.name, grid.base_seed, rate, fold, grid.n_folds)
                if split_key not in splits:
                    rng = Rng(derive_seed(grid.base_seed, "split", ds.name))
                    splits[split_key] = _read_only(make_semi_split(ds, rate, fold,
                                                                   grid.n_folds, rng))
                split = splits[split_key]
                # an empty U runs supervised, with no bootstrap sample
                if entry.algorithm in TRI_TRAINING and len(split.unlabeled_idx):
                    x, need = len(split.labeled_idx), SAMPLING_MODES[entry.ssl.sampling][2]
                    if x < need:
                        raise ConfigError(f"study {grid.study!r}: row {entry.row_label()!r} "
                                          f"samples {entry.ssl.sampling}, which needs {need} "
                                          f"labeled samples, but dataset {ds.name!r} at rate "
                                          f"{rate!r} fold {fold} has {x}")
                index[key] = len(runs)
                runs.append((grid, ds, rate, entry, fold, trial, split))
            rows.append((index[key], grid.study, entry.detail))
    return Plan(runs, rows)


# BLAS pools the workers would otherwise start, each as wide as the machine
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

_worker_runs = None  # a pool worker's copy of the plan's runs

_MAIN_GUARD = ('a script must call run_grid with jobs > 1 under `if __name__ == "__main__":`, '
              "since each worker process imports the script's main module as it starts")


def _cell(desc):
    _, ds, rate, entry, fold, trial, _ = desc
    return (f"dataset={ds.name} rate={rate} algorithm={entry.algorithm} "
            f"fold={fold} trial={trial}")


def _run_descriptor(desc):
    try:
        return _execute_run(*desc)
    except Exception as exc:
        raise ProtocolError(f"run failed for {_cell(desc)}: {exc}") from exc


def _init_worker(runs):
    global _worker_runs
    # the splits arrive unpickled, and unpickled arrays are writable
    for *_, split in runs:
        _read_only(split)
    _worker_runs = runs


def _run_in_worker(index):
    return _run_descriptor(_worker_runs[index])


def _map_in_pool(runs, workers, on_result):
    """Execute ``runs`` in ``workers`` spawned processes; results reach ``on_result`` in order.

    Each worker receives the descriptor list once, through the pool's
    initializer, and then only indices into it. Its BLAS runs single-threaded
    unless the user has set the thread variables; they stay set until the
    pool has shut down, since workers start as tasks are submitted.
    """
    # loaded here, not at the top: serial commands skip their import time and memory
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")
    try:
        pool = ProcessPoolExecutor(max_workers=workers,
                                   mp_context=multiprocessing.get_context("spawn"),
                                   initializer=_init_worker, initargs=(runs,))
        try:
            results = pool.map(_run_in_worker, range(len(runs)))
            for received, desc in enumerate(runs):
                try:
                    res = next(results)
                except BrokenExecutor as exc:
                    hint = "" if received else f"; {_MAIN_GUARD}"
                    raise ProtocolError(f"a worker process died before run {_cell(desc)} "
                                        f"finished ({exc}){hint}") from exc
                on_result(res)
        finally:
            # after a failure, drop the runs that no worker has started
            pool.shutdown(cancel_futures=True)
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _check_not_bootstrapping():
    """Refuse to run in a spawned worker that is still importing the main module.

    A worker that gets here is re-running a script that calls run_grid
    without the main guard; its own pool could only fail or hang.
    """
    process = sys.modules.get("multiprocessing.process")
    if process is not None and getattr(process.current_process(), "_inheriting", False):
        raise ConfigError(f"run_grid was called while a worker process imported the main "
                          f"module; {_MAIN_GUARD}")


def run_grid(plan, jobs=1, progress=None):
    """Execute the runs of a ``Plan`` from ``check_plan``; results come back per
    requested row, in canonical order.

    Each distinct run executes once and is re-labeled ``<study>/<detail>`` for
    every row that requests it. With ``jobs > 1`` the runs execute in up to
    ``jobs`` worker processes, which train on the plan's splits; ``progress``
    is called here, once per executed run, in the plan's order. Any run
    failure aborts with a diagnostic naming the cell.
    """
    _check_not_bootstrapping()
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    executed = []

    def done(res):
        if progress:
            progress(res)
        executed.append(res)

    workers = min(jobs, len(plan.runs))
    if workers == 1:
        for desc in plan.runs:
            done(_run_descriptor(desc))
    else:
        _map_in_pool(plan.runs, workers, done)
    return [replace(executed[i], study=study, detail=detail) for i, study, detail in plan.rows]


def planned_results(plan):
    """The rows ``run_grid`` would return for ``plan``, with zero scores: what a
    report of the plan holds, before any training."""
    return [RunResult(ds.name, rate, entry.algorithm, study, detail, fold, trial, 0.0, 0, 0.0)
            for i, study, detail in plan.rows
            for _, ds, rate, entry, fold, trial, _ in [plan.runs[i]]]


def format_log(results):
    lines = []
    for r in results:
        lines.append(
            f"{r.dataset},{r.rate!r},{r.algorithm},{r.study}/{r.detail},{r.fold},{r.trial},"
            f"{r.max_test_acc!r},{r.iterations},{r.wall_ms:.3f}"
        )
    return "\n".join(lines) + "\n" if lines else ""


def parse_log(text, source="run log"):
    results = []
    # records end in "\n" only; str.splitlines also breaks at U+2028, "\x1e", ...
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 9:
            raise DataError(f"{source}:{lineno}: expected 9 fields, got {len(parts)}")
        study, slash, detail = parts[3].partition("/")
        if not slash:
            raise DataError(f"{source}:{lineno}: variant {parts[3]!r} lacks a study prefix")
        try:
            rate, acc, wall_ms = float(parts[1]), float(parts[6]), float(parts[8])
            results.append(RunResult(
                dataset=parts[0], rate=rate, algorithm=parts[2], study=study, detail=detail,
                fold=int(parts[4]), trial=int(parts[5]), max_test_acc=acc,
                iterations=int(parts[7]), wall_ms=wall_ms,
            ))
        except ValueError as exc:
            raise DataError(f"{source}:{lineno}: {exc}")
        if not (0.0 <= rate < 1.0 and math.isfinite(acc) and math.isfinite(wall_ms)):
            raise DataError(f"{source}:{lineno}: need a rate in [0, 1) and finite max_test_acc "
                            f"and wall_ms, got {parts[1]}, {parts[6]} and {parts[8]}")
    return results


@dataclass
class CellResult:
    """All runs of one (row, dataset) cell, ordered by (fold, trial)."""

    runs: list[tuple[int, int, float]]  # (fold, trial, accuracy-percent)
    significance: str = ""  # "", "none", "better", "worse"

    @property
    def accuracies(self):
        return [r[2] for r in self.runs]

    @property
    def mean(self):
        return sum(r[2] for r in self.runs) / len(self.runs)

    def pairs(self):
        return [(f, t) for f, t, _ in self.runs]


@dataclass
class ComparisonTable:
    study: str
    rate: float
    dataset_names: list[str]
    row_labels: list[str]
    cells: dict  # (row_label, dataset) -> CellResult


def tables_from_results(results):
    """Group run results into one ComparisonTable per (study, rate block).

    Oracle runs (rate 0) attach as the leading row of every rate block of
    their study. Ordering follows first appearance, so identical logs render
    identical tables. Each cell is checked once: its (fold, trial) pairs are
    distinct, and an SSL cell beside a Supervised cell holds the same two or
    more pairs, which the paired t-test at ``stats.ALPHA`` then marks; anything
    else is a DataError.
    """
    by_study = {}
    for r in results:
        by_study.setdefault(r.study, []).append(r)

    tables = []
    for study, runs in by_study.items():
        oracle = [r for r in runs if r.algorithm == "oracle"]
        block_runs = [r for r in runs if r.algorithm != "oracle"]
        rates, datasets = [], []
        for r in block_runs or oracle:
            if r.rate not in rates:
                rates.append(r.rate)
            if r.dataset not in datasets:
                datasets.append(r.dataset)
        for r in oracle:
            if r.dataset not in datasets:
                datasets.append(r.dataset)
        for rate in rates:
            rows, cells = [], {}
            chosen = oracle + [r for r in block_runs if r.rate == rate]
            for r in chosen:
                label = format_row_label(r.algorithm, r.detail)
                if label not in rows:
                    rows.append(label)
                cells.setdefault((label, r.dataset), CellResult(runs=[])).runs.append(
                    (r.fold, r.trial, r.max_test_acc)
                )
            for cell in cells.values():
                cell.runs.sort(key=lambda e: (e[0], e[1]))
            for (label, ds), cell in cells.items():
                where = f"study {study!r} at rate {rate!r}: cell {label!r} on {ds!r}"
                pairs = cell.pairs()
                if len(set(pairs)) < len(pairs):
                    raise DataError(f"{where} holds a (fold, trial) more than once")
                sup = cells.get(("Supervised", ds))
                if label in ("Supervised", "Oracle") or sup is None:
                    continue
                if pairs != sup.pairs() or len(pairs) < 2:
                    raise DataError(f"{where} must hold the same two or more (fold, trial) "
                                    f"pairs as Supervised for the paired t-test, got "
                                    f"{len(pairs)} against {len(sup.runs)}")
                res = paired_t_test(cell.accuracies, sup.accuracies)
                if not res.significant:
                    cell.significance = "none"
                else:
                    cell.significance = "better" if res.direction > 0 else "worse"
            tables.append(ComparisonTable(study, rate, datasets, rows, cells))
    return tables


_MARKS = {"": "", "none": "", "better": "+", "worse": "-"}


def render_table_text(table: ComparisonTable):
    """Aligned text table; +/- suffixes mark significance vs Supervised."""
    header = [f"study {table.study}, unlabeled rate {table.rate!r}"]
    width = max([len("algorithm")] + [len(l) for l in table.row_labels]) + 2
    # each dataset column is as wide as its header, with at least one space before the name
    columns = [(ds, max(10, len(ds) + 1)) for ds in table.dataset_names]
    cols = [f"{'algorithm':<{width}}"]
    for ds, w in columns:
        cols.append(f"{ds:>{w}}")
    header.append("".join(cols))
    lines = header
    for label in table.row_labels:
        parts = [f"{label:<{width}}"]
        for ds, w in columns:
            cell = table.cells.get((label, ds))
            if cell is None:
                parts.append(f"{'-':>{w}}")
            else:
                parts.append(f"{cell.mean:.2f}{_MARKS[cell.significance]:<1}".rjust(w))
        lines.append("".join(parts))
    return "\n".join(lines) + "\n"


def render_table_delimited(table: ComparisonTable):
    """Machine-readable variant: study,rate,row,dataset,mean,significance."""
    lines = ["study,rate,row,dataset,mean,significance"]
    for label in table.row_labels:
        for ds in table.dataset_names:
            cell = table.cells.get((label, ds))
            if cell is None:
                continue
            lines.append(
                f"{table.study},{table.rate!r},{label},{ds},{cell.mean:.2f},{cell.significance}"
            )
    return "\n".join(lines) + "\n"
