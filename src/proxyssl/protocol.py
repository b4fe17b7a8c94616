"""Experiment protocol: k-fold x multi-seed grids, their checked plan, and its execution.

Every cell of a comparison table is n_folds x n_seeds runs. Seeds derive
deterministically from (base_seed, dataset, rate, algorithm, fold, trial);
the data split additionally excludes algorithm and trial from its seed so
that all algorithms and trials of a (dataset, rate, fold) cell train on the
identical split and results pair up for the t-test. ``report`` owns the run
log that the results are written to and the tables built from it.
"""

from __future__ import annotations

import hashlib
import os
import signal
import sys
import threading
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .classifier import TrainConfig
from .dataset import Dataset, make_semi_split
from .engine import SUPERVISED, SslConfig, check_run, run_algorithm, run_supervised
from .errors import ConfigError, DataError, ProtocolError
from .numerics import Rng
from .report import RunResult, check_log_field, format_row_label, report_files
# not used here: perfbench/child.py times these layers under their protocol names
from .report import format_log, parse_log, tables_from_results  # noqa: F401

BASELINE_ALGORITHMS = ("oracle", "supervised")

# most rows one plan may request, so that checking a plan takes bounded time and memory;
# a spec shaped like the paper's (seven studies on four datasets) asks for about 9,100
MAX_RUNS = 100_000


def derive_seed(*parts):
    """Stable 64-bit seed from arbitrary key parts (sha256, not hash())."""
    key = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "little")


@dataclass(frozen=True)
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


def _execute_run(grid, ds: Dataset, rate, entry: AlgorithmEntry, fold, trial, split):
    """One run's (max_test_acc in percent, iterations, wall_ms).

    Float arithmetic that overflows or turns invalid raises, here and in a pool
    worker alike, rather than training on inf or nan.
    """
    rate_key = int(round(rate * 10**6))
    train_rng = Rng(derive_seed(grid.base_seed, "train", ds.name, rate_key,
                                entry.algorithm, fold, trial))
    t0 = time.perf_counter()
    with np.errstate(over="raise", invalid="raise"):
        if entry.ssl is None:
            outcome = run_supervised(ds, split, grid.train, train_rng)
        else:
            outcome = run_algorithm(ds, split, entry.ssl, grid.train, train_rng)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return 100.0 * outcome.max_test_accuracy, outcome.iterations_run, wall_ms


def enumerate_runs(grid: ExperimentGrid):
    """Yield the run descriptors in canonical order: oracle block, then rate blocks."""
    blocks = [(0.0, AlgorithmEntry("oracle"))] if grid.include_oracle else []
    blocks += [(rate, entry) for rate in grid.unlabeled_rates for entry in grid.algorithms]
    for rate, entry in blocks:
        for ds in grid.datasets:
            for fold in range(grid.n_folds):
                for trial in range(grid.n_seeds):
                    yield ds, rate, entry, fold, trial


class Plan(NamedTuple):
    """What ``run_grid`` executes: the distinct ``runs`` in first-request order, each
    (grid, dataset, rate, entry, fold, trial, split), and per requested row in
    canonical order, (index into ``runs``, study, detail)."""

    runs: list
    rows: list


def check_plan(grids, reference=None):
    """The ``Plan`` of a spec's grids; raises ``ConfigError`` or ``DataError``
    for a plan that cannot run or be reported, before any training.

    Identical work requested twice, by one grid or by two (same dataset, rate,
    algorithm, config, fold, trial, training config, folds and base seed),
    becomes one run; its seeds never involve the study. The runs of one
    (dataset, rate, fold) share its split, made here once, and
    ``engine.check_run`` checks each run on it. A plan may request at most
    ``MAX_RUNS`` rows. Last, the plan's own report, at zero scores and with
    ``reference`` ((dataset, rate, row) -> expected mean), must render: it
    names every file the run writes and holds every cell a key names."""
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
            if len(rows) == MAX_RUNS:
                raise ConfigError(f"the plan requests more than {MAX_RUNS} runs; each study "
                                  f"requests datasets x rates x rows x n_folds x n_seeds")
            key = (ds.name, rate, entry.algorithm, entry.ssl, fold, trial,
                   grid.train, grid.n_folds, grid.base_seed)
            if key not in index:
                split_key = (ds.name, grid.base_seed, rate, fold, grid.n_folds)
                if split_key not in splits:
                    rng = Rng(derive_seed(grid.base_seed, "split", ds.name))
                    splits[split_key] = make_semi_split(ds, rate, fold, grid.n_folds, rng)
                split = splits[split_key]
                try:
                    check_run(ds, split, entry.ssl or SUPERVISED)
                except ConfigError as exc:
                    raise ConfigError(f"study {grid.study!r}, row {entry.row_label()!r}, rate "
                                      f"{rate!r}, fold {fold}: {exc}") from None
                index[key] = len(runs)
                runs.append((grid, ds, rate, entry, fold, trial, split))
            rows.append((index[key], grid.study, entry.detail))
    plan = Plan(runs, rows)
    try:
        report_files(_results(plan, [(0.0, 0, 0.0)] * len(runs)), reference)
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    return plan


# BLAS pools the workers would otherwise start, each as wide as the machine
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

_worker_runs = None  # a pool worker's copy of the plan's runs

_MAIN_GUARD = ('a script must call run_grid with jobs > 1 under `if __name__ == "__main__":`, '
              "since each spawned worker process imports the script's main module as it starts")


def _cell(desc):
    _, ds, rate, entry, fold, trial, _ = desc
    return (f"dataset={ds.name} rate={rate} algorithm={entry.algorithm} "
            f"fold={fold} trial={trial}")


def _run_descriptor(desc):
    try:
        return _execute_run(*desc)
    except Exception as exc:
        raise ProtocolError(f"run failed for {_cell(desc)}: {exc}") from exc


def _openblas():
    """``(set_num_threads, get_num_threads)`` of the OpenBLAS this process has
    loaded, or ``None`` where no mapped library exports them.

    Looks in each library named like OpenBLAS in ``/proc/self/maps``, under the
    plain names and the ``scipy_`` prefix and ``64_`` suffix of numpy's wheels.
    """
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
            # each line: address, perms, offset, device, inode, then the mapped path if any
            paths = {fields[5].strip() for line in fh
                     if len(fields := line.split(maxsplit=5)) == 6}
    except OSError:  # no /proc: macOS, Windows
        return None
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path)  # already loaded, so this returns its handle
        except OSError:
            continue
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                set_num_threads, get_num_threads = (
                    getattr(lib, f"{prefix}openblas_{verb}_num_threads{suffix}", None)
                    for verb in ("set", "get"))
                if set_num_threads and get_num_threads:
                    set_num_threads.argtypes, set_num_threads.restype = [ctypes.c_int], None
                    get_num_threads.argtypes, get_num_threads.restype = [], ctypes.c_int
                    return set_num_threads, get_num_threads
    return None


def _fork_pin():
    """``(set_num_threads, width)`` that a forked worker applies to its BLAS, or
    ``None`` where workers must be spawned.

    A forked worker inherits the BLAS as the parent set it up at import, so it
    can take the width from ``OPENBLAS_NUM_THREADS`` only through OpenBLAS's own
    setter. A width that setter cannot take, one that is not a positive C
    ``int``, is left to OpenBLAS to read, in a spawned worker.
    """
    import multiprocessing
    width = os.environ["OPENBLAS_NUM_THREADS"]
    if "fork" not in multiprocessing.get_all_start_methods() or not (
            width.isascii() and width.isdigit() and 0 < int(width) < 2**31):
        return None
    blas = _openblas()
    return (blas[0], int(width)) if blas else None


def _init_worker(runs, pin=None):
    global _worker_runs
    _worker_runs = runs
    if pin is not None:  # forked: the parent set this BLAS up at import, as wide as the machine
        set_num_threads, width = pin
        set_num_threads(width)
    import multiprocessing
    parent = multiprocessing.parent_process()  # None when a test calls this in process
    if parent is not None:  # the pool's queues never close under a worker, which holds both ends
        # a terminal's Ctrl-C reaches the whole group: the parent ends, and then the worker
        signal.signal(signal.SIGINT, signal.SIG_IGN)

        def exit_with_parent():
            parent.join()  # waits on the parent's sentinel
            os._exit(1)
        threading.Thread(target=exit_with_parent, daemon=True).start()


def _run_in_worker(index):
    return _run_descriptor(_worker_runs[index])


def _map_in_pool(runs, workers, on_result):
    """Execute ``runs`` in ``workers`` processes; results reach ``on_result`` in order.

    The workers are forked where the platform can fork and the loaded BLAS is
    an OpenBLAS whose thread count ``_openblas`` can set: each inherits the
    imported modules and the descriptor list, with nothing re-imported or
    pickled, and its initializer pins its BLAS to ``OPENBLAS_NUM_THREADS``
    threads, 1 unless the user has set it. Elsewhere they are spawned: each
    imports proxyssl afresh and receives the descriptor list once, pickled,
    through the initializer, and only then is a script's main guard needed.
    Either way a worker then receives only indices into the list, and the
    BLAS thread variables are set to 1 unless the user has set them, until the
    pool has shut down, since spawned workers start as tasks are submitted.
    """
    # loaded here, not at the top: serial commands skip their import time and memory
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    for name in BLAS_THREAD_VARS:
        os.environ.setdefault(name, "1")
    try:
        pin = _fork_pin()
        pool = ProcessPoolExecutor(max_workers=workers,
                                   mp_context=multiprocessing.get_context(
                                       "fork" if pin else "spawn"),
                                   initializer=_init_worker, initargs=(runs, pin))
        try:
            results = pool.map(_run_in_worker, range(len(runs)))
            for received, desc in enumerate(runs):
                try:
                    res = next(results)
                except BrokenExecutor as exc:
                    hint = "" if received or pin else f"; {_MAIN_GUARD}"
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

    Each distinct run executes once and is logged under ``<study>/<detail>``
    for every row that requests it. With ``jobs > 1`` the runs execute in up
    to ``jobs`` worker processes, which train on the plan's splits;
    ``progress`` is called here with each executed run's (max_test_acc,
    iterations, wall_ms), in the plan's order. Any run failure aborts with a
    diagnostic naming the cell.
    """
    _check_not_bootstrapping()
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    outcomes = []

    def done(outcome):
        if progress:
            progress(outcome)
        outcomes.append(outcome)

    workers = min(jobs, len(plan.runs))
    if workers <= 1:
        for desc in plan.runs:
            done(_run_descriptor(desc))
    else:
        _map_in_pool(plan.runs, workers, done)
    return _results(plan, outcomes)


def _results(plan, outcomes):
    """A ``RunResult`` per requested row of ``plan``, from ``outcomes[i]``, the
    (max_test_acc, iterations, wall_ms) of ``plan.runs[i]``."""
    return [RunResult(ds.name, rate, entry.algorithm, study, detail, fold, trial, *outcomes[i])
            for i, study, detail in plan.rows
            for _, ds, rate, entry, fold, trial, _ in [plan.runs[i]]]
