import concurrent.futures
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import time
import types
from dataclasses import FrozenInstanceError, asdict, replace
from pathlib import Path

import numpy as np
import pytest

import proxyssl
from proxyssl import protocol
from proxyssl.classifier import TrainConfig
from proxyssl.dataset import make_semi_split, save_csv
from proxyssl.engine import SslConfig, run_supervised
from proxyssl.errors import ConfigError, DataError, ProtocolError
from proxyssl.numerics import Rng
from proxyssl.protocol import AlgorithmEntry, ExperimentGrid, check_plan, derive_seed, run_grid
from proxyssl.report import (
    CellResult,
    ComparisonTable,
    RunResult,
    format_log,
    parse_log,
    render_table_delimited,
    render_table_text,
    tables_from_results,
)
from proxyssl.synthetic import make_blobs

FAST = TrainConfig(epochs=2, batch_size=32)

# run_grid forks its workers here; elsewhere it spawns them
FORKS = "fork" in multiprocessing.get_all_start_methods() and protocol._openblas() is not None
forked_only = pytest.mark.skipif(not FORKS, reason="workers are spawned: fork or OpenBLAS's "
                                                   "thread setter is missing")


def small_grid(algorithms=None, rates=(0.9,), include_oracle=True, n_seeds=5, study="baselines"):
    ds = make_blobs("mini", n=150, d=6, n_classes=2, separation=4.0, seed=3)
    entries = algorithms or [AlgorithmEntry("supervised")]
    return ExperimentGrid(
        datasets=[ds],
        algorithms=entries,
        unlabeled_rates=list(rates),
        n_folds=3,
        n_seeds=n_seeds,
        base_seed=11,
        train=FAST,
        study=study,
        include_oracle=include_oracle,
    )


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(1, "a", 0.9) == derive_seed(1, "a", 0.9)

    def test_distinct_for_distinct_parts(self):
        seen = {derive_seed(1, "x", i) for i in range(100)}
        assert len(seen) == 100


def failing_grid():
    """Three TT runs that each fail with a diagnostic naming their cell."""
    ds = make_blobs("tiny", n=9, d=4, n_classes=3, separation=3.0, seed=5)
    # the plan passes check_plan, but a step size of 1e300 overflows the training arithmetic
    return ExperimentGrid(
        datasets=[ds],
        algorithms=[AlgorithmEntry("TT", SslConfig("TT"))],
        unlabeled_rates=[0.5],
        n_folds=3, n_seeds=1, base_seed=1, include_oracle=False,
        train=TrainConfig(epochs=2, batch_size=32, learning_rate=1e300))


def without_wall(results):
    return [{k: v for k, v in asdict(r).items() if k != "wall_ms"} for r in results]


def parallel_grids():
    grid = small_grid(algorithms=[AlgorithmEntry("supervised"),
                                  AlgorithmEntry("TBST", SslConfig("TBST", max_iterations=1))],
                      include_oracle=False, n_seeds=2)
    return [grid, replace(grid, study="again")]  # every run of "again" repeats one


class TestRunGrid:
    def test_fifteen_runs_per_cell(self):
        results = run_grid(check_plan([small_grid(include_oracle=False)]))
        assert len(results) == 15
        pairs = [(r.fold, r.trial) for r in results]
        assert pairs == [(f, t) for f in range(3) for t in range(5)]

    def test_two_rates_give_two_supervised_blocks(self):
        grid = small_grid(rates=(0.0, 0.9), include_oracle=False)
        results = run_grid(check_plan([grid]))
        tables = tables_from_results(results)
        assert len(tables) == 2
        assert {t.rate for t in tables} == {0.0, 0.9}
        assert all(t.row_labels == ["Supervised"] for t in tables)

    def test_rerun_identical(self):
        grid = small_grid(include_oracle=False)
        a = run_grid(check_plan([grid]))
        b = run_grid(check_plan([grid]))
        assert [r.max_test_acc for r in a] == [r.max_test_acc for r in b]

    def test_jobs_parallel_matches_serial(self):
        grids = parallel_grids()
        serial = run_grid(check_plan(grids), jobs=1)
        called_in = []
        parallel = run_grid(check_plan(grids), jobs=2,
                            progress=lambda r: called_in.append(os.getpid()))
        assert without_wall(parallel) == without_wall(serial)
        assert called_in == [os.getpid()] * (len(serial) // 2)
        assert multiprocessing.active_children() == []

    def test_spawned_workers_match_serial(self, monkeypatch):
        # without OpenBLAS's thread setter, the workers are spawned, as without fork
        monkeypatch.setattr(protocol, "_openblas", lambda: None)
        methods = []
        real = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method=None: methods.append(method) or real(method))
        grids = parallel_grids()
        serial = run_grid(check_plan(grids), jobs=1)
        parallel = run_grid(check_plan(grids), jobs=2)
        assert methods == ["spawn"]
        assert without_wall(parallel) == without_wall(serial)
        assert multiprocessing.active_children() == []

    def test_pool_size_capped_by_distinct_runs(self, monkeypatch):
        # records the executor's arguments and the BLAS variables, starts no process
        built = []

        class NoPool:
            def __init__(self, max_workers, **kwargs):
                built.append((max_workers, {name: os.environ.get(name)
                                            for name in ("OPENBLAS_NUM_THREADS",
                                                         "OMP_NUM_THREADS")}))
                raise RuntimeError("no pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        grid = replace(small_grid(include_oracle=False, n_seeds=1), n_folds=2)  # two runs
        for jobs in (3, 10**6):
            with pytest.raises(RuntimeError, match="no pool"):
                run_grid(check_plan([grid]), jobs=jobs)
        # the user's OMP setting is kept; the parent's variables are restored
        assert built == [(2, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3"})] * 2
        assert "OPENBLAS_NUM_THREADS" not in os.environ
        assert os.environ["OMP_NUM_THREADS"] == "3"

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ConfigError, match="jobs"):
            run_grid(check_plan([small_grid()]), jobs=jobs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_empty_plan_runs_nothing(self, jobs):
        assert run_grid(check_plan([]), jobs=jobs) == []

    def test_oracle_equals_rate_zero_supervised(self):
        grid = small_grid(include_oracle=True)
        results = run_grid(check_plan([grid]))
        oracle = [r for r in results if r.algorithm == "oracle"]
        assert all(r.rate == 0.0 for r in oracle)
        ds = grid.datasets[0]
        for r in oracle[:3]:
            split = make_semi_split(ds, 0.0, r.fold, 3, Rng(derive_seed(11, "split", ds.name)))
            rng = Rng(derive_seed(11, "train", ds.name, 0, "oracle", r.fold, r.trial))
            out = run_supervised(ds, split, FAST, rng)
            assert abs(100.0 * out.max_test_accuracy - r.max_test_acc) < 1e-12

    def test_duplicate_config_reuses_result(self):
        ssl = SslConfig("TBST", max_iterations=1)
        grid = small_grid(
            algorithms=[AlgorithmEntry("supervised"),
                        AlgorithmEntry("TBST", ssl, detail="one"),
                        AlgorithmEntry("TBST", ssl, detail="two")],
            include_oracle=False, n_seeds=1)
        results = run_grid(check_plan([grid]))
        one = [r.max_test_acc for r in results if r.detail == "one"]
        two = [r.max_test_acc for r in results if r.detail == "two"]
        assert one == two

    def test_failure_diagnostic_names_cell(self):
        # each run raises on overflow itself, so a caller that ignores overflow still gets it
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ProtocolError, match="dataset=tiny.*: overflow encountered"):
            run_grid(check_plan([failing_grid()]))

    def test_failure_in_worker_names_cell(self):
        with pytest.raises(ProtocolError, match="run failed for dataset=tiny rate=0.5 "
                                                "algorithm=TT fold=0 trial=0"):
            run_grid(check_plan([failing_grid()]), jobs=2)
        assert multiprocessing.active_children() == []

    def test_dead_worker_is_protocol_error(self, monkeypatch):
        class ExitOnLoad:
            # unpickling this in a spawned worker ends the process at once
            def __reduce__(self):
                return os._exit, (70,)

        # a forked worker inherits this patch, and ends as its first run starts
        monkeypatch.setattr(protocol, "_execute_run", lambda *desc: os._exit(70))
        grid = small_grid(include_oracle=False, n_seeds=1)
        grid.datasets[0].unpicklable = ExitOnLoad()
        with pytest.raises(ProtocolError, match="worker process died before run "
                                                "dataset=mini rate=0.9"):
            run_grid(check_plan([grid]), jobs=2)
        assert multiprocessing.active_children() == []

    def test_grids_share_runs_only_under_equal_training(self):
        ds = make_blobs("mini", n=150, d=6, n_classes=2, separation=4.0, seed=3)

        def grid(study):
            return ExperimentGrid(datasets=[ds], algorithms=[AlgorithmEntry("supervised")],
                                  unlabeled_rates=[0.9], n_folds=3, n_seeds=1, base_seed=11,
                                  train=FAST, study=study, include_oracle=False)

        grids = [grid("a"), grid("b"), replace(grid("c"), base_seed=12),
                 replace(grid("d"), train=TrainConfig(epochs=3, batch_size=32)),
                 replace(grid("e"), n_folds=2)]
        executed = []
        results = run_grid(check_plan(grids), progress=executed.append)
        assert [r.study for r in results] == list("aaabbbcccddd") + ["e", "e"]
        assert len(executed) == 11  # b repeats a; c, d and e each differ from a
        a, b = ([(r.max_test_acc, r.wall_ms) for r in results if r.study == s] for s in "ab")
        assert a == b

    def test_same_name_different_datasets_across_grids_rejected(self, monkeypatch):
        def no_training(*args):
            raise AssertionError("a run executed")

        monkeypatch.setattr("proxyssl.protocol._execute_run", no_training)
        grids = [ExperimentGrid(datasets=[make_blobs("a", n=60, d=4, n_classes=2,
                                                     separation=4.0, seed=seed)],
                                algorithms=[AlgorithmEntry("supervised")], unlabeled_rates=[0.5],
                                train=FAST, study=f"s{seed}", include_oracle=False)
                 for seed in (1, 2)]
        with pytest.raises(ConfigError, match="'a'"):
            run_grid(check_plan(grids))

    def test_two_grids_of_one_study_rejected(self, monkeypatch):
        def no_training(*args):
            raise AssertionError("a run executed")

        monkeypatch.setattr("proxyssl.protocol._execute_run", no_training)
        # both keep the default study name: every cell would hold each run twice
        grids = [small_grid(), small_grid(rates=(0.8,))]
        with pytest.raises(ConfigError, match="'baselines'"):
            run_grid(check_plan(grids))

    def test_ct_on_one_column_dataset_rejected(self, monkeypatch):
        def no_training(*args):
            raise AssertionError("a run executed")

        monkeypatch.setattr("proxyssl.protocol._execute_run", no_training)
        ds = make_blobs("flat", n=60, d=1, n_classes=2, separation=4.0, seed=1)
        grid = ExperimentGrid(datasets=[ds],
                              algorithms=[AlgorithmEntry("supervised"),
                                          AlgorithmEntry("CT", SslConfig("CT"))],
                              unlabeled_rates=[0.5], train=FAST, include_oracle=False)
        with pytest.raises(ConfigError, match="CT.*'flat' has d=1"):
            run_grid(check_plan([grid]))

    @pytest.mark.parametrize("name", ["a,b", "a/b", "a\nb", "a\rb"])
    def test_log_separator_in_study_or_detail_rejected(self, name):
        with pytest.raises(ConfigError, match="must not contain"):
            small_grid(study=name)
        with pytest.raises(ConfigError, match="must not contain"):
            AlgorithmEntry("supervised", detail=name)

    def test_empty_algorithms_rejected(self):
        ds = make_blobs("mini", n=60, d=4, n_classes=2, separation=4.0, seed=3)
        with pytest.raises(ConfigError):
            ExperimentGrid(datasets=[ds], algorithms=[], unlabeled_rates=[0.9])

    @pytest.mark.parametrize("change, fragment", [
        ({"datasets": []}, "grid needs at least one dataset"),
        ({"unlabeled_rates": [0.9, 1.0]}, "unlabeled rate must lie in [0, 1), got 1.0"),
        ({"unlabeled_rates": [-0.1]}, "unlabeled rate must lie in [0, 1), got -0.1"),
        ({"n_folds": 1}, "need n_folds >= 2 and n_seeds >= 1"),
        ({"n_seeds": 0}, "need n_folds >= 2 and n_seeds >= 1"),
    ], ids=["no-dataset", "rate-1", "rate-negative", "n_folds-1", "n_seeds-0"])
    def test_invalid_grid_rejected(self, change, fragment):
        with pytest.raises(ConfigError, match=re.escape(fragment)):
            replace(small_grid(), **change)

    @pytest.mark.parametrize("name, ssl", [
        ("TT", SslConfig("TBST", max_iterations=1)),
        ("supervised", SslConfig("CT", max_iterations=1)),
        ("oracle", SslConfig("TBST")),
        ("CT", None),
    ])
    def test_entry_name_must_match_its_config(self, name, ssl):
        # the log records the row's name, but the config is what would run
        with pytest.raises(ConfigError, match=repr(name)):
            AlgorithmEntry(name, ssl, detail="x")

    def test_oracle_entry_rejected(self):
        # include_oracle is the one switch for the Oracle row
        with pytest.raises(ConfigError, match="include_oracle"):
            small_grid(algorithms=[AlgorithmEntry("supervised"), AlgorithmEntry("oracle")],
                       include_oracle=False)

    def test_repeated_rate_rejected(self):
        # each run of a repeated rate would be logged, and t-tested, twice
        with pytest.raises(ConfigError, match="unique"):
            small_grid(rates=(0.9, 0.8, 0.90))


class TestSharedSplits:
    def grid(self):
        datasets = [make_blobs(name, n=90, d=4, n_classes=2, separation=4.0, seed=seed)
                    for seed, name in enumerate(("p", "q"))]
        return ExperimentGrid(datasets=datasets,
                              algorithms=[AlgorithmEntry("supervised"),
                                          AlgorithmEntry("TBST", SslConfig("TBST", max_iterations=1))],
                              unlabeled_rates=[0.9, 0.8], n_seeds=2, base_seed=3, train=FAST)

    def test_one_split_per_dataset_rate_fold(self, monkeypatch):
        made = []
        real = protocol.make_semi_split
        monkeypatch.setattr(protocol, "make_semi_split", lambda *a: made.append(a) or real(*a))
        results = run_grid(check_plan([self.grid()]))
        keys = {(r.dataset, r.rate, r.fold) for r in results}
        assert len(made) == len(keys) == 2 * 3 * 3  # datasets x (oracle + 2 rates) x folds
        assert len(results) == 2 * 3 * 2 * (1 + 2 * 2)

    def test_runs_of_a_fold_share_one_read_only_split(self, monkeypatch):
        seen = {}
        real = protocol.run_supervised

        def record(ds, split, train_cfg, rng):
            seen.setdefault((ds.name, len(split.unlabeled_idx), split.test_idx[0]),
                            set()).add(id(split))
            for idx in (split.labeled_idx, split.unlabeled_idx, split.test_idx):
                assert not idx.flags.writeable
            with pytest.raises(ValueError):
                split.test_idx[0] = 0
            return real(ds, split, train_cfg, rng)

        monkeypatch.setattr(protocol, "run_supervised", record)
        run_grid(check_plan([self.grid()]))
        # supervised and oracle runs: (2 datasets) x (3 rates) x (3 folds), 2 trials each
        assert len(seen) == 18 and all(len(ids) == 1 for ids in seen.values())

    def test_worker_trains_on_the_plans_splits(self, monkeypatch):
        grid = small_grid(algorithms=[AlgorithmEntry("supervised"),
                                      AlgorithmEntry("TBST", SslConfig("TBST", max_iterations=1))],
                          n_seeds=1)
        plan = check_plan([grid])
        serial = run_grid(plan)
        # a worker receives the runs pickled, through the pool's initializer, and their
        # splits arrive read-only
        runs = pickle.loads(pickle.dumps(plan.runs))
        for *_, split in runs:
            for idx in (split.labeled_idx, split.unlabeled_idx, split.test_idx):
                assert not idx.flags.writeable
        monkeypatch.setattr(protocol, "_worker_runs", None)
        protocol._init_worker(runs)

        def no_split(*args):
            raise AssertionError("a worker made a split")

        monkeypatch.setattr(protocol, "make_semi_split", no_split)
        executed = [protocol._run_in_worker(i) for i in range(len(runs))]
        assert ([executed[i][:2] for i, _, _ in plan.rows]
                == [(r.max_test_acc, r.iterations) for r in serial])


class TestCheckPlan:
    @pytest.fixture(autouse=True)
    def no_training(self, monkeypatch):
        def no_training(*args):
            raise AssertionError("a run executed")

        monkeypatch.setattr(protocol, "_execute_run", no_training)

    @pytest.mark.parametrize("key, text", [(("mini", 0.9, "Supervsed"), "mini@0.9/Supervsed"),
                                           (("mnii", 0.9, "Supervised"), "mnii@0.9/Supervised"),
                                           (("mini", 0.8, "Supervised"), "mini@0.8/Supervised")])
    def test_reference_key_naming_no_cell_rejected(self, key, text):
        with pytest.raises(ConfigError, match=f"key '{text}' names no table cell"):
            check_plan([small_grid()], {key: 50.0})

    def test_series_name_shared_by_two_studies_rejected(self):
        # study a_b on dataset c and study a on dataset b_c both name series_a_b_c.txt
        def grid(study, name):
            ds = make_blobs(name, n=60, d=4, n_classes=2, separation=4.0, seed=1)
            return ExperimentGrid(datasets=[ds], algorithms=[AlgorithmEntry("supervised")],
                                  unlabeled_rates=[0.9, 0.8], n_folds=2, n_seeds=1,
                                  train=FAST, study=study, include_oracle=False)

        with pytest.raises(ConfigError, match="study 'a_b' dataset 'c' and study 'a' dataset "
                                              "'b_c' would both write series_a_b_c.txt"):
            check_plan([grid("a_b", "c"), grid("a", "b_c")])

    def test_rows_past_max_runs_rejected(self, monkeypatch):
        made = []
        real = protocol.make_semi_split
        monkeypatch.setattr(protocol, "make_semi_split", lambda *a: made.append(a) or real(*a))
        monkeypatch.setattr(protocol, "MAX_RUNS", 30)
        grid = small_grid()
        assert len(check_plan([grid]).rows) == 30  # oracle and one rate, 15 runs each
        with pytest.raises(ConfigError, match="more than 30 runs"):
            check_plan([grid, replace(grid, study="again", include_oracle=False)])
        # the bound holds before the rows are listed, whatever the grid asks for
        made.clear()
        with pytest.raises(ConfigError, match="more than 30 runs"):
            check_plan([small_grid(n_seeds=10**20)])
        assert len(made) == 1

    def test_enumerate_runs_yields_in_canonical_order(self):
        grid = small_grid(rates=(0.9, 0.8), n_seeds=2)
        runs = protocol.enumerate_runs(grid)
        assert isinstance(runs, types.GeneratorType)
        # the request keys that perfbench/run.py builds, in one pass over the generator
        keys = [(ds.name, 0.0 if entry.algorithm == "oracle" else rate, entry.algorithm,
                 repr(entry.ssl), fold, trial)
                for ds, rate, entry, fold, trial in protocol.enumerate_runs(grid)]
        assert keys == [("mini", rate, algorithm, "None", fold, trial)
                        for rate, algorithm in ((0.0, "oracle"), (0.9, "supervised"),
                                                (0.8, "supervised"))
                        for fold in range(3) for trial in range(2)]

    @pytest.mark.parametrize("config, name", [(FAST, "epochs"),
                                              (AlgorithmEntry("supervised"), "detail")])
    def test_plan_configs_are_frozen(self, config, name):
        # a config changed after check_plan would run under a key deduplicated as another
        with pytest.raises(FrozenInstanceError):
            setattr(config, name, 7)


UNGUARDED_SCRIPT = """
from dataclasses import astuple

from proxyssl import AlgorithmEntry, ExperimentGrid, TrainConfig, check_plan, run_grid
from proxyssl.synthetic import make_blobs

grid = ExperimentGrid(datasets=[make_blobs("a", n=60, d=4, n_classes=2, separation=4.0, seed=1)],
                      algorithms=[AlgorithmEntry("supervised")], unlabeled_rates=[0.5],
                      n_seeds=1, train=TrainConfig(epochs=1), include_oracle=False)
plan = check_plan([grid])
parallel, serial = run_grid(plan, jobs=2), run_grid(plan, jobs=1)
print("same results" if [astuple(r)[:-1] for r in parallel] == [astuple(r)[:-1] for r in serial]
      else "different results")
"""

# with the thread setter hidden, run_grid spawns its workers, as without fork or OpenBLAS
FORCE_SPAWN = "from proxyssl import protocol\nprotocol._openblas = lambda: None\n"


def run_script(tmp_path, text, **env):
    """Run ``text`` as a script in its own session; (returncode, stdout, stderr)."""
    script = tmp_path / "script.py"
    script.write_text(text, encoding="utf-8")
    src = str(Path(proxyssl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               **env)
    # its own process group holds the script, its workers and their helpers
    proc = subprocess.Popen([sys.executable, str(script)], env=env, cwd=tmp_path,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the script hung")
    deadline = time.monotonic() + 10
    while live_group_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.1)
    left = live_group_members(proc.pid)
    if left:
        os.killpg(proc.pid, signal.SIGKILL)
    assert left == []
    return proc.returncode, out, err


def live_processes():
    """(pid, parent pid, group) of each process that is still running (not a zombie)."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:  # the process ended while we looked
            continue
        state, parent, group = text[text.rindex(")") + 2:].split()[:3]
        if state != "Z":
            yield int(stat.parent.name), int(parent), int(group)


def live_group_members(pgid):
    """Pids of the live processes of group ``pgid``."""
    return [pid for pid, _, group in live_processes() if group == pgid]


def pool_workers(ppid):
    """Pids of the live children of ``ppid``, but for multiprocessing's resource tracker."""
    workers = []
    for pid, parent, _ in live_processes():
        try:
            cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
        except OSError:  # the process ended while we looked
            continue
        if parent == ppid and b"resource_tracker" not in cmdline:
            workers.append(pid)
    return workers


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads the process table")
def test_script_without_main_guard_fails_fast(tmp_path):
    returncode, _, err = run_script(tmp_path, FORCE_SPAWN + UNGUARDED_SCRIPT)
    assert returncode != 0
    # each spawned worker stops at its own run_grid call, before starting a pool of its own
    assert "run_grid was called while a worker process imported the main module" in err, err
    assert 'ProtocolError' in err and 'if __name__ == "__main__":' in err, err


@forked_only
def test_forked_script_needs_no_main_guard(tmp_path):
    # a forked worker imports nothing, so the script's jobs=2 call runs as jobs=1 does
    assert run_script(tmp_path, UNGUARDED_SCRIPT) == (0, "same results\n", "")


BLAS_WIDTH_SCRIPT = """
from proxyssl import AlgorithmEntry, ExperimentGrid, check_plan, protocol, run_grid
from proxyssl.synthetic import make_blobs

get_num_threads = protocol._openblas()[1]
# each run reports the thread count of the BLAS it would train with
protocol._execute_run = lambda *desc: (get_num_threads(), 0, 0.0)
grid = ExperimentGrid(datasets=[make_blobs("a", n=60, d=4, n_classes=2, separation=4.0, seed=1)],
                      algorithms=[AlgorithmEntry("supervised")], unlabeled_rates=[0.5],
                      n_seeds=4, include_oracle=False)
print(sorted({r.max_test_acc for r in run_grid(check_plan([grid]), jobs=2)}))
"""


@forked_only
@pytest.mark.parametrize("user_width, width", [(None, 1), ("3", 3)])
def test_forked_worker_blas_width(tmp_path, monkeypatch, user_width, width):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    env = {} if user_width is None else {"OPENBLAS_NUM_THREADS": user_width}
    assert run_script(tmp_path, BLAS_WIDTH_SCRIPT, **env) == (0, f"[{width}]\n", "")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads the process table")
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGINT, signal.SIGKILL],
                         ids=["SIGTERM", "SIGINT", "SIGKILL"])
def test_sigterm_to_run_leaves_no_worker(tmp_path, sig):
    data = tmp_path / "blobs.csv"
    save_csv(make_blobs("blobs", n=120, d=8, n_classes=2, separation=4.0, seed=1), data)
    spec = tmp_path / "long.ini"
    # 1,500 runs of 30 epochs: the grid is still training when both workers have started
    spec.write_text(f"[global]\ndatasets = {data}\nn_seeds = 100\nepochs = 30\n"
                    "[study a]\nrates = 0.9, 0.8\nmax_iterations = 1\n"
                    "algorithms = supervised, TBST\n", encoding="utf-8")
    src = str(Path(proxyssl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-m", "proxyssl.cli", "run", str(spec), "--jobs", "2",
                             "--out", str(tmp_path / "out")], env=env, cwd=tmp_path,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while len(pool_workers(proc.pid)) < 2:
            assert proc.poll() is None, proc.stderr.read().decode()
            assert time.monotonic() < deadline, "run --jobs 2 started no two workers"
            time.sleep(0.05)
        # run keeps each signal's default action, and its workers end with it
        proc.send_signal(sig)
        assert proc.wait(timeout=60) == -sig
        assert not (tmp_path / "out").exists()
        deadline = time.monotonic() + 10
        while live_group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert live_group_members(proc.pid) == []
    finally:
        if live_group_members(proc.pid):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stderr.close()


class TestLogRoundTrip:
    def test_format_parse_round_trip(self):
        results = run_grid(check_plan([small_grid(include_oracle=False, n_seeds=1)]))
        text = format_log(results)
        back = parse_log(text)
        assert len(back) == len(results)
        for a, b in zip(results, back):
            assert (a.dataset, a.rate, a.algorithm, a.study, a.detail, a.fold, a.trial) == \
                   (b.dataset, b.rate, b.algorithm, b.study, b.detail, b.fold, b.trial)
            assert a.max_test_acc == b.max_test_acc
            assert a.iterations == b.iterations

    def test_corrupt_line_names_lineno(self):
        with pytest.raises(DataError, match=":2:"):
            parse_log("a,0.9,supervised,s/std,0,0,50.0,0,1.0\nbroken line\n")

    def test_variant_requires_study_prefix(self):
        with pytest.raises(DataError, match="study"):
            parse_log("a,0.9,supervised,nostudy,0,0,50.0,0,1.0\n")


def row_runs(algorithm, accs, rate=0.9):
    """One row's 3 folds x 5 trials on dataset d1 of study s."""
    return [RunResult("d1", rate, algorithm, "s", "std", f, t, float(accs[f * 5 + t]), 0, 1.0)
            for f in range(3) for t in range(5)]


class TestMarkSignificance:
    def marks(self, runs):
        (table,) = tables_from_results(runs)
        return {label: cell.significance for (label, _), cell in table.cells.items()}

    def test_identical_cells_none(self):
        accs = np.linspace(80, 90, 15)
        assert self.marks(row_runs("supervised", accs) + row_runs("TT", accs))["TT"] == "none"

    def test_constant_shift_better(self):
        sup = np.linspace(80, 90, 15)
        assert self.marks(row_runs("supervised", sup) + row_runs("TT", sup + 5.0))["TT"] == "better"

    def test_constant_shift_worse(self):
        sup = np.linspace(80, 90, 15)
        assert self.marks(row_runs("supervised", sup) + row_runs("TT", sup - 5.0))["TT"] == "worse"

    def test_table_without_supervised_unmarked(self):
        assert self.marks(row_runs("TT", np.linspace(80, 90, 15))) == {"TT": ""}

    def test_unmatched_pairing_rejected(self):
        accs = np.linspace(80, 90, 15)
        runs = row_runs("supervised", accs) + row_runs("TT", accs)
        runs[-1] = replace(runs[-1], fold=9)
        with pytest.raises(DataError, match="same two or more"):
            tables_from_results(runs)

    def test_oracle_row_not_marked(self):
        accs = np.linspace(80, 90, 15)
        marks = self.marks(row_runs("oracle", accs + 10.0, rate=0.0)
                           + row_runs("supervised", accs) + row_runs("TT", accs))
        assert marks == {"Oracle": "", "Supervised": "", "TT": "none"}


class TestTables:
    def test_oracle_attaches_to_every_rate_block(self):
        grid = small_grid(rates=(0.9, 0.8), include_oracle=True, n_seeds=1)
        tables = tables_from_results(run_grid(check_plan([grid])))
        assert len(tables) == 2
        for t in tables:
            assert t.row_labels[0] == "Oracle"
            assert ("Oracle", "mini") in t.cells

    def test_render_deterministic(self):
        results = run_grid(check_plan([small_grid(n_seeds=2)]))
        tables = tables_from_results(results)
        text1 = [render_table_text(t) for t in tables]
        text2 = [render_table_text(t) for t in tables_from_results(results)]
        assert text1 == text2
        csv1 = [render_table_delimited(t) for t in tables]
        assert all("study,rate,row,dataset,mean,significance" in c for c in csv1)

    def test_text_columns_align_under_long_dataset_names(self):
        names = ["d1", "ninechars", "tenchars10", "news_headlines_long"]
        cells = {("Oracle", ds): CellResult(runs=[(0, 0, 80.0 + i)]) for i, ds in enumerate(names)}
        cells[("TT", "tenchars10")] = CellResult(runs=[(0, 0, 91.25)], significance="better")
        header, *rows = render_table_text(
            ComparisonTable("s", 0.9, names, ["Oracle", "TT"], cells)).splitlines()[1:]
        # each column ends where its header name ends; a name never touches the column before
        ends = [m.end() for m in re.finditer(r"\S+", header)]
        assert header.split() == ["algorithm"] + names
        for line, want in zip(rows, [["Oracle", "80.00", "81.00", "82.00", "83.00"],
                                     ["TT", "-", "-", "91.25+", "-"]]):
            assert len(line) == len(header)
            fields = [line[a:b] for a, b in zip([0] + ends, ends)]
            assert [f.strip() for f in fields] == want
            assert all(f.startswith(" ") for f in fields[1:])

    def test_mean_matches_runs(self):
        results = run_grid(check_plan([small_grid(include_oracle=False, n_seeds=2)]))
        table = tables_from_results(results)[0]
        cell = table.cells[("Supervised", "mini")]
        assert abs(cell.mean - np.mean(cell.accuracies)) < 1e-12

    def test_repeated_fold_trial_in_a_cell_rejected(self):
        runs = [RunResult("d", 0.9, alg, "s", "std", 0, 0, 50.0, 0, 1.0)
                for alg in ("supervised", "TBST")]
        with pytest.raises(DataError, match="'TBST' on 'd' holds a \\(fold, trial\\) more than once"):
            tables_from_results(runs + runs[1:])

    def test_union_of_disjoint_logs(self):
        ga = small_grid(include_oracle=False, n_seeds=1, study="a")
        gb = small_grid(include_oracle=False, n_seeds=1, study="b")
        ra, rb = run_grid(check_plan([ga])), run_grid(check_plan([gb]))
        merged = tables_from_results(ra + rb)
        assert {t.study for t in merged} == {"a", "b"}
        separate = tables_from_results(ra) + tables_from_results(rb)
        assert [render_table_text(t) for t in merged] == \
               [render_table_text(t) for t in separate]
