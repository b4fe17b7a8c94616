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
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

from .classifier import TrainConfig
from .dataset import Dataset, check_log_field, make_semi_split
from .engine import SslConfig, run_algorithm, run_supervised
from .errors import ConfigError, DataError, ProtocolError
from .numerics import Rng

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
        if self.algorithm not in BASELINE_ALGORITHMS and self.ssl is None:
            raise ConfigError(f"algorithm {self.algorithm!r} needs an SslConfig")
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
        # runs, splits and table cells key on these
        for what, names in (("dataset names", [ds.name for ds in self.datasets]),
                            ("row labels", [e.row_label() for e in self.algorithms])):
            if len(set(names)) < len(names):
                raise ConfigError(f"{what} must be unique, got {names}")
        if not self.unlabeled_rates:
            raise ConfigError("grid needs at least one unlabeled rate")
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
    variant: str  # "<study>/<detail>"
    fold: int
    trial: int
    max_test_acc: float  # percentage
    iterations: int
    wall_ms: float

    @property
    def study(self):
        return self.variant.split("/", 1)[0]

    @property
    def detail(self):
        return self.variant.split("/", 1)[1]


def _execute_run(ds: Dataset, rate, entry: AlgorithmEntry, fold, trial, grid: ExperimentGrid):
    rate_key = int(round(rate * 10**6))
    split_rng = Rng(derive_seed(grid.base_seed, "split", ds.name))
    split = make_semi_split(ds, rate, fold, grid.n_folds, split_rng)
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
        variant=f"{grid.study}/{entry.detail}",
        fold=fold,
        trial=trial,
        max_test_acc=100.0 * outcome.max_test_accuracy,
        iterations=outcome.iterations_run,
        wall_ms=wall_ms,
    )


def enumerate_runs(grid: ExperimentGrid):
    """Run descriptors in canonical order: oracle block, then rate blocks."""
    runs = []
    oracle = [e for e in grid.algorithms if e.algorithm == "oracle"]
    if grid.include_oracle and not oracle:
        oracle = [AlgorithmEntry("oracle")]
    others = [e for e in grid.algorithms if e.algorithm != "oracle"]
    for entry in oracle:
        for ds in grid.datasets:
            for fold in range(grid.n_folds):
                for trial in range(grid.n_seeds):
                    runs.append((ds, 0.0, entry, fold, trial))
    for rate in grid.unlabeled_rates:
        for entry in others:
            for ds in grid.datasets:
                for fold in range(grid.n_folds):
                    for trial in range(grid.n_seeds):
                        runs.append((ds, rate, entry, fold, trial))
    return runs


def run_grid(grids, jobs=1, progress=None):
    """Execute every run of a spec's grids; results come back in canonical order.

    Identical work requested twice, by one grid or by two (same dataset, rate,
    algorithm, config, fold, trial, training config, folds and base seed),
    executes once and is re-labeled ``<study>/<detail>`` per requesting row.
    Its seeds never involve the study, so a shared run is bit-identical to one
    executed twice. Any run failure aborts with a diagnostic naming the cell.
    """
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
    descriptors = [(grid, *run) for grid in grids for run in enumerate_runs(grid)]

    def one(desc):
        grid, ds, rate, entry, fold, trial = desc
        try:
            res = _execute_run(ds, rate, entry, fold, trial, grid)
        except Exception as exc:
            raise ProtocolError(
                f"run failed for dataset={ds.name} rate={rate} algorithm={entry.algorithm} "
                f"fold={fold} trial={trial}: {exc}"
            ) from exc
        if progress:
            progress(res)
        return res

    # dedupe, execute each distinct run once, then relabel per requesting entry
    keys = [(ds.name, rate, entry.algorithm, repr(entry.ssl), fold, trial,
             repr(grid.train), grid.n_folds, grid.base_seed)
            for grid, ds, rate, entry, fold, trial in descriptors]
    first = {}
    for key, desc in zip(keys, descriptors):
        first.setdefault(key, desc)
    if jobs <= 1:
        executed = list(map(one, first.values()))
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            executed = list(pool.map(one, first.values()))
    by_key = dict(zip(first, executed))
    return [replace(by_key[key], variant=f"{grid.study}/{entry.detail}")
            for key, (grid, _, _, entry, _, _) in zip(keys, descriptors)]


def format_log(results):
    lines = []
    for r in results:
        lines.append(
            f"{r.dataset},{r.rate!r},{r.algorithm},{r.variant},{r.fold},{r.trial},"
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
        try:
            results.append(RunResult(
                dataset=parts[0], rate=float(parts[1]), algorithm=parts[2], variant=parts[3],
                fold=int(parts[4]), trial=int(parts[5]), max_test_acc=float(parts[6]),
                iterations=int(parts[7]), wall_ms=float(parts[8]),
            ))
        except ValueError as exc:
            raise DataError(f"{source}:{lineno}: {exc}")
        if "/" not in parts[3]:
            raise DataError(f"{source}:{lineno}: variant {parts[3]!r} lacks a study prefix")
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


def tables_from_results(results, alpha=0.10):
    """Group run results into one ComparisonTable per (study, rate block).

    Oracle runs (rate 0) attach as the leading row of every rate block of
    their study. Ordering follows first appearance, so identical logs render
    identical tables.
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
            table = ComparisonTable(study, rate, datasets, rows, cells)
            if "Supervised" in rows:
                mark_significance(table, alpha)
            tables.append(table)
    return tables


def mark_significance(table: ComparisonTable, alpha=0.10):
    """Mark each SSL cell better/worse/none against the matched Supervised cell."""
    from .stats import paired_t_test

    if "Supervised" not in table.row_labels:
        raise ProtocolError(f"table {table.study}@{table.rate} has no Supervised row to compare")
    for label in table.row_labels:
        if label in ("Supervised", "Oracle"):
            continue
        for ds in table.dataset_names:
            cell = table.cells.get((label, ds))
            sup = table.cells.get(("Supervised", ds))
            if cell is None or sup is None:
                continue
            if cell.pairs() != sup.pairs():
                raise ProtocolError(
                    f"unmatched (fold, trial) pairing for {label!r} vs Supervised on {ds!r}"
                )
            res = paired_t_test(cell.accuracies, sup.accuracies, alpha)
            if not res.significant:
                cell.significance = "none"
            else:
                cell.significance = "better" if res.direction > 0 else "worse"
    return table


_MARKS = {"": "", "none": "", "better": "+", "worse": "-"}


def render_table_text(table: ComparisonTable):
    """Aligned text table; +/- suffixes mark significance vs Supervised."""
    header = [f"study {table.study}, unlabeled rate {table.rate!r}"]
    width = max([len("algorithm")] + [len(l) for l in table.row_labels]) + 2
    cols = [f"{'algorithm':<{width}}"]
    for ds in table.dataset_names:
        cols.append(f"{ds:>10}")
    header.append("".join(cols))
    lines = header
    for label in table.row_labels:
        parts = [f"{label:<{width}}"]
        for ds in table.dataset_names:
            cell = table.cells.get((label, ds))
            if cell is None:
                parts.append(f"{'-':>10}")
            else:
                parts.append(f"{cell.mean:.2f}{_MARKS[cell.significance]:<1}".rjust(10))
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
