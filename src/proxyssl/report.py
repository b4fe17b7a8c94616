"""Run log and report: the log's format, the comparison tables and the report files.

Results persist as a flat run-log, one line per run:

    dataset,rate,algorithm,variant,fold,trial,max_test_acc,iterations,wall_ms

The variant is ``<study>/<detail>``. Accuracies are percentages at full
precision. Tables are recomputed from the log alone, so reports never require
retraining. The wall_ms field is the one intentionally non-deterministic
column.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import product

from .errors import DataError
from .stats import paired_t_test

LOG_NAME = "run_log.csv"

# what no dataset, study or row-detail name may hold: the run log's separators (',' between
# fields, '/' between study and row detail, a line break between records) and NUL, since
# these names become parts of the report's file names
UNSAFE_NAME_CHARS = ",/\n\r\0"


def check_log_field(what, value, error):
    if any(ch in value for ch in UNSAFE_NAME_CHARS):
        raise error(f"{what} {value!r} must not contain ',', '/', a line break or a NUL")


def format_row_label(algorithm, detail):
    """Table row label: display name, then the variant detail unless it is "std"."""
    name = {"oracle": "Oracle", "supervised": "Supervised"}.get(algorithm, algorithm)
    return name if detail == "std" else f"{name} {detail}"


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


def format_log(results):
    return "".join(f"{r.dataset},{r.rate!r},{r.algorithm},{r.study}/{r.detail},{r.fold},"
                   f"{r.trial},{r.max_test_acc!r},{r.iterations},{r.wall_ms:.3f}\n"
                   for r in results)


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
        if not (0.0 <= rate < 1.0 and 0.0 <= acc <= 100.0 and math.isfinite(wall_ms)):
            raise DataError(f"{source}:{lineno}: need a rate in [0, 1), max_test_acc in "
                            f"[0, 100] and a finite wall_ms, got {parts[1]}, {parts[6]} and "
                            f"{parts[8]}")
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
    cells: dict  # (row_label, dataset) -> CellResult, row by row in table order


def tables_from_results(results):
    """Group run results into one ComparisonTable per (study, rate block).

    Oracle runs (rate 0) attach as the leading row of every rate block of
    their study. Ordering follows first appearance, so identical logs render
    identical tables. Each cell is checked once: its (fold, trial) pairs are
    distinct, and an SSL cell beside a Supervised cell holds the same two or
    more pairs, which the paired t-test at ``stats.ALPHA`` then marks; anything
    else is a DataError.
    """
    # study -> (Oracle runs, {rate: its block's runs}, datasets in first-appearance order)
    studies = {}
    for r in results:
        oracle, blocks, datasets = studies.setdefault(r.study, ([], {}, {}))
        if r.algorithm == "oracle":
            oracle.append(r)
        else:
            blocks.setdefault(r.rate, []).append(r)
            datasets.setdefault(r.dataset)

    tables = []
    for study, (oracle, blocks, datasets) in studies.items():
        datasets = list(dict.fromkeys([*datasets, *(r.dataset for r in oracle)]))
        # a study of Oracle runs alone takes its rates from them
        for rate, block in (blocks or {r.rate: [] for r in oracle}).items():
            rows, cells = [], {}
            for r in oracle + block:
                label = format_row_label(r.algorithm, r.detail)
                if label not in rows:
                    rows.append(label)
                cells.setdefault((label, r.dataset), CellResult(runs=[])).runs.append(
                    (r.fold, r.trial, r.max_test_acc)
                )
            for cell in cells.values():
                cell.runs.sort(key=lambda e: (e[0], e[1]))
            cells = {key: cells[key] for key in product(rows, datasets) if key in cells}
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
    for (label, ds), cell in table.cells.items():
        lines.append(
            f"{table.study},{table.rate!r},{label},{ds},{cell.mean:.2f},{cell.significance}"
        )
    return "\n".join(lines) + "\n"


def series_points(tables):
    """Supervised accuracy vs labeled fraction, {(study, dataset): sorted points}.

    Emitted for each pair with Supervised cells at two or more rates;
    fraction = 1 - unlabeled rate.
    """
    points = {}
    for t in tables:
        for ds in t.dataset_names:
            cell = t.cells.get(("Supervised", ds))
            if cell is not None:
                points.setdefault((t.study, ds), []).append((round(1.0 - t.rate, 9), cell.mean))
    return {key: sorted(pts) for key, pts in points.items() if len(pts) >= 2}


def report_files(results, reference=None):
    """Every report file of ``results`` as {file name: text}, built before any is written.

    Two text forms of each (study, rate) table, then a series per (study,
    dataset) from ``series_points``, then, given ``reference`` (dataset,
    rate, row) -> expected mean, ``reference_delta.csv`` with a line per
    (study, cell) that a key names (not gated). Raises ``DataError`` for
    runs the tables reject, two outputs with one name, or a reference key
    that names no cell.
    """
    tables = tables_from_results(results)
    files, owners = {}, {}

    def add(name, owner, text):
        if "/" in name or "\0" in name:
            raise DataError(f"{owner} would write {name!r}, which is no file name")
        if name in owners:
            raise DataError(f"{owners[name]} and {owner} would both write {name}")
        owners[name], files[name] = owner, text

    for t in tables:
        stem, owner = f"table_{t.study}_rate{t.rate!r}", f"study {t.study!r} rate {t.rate!r}"
        add(stem + ".txt", owner, render_table_text(t))
        add(stem + ".csv", owner, render_table_delimited(t))
    for (study, ds), pts in series_points(tables).items():
        add(f"series_{study}_{ds}.txt", f"study {study!r} dataset {ds!r}",
            "".join(f"{frac:g} {mean:.4f}\n" for frac, mean in pts))
    if reference:
        lines, named = ["study,dataset,rate,row,mean,reference,delta"], set()
        for t in tables:
            for (label, ds), cell in t.cells.items():
                key = (ds, t.rate, label)
                if key in reference:
                    named.add(key)
                    ref = reference[key]
                    lines.append(f"{t.study},{ds},{t.rate!r},{label},{cell.mean:.2f},"
                                 f"{ref:.2f},{cell.mean - ref:+.2f}")
        for ds, rate, row in reference:
            if (ds, rate, row) not in named:
                key = f"{ds}@{rate!r}/{row}"
                raise DataError(f"[reference] key {key!r} names no table cell; "
                                f"each key names a dataset, a rate and a row of some study")
        add("reference_delta.csv", "[reference]", "\n".join(lines) + "\n")
    return files


def write_tables(files, out_dir):
    """Write every file of ``report_files`` into ``out_dir``; returns their paths."""
    written = []
    for name, text in files.items():
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        written.append(path)
    return written
