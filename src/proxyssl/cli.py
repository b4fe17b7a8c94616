"""Command-line interface: dataset validation, experiment runs, reports.

Commands::

    proxyssl validate <data.csv>
    proxyssl run <spec.ini> [--jobs N] [--out DIR]
    proxyssl report <run_log.csv> [--out DIR]

The output directory resolves as --out, then the spec's out_dir, then
$PROXYSSL_OUT, then ./results. Exit codes: 0 success, 1 data error,
2 config error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .dataset import load_csv, read_manifest, read_text
from .errors import ConfigError, DataError, ProxySslError
from .protocol import (
    check_plan,
    format_log,
    parse_log,
    planned_results,
    render_table_delimited,
    render_table_text,
    run_grid,
    tables_from_results,
)
from .specfile import parse_spec

ENV_OUT = "PROXYSSL_OUT"
LOG_NAME = "run_log.csv"


def cmd_validate(args):
    ds = load_csv(args.data)
    manifest = read_manifest(args.data)
    task = manifest.get("task", "") if manifest else ""
    print(f"name: {ds.name}")
    print(f"samples: {ds.n}")
    print(f"features: {ds.d}")
    print(f"classes: {ds.n_classes}")
    if task:
        print(f"task: {task}")
    for c, count in enumerate(ds.class_counts()):
        print(f"class {c}: {count}")
    return 0


def _resolve_out(cli_out, spec_out=None):
    out = cli_out or spec_out or os.environ.get(ENV_OUT) or "results"
    os.makedirs(out, exist_ok=True)
    return out


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
            for label in t.row_labels:
                for ds in t.dataset_names:
                    cell, key = t.cells.get((label, ds)), (ds, t.rate, label)
                    if key in reference and cell is not None:
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


def cmd_run(args):
    spec = parse_spec(args.spec)
    # a config error leaves no output directory; an unwritable one fails before training
    plan = check_plan(spec.grids, args.jobs)
    # the report of the plan names every file this run writes, and holds its every cell
    try:
        report_files(planned_results(plan), spec.reference)
    except DataError as exc:
        raise ConfigError(f"{args.spec}: {exc}") from None
    out_dir = _resolve_out(args.out, spec.out_dir)
    results = run_grid(plan, jobs=args.jobs)
    log_path = os.path.join(out_dir, LOG_NAME)
    with open(log_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_log(results))
    written = write_tables(report_files(results, spec.reference), out_dir)
    print(f"wrote {log_path} ({len(results)} runs)")
    for path in written:
        print(f"wrote {path}")
    return 0


def cmd_report(args):
    results = parse_log(read_text(args.log), source=args.log)
    if not results:
        raise DataError(f"{args.log}: no run lines")
    files = report_files(results)
    for path in write_tables(files, _resolve_out(args.out)):
        print(f"wrote {path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="proxyssl",
        description="Proxy-label semi-supervised learning experiments over "
                    "pre-embedded datasets.",
        epilog="exit codes: 0 success, 1 data error, 2 config error, 3 runtime error",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a dataset file and print its summary")
    v.add_argument("data", help="dataset csv path")
    v.set_defaults(func=cmd_validate)

    r = sub.add_parser("run", help="execute an experiment spec")
    r.add_argument("spec", help="experiment spec (ini)")
    r.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="runs at once, each in its own worker process with single-threaded "
                        "BLAS; the log is the same at any N (default 1: in this process)")
    r.add_argument("--out", default=None, help="output directory")
    r.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="rebuild tables from an existing run log")
    p.add_argument("log", help="run log path")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ProxySslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
