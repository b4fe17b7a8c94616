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
    render_table_delimited,
    render_table_text,
    run_grid,
    tables_from_results,
)
from .specfile import parse_spec
from .stats import ALPHA

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


def _table_paths(out_dir, table):
    stem = f"table_{table.study}_rate{table.rate!r}"
    return os.path.join(out_dir, stem + ".txt"), os.path.join(out_dir, stem + ".csv")


def write_tables(tables, out_dir):
    written = []
    for table in tables:
        txt, csv = _table_paths(out_dir, table)
        with open(txt, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render_table_text(table))
        with open(csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(render_table_delimited(table))
        written += [txt, csv]
    return written


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


def _series_name(study, dataset):
    return f"series_{study}_{dataset}.txt"


def _check_series_names(pairs, error):
    """Raise ``error`` when two (study, dataset) pairs would write one series file."""
    owners = {}
    for study, ds in pairs:
        name = _series_name(study, ds)
        first = owners.setdefault(name, (study, ds))
        if first != (study, ds):
            raise error(f"study {first[0]!r} dataset {first[1]!r} and study {study!r} "
                        f"dataset {ds!r} would both write {name}")


def write_series(series, out_dir):
    written = []
    for (study, ds), pts in series.items():
        path = os.path.join(out_dir, _series_name(study, ds))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for frac, mean in pts:
                fh.write(f"{frac:g} {mean:.4f}\n")
        written.append(path)
    return written


def write_reference_report(tables, reference, out_dir):
    """Compare cell means against user-supplied expected values (not gated)."""
    lines = ["dataset,rate,row,mean,reference,delta"]
    for table in tables:
        for label in table.row_labels:
            for ds in table.dataset_names:
                key = (ds, table.rate, label)
                if key not in reference:
                    continue
                cell = table.cells.get((label, ds))
                if cell is None:
                    continue
                ref = reference[key]
                lines.append(f"{ds},{table.rate!r},{label},{cell.mean:.2f},{ref:.2f},"
                             f"{cell.mean - ref:+.2f}")
    if len(lines) == 1:
        return None
    path = os.path.join(out_dir, "reference_delta.csv")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_report(results, out_dir, alpha=ALPHA):
    """Tables and series of ``results``; ``run`` and ``report`` both write through here."""
    tables = tables_from_results(results, alpha=alpha)
    series = series_points(tables)
    _check_series_names(series, DataError)
    return tables, write_tables(tables, out_dir) + write_series(series, out_dir)


def cmd_run(args):
    spec = parse_spec(args.spec)
    # a config error leaves no output directory; an unwritable one fails before training
    plan = check_plan(spec.grids, args.jobs)
    # every study has a Supervised row, so each study at two or more rates writes series
    _check_series_names([(grid.study, ds.name) for grid in spec.grids
                        if len(grid.unlabeled_rates) > 1 for ds in grid.datasets], ConfigError)
    out_dir = _resolve_out(args.out, spec.out_dir)
    results = run_grid(plan, jobs=args.jobs)
    log_path = os.path.join(out_dir, LOG_NAME)
    with open(log_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_log(results))
    tables, written = write_report(results, out_dir)
    ref_path = write_reference_report(tables, spec.reference, out_dir)
    print(f"wrote {log_path} ({len(results)} runs)")
    for path in written:
        print(f"wrote {path}")
    if ref_path:
        print(f"wrote {ref_path}")
    return 0


def cmd_report(args):
    if not 0.0 < args.alpha < 1.0:
        raise ConfigError(f"--alpha must lie strictly between 0 and 1, got {args.alpha}")
    results = parse_log(read_text(args.log), source=args.log)
    if not results:
        raise DataError(f"{args.log}: no run lines")
    out_dir = _resolve_out(args.out)
    _, written = write_report(results, out_dir, alpha=args.alpha)
    for path in written:
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
    p.add_argument("--alpha", type=float, default=ALPHA,
                   help=f"significance level (default {ALPHA:.2f})")
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
