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
import signal
import sys

from .dataset import load_csv, read_manifest, read_text
from .errors import DataError, ProxySslError
from .protocol import check_plan, run_grid
from .report import LOG_NAME, format_log, parse_log, report_files, write_tables
from .specfile import parse_spec

ENV_OUT = "PROXYSSL_OUT"


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
    return cli_out or spec_out or os.environ.get(ENV_OUT) or "results"


def _probe_out_dir(out_dir):
    """Make ``out_dir`` as writing the output will, so that one that cannot be made fails
    before training, then remove each directory this made, deepest first."""
    missing, path = [], out_dir
    while path and not os.path.isdir(path):
        parent, name = os.path.split(path)
        if name not in ("", os.curdir, os.pardir):  # makedirs makes no directory for these
            missing.append(path)
        path = parent
    try:
        os.makedirs(out_dir, exist_ok=True)
    finally:
        for path in missing:
            if os.path.isdir(path):  # not if makedirs failed before making it
                os.rmdir(path)


def cmd_run(args):
    spec = parse_spec(args.spec)
    plan = check_plan(spec.grids, spec.reference)
    out_dir = _resolve_out(args.out, spec.out_dir)
    _probe_out_dir(out_dir)
    results = run_grid(plan, jobs=args.jobs)
    os.makedirs(out_dir, exist_ok=True)  # only now: a run that fails or is killed leaves none
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
    out_dir = _resolve_out(args.out)
    os.makedirs(out_dir, exist_ok=True)
    for path in write_tables(files, out_dir):
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


def cli():
    """The ``proxyssl`` command: ``main`` with SIGINT's default action.

    A KeyboardInterrupt raised inside ``concurrent.futures``' ``submit`` can
    leave a queue lock held, and the pool's shutdown then waits forever; so
    Ctrl-C ends the process, as SIGTERM does. ``main`` itself, which runs in
    other processes too, changes no signal.
    """
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    cli()
