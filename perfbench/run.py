"""Benchmark for proxyssl: grid and ingest workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--size full|smoke] [--work-dir DIR]

Run from the root of a source checkout; the package is imported from its
``src`` directory. Inputs are generated from ``--seed`` before anything is
timed. The workload's commands then repeat, one at a time, each as its own
``python3 perfbench/child.py`` process that runs the proxyssl CLI in
process, until ``--seconds`` have passed (at least twice). Every output is
checked. With ``--trace 0`` the end-to-end metrics are the medians over
the repeats; with ``--trace 1`` each repeat runs once untraced and once
traced, and the per-layer metrics come from the traced passes. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics. See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
MIN_REPEATS = 2
GRID_REPORTS = 3  # untraced `report` commands per grid pass: one takes ~5 ms
GRID_VALIDATES = 2  # untraced `validate` commands per dataset file per grid pass
CHILD_TIMEOUT_S = 170
STEAL_WARN = 0.10  # CPU steal above which a run's timings are not comparable
ALPHA = 0.10
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = [
    ("wall_s", "s"), ("setup_s", "s"), ("runs_per_s", "1/s"), ("ingest_mb_per_s", "MB/s"),
    ("report_s", "s"), ("peak_rss_mb", "MB"), ("ssl_acc_pct", "%"),
]

PER_LAYER = [
    ("classifier.loss_and_grads.calls", "count"),
    ("classifier.loss_and_grads.us_per_call", "us"),
    ("classifier.loss_and_grads.mflop", "Mflop"),
    ("classifier.adam_step.calls", "count"),
    ("classifier.adam_step.us_per_call", "us"),
    ("classifier.adam_step.mb_moved", "MB"),
    ("classifier.fit.calls", "count"),
    ("classifier.fit.self_s", "s"),
    ("classifier.accuracy.calls", "count"),
    ("classifier.accuracy.ms_per_call", "ms"),
    ("classifier.predict.calls", "count"),
    ("classifier.predict.ms_per_call", "ms"),
    ("classifier.forward.calls", "count"),
    ("classifier.forward.ms_per_call", "ms"),
    ("engine.run.self_s", "s"),
    ("engine.iterations", "count"),
    ("engine.pseudo_labels", "count"),
    ("engine.cap_hit_ratio", "ratio"),
    ("engine.select.calls", "count"),
    ("engine.select.us_per_call", "us"),
    ("engine.majority_vote.calls", "count"),
    ("engine.majority_vote.ms_per_call", "ms"),
    ("protocol.runs_requested", "count"),
    ("protocol.runs_executed", "count"),
    ("protocol.unique_run_ratio", "ratio"),
    ("protocol.executor.efficiency", "ratio"),
    ("protocol.parse_log.ms", "ms"),
    ("protocol.tables_from_results.ms", "ms"),
    ("protocol.format_log.ms", "ms"),
    ("dataset.load_csv.s", "s"),
    ("dataset.load_csv.mb_per_s", "MB/s"),
    ("dataset.make_semi_split.calls", "count"),
    ("dataset.make_semi_split.ms_per_call", "ms"),
    ("stats.paired_t_test.calls", "count"),
    ("stats.paired_t_test.us_per_call", "us"),
    ("specfile.parse_spec.self_s", "s"),
    ("cli.write_tables.ms", "ms"),
    ("trace.overhead_frac", "ratio"),
]

# layers that must record calls in a traced pass of each workload kind
EXPECTED_LAYERS = {
    "grid": [
        "cli.run", "cli.report", "cli.write_tables", "specfile.parse_spec", "dataset.load_csv",
        "dataset.make_semi_split", "protocol.run_grid", "protocol.format_log",
        "protocol.parse_log", "protocol.tables_from_results", "stats.paired_t_test",
        "engine.run", "engine.select", "engine.majority_vote", "classifier.init_model",
        "classifier.fit", "classifier.loss_and_grads", "classifier.adam_step",
        "classifier.accuracy", "classifier.predict", "classifier.forward",
    ],
    "ingest": [
        "cli.validate", "cli.report", "cli.write_tables", "dataset.load_csv",
        "protocol.parse_log", "protocol.tables_from_results", "stats.paired_t_test",
    ],
}

GRID_COMMON = dict(classes=4, separation=8.0, learning_rate=0.01, rate=0.90,
                   n_folds=3, n_seeds=5)
SIZES = {
    "full": {
        # separation 5 keeps accuracy off the ceiling: Supervised ~59%, SSL ~80%
        "grid_d768_serial": dict(GRID_COMMON, datasets=1, n=600, d=768, separation=5.0,
                                 epochs=4, max_iterations=2, jobs=1, studies=("baselines",)),
        "studies_d64_jobs2": dict(GRID_COMMON, datasets=2, n=120, d=64, epochs=3,
                                  max_iterations=2, jobs=2,
                                  studies=("baselines", "sampling", "fresh_model")),
        "ingest_report": dict(n=2000, d=768, classes=4, separation=8.0, log_studies=8,
                              log_rates=(0.95, 0.9, 0.8), log_datasets=6),
    },
    "smoke": {
        "grid_d768_serial": dict(GRID_COMMON, datasets=1, n=60, d=768, epochs=1,
                                 max_iterations=1, jobs=1, n_seeds=1,
                                 studies=("baselines",)),
        "studies_d64_jobs2": dict(GRID_COMMON, datasets=1, n=90, d=64, epochs=1,
                                  max_iterations=1, jobs=2, n_seeds=1,
                                  studies=("baselines", "sampling", "fresh_model")),
        "ingest_report": dict(n=60, d=768, classes=4, separation=8.0, log_studies=1,
                              log_rates=(0.9,), log_datasets=2),
    },
}
KIND = {"grid_d768_serial": "grid", "studies_d64_jobs2": "grid", "ingest_report": "ingest"}

STUDY_SECTIONS = {
    "baselines": "kind = baselines\nalgorithms = supervised, TBST, CBST, CT, TT, TTWD\n",
    "sampling": "kind = sampling\nalgorithms = TT, TTWD\nmodes = 2x:repl\n",
    "fresh_model": "kind = fresh_model\nalgorithms = TT\n",
}

# rows of the generated ingest log: (algorithm, detail)
LOG_ROWS = [("supervised", "std"), ("TBST", "std"), ("CBST", "std"), ("CT", "std"),
            ("TT", "std"), ("TTWD", "std"), ("TT", "fresh"), ("TTWD", "fresh")]


def pinned_fingerprints():
    with open(HERE / "fingerprints.json", encoding="utf-8") as fh:
        return json.load(fh)


# --- machine -----------------------------------------------------------------

def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def machine_info():
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), "")
    except OSError:
        cpu = platform.processor()
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
    }


def cpu_ticks():
    """(steal, total) CPU ticks so far from /proc/stat; (0, 0) where absent."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


# --- children ----------------------------------------------------------------

class Child:
    """One finished child process: exit code, lifetime, peak RSS, result."""

    def __init__(self, rc, wall_s, rss_mb, result, stdout, stderr):
        self.rc, self.wall_s, self.rss_mb = rc, wall_s, rss_mb
        self.result, self.stdout, self.stderr = result, stdout, stderr

    def span_rates(self, name):
        """Work per second of each span of a layer."""
        return [work / (end - start) for _, layer, start, end, _, _, work
                in self.result.get("spans", []) if layer == name and end > start]

    def layer(self, name, exclude_callers=()):
        """(calls, total_s, self_s, work) of a layer summed over its callers."""
        total = [0, 0.0, 0.0, 0]
        for layer, caller, *entry in self.result.get("stats", []):
            if layer == name and caller not in exclude_callers:
                total = [a + b for a, b in zip(total, entry)]
        return total


def run_child(mode, cli_args, work, tag):
    """Run ``child.py`` on one CLI command; wait4 gives its own peak RSS."""
    out_json, out_txt, err_txt = (work / f"{tag}.{ext}" for ext in ("json", "out", "err"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "child.py"), mode, str(out_json), "--", *cli_args]
    with open(out_txt, "w") as so, open(err_txt, "w") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env, cwd=work)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = {}
    if out_json.exists():
        result = json.loads(out_json.read_text(encoding="utf-8"))
    child = Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, result,
                  out_txt.read_text(encoding="utf-8"), err_txt.read_text(encoding="utf-8"))
    for path in (out_json, out_txt, err_txt):
        path.unlink(missing_ok=True)
    return child


class Checks:
    """Counts checked outputs; a failed one is reported and counted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check FAILED: {what}", flush=True)
        return ok

    def command(self, child, what):
        detail = child.stderr.strip().splitlines()[-1:] if child.rc else []
        return self.check(child.rc == 0, f"{what} exited {child.rc} {' '.join(detail)}")


# --- inputs --------------------------------------------------------------------

def validate_summary(ds):
    """What `validate` prints for a generated dataset file."""
    lines = [f"name: {ds.name}", f"samples: {ds.n}", f"features: {ds.d}",
             f"classes: {ds.n_classes}"]
    lines += [f"class {c}: {k}" for c, k in enumerate(ds.class_counts())]
    return "\n".join(lines) + "\n"


def prepare_grid(p, seed, inputs):
    """Blob datasets, the spec file, and the requested/unique run counts."""
    from proxyssl import make_blobs, save_csv
    from proxyssl.protocol import enumerate_runs
    from proxyssl.specfile import parse_spec

    paths, summaries = [], []
    for k in range(p["datasets"]):
        ds = make_blobs(f"blobs{k}", p["n"], p["d"], p["classes"], p["separation"], seed * 100 + k)
        path = inputs / f"blobs{k}.csv"
        save_csv(ds, path)
        paths.append(str(path))
        summaries.append(validate_summary(ds))
    lines = ["[global]", f"datasets = {', '.join(paths)}", f"n_folds = {p['n_folds']}",
             f"n_seeds = {p['n_seeds']}", f"base_seed = {seed}",
             f"learning_rate = {p['learning_rate']}", f"epochs = {p['epochs']}", ""]
    for study in p["studies"]:
        lines += [f"[study {study}]", STUDY_SECTIONS[study].rstrip("\n"),
                  f"rates = {p['rate']}", f"max_iterations = {p['max_iterations']}", ""]
    spec_path = inputs / "spec.ini"
    spec_path.write_text("\n".join(lines), encoding="utf-8")

    spec = parse_spec(str(spec_path))
    keys = [(ds.name, 0.0 if entry.algorithm == "oracle" else rate, entry.algorithm,
             repr(entry.ssl), fold, trial)
            for grid in spec.grids
            for ds, rate, entry, fold, trial in enumerate_runs(grid)]
    return {"spec": str(spec_path), "datasets": list(zip(paths, summaries)),
            "requested": len(keys), "unique": len(set(keys))}


def generate_log(p, seed):
    """Run-log records for several studies x rates x datasets x 15 runs.

    Each SSL row gets a per-dataset effect against Supervised plus per-run
    noise, so some cells differ significantly and some do not.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 17])
    datasets = [f"corpus{j}" for j in range(p["log_datasets"])]
    records = []  # (dataset, rate, algorithm, variant, fold, trial, acc, iterations, wall_ms)
    for s in range(p["log_studies"]):
        study = f"study{s}"
        base = rng.uniform(55.0, 75.0, len(datasets))
        for j, ds in enumerate(datasets):
            for fold in range(3):
                for trial in range(5):
                    records.append((ds, 0.0, "oracle", f"{study}/std", fold, trial,
                                    float(base[j] + 20.0 + rng.normal(0.0, 1.0)), 0,
                                    float(rng.uniform(5.0, 50.0))))
        for rate in p["log_rates"]:
            effect = rng.normal(0.0, 2.0, (len(LOG_ROWS), len(datasets)))
            effect[0] = 0.0
            for r, (algorithm, detail) in enumerate(LOG_ROWS):
                for j, ds in enumerate(datasets):
                    for fold in range(3):
                        for trial in range(5):
                            acc = base[j] - 10.0 * rate + effect[r, j] + rng.normal(0.0, 2.0)
                            iters = 0 if algorithm == "supervised" else int(rng.integers(1, 21))
                            records.append((ds, rate, algorithm, f"{study}/{detail}", fold,
                                            trial, float(acc), iters,
                                            float(rng.uniform(5.0, 5000.0))))
    return records


def prepare_ingest(p, seed, inputs):
    """A large dataset file for validate and a large run log for report."""
    from proxyssl import make_blobs, save_csv

    ds = make_blobs("ingest", p["n"], p["d"], p["classes"], p["separation"], seed)
    csv_path = inputs / "ingest.csv"
    save_csv(ds, csv_path)
    records = generate_log(p, seed)
    log_path = inputs / "run_log.csv"
    log_path.write_text("".join(
        f"{d},{rate!r},{a},{v},{f},{t},{acc!r},{it},{ms:.3f}\n"
        for d, rate, a, v, f, t, acc, it, ms in records), encoding="utf-8")
    return {"csv": str(csv_path), "csv_bytes": os.path.getsize(csv_path),
            "validate_stdout": validate_summary(ds), "log": str(log_path),
            "records": records, "n_tables": p["log_studies"] * len(p["log_rates"])}


# --- output checks ----------------------------------------------------------------

def log_fingerprint(text):
    """SHA-256 of a run log with its wall_ms column removed."""
    stripped = "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())
    return hashlib.sha256(stripped.encode("utf-8")).hexdigest()


def table_files(out_dir):
    """{file name: bytes} of the table and series files in an output dir."""
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())
            if p.name.startswith(("table_", "series_"))}


def tables_match(run_out, report_out):
    a, b = table_files(run_out), table_files(report_out)
    return bool(a) and a == b


def row_label(algorithm, detail):
    name = {"oracle": "Oracle", "supervised": "Supervised"}.get(algorithm, algorithm)
    return name if detail == "std" else f"{name} {detail}"


def expected_cells(records, alpha=ALPHA):
    """{(study, rate, row, dataset): (mean, mark)} recomputed with SciPy.

    Oracle cells (rate 0) appear in every rate block of their study; SSL
    cells carry better/worse/none from a paired t-test against the matched
    Supervised cell, Supervised and Oracle cells no mark.
    """
    from scipy import stats

    cells = {}
    for ds, rate, algorithm, variant, fold, trial, acc, _, _ in records:
        study, detail = variant.split("/", 1)
        cells.setdefault((study, rate, row_label(algorithm, detail), ds), []).append(
            (fold, trial, acc))
    rates = {}
    for study, rate, _, _ in cells:
        if rate != 0.0:
            rates.setdefault(study, set()).add(rate)
    out = {}
    for (study, rate, row, ds), runs in cells.items():
        accs = [a for _, _, a in sorted(runs)]
        mean = sum(accs) / len(accs)
        if row == "Oracle":
            for block in rates.get(study, ()):
                out[(study, block, row, ds)] = (mean, "")
            continue
        mark = ""
        if row != "Supervised":
            sup = [a for _, _, a in sorted(cells[(study, rate, "Supervised", ds)])]
            res = stats.ttest_rel(accs, sup)
            if res.pvalue < alpha:
                mark = "better" if sum(accs) > sum(sup) else "worse"
            else:
                mark = "none"
        out[(study, rate, row, ds)] = (mean, mark)
    return out


def reported_cells(out_dir):
    """{(study, rate, row, dataset): (mean, mark)} read from table_*.csv files."""
    cells = {}
    for path in sorted(Path(out_dir).glob("table_*.csv")):
        for line in path.read_text(encoding="utf-8").splitlines()[1:]:
            study, rate, row, ds, mean, mark = line.split(",")
            cells[(study, float(rate), row, ds)] = (float(mean), mark)
    return cells


def cells_match(expected, reported):
    """Same cells, means within half a display unit, identical marks."""
    if expected.keys() != reported.keys():
        return False
    return all(abs(reported[k][0] - m) <= 0.005 + 1e-9 and reported[k][1] == mark
               for k, (m, mark) in expected.items())


# --- workloads -------------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def grid_pass(prep, work, tag, mode, jobs, checks):
    """One `run` of the spec, then `report` of its log; returns the pass's numbers.

    Untraced, each dataset file is first checked with `validate`
    GRID_VALIDATES times, so that ingest_mb_per_s has enough samples, and
    `report` runs GRID_REPORTS times, so that report_s has; only `run` and
    the first `report` count in the pass's wall time.
    """
    validates = []
    for i in range(GRID_VALIDATES if mode == "phase" else 0):
        for k, (path, summary) in enumerate(prep["datasets"]):
            val = run_child(mode, ["validate", path], work, f"{tag}-validate{k}.{i}")
            if checks.command(val, f"{tag}: validate"):
                checks.check(val.stdout == summary, f"{tag}: validate summary of {path} wrong")
            validates.append(val)
    out_run = work / f"{tag}-run"
    run = run_child(mode, ["run", prep["spec"], "--jobs", str(jobs), "--out", str(out_run)],
                    work, f"{tag}-run")
    res = {"run": run, "report": None, "more_reports": [], "validates": validates,
           "fingerprint": None, "log": ""}
    if checks.command(run, f"{tag}: run"):
        log = (out_run / "run_log.csv").read_text(encoding="utf-8")
        res["log"], res["fingerprint"] = log, log_fingerprint(log)
        checks.check(len(log.splitlines()) == prep["requested"],
                     f"{tag}: run log has {len(log.splitlines())} runs, "
                     f"spec requests {prep['requested']}")
        for i in range(GRID_REPORTS if mode == "phase" else 1):
            out_rep = work / f"{tag}-report{i}"
            rep = run_child(mode, ["report", str(out_run / "run_log.csv"), "--out", str(out_rep)],
                            work, f"{tag}-report{i}")
            if i == 0:
                res["report"] = rep
            else:
                res["more_reports"].append(rep)
            if checks.command(rep, f"{tag}: report"):
                checks.check(tables_match(out_run, out_rep),
                             f"{tag}: report tables differ from run tables")
            shutil.rmtree(out_rep, ignore_errors=True)
    shutil.rmtree(out_run, ignore_errors=True)
    return res


def ingest_pass(prep, work, tag, mode, checks, state):
    """One `validate` of the dataset file + one `report` of the run log."""
    out_rep = work / f"{tag}-report"
    val = run_child(mode, ["validate", prep["csv"]], work, f"{tag}-validate")
    if checks.command(val, f"{tag}: validate"):
        checks.check(val.stdout == prep["validate_stdout"], f"{tag}: validate summary wrong")
    rep = run_child(mode, ["report", prep["log"], "--out", str(out_rep)], work, f"{tag}-report")
    if checks.command(rep, f"{tag}: report"):
        files = table_files(out_rep)
        if "tables" not in state:
            reported = reported_cells(out_rep)
            ok = checks.check(
                cells_match(expected_cells(prep["records"]), reported)
                and sum(n.endswith(".txt") for n in files if n.startswith("table_"))
                == prep["n_tables"],
                f"{tag}: report tables disagree with the independent recomputation")
            state["tables"] = files if ok else {}
            ssl = [m for (_, _, row, _), (m, _) in reported.items()
                   if row not in ("Supervised", "Oracle")]
            state["ssl_acc_pct"] = sum(ssl) / len(ssl) if ssl else 0.0
        else:
            checks.check(files == state["tables"], f"{tag}: report tables changed between repeats")
    shutil.rmtree(out_rep, ignore_errors=True)
    return {"validate": val, "report": rep}


def end_to_end_grid(passes, prep):
    runs = prep["requested"]
    walls = [p["run"].wall_s + p["report"].wall_s for p in passes]
    log = passes[0]["log"]
    ssl = [float(line.split(",")[6]) for line in log.splitlines()
           if line.split(",")[2] not in ("oracle", "supervised")]
    return walls, {
        "wall_s": median(walls),
        "setup_s": median([p["run"].layer("specfile.parse_spec")[1] for p in passes]),
        "runs_per_s": median([runs / p["run"].layer("protocol.run_grid")[1] for p in passes]),
        "ingest_mb_per_s": median([r / 1e6 for p in passes
                                   for c in [p["run"], *p["validates"]]
                                   for r in c.span_rates("dataset.load_csv")]),
        "report_s": median([r.result["main_s"] for p in passes
                            for r in [p["report"], *p["more_reports"]]]),
        "peak_rss_mb": median([max(p["run"].rss_mb, p["report"].rss_mb) for p in passes]),
        "ssl_acc_pct": sum(ssl) / len(ssl),
    }


def end_to_end_ingest(passes, prep, state):
    walls = [p["validate"].wall_s + p["report"].wall_s for p in passes]
    load = [p["validate"].layer("dataset.load_csv")[1] for p in passes]
    report = [p["report"].result["main_s"] for p in passes]
    # no training here: runs_per_s is the log runs that parse_log reads per
    # second, a part of report_s timed on its own
    parse = [p["report"].layer("protocol.parse_log")[1] for p in passes]
    return walls, {
        "wall_s": median(walls),
        "setup_s": median(load),
        "runs_per_s": median([len(prep["records"]) / s for s in parse]),
        "ingest_mb_per_s": median([prep["csv_bytes"] / 1e6 / s for s in load]),
        "report_s": median(report),
        "peak_rss_mb": median([max(p["validate"].rss_mb, p["report"].rss_mb) for p in passes]),
        "ssl_acc_pct": state.get("ssl_acc_pct", 0.0),
    }


def per_layer(children, ctx):
    """Per-layer metrics of one traced pass (its children's stats summed)."""

    def layer(name, exclude=()):
        total = [0, 0.0, 0.0, 0]
        for child in children:
            total = [a + b for a, b in zip(total, child.layer(name, exclude))]
        return total

    def per_call(stat, scale):
        return stat[1] / stat[0] * scale if stat[0] else 0.0

    counters = {}
    for child in children:
        for k, v in child.result.get("counters", {}).items():
            counters[k] = counters.get(k, 0) + v
    lg, adam = layer("classifier.loss_and_grads"), layer("classifier.adam_step")
    fit, acc = layer("classifier.fit"), layer("classifier.accuracy")
    # predict over U excludes the calls accuracy makes; forward for ensemble
    # eval excludes the calls predict makes
    pred = layer("classifier.predict", ("classifier.accuracy",))
    fwd = layer("classifier.forward", ("classifier.predict",))
    sel, vote = layer("engine.select"), layer("engine.majority_vote")
    executed = layer("engine.run", ("engine.run",))[0]
    load, split, ttest = layer("dataset.load_csv"), layer("dataset.make_semi_split"), \
        layer("stats.paired_t_test")
    ssl_runs = counters.get("ssl_runs", 0)
    return {
        "classifier.loss_and_grads.calls": lg[0],
        "classifier.loss_and_grads.us_per_call": per_call(lg, 1e6),
        "classifier.loss_and_grads.mflop": lg[3] / 1e6,
        "classifier.adam_step.calls": adam[0],
        "classifier.adam_step.us_per_call": per_call(adam, 1e6),
        "classifier.adam_step.mb_moved": adam[3] / 1e6,
        "classifier.fit.calls": fit[0],
        "classifier.fit.self_s": fit[2],
        "classifier.accuracy.calls": acc[0],
        "classifier.accuracy.ms_per_call": per_call(acc, 1e3),
        "classifier.predict.calls": pred[0],
        "classifier.predict.ms_per_call": per_call(pred, 1e3),
        "classifier.forward.calls": fwd[0],
        "classifier.forward.ms_per_call": per_call(fwd, 1e3),
        "engine.run.self_s": layer("engine.run")[2],
        "engine.iterations": counters.get("iterations", 0),
        "engine.pseudo_labels": counters.get("pseudo_labels", 0),
        "engine.cap_hit_ratio": counters.get("cap_hits", 0) / ssl_runs if ssl_runs else 0.0,
        "engine.select.calls": sel[0],
        "engine.select.us_per_call": per_call(sel, 1e6),
        "engine.majority_vote.calls": vote[0],
        "engine.majority_vote.ms_per_call": per_call(vote, 1e3),
        "protocol.runs_requested": ctx.get("requested", 0),
        "protocol.runs_executed": executed,
        "protocol.unique_run_ratio": ctx["unique"] / executed if executed else 0.0,
        "protocol.executor.efficiency": ctx.get("efficiency", 0.0),
        "protocol.parse_log.ms": layer("protocol.parse_log")[1] * 1e3,
        "protocol.tables_from_results.ms": layer("protocol.tables_from_results")[1] * 1e3,
        "protocol.format_log.ms": layer("protocol.format_log")[1] * 1e3,
        "dataset.load_csv.s": load[1],
        "dataset.load_csv.mb_per_s": load[3] / 1e6 / load[1] if load[1] else 0.0,
        "dataset.make_semi_split.calls": split[0],
        "dataset.make_semi_split.ms_per_call": per_call(split, 1e3),
        "stats.paired_t_test.calls": ttest[0],
        "stats.paired_t_test.us_per_call": per_call(ttest, 1e6),
        "specfile.parse_spec.self_s": layer("specfile.parse_spec")[2],
        "cli.write_tables.ms": layer("cli.write_tables")[1] * 1e3,
        "trace.overhead_frac": ctx.get("overhead", 0.0),
    }


def require_layers(children, kind):
    """Fail loudly when a layer the workload exercises recorded no calls."""
    missing = [name for name in EXPECTED_LAYERS[kind]
               if sum(c.layer(name)[0] for c in children) == 0]
    if missing:
        raise SystemExit(f"perfbench: traced run recorded no calls for {', '.join(missing)}; "
                         "was a traced function renamed or bypassed?")


def write_spans(passes, path):
    """Spans of every traced pass, one JSON object per line."""
    fields = ("id", "name", "start", "end", "parent", "run", "work")
    with open(path, "w", encoding="utf-8") as fh:
        for k, p_ in enumerate(passes):
            for role, child in p_.items():
                if isinstance(child, Child):
                    for span in child.result.get("spans", []):
                        fh.write(json.dumps({"pass": k, "command": role,
                                             **dict(zip(fields, span))}) + "\n")


def measure(workload, size, seed, seconds, trace, work, checks):
    """Prepare inputs, repeat the workload's commands, return its numbers.

    Returns (wall samples, end-to-end metrics, per-layer metrics or None),
    or None when an output failed its check.
    """
    params = SIZES[size][workload]
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    kind = KIND[workload]
    prep = (prepare_grid if kind == "grid" else prepare_ingest)(params, seed, inputs)
    jobs = min(params.get("jobs", 1), nproc())
    untraced, traced, parallel, state = [], [], [], {}
    # closed loop: the next repeat starts when the previous one has ended; stop
    # at the first failed check, or when another repeat would end (by the
    # last one's length) past the window
    t_start = time.perf_counter()
    k, last = 0, 0.0
    while not checks.failed and (
            k < MIN_REPEATS or time.perf_counter() - t_start + last / 2 < seconds):
        t_rep = time.perf_counter()
        if kind == "grid":
            untraced.append(grid_pass(prep, work, f"r{k}", "phase", 1 if trace else jobs, checks))
            if trace:
                traced.append(grid_pass(prep, work, f"t{k}", "trace", 1, checks))
                if jobs > 1:
                    parallel.append(grid_pass(prep, work, f"j{k}", "phase", jobs, checks))
        else:
            untraced.append(ingest_pass(prep, work, f"r{k}", "phase", checks, state))
            if trace:
                traced.append(ingest_pass(prep, work, f"t{k}", "trace", checks, state))
        last = time.perf_counter() - t_rep
        k += 1
    if checks.failed:
        return None

    if kind == "grid":
        prints = {p["fingerprint"] for p in untraced + traced + parallel}
        checks.check(len(prints) == 1, f"repeats wrote {len(prints)} different run logs")
        fingerprint = untraced[0]["fingerprint"]
        pinned = pinned_fingerprints().get(workload, {}).get(size, {}).get(str(seed))
        print(f"fingerprint {fingerprint}" + (" (pinned)" if pinned else ""))
        if pinned:
            checks.check(fingerprint == pinned, f"run log fingerprint {fingerprint} != "
                                                f"pinned {pinned}")
        walls, e2e = end_to_end_grid(untraced, prep)
    else:
        walls, e2e = end_to_end_ingest(untraced, prep, state)
    if not trace:
        return walls, e2e, None

    def children(p):
        return [c for c in p.values() if isinstance(c, Child)]

    for p in traced:
        require_layers(children(p), kind)
    write_spans(traced, work / "spans.jsonl")
    ctx = {"requested": prep.get("requested", 0), "unique": prep.get("unique", 0),
           "efficiency": 0.0}
    untraced_wall = median([sum(c.wall_s for c in children(p)) for p in untraced])
    traced_wall = median([sum(c.wall_s for c in children(p)) for p in traced])
    ctx["overhead"] = traced_wall / untraced_wall - 1.0
    if kind == "grid":
        ctx["efficiency"] = 1.0
        if parallel:
            serial = median([p["run"].layer("protocol.run_grid")[1] for p in untraced])
            par = median([p["run"].layer("protocol.run_grid")[1] for p in parallel])
            ctx["efficiency"] = serial / (jobs * par)
            executed = traced[0]["run"].layer("engine.run", ("engine.run",))[0]
            for p in parallel:
                done = len(p["run"].result["completions"])
                checks.check(done == executed,
                             f"progress hook saw {done} of {executed} runs at --jobs {jobs}")
    rows = [per_layer(children(p), ctx) for p in traced]
    layers = {name: median([r[name] for r in rows]) for name, _ in PER_LAYER}
    return walls, e2e, layers


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(KIND))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--work-dir", default=None,
                        help="scratch directory (default .perfbench_work in the checkout)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "proxyssl" / "cli.py").is_file():
        print(f"perfbench: no proxyssl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    base = Path(args.work_dir) if args.work_dir else ROOT / ".perfbench_work"
    work = (base / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}").resolve()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    machine = machine_info()
    (work / "machine.json").write_text(json.dumps(machine, indent=2) + "\n", encoding="utf-8")
    print("machine " + " ".join(f"{k}={json.dumps(v)}" for k, v in machine.items()))
    print(f"workload {args.workload} size={args.size} seed={args.seed} trace={args.trace} "
          "load=closed loop, one client")

    checks = Checks()
    steal0, total0 = cpu_ticks()
    try:
        measured = measure(args.workload, args.size, args.seed, args.seconds, args.trace,
                           work, checks)
    finally:
        shutil.rmtree(work / "inputs", ignore_errors=True)

    metrics = {}
    if measured is not None:
        walls, e2e, layers = measured
        # fewer than 11 repeats leave no percentile with ten samples beyond it
        print(f"wall_s repeats={len(walls)} median={median(walls):.4f} s "
              f"max={max(walls):.4f} s")
        if layers is not None:
            print("kernel work (mflop, mb_moved) is computed from argument shapes, not measured")
        values, names = (e2e, END_TO_END) if layers is None else (layers, PER_LAYER)
        for name, unit in names:
            print(f"{name} {values[name]:.6g} {unit}")
            metrics[name] = {"value": values[name], "unit": unit}
    steal1, total1 = cpu_ticks()
    if total1 > total0:
        # time the hypervisor ran other guests on this machine's CPUs: timings
        # from runs with very different steal are not comparable
        steal = (steal1 - steal0) / (total1 - total0)
        note = ("diagnostic" if steal <= STEAL_WARN else
                f"diagnostic; above {STEAL_WARN}, so timings are not comparable "
                "with low-steal runs")
        print(f"cpu_steal_frac {steal:.3f} ({note})")
    print(f"failed_frac {checks.failed / checks.attempted:.4f} "
          f"({checks.failed} of {checks.attempted} checked outputs failed)")
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    (work / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
