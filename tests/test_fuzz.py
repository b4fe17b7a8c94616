"""Seeded mutation fuzzing of the three readers, through ``cli.main`` in process.

Each mutant of a valid spec goes through ``run``; each mutant of a dataset
file through ``validate``, then through ``run`` when ``validate`` accepts it;
each mutant of a run log through ``report``. Each dataset mutant is also
loaded twice, once as is and once with ``np.loadtxt`` made to fail, which
forces ``load_csv``'s line parser. A mutation splices a token that
readers tend to mishandle into a line, replaces a field with one, or
duplicates or deletes a line (Miller, Fredriksen & So 1990, "An Empirical
Study of the Reliability of UNIX Utilities"; the dictionary mutations of
American Fuzzy Lop).

With RuntimeWarning raised as an error, every call must return 0, 1 or 2, or
3 with "overflow encountered" on stderr, and raise nothing; a nonzero exit
leaves no output directory; ``report`` of an accepted run's log reproduces
that run's table and series files; and both loads of a dataset mutant give
bit-identical arrays or the same error.

A larger budget, or another seed, runs as a script:

    PYTHONPATH=src python tests/test_fuzz.py --budget 2000 --seed 7
"""

import argparse
import contextlib
import io
import random
import shutil
import sys
import tempfile
import traceback
import warnings
from collections import Counter
from pathlib import Path
from unittest import mock

from proxyssl import dataset
from proxyssl.cli import main
from proxyssl.dataset import load_csv, save_csv
from proxyssl.specfile import parse_spec
from proxyssl.synthetic import make_blobs

SEED = 0  # among its mutants: a log accuracy of 1e160 and a dataset feature that overflows
BUDGET = 150  # mutants per reader

TOKENS = ["nan", "inf", "1e999", "1e160", "1e200", "-1", "0", "0.5", "\0", "\r", "#", "=",
          ",", "/", "12345678901234567890", " ", ""]
# dataset mutants splice the information separators \x1c-\x1f, which numpy strips as whitespace
# and float() rejects, in place of "1e999", "1e200" and "/"; each replacement is as long as the
# token it replaces and holds no "," or "=", so a dataset mutant draws from the generator what it
# drew with TOKENS, and the spec and log mutants after it are unchanged
DATA_TOKENS = [{"1e999": "\x1d1e9\x1d", "1e200": "1e2\x1e\x1f", "/": "\x1c"}.get(t, t)
               for t in TOKENS]

# a mutant spec that asks for more is counted and skipped, not run, to bound training time
# only: a spliced 20-digit epochs is valid and would train for hours, while run rejects a plan
# of more than protocol.MAX_RUNS rows itself, before training
MAX_RUNS, MAX_EPOCHS, MAX_ITERATIONS = 60, 3, 3

SPEC = """[global]
datasets = {data}
n_folds = 2
n_seeds = 1
base_seed = 3
epochs = 1
batch_size = 16
[study a]
rates = 0.5, 0.25
max_iterations = 1
algorithms = supervised, TBST, CT, TT
[study w]
kind = count_windows
rates = 0.5
max_iterations = 1
windows = 0:5, 5:10
[reference]
d@0.5/Supervised = 50
"""


def mutate(text, rng, tokens=TOKENS):
    """``text`` with one to three line mutations, splicing ``tokens``."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        i, op = rng.randrange(len(lines)), rng.randrange(4)
        if op == 0:
            at = rng.randint(0, len(lines[i]))
            lines[i] = lines[i][:at] + rng.choice(tokens) + lines[i][at + rng.randint(0, 2):]
        elif op == 1:
            sep = rng.choice(",=")
            fields = lines[i].split(sep)
            fields[rng.randrange(len(fields))] = rng.choice(tokens)
            lines[i] = sep.join(fields)
        elif op == 2:
            lines.insert(i, lines[i])
        elif len(lines) > 1:
            del lines[i]
    return "\n".join(lines)


def load_outcome(path):
    """``load_csv``'s Dataset as bytes, or the type and text of what it raised."""
    try:
        ds = load_csv(path)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return ds.name, ds.features.shape, ds.features.tobytes(), ds.labels.tobytes()


def too_big(spec_path):
    """Whether the spec parses and asks for more than the fuzzer runs."""
    try:
        grids = parse_spec(spec_path).grids
    except Exception:  # main meets the same error, and the invariants judge it
        return False
    runs = sum(len(g.datasets) * g.n_folds * g.n_seeds
               * (len(g.unlabeled_rates) * len(g.algorithms) + g.include_oracle) for g in grids)
    iterations = max((e.ssl.max_iterations for g in grids for e in g.algorithms if e.ssl),
                     default=0)
    return runs > MAX_RUNS or grids[0].train.epochs > MAX_EPOCHS or iterations > MAX_ITERATIONS


class Fuzzer:
    """Feeds mutants to the readers; ``counts`` holds the exit codes seen and
    ``failures`` each broken invariant, with the mutant that broke it."""

    def __init__(self, workdir, seed):
        self.dir, self.rng = Path(workdir), random.Random(seed)
        self.counts, self.failures = Counter(), []

    def call(self, reader, text, argv, out=None):
        """``main(argv)``'s exit code after checking the invariants, or None if it raised."""
        stderr = io.StringIO()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                    code = main(argv)
        except Exception:
            self.fail(reader, text, f"{argv[0]} raised\n{traceback.format_exc()}")
            return None
        self.counts[f"{reader} {argv[0]} exit {code}"] += 1
        err = stderr.getvalue()
        if code not in (0, 1, 2) and not (code == 3 and "overflow encountered" in err):
            self.fail(reader, text, f"{argv[0]} exit {code}: {err}")
        if code and out is not None and out.exists():
            self.fail(reader, text, f"{argv[0]} exit {code} left {out.name}/ behind")
        return code

    def fail(self, reader, text, what):
        self.failures.append(f"{reader} mutant {text!r}: {what}")

    def run_and_report(self, reader, text, spec_path):
        out, rep = self.dir / "out", self.dir / "rep"
        if self.call(reader, text, ["run", str(spec_path), "--out", str(out)], out) == 0:
            if self.call(reader, text, ["report", str(out / "run_log.csv"), "--out", str(rep)],
                         rep) != 0:
                self.fail(reader, text, "report rejected the log that run wrote")
            else:
                rendered = sorted(p.name for p in out.iterdir()
                                  if p.name.startswith(("table_", "series_")))
                if (rendered != sorted(p.name for p in rep.iterdir())
                        or any((out / n).read_bytes() != (rep / n).read_bytes() for n in rendered)):
                    self.fail(reader, text, "report did not reproduce run's tables")
        for path in (out, rep):
            shutil.rmtree(path, ignore_errors=True)

    def write(self, name, text):
        path = self.dir / name
        path.write_text(text, encoding="utf-8", newline="")
        return path

    def fuzz(self, budget):
        """``budget`` mutants per reader, after one run of the unmutated spec."""
        data = self.dir / "data.csv"
        save_csv(make_blobs("d", n=30, d=4, n_classes=2, separation=4.0, seed=1), data)
        spec_text = SPEC.format(data=data)
        base = self.dir / "base"
        if self.call("base", spec_text, ["run", str(self.write("spec.ini", spec_text)),
                                         "--out", str(base)], base) != 0:
            self.fail("base", spec_text, "run rejected the unmutated spec")
            return
        log_text = (base / "run_log.csv").read_text(encoding="utf-8")
        data_text = data.read_text(encoding="utf-8")
        mutant_data_spec = self.write("data.ini", SPEC.format(data=self.dir / "mutant.csv"))
        for _ in range(budget):
            text = mutate(spec_text, self.rng)
            spec_path = self.write("mutant.ini", text)
            if too_big(spec_path):
                self.counts["spec skipped"] += 1
            else:
                self.run_and_report("spec", text, spec_path)

            text = mutate(data_text, self.rng, DATA_TOKENS)
            data_path = self.write("mutant.csv", text)
            fast = load_outcome(data_path)
            with mock.patch.object(dataset.np, "loadtxt", side_effect=ValueError):
                lines = load_outcome(data_path)
            if fast != lines:
                self.fail("dataset", text, f"load_csv gave {fast[:2]!r}, "
                                           f"its line parser {lines[:2]!r}")
            if self.call("dataset", text, ["validate", str(data_path)]) == 0:
                self.run_and_report("dataset", text, mutant_data_spec)

            text = mutate(log_text, self.rng)
            rep = self.dir / "rep"
            self.call("log", text, ["report", str(self.write("mutant.log", text)),
                                    "--out", str(rep)], rep)
            shutil.rmtree(rep, ignore_errors=True)


def test_readers_survive_seeded_mutants(tmp_path):
    fuzzer = Fuzzer(tmp_path, SEED)
    fuzzer.fuzz(BUDGET)
    failures = fuzzer.failures
    assert not failures, f"{len(failures)} failures; the first:\n" + "\n\n".join(failures[:3])
    # not vacuous: each reader both accepted and rejected mutants
    for accepted, rejected in (("spec run exit 0", "spec run exit 2"),
                               ("dataset validate exit 0", "dataset validate exit 1"),
                               ("log report exit 0", "log report exit 1")):
        assert fuzzer.counts[accepted] and fuzzer.counts[rejected], fuzzer.counts


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Fuzz proxyssl's spec, dataset and log readers.")
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--budget", type=int, default=BUDGET, help="mutants per reader")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        fuzzer = Fuzzer(tmp, args.seed)
        fuzzer.fuzz(args.budget)
    for key, count in sorted(fuzzer.counts.items()):
        print(f"{key}: {count}")
    for failure in fuzzer.failures:
        print(f"FAIL {failure}\n")
    sys.exit(1 if fuzzer.failures else 0)
