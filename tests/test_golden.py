"""Golden fingerprint: `proxyssl run` on a tiny spec with every study kind.

The digest is the SHA-256 of run_log.csv with its wall_ms column removed.
A second digest pins the rendered report: every table_* and series_* file
of the run, in sorted name order, as its name, a newline and its bytes. A
refactor or speedup keeps both unchanged; a change that legitimately moves
the numbers re-pins them and says which numbers moved and why.
"""

import hashlib

from proxyssl.cli import main
from proxyssl.dataset import save_csv
from proxyssl.synthetic import make_blobs

GOLDEN_SHA256 = "7b1df63ba3b8543cf911187894f8752aa1becd9bf1d749f37891738c50b77257"
TABLES_SHA256 = "eb896b8982567d0bc072c6211ebbae284b372488e35b7e9c37599f80cfd75b76"

SSL_ALGORITHMS = {"TBST", "CBST", "CT", "TT", "TTWD"}

# Besides the iteration cap, each stop rule fires somewhere in this grid:
# CBST's window covers U (baselines, windows c0-300), TT's batches repeat
# (baselines, one fold) and CT's batches run empty (eval, tau1 0.75).
STUDIES = """
[study baselines]
kind = baselines
rates = 0.8
tau1 = 0.6
max_iterations = 8
algorithms = supervised, TBST, CBST, CT, TT, TTWD

[study sampling]
kind = sampling
rates = 0.8
max_iterations = 2
algorithms = TT, TTWD

[study fresh]
kind = fresh_model
rates = 0.8
tau1 = 0.6
max_iterations = 2
algorithms = TBST, CBST, CT, TT, TTWD

[study eval]
kind = eval_mode
rates = 0.8
tau1 = 0.75
max_iterations = 6
algorithms = CT, TT, TTWD

[study thresholds]
kind = thresholds
rates = 0.8
max_iterations = 2
algorithms = TBST

[study windows]
kind = count_windows
rates = 0.8
max_iterations = 2
windows = 0:300, 0:20, 10:40
algorithms = CBST

[study sweep]
kind = sweep
fractions = 0.2, 0.5
"""


def log_fingerprint(text):
    stripped = "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())
    return hashlib.sha256(stripped.encode("utf-8")).hexdigest()


def tables_fingerprint(out):
    names = sorted(p.name for p in out.iterdir() if p.name.startswith(("table_", "series_")))
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode("utf-8") + b"\n" + (out / name).read_bytes())
    return digest.hexdigest(), len(names)


def run_golden(tmp_path, *options):
    ds = make_blobs("gold", n=150, d=8, n_classes=3, separation=3.0, seed=4)
    data = tmp_path / "gold.csv"
    save_csv(ds, data)
    spec = tmp_path / "golden.ini"
    spec.write_text(
        f"[global]\ndatasets = {data}\nn_folds = 2\nn_seeds = 1\nbase_seed = 11\n"
        f"epochs = 3\nbatch_size = 16\n" + STUDIES,
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out), *options]) == 0
    return (out / "run_log.csv").read_text(encoding="utf-8")


def test_golden_run_log(tmp_path):
    text = run_golden(tmp_path)
    rows = [line.split(",") for line in text.splitlines()]
    assert {r[3].split("/")[0] for r in rows} == {
        "baselines", "sampling", "fresh", "eval", "thresholds", "windows", "sweep"}
    ssl_rows = [r for r in rows if r[2] in SSL_ALGORITHMS]
    assert {r[2] for r in ssl_rows} == SSL_ALGORITHMS
    # every SSL run pseudo-labels at least once, so every loop is exercised
    assert all(int(r[7]) >= 1 for r in ssl_rows), [r for r in ssl_rows if int(r[7]) < 1]
    assert log_fingerprint(text) == GOLDEN_SHA256


def test_golden_run_log_jobs_2(tmp_path):
    # worker processes with single-threaded BLAS write the same log and tables
    assert log_fingerprint(run_golden(tmp_path, "--jobs", "2")) == GOLDEN_SHA256
    assert tables_fingerprint(tmp_path / "out") == (TABLES_SHA256, 17)


def test_golden_tables(tmp_path):
    run_golden(tmp_path)
    # 7 studies at one rate, sweep at two: 8 tables in two forms, and sweep's series
    assert tables_fingerprint(tmp_path / "out") == (TABLES_SHA256, 17)
