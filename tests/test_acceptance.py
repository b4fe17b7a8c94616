"""Acceptance suite: one test per gate, each printing a PASS line.

The end-to-end gates run on a synthetic 64-dim 4-class Gaussian-blob
benchmark (1000 samples, separation 4.0) where the labeled-data trend and
the unlabeled-data benefit are both measurable at desk scale. Numerical
gates (gradients, Adam, selection, vote predicates, t-test) run against
independent brute-force or hand-derived oracles.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

from proxyssl.classifier import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    MlpModel,
    TrainConfig,
    _forward_cached,
    adam_step,
    forward,
    init_model,
    loss_and_grads,
)
from proxyssl.cli import main
from proxyssl.dataset import save_csv
from proxyssl.engine import (
    SslConfig,
    select_by_count,
    select_by_threshold,
    tri_training_batches,
)
from proxyssl.numerics import Rng
from proxyssl.protocol import (
    AlgorithmEntry,
    ExperimentGrid,
    check_plan,
    run_grid,
    tables_from_results,
)
from proxyssl.stats import paired_t_test
from proxyssl.synthetic import make_blobs

BASE_SEED = 11
TREND_BUDGET_S = 600  # single-threaded budget for the trend grid
BENCH_BUDGET_S = 1200  # budget for the rate-0.90 algorithm comparison

SSL_ALGS = ("TBST", "CBST", "CT", "TT", "TTWD")


def ok(line):
    print(f"ACCEPTANCE PASS - {line}")


@pytest.fixture(scope="session")
def synth_dataset():
    return make_blobs("synth", n=1000, d=64, n_classes=4, separation=4.0, seed=29)


@pytest.fixture(scope="session")
def trend_results(synth_dataset):
    grid = ExperimentGrid(
        datasets=[synth_dataset],
        algorithms=[AlgorithmEntry("supervised")],
        unlabeled_rates=[0.95, 0.90, 0.80],
        n_folds=3, n_seeds=5, base_seed=BASE_SEED,
        train=TrainConfig(epochs=60, batch_size=32),
        study="trend", include_oracle=True)
    t0 = time.monotonic()
    results = run_grid(check_plan([grid]))
    return results, time.monotonic() - t0


@pytest.fixture(scope="session")
def bench_results(synth_dataset):
    entries = [AlgorithmEntry("supervised")] + [
        AlgorithmEntry(a, SslConfig(a, max_iterations=4)) for a in SSL_ALGS]
    grid = ExperimentGrid(
        datasets=[synth_dataset],
        algorithms=entries,
        unlabeled_rates=[0.90],
        n_folds=3, n_seeds=5, base_seed=BASE_SEED,
        train=TrainConfig(epochs=60, batch_size=32),
        study="bench", include_oracle=False)
    t0 = time.monotonic()
    results = run_grid(check_plan([grid]), jobs=2)
    return results, time.monotonic() - t0


def cell_accs(results, algorithm, rate=None):
    runs = [(r.fold, r.trial, r.max_test_acc) for r in results
            if r.algorithm == algorithm and (rate is None or r.rate == rate)]
    runs.sort(key=lambda e: (e[0], e[1]))
    return [acc for _, _, acc in runs]


def finite_difference_grads(model, x, y, h):
    """Central-difference gradient for every parameter, in the params layout."""
    flat = model.params
    g = np.zeros_like(flat)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + h
        lp, _ = loss_and_grads(model, x, y)
        flat[k] = orig - h
        lm, _ = loss_and_grads(model, x, y)
        flat[k] = orig
        g[k] = (lp - lm) / (2 * h)
    return g


def test_gradient_correctness():
    """Analytic vs central finite-difference gradients, 6-input 3-class MLP."""
    t0 = time.monotonic()
    model = init_model(6, 3, Rng(103))
    x = Rng(153).uniform(-1.0, 1.0, (12, 6))
    y = np.array([0, 1, 2] * 4)
    # finite differences need every ReLU input well clear of its kink
    _, pre, _ = _forward_cached(model, x)
    assert min(float(np.min(np.abs(p))) for p in pre[:-1]) > 1e-4
    _, analytic = loss_and_grads(model, x, y)
    numeric = finite_difference_grads(model, x, y, h=1e-5)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    worst = float(np.max(np.abs(analytic - numeric) / denom))
    elapsed = time.monotonic() - t0
    assert worst < 1e-4
    assert elapsed < 5.0
    ok(f"gradient check: max relative error {worst:.2e} in {elapsed:.2f}s")


def test_softmax_and_loss_analytics():
    """Uniform-prediction loss equals ln(C); rows sum to 1 under +/-500 logits."""
    for c in (2, 3, 5, 7):
        m = MlpModel([3, c])
        loss, _ = loss_and_grads(m, np.ones((5, 3)), np.zeros(5, dtype=int))
        assert abs(loss - math.log(c)) < 1e-9
    # identity single-layer model: logits are the raw inputs
    c = 6
    m = MlpModel([c, c])
    m.weights[0][...] = np.eye(c)
    logits = Rng(7).uniform(-500.0, 500.0, (200, c))
    logits[0, :] = [-500.0, 500.0, 0.0, -500.0, 500.0, 250.0]  # extreme row
    p = forward(m, logits)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-9
    assert np.all(p > 0.0) and np.all(p < 1.0)
    ok("softmax/loss analytics: ln(C) and row sums within 1e-9 at logits +/-500")


def test_adam_single_step_oracle():
    """First Adam step on a scalar parameter vs the hand-run recurrence."""
    lr, b1, b2, eps = 0.1, ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON
    cfg = TrainConfig(learning_rate=lr)
    m = MlpModel([1, 2])
    m.weights[0][0, 0] = 0.3
    g = 2.5  # constant gradient
    grad = np.zeros_like(m.params)
    grad[0] = g  # weights[0][0, 0] leads the params layout
    adam_step(m, grad, cfg)
    mom = (1 - b1) * g
    vel = (1 - b2) * g * g
    expected = 0.3 - lr * (mom / (1 - b1)) / (math.sqrt(vel / (1 - b2)) + eps)
    got = m.weights[0][0, 0]
    assert abs(got - expected) < 1e-12
    # bias-corrected first step is -lr * g/|g| regardless of |g|
    assert abs((got - 0.3) + lr / (1 + eps)) < 1e-9
    ok(f"adam first step matches hand recurrence: {got!r}")


def test_selection_oracles():
    """Threshold and count selection agree exactly with brute force, 1000 vectors."""
    rng = np.random.default_rng(501)
    for trial in range(1000):
        n = int(rng.integers(1, 120))
        conf = np.round(rng.uniform(0.0, 1.0, n), 2)  # rounding forces ties
        labels = rng.integers(0, 5, n)
        t1 = float(rng.uniform(0.0, 0.95))
        t2 = float(rng.uniform(t1 + 1e-9, 1.0))
        got = select_by_threshold(conf, labels, t1, t2)
        want = [i for i in range(n) if t1 < conf[i] < t2]
        assert got.indices.tolist() == want
        assert got.labels.tolist() == [int(labels[i]) for i in want]

        lo = int(rng.integers(0, n + 1))
        hi = lo + 1 + int(rng.integers(0, n))
        got = select_by_count(conf, labels, lo, hi)
        ranked = sorted(range(n), key=lambda i: (-conf[i], i))
        want = sorted(ranked[lo:hi])
        assert got.indices.tolist() == want
    ok("selection oracles: exact agreement on 1000 random confidence vectors")


def test_tri_training_predicates():
    """All 27 label triples match brute-force agreement rules; TTWD within TT."""
    for a, b, c in itertools.product(range(3), repeat=3):
        preds = [np.array([a]), np.array([b]), np.array([c])]
        tt = tri_training_batches(preds, disagreement=False)
        ttwd = tri_training_batches(preds, disagreement=True)
        p = [a, b, c]
        for i in range(3):
            j, k = [o for o in range(3) if o != i]
            want_tt = p[j] == p[k]
            want_ttwd = want_tt and p[i] != p[k]
            assert (len(tt[i]) == 1) == want_tt
            assert (len(ttwd[i]) == 1) == want_ttwd
            assert set(ttwd[i].indices.tolist()) <= set(tt[i].indices.tolist())
            if want_tt:
                assert tt[i].labels.tolist() == [p[j]]
    ok("tri-training predicates: 27/27 triples exact, TTWD subset of TT")


def test_paired_t_test_reference_and_null():
    """Frozen hand-computed t plus a 1000-trial null false-positive check."""
    t0 = time.monotonic()
    # differences (0.5, 1.5, 1.0, 0.8, 1.2): mean 1, var 0.145, t = sqrt(5/0.145)
    res = paired_t_test([10.5, 11.5, 11.0, 10.8, 11.2], [10.0] * 5)
    assert abs(res.t_stat - 5.872202195147034) < 1e-6

    rng = Rng(601)
    hits = 0
    trials = 1000
    for _ in range(trials):
        a = list(rng.normal(0.0, 1.0, 15))
        b = list(rng.normal(0.0, 1.0, 15))
        if paired_t_test(a, b).significant:
            hits += 1
    rate = hits / trials
    elapsed = time.monotonic() - t0
    assert 0.07 <= rate <= 0.13
    assert elapsed < 30.0
    ok(f"paired t-test: t matches to 1e-6, null FP rate {rate:.3f} in {elapsed:.1f}s")


def test_trend_reproduction(trend_results):
    """Supervised accuracy grows with labeled fraction; oracle well above 5%."""
    results, elapsed = trend_results
    means = {}
    for frac, rate in ((0.05, 0.95), (0.10, 0.90), (0.20, 0.80)):
        means[frac] = float(np.mean(cell_accs(results, "supervised", rate)))
    means[1.0] = float(np.mean(cell_accs(results, "oracle")))
    fracs = sorted(means)
    for lo, hi in zip(fracs, fracs[1:]):
        assert means[hi] >= means[lo] - 1.0, (means, lo, hi)

    oracle = cell_accs(results, "oracle")
    sup95 = cell_accs(results, "supervised", 0.95)
    assert len(oracle) == len(sup95) == 15
    paired_gap = float(np.mean(np.array(oracle) - np.array(sup95)))
    assert paired_gap >= 3.0
    assert float(np.mean(oracle)) >= means[0.10]  # dominance at rate 0.90 too
    assert elapsed < TREND_BUDGET_S
    trace = " -> ".join(f"{means[f]:.1f}" for f in fracs)
    ok(f"trend: accuracy {trace} over fractions {fracs}, oracle gap "
       f"{paired_gap:.1f}pts, {elapsed:.0f}s")


def test_ssl_no_catastrophe_and_benefit(trend_results, bench_results):
    """At rate 0.90 nothing collapses and a multi-model method wins clearly."""
    results, elapsed = bench_results
    sup = cell_accs(results, "supervised", 0.90)
    assert len(sup) == 15
    sup_mean = float(np.mean(sup))

    # paired-seed consistency across independently executed grids
    trend_sup = cell_accs(trend_results[0], "supervised", 0.90)
    assert sup == trend_sup

    marks = {}
    means = {}
    for alg in SSL_ALGS:
        accs = cell_accs(results, alg, 0.90)
        assert len(accs) == 15
        means[alg] = float(np.mean(accs))
        assert means[alg] >= sup_mean - 2.0, (alg, means[alg], sup_mean)
        res = paired_t_test(accs, sup)
        marks[alg] = res.significant and res.direction > 0

    # the table pipeline must agree with the direct paired test
    tables = tables_from_results(results)
    assert len(tables) == 1
    for alg in SSL_ALGS:
        sig = tables[0].cells[(alg, "synth")].significance
        assert (sig == "better") == marks[alg]

    assert any(marks[a] for a in ("TT", "TTWD", "CT"))
    assert elapsed < BENCH_BUDGET_S
    summary = " ".join(f"{a}={means[a]:.1f}{'+' if marks[a] else ''}" for a in SSL_ALGS)
    ok(f"rate 0.90: supervised={sup_mean:.1f} {summary}, {elapsed:.0f}s")


def strip_wall_ms(log_text):
    """Timing is the single non-deterministic log column; drop it."""
    return "\n".join(",".join(line.split(",")[:-1])
                     for line in log_text.splitlines() if line)


def test_full_grid_determinism(synth_dataset, tmp_path):
    """Two cli runs of the full synthetic grid produce identical logs."""
    data = tmp_path / "synth.csv"
    save_csv(synth_dataset, data)
    spec = tmp_path / "grid.ini"
    spec.write_text(
        "[global]\n"
        f"datasets = {data}\n"
        "n_folds = 3\nn_seeds = 2\nbase_seed = 11\n"
        "epochs = 4\nbatch_size = 32\n"
        "[study full]\n"
        "rates = 0.9\nmax_iterations = 2\n"
        "algorithms = supervised, TBST, CBST, TT, TTWD, CT\n"
        "include_oracle = true\n",
        encoding="utf-8")
    logs, tables = [], []
    for run in ("one", "two"):
        out = tmp_path / run
        assert main(["run", str(spec), "--out", str(out)]) == 0
        logs.append((out / "run_log.csv").read_text())
        tables.append((out / "table_full_rate0.9.txt").read_bytes())
    assert strip_wall_ms(logs[0]) == strip_wall_ms(logs[1])
    assert tables[0] == tables[1]
    n_runs = len(logs[0].splitlines())
    ok(f"determinism: {n_runs}-run grid log identical across executions")


def test_replication_harness_structure(tmp_path):
    """Conforming 768-dim inputs reproduce the full comparison structure.

    Four datasets, rates 0.95/0.90/0.80, seven rows per rate table; the
    reference deltas are reported, never gated.
    """
    paths = []
    for i in range(4):
        ds = make_blobs(f"emb{i}", n=120, d=768, n_classes=2, separation=4.0, seed=200 + i)
        p = tmp_path / f"emb{i}.csv"
        save_csv(ds, p)
        paths.append(str(p))
    spec = tmp_path / "repl.ini"
    spec.write_text(
        "[global]\n"
        f"datasets = {', '.join(paths)}\n"
        "n_folds = 3\nn_seeds = 5\nbase_seed = 3\n"
        "epochs = 1\nbatch_size = 32\n"
        "[study repl]\n"
        "rates = 0.95, 0.90, 0.80\nmax_iterations = 1\n"
        "algorithms = supervised, TBST, CBST, TT, TTWD, CT\n"
        "include_oracle = true\n"
        "[reference]\n"
        "emb0@0.9/TTWD = 93.67\n"
        "emb0@0.9/Supervised = 90.54\n",
        encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 0

    expected_rows = ["Oracle", "Supervised", "TBST", "CBST", "TT", "TTWD", "CT"]
    for rate in ("0.95", "0.9", "0.8"):
        csv = (out / f"table_repl_rate{rate}.csv").read_text().splitlines()[1:]
        rows = []
        datasets = []
        for line in csv:
            _, _, row, ds_name, _, _ = line.split(",")
            if row not in rows:
                rows.append(row)
            if ds_name not in datasets:
                datasets.append(ds_name)
        assert rows == expected_rows
        assert datasets == [f"emb{i}" for i in range(4)]

    deltas = (out / "reference_delta.csv").read_text().splitlines()
    assert deltas[0] == "study,dataset,rate,row,mean,reference,delta"
    assert len(deltas) == 3  # two reference cells compared, none gated
    ok("replication harness: 3 rates x 7 rows x 4 datasets, deltas reported")
