from dataclasses import replace

import numpy as np
import pytest

from proxyssl.classifier import TrainConfig
from proxyssl.dataset import SamplingStrategy, make_semi_split
from proxyssl.engine import SslConfig, run_supervised
from proxyssl.errors import ConfigError, DataError, ProtocolError
from proxyssl.numerics import Rng
from proxyssl.protocol import (
    AlgorithmEntry,
    CellResult,
    ComparisonTable,
    ExperimentGrid,
    derive_seed,
    format_log,
    mark_significance,
    parse_log,
    render_table_delimited,
    render_table_text,
    run_grid,
    tables_from_results,
)
from proxyssl.synthetic import make_blobs

FAST = TrainConfig(epochs=2, batch_size=32)


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


class TestRunGrid:
    def test_fifteen_runs_per_cell(self):
        results = run_grid([small_grid(include_oracle=False)])
        assert len(results) == 15
        pairs = [(r.fold, r.trial) for r in results]
        assert pairs == [(f, t) for f in range(3) for t in range(5)]

    def test_two_rates_give_two_supervised_blocks(self):
        grid = small_grid(rates=(0.0, 0.9), include_oracle=False)
        results = run_grid([grid])
        tables = tables_from_results(results)
        assert len(tables) == 2
        assert {t.rate for t in tables} == {0.0, 0.9}
        assert all(t.row_labels == ["Supervised"] for t in tables)

    def test_rerun_identical(self):
        grid = small_grid(include_oracle=False)
        a = run_grid([grid])
        b = run_grid([grid])
        assert [r.max_test_acc for r in a] == [r.max_test_acc for r in b]

    def test_jobs_parallel_matches_serial(self):
        grid = small_grid(include_oracle=False, n_seeds=2)
        serial = run_grid([grid], jobs=1)
        parallel = run_grid([grid], jobs=4)
        assert [r.max_test_acc for r in serial] == [r.max_test_acc for r in parallel]

    def test_oracle_equals_rate_zero_supervised(self):
        grid = small_grid(include_oracle=True)
        results = run_grid([grid])
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
        results = run_grid([grid])
        one = [r.max_test_acc for r in results if r.detail == "one"]
        two = [r.max_test_acc for r in results if r.detail == "two"]
        assert one == two

    def test_failure_diagnostic_names_cell(self):
        ds = make_blobs("tiny", n=9, d=4, n_classes=3, separation=3.0, seed=5)
        # class size 3 equals folds, so masking at a high rate still works,
        # but TT bootstrap x_half needs x >= 6 and the labeled pool is 2
        half = SamplingStrategy("x_half", with_replacement=True)
        grid = ExperimentGrid(
            datasets=[ds],
            algorithms=[AlgorithmEntry("TT", SslConfig("TT", sampling=half))],
            unlabeled_rates=[0.5],
            n_folds=3, n_seeds=1, base_seed=1, train=FAST, include_oracle=False)
        with pytest.raises(ProtocolError, match="dataset=tiny"):
            run_grid([grid])

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
        results = run_grid(grids, progress=executed.append)
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
            run_grid(grids)

    def test_two_grids_of_one_study_rejected(self, monkeypatch):
        def no_training(*args):
            raise AssertionError("a run executed")

        monkeypatch.setattr("proxyssl.protocol._execute_run", no_training)
        # both keep the default study name: every cell would hold each run twice
        grids = [small_grid(), small_grid(rates=(0.8,))]
        with pytest.raises(ConfigError, match="'baselines'"):
            run_grid(grids)

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


class TestLogRoundTrip:
    def test_format_parse_round_trip(self):
        results = run_grid([small_grid(include_oracle=False, n_seeds=1)])
        text = format_log(results)
        back = parse_log(text)
        assert len(back) == len(results)
        for a, b in zip(results, back):
            assert (a.dataset, a.rate, a.algorithm, a.variant, a.fold, a.trial) == \
                   (b.dataset, b.rate, b.algorithm, b.variant, b.fold, b.trial)
            assert a.max_test_acc == b.max_test_acc
            assert a.iterations == b.iterations

    def test_corrupt_line_names_lineno(self):
        with pytest.raises(DataError, match=":2:"):
            parse_log("a,0.9,supervised,s/std,0,0,50.0,0,1.0\nbroken line\n")

    def test_variant_requires_study_prefix(self):
        with pytest.raises(DataError, match="study"):
            parse_log("a,0.9,supervised,nostudy,0,0,50.0,0,1.0\n")


def synthetic_table(ssl_accs, sup_accs, label="TT"):
    rows = ["Supervised", label]
    cells = {
        ("Supervised", "d1"): CellResult(runs=[(f, t, sup_accs[f * 5 + t])
                                               for f in range(3) for t in range(5)]),
        (label, "d1"): CellResult(runs=[(f, t, ssl_accs[f * 5 + t])
                                        for f in range(3) for t in range(5)]),
    }
    return ComparisonTable("s", 0.9, ["d1"], rows, cells)


class TestMarkSignificance:
    def test_identical_cells_none(self):
        accs = list(np.linspace(80, 90, 15))
        table = mark_significance(synthetic_table(accs, accs))
        assert table.cells[("TT", "d1")].significance == "none"

    def test_constant_shift_better(self):
        sup = list(np.linspace(80, 90, 15))
        ssl = [a + 5.0 for a in sup]
        table = mark_significance(synthetic_table(ssl, sup))
        assert table.cells[("TT", "d1")].significance == "better"

    def test_constant_shift_worse(self):
        sup = list(np.linspace(80, 90, 15))
        ssl = [a - 5.0 for a in sup]
        table = mark_significance(synthetic_table(ssl, sup))
        assert table.cells[("TT", "d1")].significance == "worse"

    def test_missing_supervised_row_rejected(self):
        table = ComparisonTable("s", 0.9, ["d1"], ["TT"], {
            ("TT", "d1"): CellResult(runs=[(0, 0, 80.0), (0, 1, 81.0)])})
        with pytest.raises(ProtocolError):
            mark_significance(table)

    def test_unmatched_pairing_rejected(self):
        table = synthetic_table(list(np.linspace(80, 90, 15)), list(np.linspace(80, 90, 15)))
        table.cells[("TT", "d1")].runs = table.cells[("TT", "d1")].runs[:-1] + [(9, 9, 85.0)]
        with pytest.raises(ProtocolError, match="pairing"):
            mark_significance(table)

    def test_oracle_row_not_marked(self):
        accs = list(np.linspace(80, 90, 15))
        table = synthetic_table(accs, accs, label="TT")
        table.row_labels.insert(0, "Oracle")
        table.cells[("Oracle", "d1")] = CellResult(
            runs=[(f, t, 95.0) for f in range(3) for t in range(5)])
        mark_significance(table)
        assert table.cells[("Oracle", "d1")].significance == ""


class TestTables:
    def test_oracle_attaches_to_every_rate_block(self):
        grid = small_grid(rates=(0.9, 0.8), include_oracle=True, n_seeds=1)
        tables = tables_from_results(run_grid([grid]))
        assert len(tables) == 2
        for t in tables:
            assert t.row_labels[0] == "Oracle"
            assert ("Oracle", "mini") in t.cells

    def test_render_deterministic(self):
        results = run_grid([small_grid(n_seeds=2)])
        tables = tables_from_results(results)
        text1 = [render_table_text(t) for t in tables]
        text2 = [render_table_text(t) for t in tables_from_results(results)]
        assert text1 == text2
        csv1 = [render_table_delimited(t) for t in tables]
        assert all("study,rate,row,dataset,mean,significance" in c for c in csv1)

    def test_mean_matches_runs(self):
        results = run_grid([small_grid(include_oracle=False, n_seeds=2)])
        table = tables_from_results(results)[0]
        cell = table.cells[("Supervised", "mini")]
        assert abs(cell.mean - np.mean(cell.accuracies)) < 1e-12

    def test_union_of_disjoint_logs(self):
        ga = small_grid(include_oracle=False, n_seeds=1, study="a")
        gb = small_grid(include_oracle=False, n_seeds=1, study="b")
        ra, rb = run_grid([ga]), run_grid([gb])
        merged = tables_from_results(ra + rb)
        assert {t.study for t in merged} == {"a", "b"}
        separate = tables_from_results(ra) + tables_from_results(rb)
        assert [render_table_text(t) for t in merged] == \
               [render_table_text(t) for t in separate]
