import inspect
import json
import os
import random
import resource
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import proxyssl
from proxyssl import protocol, stats
from proxyssl.cli import build_parser, main
from proxyssl.dataset import SAMPLING_MODES, save_csv
from proxyssl.errors import ConfigError
from proxyssl.report import CellResult, ComparisonTable, RunResult, report_files, series_points
from proxyssl.specfile import STUDY_KINDS, parse_spec
from proxyssl.synthetic import make_blobs


@pytest.fixture
def data_file(tmp_path):
    ds = make_blobs("mini", n=120, d=6, n_classes=2, separation=4.0, seed=13)
    p = tmp_path / "mini.csv"
    save_csv(ds, p)
    manifest = {"name": ds.name, "n": ds.n, "d": ds.d, "n_classes": ds.n_classes,
                "task": "synthetic blobs"}
    (tmp_path / "mini.csv.manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return p


def run_under_memory_cap(argv, cwd, cap=1 << 30):
    """The finished ``python -m proxyssl.cli *argv``, its address space capped at ``cap`` bytes."""
    src = str(Path(proxyssl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run([sys.executable, "-m", "proxyssl.cli", *argv], env=env, cwd=cwd,
                          preexec_fn=limit_memory, capture_output=True, text=True, timeout=60)


def write_spec(tmp_path, data_file, body):
    spec = tmp_path / "exp.ini"
    spec.write_text(
        "[global]\n"
        f"datasets = {data_file}\n"
        "n_folds = 3\n"
        "n_seeds = 1\n"
        "base_seed = 5\n"
        "epochs = 2\n"
        "batch_size = 32\n"
        + body,
        encoding="utf-8",
    )
    return spec


class TestValidate:
    def test_valid_file(self, data_file, capsys):
        assert main(["validate", str(data_file)]) == 0
        out = capsys.readouterr().out
        assert "samples: 120" in out
        assert "classes: 2" in out
        assert "task: synthetic blobs" in out
        assert "class 0:" in out and "class 1:" in out

    def test_truncated_row_exit_1(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("# name=bad d=2\n0,0,1.0,2.0\n1,1,3.0\n", encoding="utf-8")
        assert main(["validate", str(p)]) == 1
        assert ":3:" in capsys.readouterr().err

    def test_empty_file_exit_1(self, tmp_path, capsys):
        p = tmp_path / "empty.csv"
        p.write_text("# name=empty d=2\n", encoding="utf-8")
        assert main(["validate", str(p)]) == 1
        assert "no samples" in capsys.readouterr().err

    def test_header_d_below_one_exit_1(self, tmp_path, capsys):
        p = tmp_path / "neg.csv"
        p.write_text("# name=x d=-1\n0\n", encoding="utf-8")
        assert main(["validate", str(p)]) == 1
        assert "neg.csv: header d=-1" in capsys.readouterr().err

    def test_non_utf8_dataset_exit_1(self, data_file, capsys):
        text = data_file.read_bytes()
        data_file.write_bytes(text[:40] + b"\xff" + text[40:])
        assert main(["validate", str(data_file)]) == 1
        err = capsys.readouterr().err
        assert f"error: {data_file}: 'utf-8' codec can't decode byte 0xff" in err

    def test_one_class_dataset_exit_1(self, tmp_path, capsys):
        p = tmp_path / "one.csv"
        p.write_text("# name=one d=2\n" + "".join(f"{i},0,{i}.0,1.0\n" for i in range(30)),
                     encoding="utf-8")
        assert main(["validate", str(p)]) == 1
        assert "dataset 'one': need at least 2 classes, got 1" in capsys.readouterr().err

    @pytest.mark.parametrize("row, message", [
        ("1,1,nan,1.0", "dataset 'x': sample 1 has a non-finite feature"),
        ("1,1,1e999,1.0", "dataset 'x': sample 1 has a non-finite feature"),
        ("1,1000000000000,1.0,1.0", "dataset 'x': class 1 has no samples"),
    ])
    def test_bad_sample_exit_1(self, tmp_path, capsys, row, message):
        p = tmp_path / "bad.csv"
        p.write_text(f"# name=x d=2\n0,0,1.0,1.0\n{row}\n", encoding="utf-8")
        assert main(["validate", str(p)]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("d", [10**8, 10**9, 12345678901234567890])
    def test_huge_header_d_fails_cleanly_under_a_memory_cap(self, tmp_path, d):
        # one row of d float64 features would outgrow the cap
        p = tmp_path / "wide.csv"
        p.write_text(f"# name=x d={d}\n0,0,1.0\n", encoding="utf-8")
        proc = run_under_memory_cap(["validate", str(p)], tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == f"error: {p}:2: expected {d + 2} fields, got 3\n"

    @pytest.mark.parametrize("payload", ["{bad", "[1,2]"])
    def test_malformed_manifest_exit_1(self, data_file, capsys, payload):
        manifest = data_file.parent / "mini.csv.manifest.json"
        manifest.write_text(payload, encoding="utf-8")
        assert main(["validate", str(data_file)]) == 1
        assert f"error: {manifest}: " in capsys.readouterr().err


class TestSpecParsing:
    def test_missing_dataset_file(self, tmp_path):
        spec = tmp_path / "exp.ini"
        spec.write_text("[global]\ndatasets = nope.csv\n[study s]\nalgorithms = supervised\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="not found"):
            parse_spec(spec)

    def test_empty_algorithm_list(self, tmp_path, data_file):
        spec = write_spec(tmp_path, data_file, "[study s]\nrates = 0.9\nalgorithms =\n")
        with pytest.raises(ConfigError, match="empty algorithm list"):
            parse_spec(spec)

    def test_unknown_algorithm(self, tmp_path, data_file):
        spec = write_spec(tmp_path, data_file, "[study s]\nalgorithms = SVM\n")
        with pytest.raises(ConfigError, match="SVM"):
            parse_spec(spec)

    def test_no_study_sections(self, tmp_path, data_file):
        spec = write_spec(tmp_path, data_file, "")
        with pytest.raises(ConfigError, match="study"):
            parse_spec(spec)

    def test_sampling_study_rows(self, tmp_path, data_file):
        spec = write_spec(tmp_path, data_file,
                          "[study samp]\nkind = sampling\nrates = 0.9\n"
                          "algorithms = TT, TTWD\nmodes = x:norepl, 2x:repl\n")
        grid = parse_spec(spec).grids[0]
        labels = [e.row_label() for e in grid.algorithms]
        assert labels == ["Supervised", "TT x+norepl", "TT 2x+repl",
                          "TTWD x+norepl", "TTWD 2x+repl"]

    def test_threshold_study_rows(self, tmp_path, data_file):
        spec = write_spec(tmp_path, data_file,
                          "[study th]\nkind = thresholds\nrates = 0.9\n"
                          "algorithms = TBST\npairs = 0.7:0.9, 0.8:1.0\n")
        grid = parse_spec(spec).grids[0]
        ssl = [e.ssl for e in grid.algorithms if e.ssl]
        assert [(c.tau1, c.tau2) for c in ssl] == [(0.7, 0.9), (0.8, 1.0)]

    def test_sweep_rates_from_fractions(self, tmp_path, data_file):
        spec = write_spec(tmp_path, data_file,
                          "[study sw]\nkind = sweep\nfractions = 0.1, 0.5, 1.0\n")
        grid = parse_spec(spec).grids[0]
        assert grid.unlabeled_rates == [0.9, 0.5, 0.0]
        assert [e.algorithm for e in grid.algorithms] == ["supervised"]

    def test_fresh_model_study_rows(self, tmp_path, data_file):
        spec = write_spec(tmp_path, data_file,
                          "[study nm]\nkind = fresh_model\nrates = 0.9\nalgorithms = TBST\n")
        grid = parse_spec(spec).grids[0]
        fresh = [e.ssl.fresh_model_each_iteration for e in grid.algorithms if e.ssl]
        assert fresh == [True, False]

    def test_reference_section(self, tmp_path, data_file):
        spec = write_spec(tmp_path, data_file,
                          "[study s]\nrates = 0.9\nalgorithms = supervised\n"
                          "[reference]\nmini@0.9/Supervised = 88.50\n")
        parsed = parse_spec(spec)
        assert parsed.reference == {("mini", 0.9, "Supervised"): 88.5}

    def test_one_algorithm_kinds_default_their_algorithm(self, tmp_path, data_file):
        # the README's thresholds and count_windows sections name no algorithms
        spec = write_spec(tmp_path, data_file,
                          "[study thresholds]\nkind = thresholds\nrates = 0.90\n"
                          "pairs = 0.7:1.0, 0.8:1.0, 0.9:1.0, 0.7:0.9, 0.7:0.8, 0.8:0.9\n"
                          "[study counts]\nkind = count_windows\nrates = 0.90\n"
                          "windows = 0:300, 0:200, 0:100, 100:200, 100:300, 200:300\n")
        thresholds, counts = parse_spec(spec).grids
        assert [e.row_label() for e in thresholds.algorithms] == [
            "Supervised", "TBST t0.7-1", "TBST t0.8-1", "TBST t0.9-1",
            "TBST t0.7-0.9", "TBST t0.7-0.8", "TBST t0.8-0.9"]
        assert [e.row_label() for e in counts.algorithms] == [
            "Supervised", "CBST c0-300", "CBST c0-200", "CBST c0-100",
            "CBST c100-200", "CBST c100-300", "CBST c200-300"]
        assert not thresholds.include_oracle and not counts.include_oracle

    def test_values_are_literal(self, tmp_path, data_file):
        spec = write_spec(tmp_path, data_file,
                          "out_dir = results%1\n[study s]\nalgorithms = supervised\n")
        assert parse_spec(spec).out_dir == "results%1"

    def test_mode_token_errors(self, tmp_path, data_file):
        for token in ("x", "x:maybe"):
            spec = write_spec(tmp_path, data_file, "[study samp]\nkind = sampling\nrates = 0.9\n"
                                                   f"algorithms = TT\nmodes = {token}\n")
            with pytest.raises(ConfigError, match="unknown sampling mode"):
                parse_spec(spec)


class TestRunAndReport:
    def run_spec(self, tmp_path, data_file, out_name="out"):
        spec = write_spec(
            tmp_path, data_file,
            "[study base]\n"
            "rates = 0.9, 0.8\n"
            "max_iterations = 1\n"
            "algorithms = supervised, TBST, TT\n"
            "[reference]\n"
            "mini@0.9/Supervised = 90.0\n",
        )
        out = tmp_path / out_name
        assert main(["run", str(spec), "--out", str(out)]) == 0
        return out

    def test_run_writes_log_and_tables(self, tmp_path, data_file):
        out = self.run_spec(tmp_path, data_file)
        assert (out / "run_log.csv").exists()
        assert (out / "table_base_rate0.9.txt").exists()
        assert (out / "table_base_rate0.8.txt").exists()
        assert (out / "table_base_rate0.9.csv").exists()
        assert (out / "reference_delta.csv").exists()
        text = (out / "table_base_rate0.9.txt").read_text()
        assert "Oracle" in text and "Supervised" in text and "TBST" in text and "TT" in text
        # series: Supervised appears at two rates
        assert (out / "series_base_mini.txt").exists()
        lines = (out / "series_base_mini.txt").read_text().splitlines()
        assert len(lines) == 2 and lines[0].startswith("0.1 ")

    def test_run_restores_the_sigterm_handler(self, tmp_path, data_file, monkeypatch):
        # run installs no handler of its own, not even while it trains
        def handler(signum, frame):
            pass

        during = []
        execute = protocol._execute_run

        def recording(*desc):
            during.append(signal.getsignal(signal.SIGTERM))
            return execute(*desc)

        monkeypatch.setattr(protocol, "_execute_run", recording)
        before = signal.signal(signal.SIGTERM, handler)
        try:
            self.run_spec(tmp_path, data_file)
            assert signal.getsignal(signal.SIGTERM) is handler
        finally:
            signal.signal(signal.SIGTERM, before)
        assert during and all(h is handler for h in during)

    @staticmethod
    def overflowing_spec(tmp_path, big):
        """A spec on a valid 30x4 file with one feature of ``big``, and that file."""
        ds = make_blobs("big", n=30, d=4, n_classes=2, separation=4.0, seed=1)
        ds.features[3, 1] = big
        data = tmp_path / "big.csv"
        save_csv(ds, data)
        return write_spec(tmp_path, data, "[study a]\nrates = 0.5\nalgorithms = supervised\n"), data

    @pytest.mark.parametrize("big", [1e160, 1e308])
    def test_overflowing_feature_exit_3(self, tmp_path, capsys, big):
        # the file is valid, but training on it overflows; where overflow only warns, as it
        # does by default, the run must still fail rather than report scores of inf arithmetic
        spec, data = self.overflowing_spec(tmp_path, big)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["validate", str(data)]) == 0
            assert main(["run", str(spec), "--out", str(tmp_path / "out")]) == 3
        assert "run failed for dataset=big" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_run_keeps_an_output_directory_it_did_not_make(self, tmp_path, capsys):
        spec, _ = self.overflowing_spec(tmp_path, 1e160)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["run", str(spec), "--out", str(out)]) == 3
        assert "overflow encountered" in capsys.readouterr().err
        assert out.is_dir()

    def test_report_reproduces_tables_byte_identical(self, tmp_path, data_file):
        out = self.run_spec(tmp_path, data_file)
        rep = tmp_path / "rep"
        assert main(["report", str(out / "run_log.csv"), "--out", str(rep)]) == 0
        for name in ("table_base_rate0.9.txt", "table_base_rate0.8.txt",
                     "table_base_rate0.9.csv", "series_base_mini.txt"):
            assert (rep / name).read_bytes() == (out / name).read_bytes()

    def test_zero_iterations_log_the_initial_fit(self, tmp_path, data_file):
        spec = write_spec(tmp_path, data_file, "[study z]\nrates = 0.9\nmax_iterations = 0\n"
                          "algorithms = TBST, CBST, CT, TT, TTWD\ninclude_oracle = false\n")
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "run_log.csv").read_text().splitlines()]
        assert len(rows) == 6 * 3
        assert {r[2] for r in rows} == {"supervised", "TBST", "CBST", "CT", "TT", "TTWD"}
        assert {r[7] for r in rows} == {"0"}

    def test_report_union_of_concatenated_logs(self, tmp_path, data_file):
        spec_a = write_spec(tmp_path, data_file,
                            "[study a]\nrates = 0.9\nalgorithms = supervised\n"
                            "include_oracle = false\n")
        out_a = tmp_path / "a"
        assert main(["run", str(spec_a), "--out", str(out_a)]) == 0
        spec_b = write_spec(tmp_path, data_file,
                            "[study b]\nrates = 0.8\nalgorithms = supervised\n"
                            "include_oracle = false\n")
        out_b = tmp_path / "b"
        assert main(["run", str(spec_b), "--out", str(out_b)]) == 0

        merged = (out_a / "run_log.csv").read_text() + (out_b / "run_log.csv").read_text()
        log = tmp_path / "merged.csv"
        log.write_text(merged, encoding="utf-8")
        rep = tmp_path / "rep_union"
        assert main(["report", str(log), "--out", str(rep)]) == 0
        assert (rep / "table_a_rate0.9.txt").read_bytes() == \
               (out_a / "table_a_rate0.9.txt").read_bytes()
        assert (rep / "table_b_rate0.8.txt").read_bytes() == \
               (out_b / "table_b_rate0.8.txt").read_bytes()

    def test_spec_executes_each_distinct_run_once(self, tmp_path, data_file, monkeypatch):
        # Supervised is in every study; TT x+norepl and TBST warm repeat baselines rows
        spec = write_spec(tmp_path, data_file,
                          "[study base]\nrates = 0.9\nmax_iterations = 1\nalgorithms = TBST, TT\n"
                          "[study samp]\nkind = sampling\nrates = 0.9\nmax_iterations = 1\n"
                          "algorithms = TT\nmodes = x:norepl, 2x:repl\n"
                          "[study fresh]\nkind = fresh_model\nrates = 0.9\nmax_iterations = 1\n"
                          "algorithms = TBST\n")
        executed = []
        execute = protocol._execute_run

        def counted(*args):
            executed.append(args)
            return execute(*args)

        monkeypatch.setattr(protocol, "_execute_run", counted)
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == 0
        requested = [(ds.name, rate, entry.algorithm, repr(entry.ssl), fold, trial)
                     for grid in parse_spec(spec).grids
                     for ds, rate, entry, fold, trial in protocol.enumerate_runs(grid)]
        assert len(executed) == len(set(requested)) < len(requested)
        assert len((out / "run_log.csv").read_text().splitlines()) == len(requested)

    def test_run_makes_each_split_once(self, tmp_path, data_file, monkeypatch):
        spec = write_spec(tmp_path, data_file,
                          "[study base]\nrates = 0.9, 0.8\nmax_iterations = 1\nalgorithms = TBST\n"
                          "[study fresh]\nkind = fresh_model\nrates = 0.9\nmax_iterations = 1\n"
                          "algorithms = TBST\n")
        made = []
        real = protocol.make_semi_split
        monkeypatch.setattr(protocol, "make_semi_split",
                            lambda ds, rate, fold, *rest: made.append((ds.name, rate, fold))
                            or real(ds, rate, fold, *rest))
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out), "--jobs", "1"]) == 0
        logged = {(f[0], float(f[1]), int(f[4])) for f in
                  (line.split(",") for line in (out / "run_log.csv").read_text().splitlines())}
        assert sorted(made) == sorted(logged)  # oracle and two rates, three folds each
        assert len(made) == 9

    def test_each_sampling_mode_logs_its_label(self, tmp_path, data_file):
        spec = write_spec(tmp_path, data_file,
                          "[study samp]\nkind = sampling\nrates = 0.9\nmax_iterations = 1\n"
                          f"algorithms = TT\nmodes = {', '.join(SAMPLING_MODES)}\n")
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == 0
        variants = {line.split(",")[3] for line in (out / "run_log.csv").read_text().splitlines()}
        assert variants == {"samp/std"} | {"samp/" + mode.replace(":", "+")
                                           for mode in SAMPLING_MODES}

    @pytest.mark.parametrize("key", ["modes", "sampling"])
    @pytest.mark.parametrize("token", ["x:nointer", "x_third_disjoint:norepl", "2x:norepl",
                                       "x_third_disjoint:repl", "4x:repl"])
    def test_unknown_sampling_mode_exit_2_before_training(self, tmp_path, data_file, capsys,
                                                          monkeypatch, key, token):
        kind = "sampling" if key == "modes" else "baselines"
        spec = write_spec(tmp_path, data_file, f"[study s]\nkind = {kind}\nrates = 0.9\n"
                                               f"algorithms = TT\n{key} = {token}\n")
        executed = []
        monkeypatch.setattr(protocol, "_execute_run", lambda *args: executed.append(args))
        assert main(["run", str(spec), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"unknown sampling mode {token!r}" in err
        assert f"expected one of {', '.join(SAMPLING_MODES)}" in err
        assert executed == []
        assert not (tmp_path / "out").exists()

    def test_too_few_labeled_for_sampling_mode_exit_2_before_training(self, tmp_path, capsys,
                                                                      monkeypatch):
        # 4 of 40 training samples stay labeled at rate 0.95: enough for x, not for x_half
        data = tmp_path / "four.csv"
        save_csv(make_blobs("four", n=60, d=8, n_classes=4, separation=4.0, seed=1), data)
        spec = write_spec(tmp_path, data, "[study s]\nkind = sampling\nrates = 0.95\n"
                                          "algorithms = TT\nmodes = x:norepl, x_half:repl\n")
        executed = []
        monkeypatch.setattr(protocol, "_execute_run", lambda *args: executed.append(args))
        assert main(["run", str(spec), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "'TT x_half+repl'" in err and "needs 6 labeled samples" in err and "has 4" in err
        assert executed == []
        assert not (tmp_path / "out").exists()

    def test_more_folds_than_class_samples_exit_1_before_training(self, tmp_path, capsys,
                                                                   monkeypatch):
        data = tmp_path / "few.csv"
        save_csv(make_blobs("few", n=30, d=4, n_classes=2, separation=4.0, seed=1), data)
        spec = tmp_path / "folds.ini"
        spec.write_text(f"[global]\ndatasets = {data}\nn_folds = 20\nn_seeds = 1\n"
                        "[study s]\nrates = 0.5\nalgorithms = supervised\n", encoding="utf-8")
        executed = []
        monkeypatch.setattr(protocol, "_execute_run", lambda *args: executed.append(args))
        assert main(["run", str(spec), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "dataset 'few'" in err and "fewer than 20 folds" in err
        assert executed == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, code, message", [
        ("n_seeds", 2, "more than 100000 runs"),
        ("n_folds", 1, "dataset 'mini': class 0 has 60 samples, fewer than 12345678901234567890 "
                       "folds"),
    ])
    def test_twenty_digit_grid_size_fails_cleanly_under_a_memory_cap(self, tmp_path, data_file,
                                                                      key, code, message):
        sizes = {"n_folds": 3, "n_seeds": 1, key: 12345678901234567890}
        spec = tmp_path / "big.ini"
        spec.write_text(f"[global]\ndatasets = {data_file}\nn_folds = {sizes['n_folds']}\n"
                        f"n_seeds = {sizes['n_seeds']}\n[study s]\nrates = 0.9\n"
                        "algorithms = supervised\n", encoding="utf-8")
        # a plan listed in full would outgrow the cap
        proc = run_under_memory_cap(["run", str(spec), "--out", str(tmp_path / "out")], tmp_path)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith("error: ") and message in proc.stderr, proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_duplicate_study_name_exit_2_before_training(self, tmp_path, data_file, capsys,
                                                        monkeypatch):
        # two sections whose names both strip to study "a"
        spec = write_spec(tmp_path, data_file,
                          "[study a]\nrates = 0.9\nalgorithms = supervised\n"
                          "[study  a]\nrates = 0.8\nalgorithms = supervised\n")
        executed = []
        monkeypatch.setattr(protocol, "_execute_run", lambda *args: executed.append(args))
        assert main(["run", str(spec), "--out", str(tmp_path / "out")]) == 2
        assert "'a'" in capsys.readouterr().err
        assert executed == []
        assert not (tmp_path / "out").exists()

    def test_ct_on_one_column_dataset_exit_2_before_training(self, tmp_path, capsys,
                                                             monkeypatch):
        data = tmp_path / "flat.csv"
        save_csv(make_blobs("flat", n=60, d=1, n_classes=2, separation=4.0, seed=1), data)
        spec = write_spec(tmp_path, data, "[study s]\nrates = 0.5\nalgorithms = TBST, CT\n")
        executed = []
        monkeypatch.setattr(protocol, "_execute_run", lambda *args: executed.append(args))
        assert main(["run", str(spec), "--out", str(tmp_path / "out"), "--jobs", "2"]) == 2
        assert "d=1" in capsys.readouterr().err
        assert executed == []
        assert not (tmp_path / "out").exists()

    def test_ct_on_one_column_dataset_runs_at_rate_0(self, tmp_path):
        # an empty U runs supervised, so CT never halves the one column
        data = tmp_path / "flat.csv"
        save_csv(make_blobs("flat", n=60, d=1, n_classes=2, separation=4.0, seed=1), data)
        spec = write_spec(tmp_path, data, "[study s]\nrates = 0\nalgorithms = CT\n")
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == 0
        rows = [line.split(",") for line in (out / "run_log.csv").read_text().splitlines()]
        assert [r[2] for r in rows].count("CT") == 3

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2_before_training(self, tmp_path, data_file, capsys,
                                                   monkeypatch, jobs):
        spec = write_spec(tmp_path, data_file, "[study s]\nrates = 0.9\nalgorithms = supervised\n")
        executed = []
        monkeypatch.setattr(protocol, "_execute_run", lambda *args: executed.append(args))
        assert main(["run", str(spec), "--out", str(tmp_path / "out"), "--jobs", jobs]) == 2
        assert "jobs" in capsys.readouterr().err
        assert executed == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["demo@0.5/Supervsed", "dmeo@0.5/Supervised",
                                     "demo@0.9/Supervised"])
    def test_reference_key_naming_no_cell_exit_2_before_training(self, tmp_path, capsys,
                                                                 monkeypatch, key):
        data = tmp_path / "demo.csv"
        save_csv(make_blobs("demo", n=90, d=4, n_classes=2, separation=4.0, seed=1), data)
        spec = write_spec(tmp_path, data, "[study s]\nrates = 0.5\nalgorithms = supervised\n"
                                          f"[reference]\n{key} = 50\n")
        executed = []
        monkeypatch.setattr(protocol, "_execute_run", lambda *args: executed.append(args))
        assert main(["run", str(spec), "--out", str(tmp_path / "out")]) == 2
        assert f"[reference] key {key!r} names no table cell" in capsys.readouterr().err
        assert executed == []
        assert not (tmp_path / "out").exists()

    def test_reference_keys_for_oracle_and_sweep_rows_compared(self, tmp_path):
        data = tmp_path / "demo.csv"
        save_csv(make_blobs("demo", n=90, d=4, n_classes=2, separation=4.0, seed=1), data)
        spec = write_spec(tmp_path, data, "[study s]\nrates = 0.5\nalgorithms = supervised\n"
                                          "[study sw]\nkind = sweep\nfractions = 0.2\n"
                                          "[reference]\ndemo@0.5/Oracle = 90\n"
                                          "demo@0.8/Supervised = 80\n")
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == 0
        lines = (out / "reference_delta.csv").read_text().splitlines()
        assert lines[0] == "study,dataset,rate,row,mean,reference,delta"
        assert [line.split(",")[:4] for line in lines[1:]] == [["s", "demo", "0.5", "Oracle"],
                                                               ["sw", "demo", "0.8", "Supervised"]]

    def test_unwritable_out_fails_before_training(self, tmp_path, data_file, capsys,
                                                  monkeypatch):
        spec = write_spec(tmp_path, data_file, "[study s]\nrates = 0.9\nalgorithms = supervised\n")
        executed = []
        monkeypatch.setattr(protocol, "_execute_run", lambda *args: executed.append(args))
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        assert main(["run", str(spec), "--out", str(blocker / "out")]) == 1
        assert "error:" in capsys.readouterr().err
        assert executed == []

    @pytest.mark.parametrize("ch", ["\u2028", "\x85", "\x0b", "\x0c", "\x1e"])
    def test_report_reproduces_run_with_line_break_in_study_name(self, tmp_path, data_file, ch):
        # str.splitlines breaks at each of these; the log's records end in "\n" only
        spec = write_spec(tmp_path, data_file, f"[study a{ch}b]\nrates = 0.9\n"
                                               "algorithms = supervised, TBST\nmax_iterations = 1\n")
        out, rep = tmp_path / "out", tmp_path / "rep"
        assert main(["run", str(spec), "--out", str(out)]) == 0
        assert main(["report", str(out / "run_log.csv"), "--out", str(rep)]) == 0
        rendered = sorted(p.name for p in out.iterdir() if p.name.startswith(("table_", "series_")))
        assert rendered and rendered == sorted(p.name for p in rep.iterdir())
        assert all((out / name).read_bytes() == (rep / name).read_bytes() for name in rendered)

    @pytest.mark.parametrize("seed", range(10))
    def test_report_reproduces_run_of_generated_spec(self, tmp_path, seed):
        rng = random.Random(seed)
        paths = []
        for k in range(rng.randint(1, 2)):
            ds = make_blobs(f"d{k}", n=90, d=4, n_classes=rng.randint(2, 3), separation=2.0,
                            seed=100 * seed + k)
            paths.append(tmp_path / f"d{k}.csv")
            save_csv(ds, paths[-1])
        lines = ["[global]", f"datasets = {', '.join(map(str, paths))}", "n_folds = 2",
                 "n_seeds = 1", f"base_seed = {seed}", "epochs = 1", "batch_size = 16"]
        for i, kind_name in enumerate(rng.sample(sorted(STUDY_KINDS), rng.randint(1, 3))):
            lines += [f"[study s{i}]", f"kind = {kind_name}"]
            algorithms = STUDY_KINDS[kind_name].algorithms
            if not algorithms:
                fractions = rng.sample([0.2, 0.5, 1.0], rng.randint(1, 3))
                lines.append(f"fractions = {', '.join(map(str, fractions))}")
                continue
            rates = rng.sample([0.0, 0.5, 0.7, 0.8], rng.randint(1, 2))
            picked = rng.sample(algorithms, rng.randint(1, min(2, len(algorithms))))
            lines += [f"rates = {', '.join(map(str, rates))}", "max_iterations = 1",
                      f"include_oracle = {rng.choice(['true', 'false'])}",
                      f"algorithms = {', '.join(picked)}"]
        spec = tmp_path / "gen.ini"
        spec.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out, rep = tmp_path / "out", tmp_path / "rep"
        assert main(["run", str(spec), "--out", str(out)]) == 0
        assert main(["report", str(out / "run_log.csv"), "--out", str(rep)]) == 0
        rendered = sorted(p.name for p in out.iterdir() if p.name.startswith(("table_", "series_")))
        assert rendered and rendered == sorted(p.name for p in rep.iterdir())
        for name in rendered:
            assert (rep / name).read_bytes() == (out / name).read_bytes(), name

    def test_invalid_spec_exit_2(self, tmp_path, data_file, capsys):
        spec = write_spec(tmp_path, data_file, "[study s]\nrates = 0.9\nalgorithms =\n")
        assert main(["run", str(spec)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_spec_file_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "nope.ini"
        assert main(["run", str(spec), "--out", str(tmp_path / "out")]) == 2
        assert f"error: spec file not found: {spec}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_directory_as_spec_exit_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {tmp_path}: cannot read the spec file: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unsafe_dataset_name_exit_1_before_training(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "comma.csv"
        data.write_text("# name=a,b d=1\n0,0,1.0\n1,1,2.0\n", encoding="utf-8")
        spec = write_spec(tmp_path, data, "[study s]\nrates = 0.5\nalgorithms = supervised\n")

        def no_training(*args, **kwargs):
            raise AssertionError("run_grid reached")

        monkeypatch.setattr("proxyssl.cli.run_grid", no_training)
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == 1
        assert "must not contain" in capsys.readouterr().err
        assert not out.exists()

    def test_nul_in_study_name_exit_2_before_output(self, tmp_path, data_file, capsys):
        spec = write_spec(tmp_path, data_file,
                          "[study a\0b]\nrates = 0.5\nalgorithms = supervised\n")
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == 2
        assert "study name 'a\\x00b' must not contain" in capsys.readouterr().err
        assert not out.exists()

    def test_nul_in_dataset_name_exit_1_before_output(self, tmp_path, capsys):
        data = tmp_path / "nul.csv"
        data.write_text("# name=a\0b d=1\n" + "".join(f"{i},{i % 2},{i}.0\n" for i in range(8)),
                        encoding="utf-8")
        assert main(["validate", str(data)]) == 1
        assert "dataset name 'a\\x00b' must not contain" in capsys.readouterr().err
        spec = write_spec(tmp_path, data, "[study s]\nrates = 0.5\nalgorithms = supervised\n")
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == 1
        assert "dataset name 'a\\x00b' must not contain" in capsys.readouterr().err
        assert not out.exists()

    def test_one_class_dataset_exit_1_before_output(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("# name=one d=2\n" + "".join(f"{i},0,{i}.0,1.0\n" for i in range(30)),
                        encoding="utf-8")
        spec = write_spec(tmp_path, data, "[study s]\nrates = 0.5\nalgorithms = supervised\n")
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == 1
        assert "need at least 2 classes, got 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rates_of_a, code", [("0.9, 0.8", 2), ("0.9", 0)])
    def test_series_name_shared_by_two_studies_exit_2_before_training(
            self, tmp_path, capsys, monkeypatch, rates_of_a, code):
        # study a_b on dataset c and study a on dataset b_c both name series_a_b_c.txt,
        # but only a study at two or more rates writes series
        paths = []
        for name in ("c", "b_c"):
            paths.append(tmp_path / f"{name}.csv")
            save_csv(make_blobs(name, n=60, d=4, n_classes=2, separation=4.0, seed=1), paths[-1])
        spec = tmp_path / "clash.ini"
        spec.write_text(f"[global]\ndatasets = {paths[0]}, {paths[1]}\nn_folds = 2\nn_seeds = 1\n"
                        "epochs = 1\n[study a_b]\nrates = 0.9, 0.8\nalgorithms = supervised\n"
                        f"[study a]\nrates = {rates_of_a}\nalgorithms = supervised\n",
                        encoding="utf-8")
        executed = []
        execute = protocol._execute_run
        monkeypatch.setattr(protocol, "_execute_run",
                            lambda *args: executed.append(args) or execute(*args))
        out = tmp_path / "out"
        assert main(["run", str(spec), "--out", str(out)]) == code
        if code:
            err = capsys.readouterr().err
            assert ("study 'a_b' dataset 'c' and study 'a' dataset 'b_c' would both write "
                    "series_a_b_c.txt") in err
            assert executed == []
            assert not out.exists()
        else:
            assert sorted(p.name for p in out.glob("series_*")) == ["series_a_b_b_c.txt",
                                                                   "series_a_b_c.txt"]

    def test_report_of_series_name_shared_by_two_studies_exit_1(self, tmp_path, capsys):
        log = tmp_path / "clash.csv"
        log.write_text("".join(f"{ds},{rate},supervised,{study}/std,0,0,50.0,0,1.000\n"
                               for study, ds in (("a_b", "c"), ("a", "b_c"))
                               for rate in (0.9, 0.8)), encoding="utf-8")
        rep = tmp_path / "rep"
        assert main(["report", str(log), "--out", str(rep)]) == 1
        assert ("study 'a_b' dataset 'c' and study 'a' dataset 'b_c' would both write "
                "series_a_b_c.txt") in capsys.readouterr().err
        assert not rep.exists()

    @pytest.mark.parametrize("ds", ["a/b", "a\0b"])
    def test_report_of_dataset_name_unfit_for_a_file_exit_1(self, tmp_path, capsys, ds):
        # at two rates the dataset name becomes part of a series file name
        log = tmp_path / "bad.csv"
        log.write_text("".join(f"{ds},{rate},supervised,s/std,0,0,50.0,0,1.000\n"
                               for rate in (0.9, 0.8)), encoding="utf-8")
        rep = tmp_path / "rep"
        assert main(["report", str(log), "--out", str(rep)]) == 1
        assert f"study 's' dataset {ds!r} would write" in capsys.readouterr().err
        assert not rep.exists()

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_report_of_log_without_runs_exit_1(self, tmp_path, capsys, text):
        log = tmp_path / "empty.csv"
        log.write_text(text, encoding="utf-8")
        rep = tmp_path / "rep"
        assert main(["report", str(log), "--out", str(rep)]) == 1
        assert f"error: {log}: no run lines" in capsys.readouterr().err
        assert not rep.exists()

    def test_series_only_for_studies_at_two_rates_in_dataset_order(self):
        def table(study, rate, base):
            cells = {("Supervised", ds): CellResult(runs=[(0, 0, base + i)])
                     for i, ds in enumerate(("zeta", "alpha"))}
            return ComparisonTable(study, rate, ["zeta", "alpha"], ["Supervised"], cells)

        series = series_points([table("one", 0.9, 60.0), table("two", 0.9, 70.0),
                                table("two", 0.5, 80.0)])
        assert list(series.items()) == [(("two", "zeta"), [(0.1, 70.0), (0.5, 80.0)]),
                                        (("two", "alpha"), [(0.1, 71.0), (0.5, 81.0)])]
        runs = [RunResult(ds, rate, "supervised", study, "std", 0, 0, base + i, 0, 1.0)
                for study, rate, base in (("one", 0.9, 60.0), ("two", 0.9, 70.0),
                                          ("two", 0.5, 80.0))
                for i, ds in enumerate(("zeta", "alpha"))]
        files = report_files(runs)
        assert [name for name in files if name.startswith("series_")] == [
            "series_two_zeta.txt", "series_two_alpha.txt"]
        assert files["series_two_alpha.txt"] == "0.1 71.0000\n0.5 81.0000\n"

    @pytest.mark.parametrize("global_extra, body, section, key", [
        ("", "[study s]\nalgorithms = supervised\n[bogus]\nfoo = 1\n", "[bogus]", "bogus"),
        ("", "[study s]\nalgorithms = supervised\nfrobnicate = 1\n", "[study s]", "frobnicate"),
        ("max_iterations = 1\n", "[study s]\nalgorithms = supervised, TBST\n",
         "[global]", "max_iterations"),
        ("", "[DEFAULT]\nmax_iterations = 1\n[study s]\nalgorithms = supervised, TBST\n",
         "[global]", "max_iterations"),
        ("", "[study t]\nkind = thresholds\ntau1 = 0.5\n", "[study t]", "tau1"),
        ("", "[study t]\nkind = thresholds\nalgorithms = CT\n", "[study t]", "algorithms"),
        ("epochs = abc\n", "[study s]\nalgorithms = supervised\n", "[global]", "epochs"),
        ("alpha = 0.05\n", "[study s]\nalgorithms = supervised\n", "[global]", "alpha"),
        ("", "[study sw]\nkind = sweep\nrates = 0.5\n", "[study sw]", "rates"),
        ("", "[study s]\nalgorithms = supervised\ninclude_oracle = maybe\n",
         "[study s]", "include_oracle"),
        ("", "[study s]\nalgorithms = supervised, TBST, TBST\n", "[study s]", "TBST"),
        ("", "[study s]\nrates = 0.9, 0.90\nalgorithms = supervised\n", "[study s]", "rates"),
        ("", "[study s]\nkind = sampling\nalgorithms = supervised\nmodes = x:norepl, bogus\n",
         "[study s]", "bogus"),
        ("", "[study s]\nalgorithms = supervised\ntau1 = 2\n", "[study s]", "tau1"),
        ("learning_rate = nan\n", "[study s]\nalgorithms = supervised\n", "[global]",
         "learning_rate"),
        ("learning_rate = inf\n", "[study s]\nalgorithms = supervised\n", "[global]",
         "learning_rate"),
        ("", "[study s]\nalgorithms = supervised\n[reference]\nmini@0.9/Supervised = abc\n",
         "[reference]", "expected a number"),
        ("", "[study s]\nalgorithms = supervised\n[reference]\nmini@0.9/Supervised = nan\n",
         "[reference]", "expected a number, got 'nan'"),
        ("", "[study s]\nalgorithms = supervised\n[reference]\nmini@0.9/Supervised = inf\n",
         "[reference]", "expected a number, got 'inf'"),
        ("", "[study s]\nalgorithms = supervised, TBST\nmax_iterations = -1\n", "[study s]",
         "max_iterations must be >= 0"),
        ("", "[study t]\nkind = thresholds\npairs = 0.7:0.9, 0.8\n", "[study t]",
         "pairs: expected comma-separated lo:hi pairs, got '0.7:0.9, 0.8'"),
        ("", "[study sw]\nkind = sweep\nfractions = 0.5, 1.5\n", "[study sw]",
         "fractions: labeled fractions must lie in (0, 1], got '0.5, 1.5'"),
        ("", "[study s]\nalgorithms = supervised\n[reference]\nmini-0.9 = 50\n", "[reference]",
         "key 'mini-0.9' must look like 'news@0.90/TTWD'"),
    ], ids=["unknown-section", "unknown-key", "global-max_iterations", "default-max_iterations",
            "thresholds-tau1", "thresholds-CT", "epochs-abc", "global-alpha", "sweep-rates",
            "bad-boolean", "repeated-algorithm", "repeated-rate", "unused-mode", "unused-tau1",
            "learning_rate-nan", "learning_rate-inf", "reference-value", "reference-nan",
            "reference-inf", "max_iterations-negative", "pairs-malformed", "fraction-above-1",
            "reference-key-malformed"])
    def test_misconfigured_spec_exit_2_before_training(self, tmp_path, data_file, capsys,
                                                       monkeypatch, global_extra, body,
                                                       section, key):
        spec = tmp_path / "bad.ini"
        spec.write_text(f"[global]\ndatasets = {data_file}\nn_folds = 3\nn_seeds = 1\n"
                        + global_extra + body, encoding="utf-8")

        def no_training(*args, **kwargs):
            raise AssertionError("run_grid reached")

        monkeypatch.setattr("proxyssl.cli.run_grid", no_training)
        assert main(["run", str(spec), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and section in err and key in err, err

    def test_duplicate_dataset_names_exit_2_before_training(self, tmp_path, capsys,
                                                            monkeypatch):
        paths = []
        for i in range(2):
            ds = make_blobs("a", n=60, d=4, n_classes=2, separation=4.0, seed=i)
            paths.append(tmp_path / f"a{i}.csv")
            save_csv(ds, paths[-1])
        spec = tmp_path / "dup.ini"
        spec.write_text(f"[global]\ndatasets = {paths[0]}, {paths[1]}\n"
                        "[study s]\nrates = 0.5\nalgorithms = supervised\n", encoding="utf-8")

        def no_training(*args, **kwargs):
            raise AssertionError("run_grid reached")

        monkeypatch.setattr("proxyssl.cli.run_grid", no_training)
        assert main(["run", str(spec), "--out", str(tmp_path / "out")]) == 2
        assert "unique" in capsys.readouterr().err

    def test_one_significance_level(self, capsys):
        assert "alpha" not in inspect.signature(stats.paired_t_test).parameters
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "log.csv", "--alpha", "0.05"])
        assert "--alpha" in capsys.readouterr().err

    def test_repeated_run_in_a_cell_exit_1(self, tmp_path, capsys):
        lines = [f"mini,0.9,{alg},s/std,0,0,50.0,0,1.000" for alg in ("supervised", "TBST")]
        log = tmp_path / "twice.csv"
        log.write_text("\n".join(lines + lines[1:]) + "\n", encoding="utf-8")
        assert main(["report", str(log), "--out", str(tmp_path / "r")]) == 1
        assert "more than once" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("ssl_lines", [
        ["mini,0.9,TBST,s/std,0,0,51.0,1,1.000"],
        ["mini,0.9,TBST,s/std,0,0,51.0,1,1.000", "mini,0.9,TBST,s/std,0,2,52.0,1,1.000"],
    ], ids=["one-run", "unmatched"])
    def test_report_of_unpaired_cell_exit_1_without_output(self, tmp_path, capsys, ssl_lines):
        # Supervised holds (0, 0) and (0, 1); the t-test needs the same two or more pairs
        sup = [f"mini,0.9,supervised,s/std,0,{trial},50.0,0,1.000" for trial in range(2)]
        log = tmp_path / "unpaired.csv"
        log.write_text("\n".join(sup + ssl_lines) + "\n", encoding="utf-8")
        assert main(["report", str(log), "--out", str(tmp_path / "r")]) == 1
        assert ("cell 'TBST' on 'mini' must hold the same two or more (fold, trial) pairs"
                in capsys.readouterr().err)
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("field, value", [(1, "nan"), (1, "inf"), (1, "1.0"), (1, "-0.5"),
                                              (6, "nan"), (6, "-inf"), (8, "nan"),
                                              (6, "1e200"), (6, "-0.5"), (6, "100.5")])
    def test_non_finite_log_value_exit_1(self, tmp_path, capsys, field, value):
        lines = [f"mini,0.9,{alg},s/std,0,{trial},{50.0 + trial},0,1.000"
                 for alg in ("supervised", "TBST") for trial in range(2)]
        parts = lines[3].split(",")
        parts[field] = value
        log = tmp_path / "bad.csv"
        log.write_text("\n".join(lines[:3] + [",".join(parts)]) + "\n", encoding="utf-8")
        assert main(["report", str(log), "--out", str(tmp_path / "r")]) == 1
        assert "bad.csv:4: need a rate in [0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_non_utf8_spec_exit_2_before_training(self, tmp_path, data_file, capsys):
        spec = write_spec(tmp_path, data_file, "[study s]\nrates = 0.9\nalgorithms = supervised\n")
        spec.write_bytes(spec.read_bytes() + b"# \xff\n")
        assert main(["run", str(spec), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {spec}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_non_utf8_log_exit_1(self, tmp_path, capsys):
        log = tmp_path / "bad.csv"
        log.write_bytes(b"mini,0.9,supervised,s/std,0,0,50.0,0,1.000\n\xff\n")
        assert main(["report", str(log), "--out", str(tmp_path / "r")]) == 1
        assert f"error: {log}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_corrupt_log_exit_1(self, tmp_path, capsys):
        log = tmp_path / "bad.csv"
        log.write_text("not,a,log\n", encoding="utf-8")
        assert main(["report", str(log), "--out", str(tmp_path / "r")]) == 1
        assert ":1:" in capsys.readouterr().err

    def test_out_dir_from_env(self, tmp_path, data_file, monkeypatch):
        spec = write_spec(tmp_path, data_file,
                          "[study s]\nrates = 0.9\nalgorithms = supervised\n"
                          "include_oracle = false\n")
        env_out = tmp_path / "envout"
        monkeypatch.setenv("PROXYSSL_OUT", str(env_out))
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(spec)]) == 0
        assert (env_out / "run_log.csv").exists()
