"""Tests of the benchmark itself, on the smoke size of each workload.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(tmp_path, *args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, "--work-dir", str(tmp_path)],
        capture_output=True, text=True, cwd=HERE.parent, timeout=170)


def test_benchmark_json_lists_what_run_py_measures():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == run.PER_LAYER
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.KIND)
    assert all(set(sizes) == set(run.KIND) for sizes in run.SIZES.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.KIND))
def test_smoke_prints_every_metric_with_its_unit(tmp_path, workload, trace):
    proc = bench(tmp_path, "--workload", workload, "--seed", "0", "--seconds", "0",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(l.startswith(f"{m['name']} ") and l.endswith(f" {m['unit']}")
                   for l in lines[:-1]), m["name"]
        # no end-to-end metric may be 0, nor any per-layer metric of a layer
        # that the workload exercises; the others read 0
        if not trace or m["name"].rsplit(".", 1)[0] in run.EXPECTED_LAYERS[run.KIND[workload]]:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    assert (tmp_path / f"{workload}-smoke-seed0-trace{trace}" / "machine.json").is_file()


def _grid_outputs(tmp_path):
    """`run` and `report` output dirs of the smoke serial grid."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    prep = run.prepare_grid(run.SIZES["smoke"]["grid_d768_serial"], 0, inputs)
    out_run, out_rep = tmp_path / "run", tmp_path / "report"
    assert run.run_child("phase", ["run", prep["spec"], "--out", str(out_run)],
                         tmp_path, "run").rc == 0
    assert run.run_child("phase", ["report", str(out_run / "run_log.csv"),
                                   "--out", str(out_rep)], tmp_path, "report").rc == 0
    return out_run, out_rep


def test_corrupted_log_or_table_is_caught(tmp_path):
    out_run, out_rep = _grid_outputs(tmp_path)
    assert run.tables_match(out_run, out_rep)
    log_path = out_run / "run_log.csv"
    log = log_path.read_text(encoding="utf-8")
    pinned = json.loads((HERE / "fingerprints.json").read_text())["grid_d768_serial"]["smoke"]
    assert run.log_fingerprint(log) == pinned["0"]

    # one accuracy changed: the fingerprint moves and so do the rebuilt tables
    fields = log.splitlines()[-1].split(",")
    fields[6] = repr(float(fields[6]) + 40.0)
    bad_log = "\n".join(log.splitlines()[:-1] + [",".join(fields)]) + "\n"
    assert run.log_fingerprint(bad_log) != pinned["0"]
    log_path.write_text(bad_log, encoding="utf-8")
    out_bad = tmp_path / "report-bad"
    assert run.run_child("phase", ["report", str(log_path), "--out", str(out_bad)],
                         tmp_path, "bad").rc == 0
    assert not run.tables_match(out_run, out_bad)

    # only wall_ms changed: the fingerprint does not move
    fields = log.splitlines()[0].split(",")
    fields[8] = "1.000"
    assert run.log_fingerprint(",".join(fields) + "\n" + "\n".join(log.splitlines()[1:]) + "\n") \
        == pinned["0"]

    # one table file edited
    table = sorted(out_rep.glob("table_*.txt"))[0]
    table.write_text(table.read_text(encoding="utf-8").replace(".", ",", 1), encoding="utf-8")
    assert not run.tables_match(out_run, out_rep)


def test_tracer_rebinds_functions_imported_by_name(tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    prep = run.prepare_grid(run.SIZES["smoke"]["grid_d768_serial"], 0, inputs)
    child = run.run_child("trace", ["run", prep["spec"], "--out", str(tmp_path / "out")],
                          tmp_path, "trace")
    assert child.rc == 0
    rebound = set(child.result["rebound"])
    for name in ("engine.fit", "engine.predict", "engine.forward", "engine.init_model",
                 "protocol.run_algorithm", "protocol.run_supervised",
                 "protocol.make_semi_split", "specfile.load_csv", "cli.run_grid",
                 "cli.parse_spec", "classifier.loss_and_grads"):
        assert f"proxyssl.{name}" in rebound, name
    # calls made through those names are attributed to their callers
    assert child.layer("classifier.fit", ("engine.run",))[0] == 0
    assert child.layer("classifier.fit")[0] > 0
    assert child.layer("dataset.load_csv", ("specfile.parse_spec",))[0] == 0


def test_pinned_fingerprint_mismatch_counts_as_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "pinned_fingerprints",
                        lambda: {"grid_d768_serial": {"smoke": {"0": "0" * 64}}})
    checks = run.Checks()
    run.measure("grid_d768_serial", "smoke", 0, 0, 0, tmp_path, checks)
    assert checks.failed == 1 and checks.attempted > 1


def test_corrupted_ingest_report_is_caught(tmp_path):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    prep = run.prepare_ingest(run.SIZES["smoke"]["ingest_report"], 0, inputs)
    out = tmp_path / "report"
    assert run.run_child("phase", ["report", prep["log"], "--out", str(out)],
                         tmp_path, "report").rc == 0
    expected = run.expected_cells(prep["records"])
    assert run.cells_match(expected, run.reported_cells(out))
    marks = {mark for _, mark in expected.values()}
    assert {"better", "none"} <= marks or {"worse", "none"} <= marks

    csv = sorted(out.glob("table_*.csv"))[0]
    header, first, *rest = csv.read_text(encoding="utf-8").splitlines()
    study, rate, row, ds, mean, mark = first.split(",")
    moved = ",".join([study, rate, row, ds, f"{float(mean) + 0.02:.2f}", mark])
    csv.write_text("\n".join([header, moved, *rest]) + "\n", encoding="utf-8")
    assert not run.cells_match(expected, run.reported_cells(out))


def test_unexercised_layer_fails_the_traced_run_loudly():
    stats = [[layer, "", 1, 0.1, 0.1, 0] for layer in run.EXPECTED_LAYERS["ingest"]]
    complete = run.Child(0, 1.0, 1.0, {"stats": stats}, "", "")
    run.require_layers([complete], "ingest")
    partial = run.Child(0, 1.0, 1.0, {"stats": stats[1:]}, "", "")
    with pytest.raises(SystemExit, match=run.EXPECTED_LAYERS["ingest"][0]):
        run.require_layers([partial], "ingest")


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid_d768_serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
