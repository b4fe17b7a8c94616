"""The benchmark's hooks into the package.

``perfbench/child.py`` times a command by rebinding the functions its
``LAYERS`` name and by wrapping ``cli.run_grid`` as
``hooked(grid, jobs=1, progress=None)``. ``perfbench/run.py`` fails a traced
pass in which a layer of ``EXPECTED_LAYERS`` recorded no call. A refactor
that breaks any of these fails here, before it fails the benchmark. The
modules are only read, never edited.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import proxyssl
from proxyssl import cli
from proxyssl.dataset import save_csv
from proxyssl.synthetic import make_blobs

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CHILD = PERFBENCH / "child.py"


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def child():
    return load(CHILD, "perfbench_child")


def test_every_traced_layer_resolves(child):
    for _, mod_name, fn_name, _ in child.LAYERS:
        module = importlib.import_module(f"proxyssl.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"proxyssl.{mod_name}.{fn_name}"


def test_run_through_the_progress_wrapper(child, tmp_path, monkeypatch):
    data = tmp_path / "mini.csv"
    save_csv(make_blobs("mini", n=60, d=4, n_classes=2, separation=4.0, seed=1), data)
    spec = tmp_path / "exp.ini"
    spec.write_text(f"[global]\ndatasets = {data}\nn_folds = 2\nn_seeds = 1\nepochs = 1\n"
                    "[study a]\nrates = 0.5\nmax_iterations = 1\nalgorithms = TBST\n"
                    "[study b]\nrates = 0.5\nalgorithms = supervised\ninclude_oracle = false\n",
                    encoding="utf-8")
    recorder = child.Recorder()
    monkeypatch.setattr(cli, "run_grid", recorder.with_progress(cli.run_grid))
    out = tmp_path / "out"
    assert cli.main(["run", str(spec), "--out", str(out)]) == 0
    # Oracle, Supervised and TBST of study a, two folds each; b's Supervised repeats a's
    assert len((out / "run_log.csv").read_text().splitlines()) == 8
    assert len(recorder.completions) == 6


def test_traced_commands_reach_every_expected_layer(tmp_path):
    data = tmp_path / "mini.csv"
    save_csv(make_blobs("mini", n=60, d=4, n_classes=2, separation=4.0, seed=1), data)
    spec = tmp_path / "exp.ini"
    spec.write_text(f"[global]\ndatasets = {data}\nn_folds = 2\nn_seeds = 1\nepochs = 1\n"
                    "[study a]\nrates = 0.5\nmax_iterations = 1\nalgorithms = TBST, TT\n",
                    encoding="utf-8")
    src = str(Path(proxyssl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    calls = {}
    for k, command in enumerate([["validate", str(data)],
                                 ["run", str(spec), "--out", str(tmp_path / "out")],
                                 ["report", str(tmp_path / "out" / "run_log.csv"),
                                  "--out", str(tmp_path / "rep")]]):
        result = tmp_path / f"trace{k}.json"
        subprocess.run([sys.executable, str(CHILD), "trace", str(result), "--", *command],
                       env=env, cwd=tmp_path, check=True, capture_output=True, timeout=120)
        for layer, _caller, n, *_ in json.loads(result.read_text(encoding="utf-8"))["stats"]:
            calls[layer] = calls.get(layer, 0) + n
    expected = load(PERFBENCH / "run.py", "perfbench_run").EXPECTED_LAYERS
    missing = [layer for kind in ("grid", "ingest") for layer in expected[kind]
               if not calls.get(layer)]
    assert missing == []
