"""The benchmark's hooks into the package.

``perfbench/child.py`` times a command by rebinding the functions its
``LAYERS`` name and by wrapping ``cli.run_grid`` as
``hooked(grid, jobs=1, progress=None)``. A refactor that breaks either fails
here, before it fails the benchmark. The module is only read, never edited.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from proxyssl import cli
from proxyssl.dataset import save_csv
from proxyssl.synthetic import make_blobs

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


@pytest.fixture(scope="module")
def child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
